"""Predicate abstract syntax for selections and theta-joins.

The rewrite laws reason about predicates *syntactically*: Law 3 applies only
to a predicate ``p(A)`` over quotient attributes, Law 4 to a predicate
``p(B)`` over divisor attributes, Example 1 needs the negation ``¬p(B)``.
Representing predicates as a small AST (instead of opaque Python callables)
gives the rules access to the referenced attribute set, to structural
equality, and to negation, while still being directly evaluable on rows.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping
from typing import Any, Callable

from repro.errors import PredicateError
from repro.relation.row import Row

__all__ = [
    "Predicate",
    "Comparison",
    "AttributeRef",
    "Literal",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "FalsePredicate",
    "TRUE",
    "FALSE",
    "attr",
    "lit",
    "equals",
    "not_equals",
    "less_than",
    "less_equal",
    "greater_than",
    "greater_equal",
    "conjunction",
    "disjunction",
]


# ----------------------------------------------------------------------
# scalar terms
# ----------------------------------------------------------------------
class Term:
    """A scalar term: an attribute reference or a literal constant."""

    def evaluate(self, row: Row) -> Any:
        raise NotImplementedError

    @property
    def attributes(self) -> frozenset[str]:
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Term":
        raise NotImplementedError


class AttributeRef(Term):
    """Reference to an attribute of the input row."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise PredicateError(f"attribute reference must be a nonempty string, got {name!r}")
        self.name = name

    def evaluate(self, row: Row) -> Any:
        return row[self.name]

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset({self.name})

    def rename(self, mapping: Mapping[str, str]) -> "AttributeRef":
        return AttributeRef(mapping.get(self.name, self.name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AttributeRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("attr", self.name))

    def __repr__(self) -> str:
        return self.name


class Literal(Term):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, row: Row) -> Any:
        return self.value

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Literal":
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("lit", self.value))

    def __repr__(self) -> str:
        return repr(self.value)


def attr(name: str) -> AttributeRef:
    """Shorthand for :class:`AttributeRef`."""
    return AttributeRef(name)


def lit(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def _as_term(value: Any) -> Term:
    if isinstance(value, Term):
        return value
    return Literal(value)


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
class Predicate:
    """Base class of the predicate AST.

    Predicates behave like callables on rows (so they can be passed straight
    to :meth:`Relation.select`), expose the set of referenced attributes,
    and support structural equality, renaming and negation.
    """

    def evaluate(self, row: Row) -> bool:
        raise NotImplementedError

    def __call__(self, row: Row) -> bool:
        return self.evaluate(row)

    @property
    def attributes(self) -> frozenset[str]:
        """The attribute names referenced by this predicate."""
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        """Return the predicate with attribute references renamed."""
        raise NotImplementedError

    def negate(self) -> "Predicate":
        """Return the logical negation (pushes through Not)."""
        return Not(self)

    # convenience combinators -------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return self.negate()


#: Comparison symbol → function (the physical ``Filter`` evaluates with these too).
_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_NEGATED_OPERATOR = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class Comparison(Predicate):
    """A binary comparison between two scalar terms."""

    __slots__ = ("left", "operator", "right")

    def __init__(self, left: Any, operator: str, right: Any) -> None:
        if operator not in _OPERATORS:
            raise PredicateError(f"unknown comparison operator {operator!r}")
        self.left = _as_term(left)
        self.operator = operator
        self.right = _as_term(right)

    def evaluate(self, row: Row) -> bool:
        return _OPERATORS[self.operator](self.left.evaluate(row), self.right.evaluate(row))

    @property
    def attributes(self) -> frozenset[str]:
        return self.left.attributes | self.right.attributes

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        return Comparison(self.left.rename(mapping), self.operator, self.right.rename(mapping))

    def negate(self) -> "Comparison":
        return Comparison(self.left, _NEGATED_OPERATOR[self.operator], self.right)

    @property
    def is_equi_comparison(self) -> bool:
        """True for an equality between two attribute references."""
        return (
            self.operator == "="
            and isinstance(self.left, AttributeRef)
            and isinstance(self.right, AttributeRef)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and other.left == self.left
            and other.operator == self.operator
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("cmp", self.left, self.operator, self.right))

    def __repr__(self) -> str:
        return f"{self.left!r} {self.operator} {self.right!r}"


class And(Predicate):
    """Conjunction of two or more predicates."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Predicate) -> None:
        if len(operands) < 2:
            raise PredicateError("And requires at least two operands")
        self.operands = tuple(operands)

    def evaluate(self, row: Row) -> bool:
        return all(operand.evaluate(row) for operand in self.operands)

    @property
    def attributes(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for operand in self.operands:
            result |= operand.attributes
        return result

    def rename(self, mapping: Mapping[str, str]) -> "And":
        return And(*(operand.rename(mapping) for operand in self.operands))

    def negate(self) -> Predicate:
        return Or(*(operand.negate() for operand in self.operands))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and other.operands == self.operands

    def __hash__(self) -> int:
        return hash(("and", self.operands))

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(op) for op in self.operands) + ")"


class Or(Predicate):
    """Disjunction of two or more predicates."""

    __slots__ = ("operands",)

    def __init__(self, *operands: Predicate) -> None:
        if len(operands) < 2:
            raise PredicateError("Or requires at least two operands")
        self.operands = tuple(operands)

    def evaluate(self, row: Row) -> bool:
        return any(operand.evaluate(row) for operand in self.operands)

    @property
    def attributes(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for operand in self.operands:
            result |= operand.attributes
        return result

    def rename(self, mapping: Mapping[str, str]) -> "Or":
        return Or(*(operand.rename(mapping) for operand in self.operands))

    def negate(self) -> Predicate:
        return And(*(operand.negate() for operand in self.operands))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and other.operands == self.operands

    def __hash__(self) -> int:
        return hash(("or", self.operands))

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(op) for op in self.operands) + ")"


class Not(Predicate):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Predicate) -> None:
        self.operand = operand

    def evaluate(self, row: Row) -> bool:
        return not self.operand.evaluate(row)

    @property
    def attributes(self) -> frozenset[str]:
        return self.operand.attributes

    def rename(self, mapping: Mapping[str, str]) -> "Not":
        return Not(self.operand.rename(mapping))

    def negate(self) -> Predicate:
        return self.operand

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("not", self.operand))

    def __repr__(self) -> str:
        return f"NOT ({self.operand!r})"


class TruePredicate(Predicate):
    """The always-true predicate (θ ≡ true turns a theta-join into ×)."""

    def evaluate(self, row: Row) -> bool:
        return True

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "TruePredicate":
        return self

    def negate(self) -> Predicate:
        return FALSE

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash("true")

    def __repr__(self) -> str:
        return "TRUE"


class FalsePredicate(Predicate):
    """The always-false predicate."""

    def evaluate(self, row: Row) -> bool:
        return False

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "FalsePredicate":
        return self

    def negate(self) -> Predicate:
        return TRUE

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FalsePredicate)

    def __hash__(self) -> int:
        return hash("false")

    def __repr__(self) -> str:
        return "FALSE"


TRUE = TruePredicate()
FALSE = FalsePredicate()


# ----------------------------------------------------------------------
# convenience constructors
# ----------------------------------------------------------------------
def equals(left: Any, right: Any) -> Comparison:
    """``left = right``."""
    return Comparison(left, "=", right)


def not_equals(left: Any, right: Any) -> Comparison:
    """``left != right``."""
    return Comparison(left, "!=", right)


def less_than(left: Any, right: Any) -> Comparison:
    """``left < right``."""
    return Comparison(left, "<", right)


def less_equal(left: Any, right: Any) -> Comparison:
    """``left <= right``."""
    return Comparison(left, "<=", right)


def greater_than(left: Any, right: Any) -> Comparison:
    """``left > right``."""
    return Comparison(left, ">", right)


def greater_equal(left: Any, right: Any) -> Comparison:
    """``left >= right``."""
    return Comparison(left, ">=", right)


def conjunction(predicates: Iterable[Predicate]) -> Predicate:
    """Combine predicates with AND (TRUE for an empty iterable)."""
    items = [p for p in predicates if not isinstance(p, TruePredicate)]
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(*items)


def disjunction(predicates: Iterable[Predicate]) -> Predicate:
    """Combine predicates with OR (FALSE for an empty iterable)."""
    items = [p for p in predicates if not isinstance(p, FalsePredicate)]
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(*items)


def attribute_equality(pairs: Iterable[tuple[str, str]]) -> Predicate:
    """Conjunction of attribute equalities, e.g. the ON clause of DIVIDE BY."""
    return conjunction(equals(attr(left), attr(right)) for left, right in pairs)
