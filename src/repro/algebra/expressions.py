"""Logical algebra expression trees.

Queries are represented as immutable trees of operator nodes.  The rewrite
laws of the paper are implemented as transformations over these trees
(:mod:`repro.laws`), the optimizer searches over them
(:mod:`repro.optimizer`), and the evaluator interprets them directly against
a :class:`~repro.algebra.catalog.Catalog` or a plain mapping of relation
names to :class:`~repro.relation.relation.Relation` values.

Every node knows its output schema *statically* (leaf nodes carry their
schema), so rules can check their schema-level preconditions without
touching any data.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.algebra.predicates import Predicate
from repro.errors import ExpressionError, SchemaError
from repro.relation import aggregates as agg_functions
from repro.relation.relation import Relation
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = [
    "Expression",
    "RelationRef",
    "LiteralRelation",
    "Project",
    "Select",
    "Rename",
    "GroupBy",
    "AggregateSpec",
    "Union",
    "Intersection",
    "Difference",
    "Product",
    "ThetaJoin",
    "NaturalJoin",
    "SemiJoin",
    "AntiJoin",
    "LeftOuterJoin",
    "SmallDivide",
    "GreatDivide",
]

DatabaseLike = Mapping[str, Relation]


class Expression:
    """Base class for all logical operator nodes.

    Subclasses are immutable; rewrites always build new trees via
    :meth:`with_children` or the node constructors.
    """

    #: Cached output schema, signature and hash, computed on first access.
    _schema: Optional[Schema] = None
    _sig: Optional[tuple] = None
    _hash: Optional[int] = None

    # ------------------------------------------------------------------
    # tree structure
    # ------------------------------------------------------------------
    @property
    def children(self) -> tuple["Expression", ...]:
        """The input expressions of this node (empty for leaves)."""
        raise NotImplementedError

    def with_children(self, *children: "Expression") -> "Expression":
        """Return a copy of this node with the given children."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # schema and evaluation
    # ------------------------------------------------------------------
    def _infer_schema(self) -> Schema:
        raise NotImplementedError

    @property
    def schema(self) -> Schema:
        """The output schema of this expression."""
        if self._schema is None:
            self._schema = self._infer_schema()
        return self._schema

    def evaluate(self, database: DatabaseLike) -> Relation:
        """Evaluate the expression against ``database`` (name → relation)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # traversal helpers used by the rewriter
    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Expression"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def transform_bottom_up(self, fn) -> "Expression":
        """Rebuild the tree bottom-up, applying ``fn`` to every node.

        ``fn`` receives a node whose children have already been transformed
        and returns a replacement node (or the node unchanged).
        """
        new_children = tuple(child.transform_bottom_up(fn) for child in self.children)
        node = self if new_children == self.children else self.with_children(*new_children)
        return fn(node)

    def relation_names(self) -> frozenset[str]:
        """Names of all base relations referenced by the expression."""
        names = set()
        for node in self.walk():
            if isinstance(node, RelationRef):
                names.add(node.name)
        return frozenset(names)

    def size(self) -> int:
        """Number of operator nodes in the tree."""
        return sum(1 for _ in self.walk())

    def contains_division(self) -> bool:
        """True if a small or great divide occurs anywhere in the tree."""
        return any(isinstance(node, (SmallDivide, GreatDivide)) for node in self.walk())

    # ------------------------------------------------------------------
    # canonicalization and fingerprints (implemented in algebra.canonical)
    # ------------------------------------------------------------------
    def canonical(self) -> "Expression":
        """The rename-minimized canonical form of this expression.

        SQL-translated and fluent-built trees for the same query normalize
        to the same canonical tree; see :mod:`repro.algebra.canonical`.
        """
        from repro.algebra.canonical import canonicalize

        return canonicalize(self)

    def fingerprint(self) -> str:
        """Stable hex digest of the canonical form (prepared-plan cache key)."""
        from repro.algebra.canonical import expression_fingerprint

        return expression_fingerprint(self)

    # ------------------------------------------------------------------
    # value semantics and rendering
    # ------------------------------------------------------------------
    def _signature(self) -> tuple:
        """This node's structural signature, nesting each child's
        :meth:`_cached_signature`; every subclass defines it."""
        raise NotImplementedError

    def _cached_signature(self) -> tuple:
        """:meth:`_signature`, computed once per node (nodes are immutable).

        A child's cached tuple is nested by reference, so building a tree's
        signature touches each node once and comparing two trees that share
        a subtree skips it on identity.
        """
        signature = self._sig
        if signature is None:
            signature = self._sig = self._signature()
        return signature

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Expression):
            return self._cached_signature() == other._cached_signature()
        return NotImplemented

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._cached_signature())
        return value

    def __getstate__(self) -> dict[str, Any]:
        # A str hash is salted per process: a pickled copy recomputes it.
        return {name: value for name, value in vars(self).items() if name != "_hash"}

    def to_text(self) -> str:
        """Compact single-line rendering, e.g. ``project[a](divide(r1, r2))``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_text()

    def pretty(self, indent: int = 0) -> str:
        """Multi-line indented rendering of the operator tree."""
        pad = "  " * indent
        label = self._pretty_label()
        lines = [f"{pad}{label}"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def _pretty_label(self) -> str:
        return self.to_text() if not self.children else self.__class__.__name__


# ----------------------------------------------------------------------
# leaves
# ----------------------------------------------------------------------
class RelationRef(Expression):
    """A reference to a named base relation with a declared schema."""

    def __init__(self, name: str, attributes: AttributeNames) -> None:
        if not name:
            raise ExpressionError("relation reference needs a nonempty name")
        self.name = name
        self._declared = as_schema(attributes)

    @property
    def children(self) -> tuple[Expression, ...]:
        return ()

    def with_children(self, *children: Expression) -> "RelationRef":
        if children:
            raise ExpressionError("RelationRef has no children")
        return self

    def _infer_schema(self) -> Schema:
        return self._declared

    def evaluate(self, database: DatabaseLike) -> Relation:
        try:
            relation = database[self.name]
        except KeyError:
            raise ExpressionError(f"unknown relation {self.name!r} in database") from None
        if relation.schema.name_set != self._declared.name_set:
            raise SchemaError(
                f"relation {self.name!r} has schema {relation.schema.names!r} but the query "
                f"declared {self._declared.names!r}"
            )
        return relation

    def _signature(self) -> tuple:
        return ("ref", self.name, self._declared.name_set)

    def to_text(self) -> str:
        return self.name

    def _pretty_label(self) -> str:
        return f"{self.name}{list(self._declared.names)}"


class LiteralRelation(Expression):
    """An inline constant relation (used for one-tuple relations ``(t)``)."""

    def __init__(self, relation: Relation, label: str = "literal") -> None:
        self.relation = relation
        self.label = label

    @property
    def children(self) -> tuple[Expression, ...]:
        return ()

    def with_children(self, *children: Expression) -> "LiteralRelation":
        if children:
            raise ExpressionError("LiteralRelation has no children")
        return self

    def _infer_schema(self) -> Schema:
        return self.relation.schema

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.relation

    def _signature(self) -> tuple:
        return ("literal", self.relation)

    def to_text(self) -> str:
        return f"{self.label}<{len(self.relation)}>"


# ----------------------------------------------------------------------
# unary operators
# ----------------------------------------------------------------------
class Project(Expression):
    """Projection ``π_A(child)``."""

    def __init__(self, child: Expression, attributes: AttributeNames) -> None:
        self.child = child
        self.attributes = as_schema(attributes)

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, *children: Expression) -> "Project":
        (child,) = children
        return Project(child, self.attributes)

    def _infer_schema(self) -> Schema:
        self.child.schema.require(self.attributes, "projection")
        return self.attributes

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.child.evaluate(database).project(self.attributes)

    def _signature(self) -> tuple:
        return ("project", self.attributes.name_set, self.child._cached_signature())

    def to_text(self) -> str:
        return f"project[{', '.join(self.attributes.names)}]({self.child.to_text()})"

    def _pretty_label(self) -> str:
        return f"Project[{', '.join(self.attributes.names)}]"


class Select(Expression):
    """Selection ``σ_p(child)``."""

    def __init__(self, child: Expression, predicate: Predicate) -> None:
        if not isinstance(predicate, Predicate):
            raise ExpressionError(
                "Select requires a Predicate AST node (repro.algebra.predicates); "
                "plain callables cannot be analysed by the rewrite rules"
            )
        self.child = child
        self.predicate = predicate

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, *children: Expression) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def _infer_schema(self) -> Schema:
        missing = self.predicate.attributes - self.child.schema.name_set
        if missing:
            raise SchemaError(
                f"selection predicate references unknown attributes {sorted(missing)!r}"
            )
        return self.child.schema

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.child.evaluate(database).select(self.predicate)

    def _signature(self) -> tuple:
        return ("select", self.predicate, self.child._cached_signature())

    def to_text(self) -> str:
        return f"select[{self.predicate!r}]({self.child.to_text()})"

    def _pretty_label(self) -> str:
        return f"Select[{self.predicate!r}]"


class Rename(Expression):
    """Renaming ``ρ(child)``."""

    def __init__(self, child: Expression, mapping: Mapping[str, str]) -> None:
        self.child = child
        self.mapping = dict(mapping)

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, *children: Expression) -> "Rename":
        (child,) = children
        return Rename(child, self.mapping)

    def _infer_schema(self) -> Schema:
        return self.child.schema.rename(self.mapping)

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.child.evaluate(database).rename(self.mapping)

    def _signature(self) -> tuple:
        return ("rename", tuple(sorted(self.mapping.items())), self.child._cached_signature())

    def to_text(self) -> str:
        renames = ", ".join(f"{old}->{new}" for old, new in sorted(self.mapping.items()))
        return f"rename[{renames}]({self.child.to_text()})"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate of a :class:`GroupBy`: ``function(attribute) → output``.

    ``function`` is one of ``count``, ``count_distinct``, ``sum``, ``min``,
    ``max``, ``avg``, ``collect_set``; ``attribute`` may be ``None`` only for
    ``count`` (meaning ``count(*)``).
    """

    function: str
    attribute: Optional[str]
    output: str

    _FACTORIES = {
        "count": agg_functions.count,
        "count_distinct": agg_functions.count_distinct,
        "sum": agg_functions.sum_of,
        "min": agg_functions.min_of,
        "max": agg_functions.max_of,
        "avg": agg_functions.avg_of,
        "collect_set": agg_functions.collect_set,
    }

    def __post_init__(self) -> None:
        if self.function not in self._FACTORIES:
            raise ExpressionError(f"unknown aggregate function {self.function!r}")
        if self.attribute is None and self.function != "count":
            raise ExpressionError(f"aggregate {self.function!r} requires an input attribute")

    def build(self):
        """Return the ``(label, fn)`` pair for :meth:`Relation.group_by`."""
        factory = self._FACTORIES[self.function]
        if self.function == "count" and self.attribute is None:
            return factory()
        return factory(self.attribute)

    def to_text(self) -> str:
        inner = "*" if self.attribute is None else self.attribute
        return f"{self.function}({inner})->{self.output}"


class GroupBy(Expression):
    """Grouping ``Gγ_F(child)`` with structural aggregate specifications."""

    def __init__(
        self,
        child: Expression,
        grouping: AttributeNames,
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        self.child = child
        self.grouping = as_schema(grouping)
        self.aggregates = tuple(aggregates)
        if not self.aggregates:
            raise ExpressionError("GroupBy requires at least one aggregate")

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def with_children(self, *children: Expression) -> "GroupBy":
        (child,) = children
        return GroupBy(child, self.grouping, self.aggregates)

    def _infer_schema(self) -> Schema:
        self.child.schema.require(self.grouping, "group by")
        for spec in self.aggregates:
            if spec.attribute is not None:
                self.child.schema.require([spec.attribute], f"aggregate {spec.to_text()}")
        return Schema(self.grouping.names + tuple(spec.output for spec in self.aggregates))

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.child.evaluate(database).group_by(
            self.grouping, {spec.output: spec.build() for spec in self.aggregates}
        )

    def _signature(self) -> tuple:
        return ("group", self.grouping.name_set, self.aggregates, self.child._cached_signature())

    def to_text(self) -> str:
        aggs = ", ".join(spec.to_text() for spec in self.aggregates)
        return f"group[{', '.join(self.grouping.names)}; {aggs}]({self.child.to_text()})"


# ----------------------------------------------------------------------
# binary operators
# ----------------------------------------------------------------------
class _Binary(Expression):
    """Common plumbing for binary operator nodes."""

    _symbol = "?"

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, *children: Expression) -> "Expression":
        left, right = children
        return self.__class__(left, right)

    def _signature(self) -> tuple:
        return (self._symbol, self.left._cached_signature(), self.right._cached_signature())

    def to_text(self) -> str:
        return f"{self._symbol}({self.left.to_text()}, {self.right.to_text()})"

    def _pretty_label(self) -> str:
        return self.__class__.__name__


class _SameSchemaBinary(_Binary):
    """Binary operators that require identical attribute sets."""

    def _infer_schema(self) -> Schema:
        if self.left.schema != self.right.schema:
            raise SchemaError(
                f"{self._symbol}: schemas differ: {self.left.schema.names!r} vs "
                f"{self.right.schema.names!r}"
            )
        return self.left.schema


class Union(_SameSchemaBinary):
    """Set union."""

    _symbol = "union"

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.left.evaluate(database).union(self.right.evaluate(database))


class Intersection(_SameSchemaBinary):
    """Set intersection."""

    _symbol = "intersect"

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.left.evaluate(database).intersection(self.right.evaluate(database))


class Difference(_SameSchemaBinary):
    """Set difference."""

    _symbol = "difference"

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.left.evaluate(database).difference(self.right.evaluate(database))


class Product(_Binary):
    """Cartesian product (disjoint attribute sets)."""

    _symbol = "product"

    def _infer_schema(self) -> Schema:
        if not self.left.schema.is_disjoint(self.right.schema):
            shared = self.left.schema.intersection(self.right.schema).names
            raise SchemaError(f"product: both sides contain attributes {shared!r}")
        return self.left.schema.union(self.right.schema)

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.left.evaluate(database).product(self.right.evaluate(database))


class ThetaJoin(Expression):
    """Theta-join ``left ⋈_θ right`` over disjoint attribute sets."""

    def __init__(self, left: Expression, right: Expression, predicate: Predicate) -> None:
        if not isinstance(predicate, Predicate):
            raise ExpressionError("ThetaJoin requires a Predicate AST node")
        self.left = left
        self.right = right
        self.predicate = predicate

    @property
    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, *children: Expression) -> "ThetaJoin":
        left, right = children
        return ThetaJoin(left, right, self.predicate)

    def _infer_schema(self) -> Schema:
        if not self.left.schema.is_disjoint(self.right.schema):
            shared = self.left.schema.intersection(self.right.schema).names
            raise SchemaError(f"theta-join: both sides contain attributes {shared!r}")
        combined = self.left.schema.union(self.right.schema)
        missing = self.predicate.attributes - combined.name_set
        if missing:
            raise SchemaError(f"theta-join predicate references unknown attributes {sorted(missing)!r}")
        return combined

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.left.evaluate(database).theta_join(
            self.right.evaluate(database), self.predicate
        )

    def _signature(self) -> tuple:
        left, right = self.left._cached_signature(), self.right._cached_signature()
        return ("theta_join", self.predicate, left, right)

    def to_text(self) -> str:
        return f"theta_join[{self.predicate!r}]({self.left.to_text()}, {self.right.to_text()})"

    def _pretty_label(self) -> str:
        return f"ThetaJoin[{self.predicate!r}]"


class NaturalJoin(_Binary):
    """Natural join on the shared attributes."""

    _symbol = "join"

    def _infer_schema(self) -> Schema:
        return self.left.schema.union(self.right.schema)

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.left.evaluate(database).natural_join(self.right.evaluate(database))


class SemiJoin(_Binary):
    """Left semi-join ``left ⋉ right``."""

    _symbol = "semijoin"

    def _infer_schema(self) -> Schema:
        return self.left.schema

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.left.evaluate(database).semijoin(self.right.evaluate(database))


class AntiJoin(_Binary):
    """Left anti-semi-join ``left ▷ right``."""

    _symbol = "antijoin"

    def _infer_schema(self) -> Schema:
        return self.left.schema

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.left.evaluate(database).antijoin(self.right.evaluate(database))


class LeftOuterJoin(_Binary):
    """Left outer join padding missing partners with NULL."""

    _symbol = "outerjoin"

    def _infer_schema(self) -> Schema:
        return self.left.schema.union(self.right.schema)

    def evaluate(self, database: DatabaseLike) -> Relation:
        return self.left.evaluate(database).left_outer_join(self.right.evaluate(database))


class SmallDivide(_Binary):
    """Small divide ``dividend ÷ divisor`` (Section 2.1 of the paper)."""

    _symbol = "divide"

    def _infer_schema(self) -> Schema:
        dividend, divisor = self.left.schema, self.right.schema
        if len(divisor) == 0:
            raise SchemaError("small divide: divisor schema must be nonempty")
        if not divisor.is_subset(dividend):
            extra = divisor.difference(dividend).names
            raise SchemaError(
                f"small divide: divisor attributes {extra!r} missing from dividend schema"
            )
        quotient = dividend.difference(divisor)
        if len(quotient) == 0:
            raise SchemaError("small divide: quotient schema A must be nonempty")
        return quotient

    def evaluate(self, database: DatabaseLike) -> Relation:
        from repro.division.small import small_divide

        return small_divide(self.left.evaluate(database), self.right.evaluate(database))


class GreatDivide(_Binary):
    """Great divide ``dividend ÷* divisor`` (Section 2.2 of the paper)."""

    _symbol = "great_divide"

    def _infer_schema(self) -> Schema:
        dividend, divisor = self.left.schema, self.right.schema
        shared = dividend.intersection(divisor)
        if len(shared) == 0:
            raise SchemaError("great divide: dividend and divisor must share attributes (B)")
        quotient_a = dividend.difference(shared)
        if len(quotient_a) == 0:
            raise SchemaError("great divide: dividend-only attribute set A must be nonempty")
        return quotient_a.union(divisor.difference(shared))

    def evaluate(self, database: DatabaseLike) -> Relation:
        from repro.division.great import great_divide

        return great_divide(self.left.evaluate(database), self.right.evaluate(database))
