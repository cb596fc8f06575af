"""Rewrite-rule framework.

Every algebraic law of the paper is a :class:`RewriteRule` that states the
law once, as the paper does: an equivalence ``lhs = rhs`` that holds under
stated conditions.  A rule class writes four things:

* ``lhs(<operands>)`` — the left side, built with the node constructors;
* ``rhs(<operands>)`` — the right side over the same operands;
* ``holds(context, <operands>)`` — the conditions, cheapest first: schema,
  then catalog keys, then data (an unconditional law leaves it out);
* ``conditions`` — the text of those conditions, which a refused
  :meth:`RewriteRule.apply` quotes.

Everything else is derived.  Once per class, ``lhs`` is called on
placeholder operands named after its parameters — a :class:`Hole`, or a
:class:`PredicateHole` for a parameter named ``predicate…`` — and the tree
it returns is the rule's *pattern* (schemas are lazy, so building it checks
nothing).  :meth:`RewriteRule.bind` unifies a node with the pattern: the
same node class, children pairwise, predicates bound or equal, and an
operand named twice bound to equal subtrees.  ``matches`` is ``bind`` then
``holds``; ``apply`` is ``rhs`` over the bindings; ``sides(*operands)``
builds both sides for the property tests.  Laws 11 and 12, whose right
side depends on a cardinality, take the context in ``rhs`` and their
``sides`` returns the left side only.

Some conditions are **data-dependent** (e.g. condition ``c1`` of Law 2 or
the disjointness requirement of Law 7).  In a real optimizer these would be
established from constraints, partitioning metadata, or statistics; here
``holds`` may consult the :class:`RewriteContext`:

* ``context.catalog`` gives declared keys/foreign keys (Laws 9, 11, 12);
* ``context.evaluate(operand)`` gives an operand's value.  A context
  without a database refuses with a :class:`RewriteError`, which the
  derived methods read as "does not hold", so the rewriter stays
  conservative.  A base table or a literal answers with the catalog's own
  relation value (and its cached dictionary encoding); any other operand is
  planned by a physical planner of the context's own and run by the
  physical executor, so a condition reads code columns or a tuple block and
  no ``Row`` is built.  Within one
  :meth:`~repro.optimizer.rewriter.Rewriter.rewrite` call each such operand
  runs once: the rewriter opens a memo on the context at the start and
  drops it at the end, so no value outlives the query that asked for it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.algebra.catalog import Catalog
from repro.algebra.expressions import (
    DatabaseLike,
    Expression,
    LiteralRelation,
    RelationRef,
    Select,
    ThetaJoin,
)
from repro.algebra.predicates import Predicate
from repro.errors import RewriteError

__all__ = ["RewriteContext", "RewriteRule", "Rewrite", "Hole", "PredicateHole"]


@dataclass
class RewriteContext:
    """Information a rule may use to establish its preconditions."""

    #: Relation contents, used to verify data-dependent preconditions.
    database: Optional[DatabaseLike] = None
    #: Declared constraints (keys, foreign keys).
    catalog: Optional[Catalog] = None
    #: Plans composite operands; built over ``database`` on first use.  Not
    #: the query's planner, whose ``decisions`` are the query plan's own.
    _planner: Any = field(default=None, repr=False, compare=False)
    #: operand → value, while a rewrite runs (see the module docstring).
    _operands: Optional[dict[Expression, Any]] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_catalog(cls, catalog: Catalog) -> "RewriteContext":
        """A context whose database *and* constraints come from one catalog."""
        return cls(database=catalog, catalog=catalog)

    def evaluate(self, expression: Expression):
        """The value of an operand, for a data-dependent precondition check."""
        if self.database is None:
            raise RewriteError(
                "this precondition is data-dependent and the rewrite context has no database"
            )
        if isinstance(expression, (RelationRef, LiteralRelation)):
            return expression.evaluate(self.database)  # contract: evaluate-ok (a leaf's own value)
        memo = self._operands
        value = None if memo is None else memo.get(expression)
        if value is None:
            if self._planner is None:
                from repro.optimizer.planner import PhysicalPlanner

                self._planner = PhysicalPlanner(self.database)
            value = self._planner.plan(expression).execute()
            if memo is not None:
                memo[expression] = value
        return value


@dataclass(frozen=True)
class Rewrite:
    """The outcome of one successful rule application."""

    rule: str
    before: Expression
    after: Expression
    note: str = ""


class Hole(Expression):
    """A named operand of a rule's pattern: binds any subtree."""

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def children(self) -> tuple[Expression, ...]:
        return ()

    def _signature(self) -> tuple:
        return ("hole", self.name)

    def to_text(self) -> str:
        return self.name


class PredicateHole(Predicate):
    """A named predicate of a rule's pattern: binds any predicate."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


def _parts(node: Expression) -> tuple:
    """What a pattern node binds: its children, then the predicate of a σ or
    ⋈_θ.  Every left side is built from such nodes (÷, ÷*, σ, ⋈_θ, ∪, ∩,
    −, ×, ⋉), whose state is nothing else."""
    if isinstance(node, (Select, ThetaJoin)):
        return (*node.children, node.predicate)
    return node.children


def _compile(pattern: Any) -> Any:
    """``pattern`` as nested ``(class, parts)``; a hole is its name, a
    predicate that is no hole stands for itself."""
    if isinstance(pattern, (Hole, PredicateHole)):
        return pattern.name
    if isinstance(pattern, Predicate):
        return pattern
    return type(pattern), tuple(_compile(part) for part in _parts(pattern))


def _unify(compiled: Any, node: Any, bound: dict[str, Any]) -> bool:
    """Extend ``bound`` so that the compiled pattern under it is ``node``."""
    cls, parts = compiled
    if type(node) is not cls:
        return False
    for part, value in zip(parts, _parts(node)):
        if type(part) is str:
            seen = bound.setdefault(part, value)
            if seen is not value and seen != value:
                return False
        elif type(part) is tuple:
            if not _unify(part, value, bound):
                return False
        elif part != value:
            return False
    return True


class RewriteRule:
    """Base class for all law implementations.

    Class attributes
    ----------------
    name:
        Machine-readable identifier, e.g. ``"law_03_selection_pushdown"``.
    paper_reference:
        Where the equivalence appears in the paper, e.g. ``"Law 3"``.
    description:
        One-sentence statement of the equivalence.
    requires_data:
        True when ``holds`` may need to inspect relation contents.
    conditions:
        What ``holds`` checks, in words (e.g. ``"σ_p(r2) ≠ ∅ (verified on
        data)"``).  Every concrete law must declare it — an empty tuple
        means "unconditional", and leaving the attribute undeclared is an
        engine-contract violation (RP403) because the reader can no longer
        tell "unconditional" from "forgot to check".
    operands, pattern, root:
        Derived: the names of ``lhs``'s parameters, ``lhs`` built over
        holes of those names, and the node class at its root (the rewriter
        offers a node only the rules of its own class).
    """

    name: str = "abstract_rule"
    paper_reference: str = ""
    description: str = ""
    requires_data: bool = False
    conditions: tuple[str, ...] = ()
    operands: tuple[str, ...] = ()
    root: type = Expression
    pattern: Optional[Expression] = None
    _compiled: Any = None
    _rhs_reads_data: bool = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.operands = tuple(inspect.signature(cls.lhs).parameters)
        cls.pattern = cls.lhs(
            *(PredicateHole(n) if n.startswith("predicate") else Hole(n) for n in cls.operands)
        )
        cls._compiled = _compile(cls.pattern)
        cls.root = type(cls.pattern)
        cls._rhs_reads_data = "context" in inspect.signature(cls.rhs).parameters

    # ------------------------------------------------------------------
    # the statement of a law
    # ------------------------------------------------------------------
    @staticmethod
    def lhs(*operands: Any) -> Expression:
        """The left side over the given operands."""
        raise NotImplementedError

    @staticmethod
    def rhs(*operands: Any) -> Expression:
        """The right side over the same operands."""
        raise NotImplementedError

    @staticmethod
    def holds(context: RewriteContext, **operands: Any) -> bool:
        """True when the conditions hold for these operands (default: none)."""
        return True

    # ------------------------------------------------------------------
    # derived
    # ------------------------------------------------------------------
    @classmethod
    def sides(cls, *operands: Any):
        """``(lhs, rhs)`` over the operands; the left side alone when the
        right side needs the data (Laws 11 and 12)."""
        if cls._rhs_reads_data:
            return cls.lhs(*operands)
        return cls.lhs(*operands), cls.rhs(*operands)

    def bind(self, expression: Expression) -> Optional[dict[str, Any]]:
        """The operands that make ``lhs`` equal to ``expression``, or None."""
        bound: dict[str, Any] = {}
        return bound if _unify(self._compiled, expression, bound) else None

    def _holds(self, context: RewriteContext, bindings: dict[str, Any]) -> bool:
        try:
            return self.holds(context, **bindings)
        except RewriteError:  # a data check without a database
            return False

    def matches(self, expression: Expression, context: Optional[RewriteContext] = None) -> bool:
        """True if ``expression`` is a left side and the conditions hold."""
        bindings = self.bind(expression)
        return bindings is not None and self._holds(ensure_context(context), bindings)

    def try_apply(
        self, expression: Expression, context: Optional[RewriteContext] = None
    ) -> Optional[Expression]:
        """The right side if the rule matches, else None (one condition check)."""
        bindings = self.bind(expression)
        if bindings is None:
            return None
        context = ensure_context(context)
        if not self._holds(context, bindings):
            return None
        if self._rhs_reads_data:
            bindings["context"] = context
        return self.rhs(**bindings)

    def apply(self, expression: Expression, context: Optional[RewriteContext] = None) -> Expression:
        """Rewrite ``expression``; raises :class:`RewriteError` if it does not match."""
        rewritten = self.try_apply(expression, context)
        if rewritten is None:
            requires = f" when {'; '.join(self.conditions)}" if self.conditions else ""
            raise RewriteError(
                f"{self.name} ({self.paper_reference}) does not apply to "
                f"{expression.to_text()}: it rewrites {self.description}{requires}"
            )
        return rewritten

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.name!r} ({self.paper_reference})>"


def ensure_context(context: Optional[RewriteContext]) -> RewriteContext:
    """Normalize an optional context argument."""
    return context if context is not None else RewriteContext()
