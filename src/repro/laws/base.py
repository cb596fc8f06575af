"""Rewrite-rule framework.

Every algebraic law of the paper is packaged as a :class:`RewriteRule`:

* ``matches(expression, context)`` — does the law's left-hand side pattern
  (including its preconditions) apply to this node?
* ``apply(expression, context)`` — produce the right-hand side.
* ``sides(...)`` — build *both* sides of the equivalence from its
  constituent parts; the property-based tests evaluate the two sides on
  random databases and require equality.

Some laws have **data-dependent preconditions** (e.g. condition ``c1`` of
Law 2 or the disjointness requirement of Law 7).  In a real optimizer these
would be established from constraints, partitioning metadata, or statistics;
here a rule may consult the :class:`RewriteContext`:

* ``context.catalog`` gives declared keys/foreign keys (Laws 9, 11, 12);
* ``context.database`` (if provided) lets the rule *verify* a semantic
  precondition on the operands' values — rules that need this return
  ``False`` from ``matches`` when no database is available, so the rewriter
  stays conservative.  :meth:`RewriteContext.evaluate` answers a base table
  or a literal with the catalog's own relation value (and its cached
  dictionary encoding); any other operand is planned by a physical planner
  of the context's own and run by the physical executor, so a condition
  reads code columns or a tuple block and no ``Row`` is built.  Within one
  :meth:`~repro.optimizer.rewriter.Rewriter.rewrite` call each such operand
  runs once: the rewriter opens a memo on the context at the start and
  drops it at the end, so no value outlives the query that asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.algebra.catalog import Catalog
from repro.algebra.expressions import DatabaseLike, Expression, LiteralRelation, RelationRef
from repro.errors import RewriteError

__all__ = ["RewriteContext", "RewriteRule", "Rewrite"]


@dataclass
class RewriteContext:
    """Information a rule may use to establish its preconditions."""

    #: Relation contents, used to verify data-dependent preconditions.
    database: Optional[DatabaseLike] = None
    #: Declared constraints (keys, foreign keys).
    catalog: Optional[Catalog] = None
    #: When True, rules must not evaluate data even if a database is present.
    static_only: bool = False
    #: Plans composite operands; built over ``database`` on first use.  Not
    #: the query's planner, whose ``decisions`` are the query plan's own.
    _planner: Any = field(default=None, repr=False, compare=False)
    #: operand → value, while a rewrite runs (see the module docstring).
    _operands: Optional[dict[Expression, Any]] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_catalog(cls, catalog: Catalog, static_only: bool = False) -> "RewriteContext":
        """A context whose database *and* constraints come from one catalog."""
        return cls(database=catalog, catalog=catalog, static_only=static_only)

    @property
    def can_inspect_data(self) -> bool:
        """True if rules are allowed to evaluate subexpressions on data."""
        return self.database is not None and not self.static_only

    def evaluate(self, expression: Expression):
        """The value of an operand, for a data-dependent precondition check."""
        if not self.can_inspect_data:
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
        True when ``matches`` may need to inspect relation contents.
    conditions:
        The paper's named applicability conditions this rule establishes
        before rewriting (e.g. ``("c1",)``), or an explanatory phrase for
        structural-only laws.  Every concrete law must declare it — an
        empty tuple means "unconditional", and leaving the attribute
        undeclared is an engine-contract violation (RP403) because the
        reader can no longer tell "unconditional" from "forgot to check".
    """

    name: str = "abstract_rule"
    paper_reference: str = ""
    description: str = ""
    requires_data: bool = False
    conditions: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # interface
    # ------------------------------------------------------------------
    def matches(self, expression: Expression, context: Optional[RewriteContext] = None) -> bool:
        """Return True if the rule (pattern + preconditions) applies here."""
        raise NotImplementedError

    def apply(self, expression: Expression, context: Optional[RewriteContext] = None) -> Expression:
        """Rewrite ``expression``; raises :class:`RewriteError` if it does not match."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def try_apply(
        self, expression: Expression, context: Optional[RewriteContext] = None
    ) -> Optional[Expression]:
        """Apply the rule if it matches, else return None."""
        if self.matches(expression, context):
            return self.apply(expression, context)
        return None

    def _reject(self, expression: Expression, reason: str = "") -> RewriteError:
        detail = f": {reason}" if reason else ""
        return RewriteError(
            f"{self.name} ({self.paper_reference or 'no reference'}) does not apply to "
            f"{expression.to_text()}{detail}"
        )

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.name!r} ({self.paper_reference})>"


def ensure_context(context: Optional[RewriteContext]) -> RewriteContext:
    """Normalize an optional context argument."""
    return context if context is not None else RewriteContext()
