"""The optimizer facade: rewrite, cost, plan.

:class:`Optimizer` wires the pieces together the way the paper's
introduction describes a rule-based optimizer: algebraic rewrite rules at
the logical level (the laws), then a mapping of logical operators to
physical operators, one per logical operator.  One cost model prices the
plan as a whole.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.algebra.catalog import Catalog
from repro.algebra.expressions import Expression
from repro.laws.base import RewriteContext, RewriteRule
from repro.optimizer.planner import PhysicalPlanner, PlannerOptions
from repro.optimizer.rewriter import Rewriter, RewriteReport
from repro.optimizer.statistics import StatisticsCatalog, TableStatistics
from repro.physical.base import PhysicalOperator

__all__ = ["Optimizer"]


class Optimizer:
    """Rule-based rewriting, then physical planning."""

    def __init__(
        self,
        catalog: Catalog,
        rules: Optional[Sequence[RewriteRule]] = None,
        planner_options: Optional[PlannerOptions] = None,
        allow_data_inspection: bool = True,
        memory_budget_mb: Optional[float] = None,
    ) -> None:
        self.catalog = catalog
        self.statistics = StatisticsCatalog.from_database(catalog)
        # Operands of law preconditions are planned apart from the query.
        operands = PhysicalPlanner(catalog, statistics=self.statistics)
        database = catalog if allow_data_inspection else None
        context = RewriteContext(database, catalog, _planner=operands)
        self._rewriter = Rewriter(rules=rules, context=context)
        self._planner = PhysicalPlanner(
            catalog, planner_options, statistics=self.statistics, memory_budget_mb=memory_budget_mb
        )

    # ------------------------------------------------------------------
    # public API — the pipeline phases, callable separately so that the
    # session layer (repro.api) can cache their outputs independently
    # ------------------------------------------------------------------
    def rewrite(self, expression: Expression) -> RewriteReport:
        """Phase 1: apply the rewrite laws to ``expression``."""
        return self._rewriter.rewrite(expression)

    def cost(self, expression: Expression, plan: Optional[PhysicalOperator] = None) -> float:
        """Phase 2: the estimated price of running ``expression``.

        The price of the plan :meth:`plan` builds for it.  Pass that
        ``plan`` when it is already built; otherwise ``expression`` is
        planned here.
        """
        if plan is None:
            plan = self.plan(expression)
        return self._planner.cost_model.plan_cost(plan, expression)

    #: ``bench/layers.py`` still times phase 2 under this name; the
    #: [benchmark] change that rewrites that file (ROADMAP item 1) deletes it.
    cost_report = cost

    def plan(self, expression: Expression) -> PhysicalOperator:
        """Phase 3: physical plan for ``expression`` exactly as given:
        one physical operator per logical operator."""
        return self._planner.plan(expression)

    #: Always empty: the planner prices no alternatives.  ``bench/layers.py``
    #: still reads it; the [benchmark] change that rewrites that file
    #: (ROADMAP item 1) deletes it.
    planner_decisions: tuple = ()

    #: Always ``None``: plans are not compiled.  ``bench/layers.py`` still
    #: reads it; the [benchmark] change that rewrites that file (ROADMAP
    #: item 1) deletes it together with the ``physical.compile*`` metrics.
    planner_compilation = None

    def analyze(self, names: Optional[Sequence[str]] = None) -> dict[str, TableStatistics]:
        """Recollect table statistics from the catalog's current relations.

        The ANALYZE path: refreshes cardinalities, distinct counts, min/max
        and top frequencies for ``names`` (default: every table) in
        the shared :class:`StatisticsCatalog`, so subsequent planning uses
        the real data profile.  Returns the freshly gathered statistics.
        """
        return self.statistics.analyze(self.catalog, names)
