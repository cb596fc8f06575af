"""The optimizer facade: rewrite, cost, plan, execute.

:class:`Optimizer` wires the pieces together the way the paper's
introduction describes a rule-based optimizer: algebraic rewrite rules at
the logical level (the laws), then a mapping of logical operators to
physical operators, optionally followed by execution with statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.algebra.catalog import Catalog
from repro.algebra.expressions import Expression
from repro.laws.base import RewriteContext, RewriteRule
from repro.optimizer.cost import CostModel, CostReport
from repro.optimizer.physical_cost import PlanDecision
from repro.optimizer.planner import PhysicalPlanner, PlannerOptions
from repro.optimizer.rewriter import CostBasedRewriter, HeuristicRewriter, RewriteReport
from repro.optimizer.statistics import StatisticsCatalog, TableStatistics
from repro.physical.base import PhysicalOperator
from repro.physical.compile import CompilationReport
from repro.physical.executor import ExecutionResult, execute_plan

__all__ = ["OptimizationResult", "Optimizer"]


@dataclass
class OptimizationResult:
    """Everything the optimizer produced for one query."""

    original: Expression
    rewritten: Expression
    rewrite_report: RewriteReport
    original_cost: CostReport
    rewritten_cost: CostReport
    plan: PhysicalOperator
    #: Cost-based algorithm decisions made while building ``plan``.
    decisions: tuple[PlanDecision, ...] = ()
    #: Segment-compilation report (``None`` when compilation was off).
    compilation: Optional[CompilationReport] = None

    @property
    def rules_fired(self) -> list[str]:
        """Names of the rewrite rules that fired."""
        return self.rewrite_report.rules_fired

    @property
    def estimated_speedup(self) -> float:
        """Ratio of estimated costs (original / rewritten)."""
        if self.rewritten_cost.total_cost == 0:
            return float("inf")
        return self.original_cost.total_cost / self.rewritten_cost.total_cost


class Optimizer:
    """Rule-based optimizer with an optional cost-based search mode."""

    def __init__(
        self,
        catalog: Catalog,
        rules: Optional[Sequence[RewriteRule]] = None,
        planner_options: Optional[PlannerOptions] = None,
        cost_based: bool = False,
        allow_data_inspection: bool = True,
        memory_budget_mb: Optional[float] = None,
    ) -> None:
        self.catalog = catalog
        self.statistics = StatisticsCatalog.from_database(catalog)
        self.cost_model = CostModel(self.statistics)
        context = RewriteContext.from_catalog(catalog, static_only=not allow_data_inspection)
        if cost_based:
            self._rewriter = CostBasedRewriter(self.cost_model, rules=rules, context=context)
        else:
            self._rewriter = HeuristicRewriter(rules=rules, context=context)
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

    def cost_report(self, expression: Expression) -> CostReport:
        """Phase 2: estimated cost and output cardinality of an expression."""
        return self.cost_model.report(expression)

    def plan(self, expression: Expression) -> PhysicalOperator:
        """Phase 3: physical plan for ``expression`` exactly as given.

        The planner prices the applicable algorithms per division/join and
        picks the cheapest; the decisions of the most recent call are
        available as :attr:`planner_decisions`.
        """
        return self._planner.plan(expression)

    @property
    def planner_decisions(self) -> tuple[PlanDecision, ...]:
        """Algorithm decisions recorded by the most recent planning call."""
        return tuple(self._planner.decisions)

    @property
    def planner_compilation(self) -> Optional[CompilationReport]:
        """Compilation report of the most recent planning call."""
        return self._planner.compilation

    def analyze(self, names: Optional[Sequence[str]] = None) -> dict[str, TableStatistics]:
        """Recollect table statistics from the catalog's current relations.

        The ANALYZE path: refreshes cardinalities, distinct counts, min/max
        and scan-order sortedness for ``names`` (default: every table) in
        the shared :class:`StatisticsCatalog`, so subsequent planning uses
        the real data profile.  Returns the freshly gathered statistics.
        """
        return self.statistics.analyze(self.catalog, names)

    def optimize(
        self,
        expression: Expression,
        rewrite_report: Optional[RewriteReport] = None,
    ) -> OptimizationResult:
        """Run all phases: rewrite ``expression`` and produce a physical plan.

        Pass a precomputed ``rewrite_report`` (e.g. from a prepared-plan
        cache) to skip the rewrite phase.
        """
        if rewrite_report is None:
            rewrite_report = self.rewrite(expression)
        rewritten = rewrite_report.result
        plan = self.plan(rewritten)
        return OptimizationResult(
            original=expression,
            rewritten=rewritten,
            rewrite_report=rewrite_report,
            original_cost=self.cost_report(expression),
            rewritten_cost=self.cost_report(rewritten),
            plan=plan,
            decisions=self.planner_decisions,
            compilation=self.planner_compilation,
        )

    def execute(self, expression: Expression) -> ExecutionResult:
        """Optimize and execute ``expression`` against the catalog."""
        return execute_plan(self.optimize(expression).plan)

    def plan_without_rewriting(self, expression: Expression) -> PhysicalOperator:
        """Physical plan for the *unrewritten* expression (baseline in benches)."""
        return self.plan(expression)
