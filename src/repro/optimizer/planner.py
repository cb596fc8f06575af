"""Cost-driven mapping of logical expressions to physical plans.

This is the second kind of transformation rule the paper describes in its
introduction: logical operators are mapped to physical operators (join →
hash-join, small divide → hash-division, …).  The mapping used to be
rule-driven — one hard-coded default per logical operator — but the paper's
own experiments show that no division algorithm dominates, so the planner
now *enumerates* the applicable algorithms per division (and hash vs
nested-loops per natural join), prices each alternative with the
:class:`~repro.optimizer.physical_cost.PhysicalCostModel` (cardinality
estimates × the operators' declarative cost descriptors, including
interesting-order exploitation for pre-clustered dividends), and picks the
cheapest.  Per-operator-kind overrides in :class:`PlannerOptions` remain as
a forced-choice escape hatch for the algorithm-comparison benchmarks.

Every cost-based (or forced) choice is recorded as a
:class:`~repro.optimizer.physical_cost.PlanDecision` on the chosen operator
and in :attr:`PhysicalPlanner.decisions`, so ``explain()`` can report the
rationale.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Union as TypingUnion

from repro.algebra.expressions import (
    AntiJoin,
    Difference,
    Expression,
    GreatDivide,
    GroupBy,
    Intersection,
    LeftOuterJoin,
    LiteralRelation,
    NaturalJoin,
    Product,
    Project,
    RelationRef,
    Rename,
    Select,
    SemiJoin,
    SmallDivide,
    ThetaJoin,
    Union,
)
from repro.errors import PlanningError
from repro.optimizer.physical_cost import PhysicalCostModel, PlanDecision, decision_for
from repro.optimizer.statistics import StatisticsCatalog
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    JOIN_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    DifferenceOp,
    Filter,
    HashAggregate,
    HashAntiJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    IntersectOp,
    NestedLoopsJoin,
    PhysicalOperator,
    ProductOp,
    ProjectOp,
    RelationScan,
    RenameOp,
    TableScan,
    UnionOp,
)
from repro.physical.compile import CompilationReport, compile_plan
from repro.physical.division import MergeSortDivision
from repro.physical.parallel import (
    PartitionedAggregate,
    PartitionedDivision,
    PartitionedHashJoin,
)
from repro.relation.relation import Relation
from repro.storage.scan import StoredScan
from repro.storage.store import StoredRelation

__all__ = ["PlannerOptions", "PhysicalPlanner"]


@dataclass(frozen=True)
class PlannerOptions:
    """Physical algorithm choices for the logical→physical mapping.

    ``None`` (the default) means *cost-based selection*: the planner prices
    every applicable algorithm and picks the cheapest.  A string forces that
    algorithm for every operator of the kind — the escape hatch the
    algorithm-comparison benchmarks use.  Unknown names are reported (with
    the valid choices for that operator kind) as a :class:`PlanningError`
    when a plan is prepared, not when the options object is built and not
    at execution time.
    """

    #: Small-divide algorithm (``SMALL_DIVIDE_ALGORITHMS``) or ``None``.
    small_divide_algorithm: Optional[str] = None
    #: Great-divide algorithm (``GREAT_DIVIDE_ALGORITHMS``) or ``None``.
    great_divide_algorithm: Optional[str] = None
    #: Natural-join algorithm (``JOIN_ALGORITHMS``) or ``None``.
    join_algorithm: Optional[str] = None
    #: Worker-pool size for partition-parallel execution: an upper bound,
    #: not a request.  ``None``/1 keeps every operator serial; above 1 the
    #: cost model *additionally* prices each algorithm wrapped in a
    #: hash-partition exchange and uses the pool only where the exchange
    #: pays — where an operator's serial work per tuple costs more than
    #: moving the tuple to another process (tuple-at-a-time joins and
    #: aggregates, a quadratic division).  A division on dictionary codes
    #: stays serial at any worker count.
    workers: Optional[int] = None
    #: Hash partitions per exchange (``None`` = same as ``workers``).
    partitions: Optional[int] = None
    #: Segment-compilation mode: ``None``/``"auto"`` lets the planner compile
    #: every fusable segment (the current heuristic — compilation never
    #: loses), ``True``/``"on"`` forces it, ``False``/``"off"`` keeps the
    #: interpreted pipeline.  Unknown values raise :class:`PlanningError` at
    #: prepare time, like the algorithm overrides above.
    compile: TypingUnion[None, bool, str] = None

    def compile_mode(self) -> str:
        """Normalize :attr:`compile` to ``"auto"`` / ``"on"`` / ``"off"``."""
        value = self.compile
        if value is None or value == "auto":
            return "auto"
        if value is True or value == "on":
            return "on"
        if value is False or value == "off":
            return "off"
        raise PlanningError(
            f"PlannerOptions.compile: unknown compile mode {value!r}; "
            "choose from ['auto', 'off', 'on'] (or None/True/False)"
        )


#: (option attribute, registry, human-readable operator kind)
_ALGORITHM_CHOICES = (
    ("small_divide_algorithm", SMALL_DIVIDE_ALGORITHMS, "small divide"),
    ("great_divide_algorithm", GREAT_DIVIDE_ALGORITHMS, "great divide"),
    ("join_algorithm", JOIN_ALGORITHMS, "natural join"),
)


class PhysicalPlanner:
    """Translate a logical expression into an executable physical plan."""

    def __init__(
        self,
        database: Mapping[str, Relation],
        options: Optional[PlannerOptions] = None,
        statistics: Optional[StatisticsCatalog] = None,
        memory_budget_mb: Optional[float] = None,
    ) -> None:
        self.database = database
        self.options = options or PlannerOptions()
        self._statistics = statistics
        #: The session's exchange spill budget: where an input outgrows it
        #: the cost model keeps the exchange (see ``PhysicalCostModel``).
        self._memory_budget_mb = memory_budget_mb
        self._cost_model: Optional[PhysicalCostModel] = None
        #: Algorithm decisions of the most recent :meth:`plan` call.
        self.decisions: list[PlanDecision] = []
        #: Compilation report of the most recent :meth:`plan` call (``None``
        #: when compilation was off).
        self.compilation: Optional[CompilationReport] = None

    def plan(self, expression: Expression) -> PhysicalOperator:
        """Build the physical plan for ``expression``.

        Raises :class:`PlanningError` here — at prepare time — when an
        algorithm override names an unknown algorithm (or compile mode).
        """
        self.validate_options()
        self.decisions = []
        self.compilation = None
        if self._statistics is None:
            # No injected statistics (standalone planner): re-snapshot the
            # database per planning call so catalog mutations between plans
            # cannot leave the cost model pricing with stale statistics.
            # (The Optimizer injects its shared, analyze()-refreshed
            # catalog, so it never pays this re-collection.)
            self._cost_model = None
        plan = self._plan(expression)
        mode = self.options.compile_mode()
        if mode != "off":
            # "auto" and "on" currently coincide: fusing streaming segments
            # never loses, so the heuristic compiles everything fusable.
            self.compilation = compile_plan(plan, mode=mode)
        return plan

    def validate_options(self) -> None:
        """Check every forced algorithm against its kind's registry."""
        for attribute, registry, kind in _ALGORITHM_CHOICES:
            forced = getattr(self.options, attribute)
            if forced is not None and forced not in registry:
                raise PlanningError(
                    f"PlannerOptions.{attribute}: unknown {kind} algorithm {forced!r}; "
                    f"choose from {sorted(registry)} (or None for cost-based selection)"
                )
        for attribute in ("workers", "partitions"):
            value = getattr(self.options, attribute)
            if value is not None and value < 1:
                raise PlanningError(
                    f"PlannerOptions.{attribute} must be at least 1, got {value}"
                )
        self.options.compile_mode()

    @property
    def cost_model(self) -> PhysicalCostModel:
        """The physical cost model (statistics are gathered lazily)."""
        if self._cost_model is None:
            statistics = self._statistics
            if statistics is None:
                statistics = StatisticsCatalog.from_database(self.database)
            self._cost_model = PhysicalCostModel(
                statistics,
                workers=self.options.workers or 1,
                partitions=self.options.partitions,
                memory_budget_mb=self._memory_budget_mb,
            )
        return self._cost_model

    # ------------------------------------------------------------------
    # recursive translation
    # ------------------------------------------------------------------
    def _plan(self, expression: Expression) -> PhysicalOperator:
        if isinstance(expression, RelationRef):
            relation = self.database.get(expression.name)
            if isinstance(relation, StoredRelation):
                # Stored tables stream blocks from disk instead of slicing a
                # materialized relation; the table never enters memory whole.
                return StoredScan(relation, expression.name)
            return TableScan(self.database, expression.name)
        if isinstance(expression, LiteralRelation):
            return RelationScan(expression.relation, label=expression.label)
        if isinstance(expression, Project):
            return ProjectOp(self._plan(expression.child), expression.attributes)
        if isinstance(expression, Select):
            child = self._plan(expression.child)
            if (
                isinstance(child, StoredScan)
                and expression.predicate.attributes <= child.schema.name_set
            ):
                # Zone-map pushdown: the Filter keeps exact semantics; the
                # scan merely skips blocks that provably cannot match.
                child.set_skip_predicate(expression.predicate)
            return Filter(child, expression.predicate)
        if isinstance(expression, Rename):
            return RenameOp(self._plan(expression.child), expression.mapping)
        if isinstance(expression, GroupBy):
            return self._plan_group_by(expression)
        if isinstance(expression, Union):
            return UnionOp(self._plan(expression.left), self._plan(expression.right))
        if isinstance(expression, Intersection):
            return IntersectOp(self._plan(expression.left), self._plan(expression.right))
        if isinstance(expression, Difference):
            return DifferenceOp(self._plan(expression.left), self._plan(expression.right))
        if isinstance(expression, Product):
            return ProductOp(self._plan(expression.left), self._plan(expression.right))
        if isinstance(expression, ThetaJoin):
            return NestedLoopsJoin(
                self._plan(expression.left), self._plan(expression.right), expression.predicate
            )
        if isinstance(expression, NaturalJoin):
            return self._plan_natural_join(expression)
        if isinstance(expression, SemiJoin):
            return HashSemiJoin(self._plan(expression.left), self._plan(expression.right))
        if isinstance(expression, AntiJoin):
            return HashAntiJoin(self._plan(expression.left), self._plan(expression.right))
        if isinstance(expression, LeftOuterJoin):
            return HashLeftOuterJoin(self._plan(expression.left), self._plan(expression.right))
        if isinstance(expression, SmallDivide):
            return self._plan_division(
                expression,
                "small divide",
                self.options.small_divide_algorithm,
                self.cost_model.small_divide_alternatives,
            )
        if isinstance(expression, GreatDivide):
            return self._plan_division(
                expression,
                "great divide",
                self.options.great_divide_algorithm,
                self.cost_model.great_divide_alternatives,
            )
        raise PlanningError(f"no physical mapping for {type(expression).__name__}")

    # ------------------------------------------------------------------
    # cost-based operator choice
    # ------------------------------------------------------------------
    def _plan_division(self, expression, kind, forced, alternatives_for) -> PhysicalOperator:
        decision = decision_for(kind, alternatives_for(expression), forced)
        left = self._plan(expression.left)
        right = self._plan(expression.right)
        chosen = decision.chosen
        if chosen.workers > 1:
            operator: PhysicalOperator = PartitionedDivision(
                left,
                right,
                algorithm=chosen.name,
                kind="small" if kind == "small divide" else "great",
                partitions=chosen.partitions,
                workers=chosen.workers,
                assume_clustered=chosen.clustered,
            )
        elif chosen.operator is MergeSortDivision:
            operator = MergeSortDivision(left, right, assume_clustered=chosen.clustered)
        else:
            operator = chosen.operator(left, right)
        return self._record(operator, decision)

    def _plan_natural_join(self, expression: NaturalJoin) -> PhysicalOperator:
        decision = decision_for(
            "natural join",
            self.cost_model.natural_join_alternatives(expression),
            self.options.join_algorithm,
        )
        left = self._plan(expression.left)
        right = self._plan(expression.right)
        chosen = decision.chosen
        if chosen.workers > 1:
            operator: PhysicalOperator = PartitionedHashJoin(
                left,
                right,
                algorithm=chosen.name,
                partitions=chosen.partitions,
                workers=chosen.workers,
            )
        else:
            operator = chosen.operator(left, right)
        return self._record(operator, decision)

    def _plan_group_by(self, expression: GroupBy) -> PhysicalOperator:
        aggregations = {spec.output: spec.build() for spec in expression.aggregates}
        child = self._plan(expression.child)
        if (self.options.workers or 1) > 1 and len(expression.grouping):
            # Parallel sessions cost serial vs partitioned aggregation; the
            # decision is recorded either way so explain() shows the same
            # rationale shape regardless of which variant won.
            decision = decision_for(
                "aggregate", self.cost_model.aggregate_alternatives(expression)
            )
            chosen = decision.chosen
            if chosen.workers > 1:
                operator: PhysicalOperator = PartitionedAggregate(
                    child,
                    expression.grouping,
                    aggregations,
                    partitions=chosen.partitions,
                    workers=chosen.workers,
                    specs=expression.aggregates,
                )
            else:
                operator = HashAggregate(child, expression.grouping, aggregations)
            return self._record(operator, decision)
        return HashAggregate(child, expression.grouping, aggregations)

    def _record(self, operator: PhysicalOperator, decision: PlanDecision) -> PhysicalOperator:
        operator.decision = decision
        self.decisions.append(decision)
        return operator
