"""Mapping of logical expressions to physical plans.

This is the second kind of transformation rule the paper describes in its
introduction: logical operators are mapped to physical operators (join →
hash-join, small divide → hash-division, …).  The mapping is one physical
operator per logical operator: :class:`~repro.physical.HashDivision` for a
small divide, :class:`~repro.physical.NestedLoopsGreatDivision` for a great
divide and :class:`~repro.physical.HashJoin` for a natural join.  Hash
division is linear whatever the estimates say (Graefe & Cole, TODS 1995),
so no estimate can steer it wrong; both divisions answer a base block from
its containment bitmap.  :class:`PlannerOptions` forces another algorithm
per operator kind, the escape hatch the algorithm-comparison benchmarks
use.

The session's memory budget is the one reason a plan is partitioned: a
division, natural join or grouped aggregation whose partitioned input is
estimated above it runs its algorithm behind a hash-partition exchange
(ARCHITECTURE Invariant 6), split into as many partitions as
:meth:`~repro.optimizer.physical_cost.PhysicalCostModel.exchange_partitions`
derives from the estimate.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

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
from repro.optimizer.physical_cost import PhysicalCostModel
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
from repro.physical.parallel import (
    PartitionedAggregate,
    PartitionedDivision,
    PartitionedHashJoin,
    PartitionedOperator,
)
from repro.relation.relation import Relation
from repro.storage.scan import StoredScan
from repro.storage.store import StoredRelation

__all__ = ["PlannerOptions", "PhysicalPlanner"]


@dataclass(frozen=True)
class PlannerOptions:
    """Forced physical algorithms for the logical→physical mapping.

    ``None`` (the default) keeps the operator kind's one algorithm: hash
    division, nested-loops great division, hash join.  A string forces that
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
        #: the operator is planned behind an exchange.
        self._memory_budget_mb = memory_budget_mb
        self._cost_model: Optional[PhysicalCostModel] = None

    def plan(self, expression: Expression) -> PhysicalOperator:
        """Build the physical plan for ``expression``.

        Raises :class:`PlanningError` here — at prepare time — when an
        algorithm override names an unknown algorithm.
        """
        self.validate_options()
        if self._statistics is None:
            # No injected statistics (standalone planner): re-snapshot the
            # database per planning call so catalog mutations between plans
            # cannot leave the exchange sized by stale statistics.
            # (The Optimizer injects its shared, analyze()-refreshed
            # catalog, so it never pays this re-collection.)
            self._cost_model = None
            return self._plan(expression)
        # Each node is estimated once per call, however often it is asked.
        with self.cost_model.estimator._memoized():
            return self._plan(expression)

    def validate_options(self) -> None:
        """Check every forced algorithm against its kind's registry."""
        for attribute, registry, kind in _ALGORITHM_CHOICES:
            forced = getattr(self.options, attribute)
            if forced is not None and forced not in registry:
                raise PlanningError(
                    f"PlannerOptions.{attribute}: unknown {kind} algorithm {forced!r}; "
                    f"choose from {sorted(registry)} (or None for the default)"
                )

    @property
    def cost_model(self) -> PhysicalCostModel:
        """The physical cost model (statistics are gathered lazily)."""
        if self._cost_model is None:
            statistics = self._statistics
            if statistics is None:
                statistics = StatisticsCatalog.from_database(self.database)
            self._cost_model = PhysicalCostModel(statistics, self._memory_budget_mb)
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
            algorithm = self.options.small_divide_algorithm or "hash"
            return self._plan_division(expression, "small", algorithm)
        if isinstance(expression, GreatDivide):
            algorithm = self.options.great_divide_algorithm or "nested_loops"
            return self._plan_division(expression, "great", algorithm)
        raise PlanningError(f"no physical mapping for {type(expression).__name__}")

    # ------------------------------------------------------------------
    # operators that may run behind an exchange
    # ------------------------------------------------------------------
    def _plan_division(self, expression, kind: str, algorithm: str) -> PhysicalOperator:
        left = self._plan(expression.left)
        right = self._plan(expression.right)
        partitions = self.cost_model.exchange_partitions(expression.left)
        if partitions > 1:
            return self._budgeted(PartitionedDivision(left, right, algorithm, kind, partitions))
        registry = SMALL_DIVIDE_ALGORITHMS if kind == "small" else GREAT_DIVIDE_ALGORITHMS
        operator_class = registry[algorithm]
        if operator_class._reads_bitmap:
            # A stored dividend, whole or under one single-attribute filter,
            # is answered from the table's containment bitmap: one chunk,
            # whose pages are read only if the operator sweeps after all.
            scan = left.children[0] if isinstance(left, Filter) else left
            if isinstance(scan, StoredScan) and (
                scan is left or len(expression.left.predicate.attributes) == 1
            ):
                scan.set_one_block()
        return operator_class(left, right)

    def _plan_natural_join(self, expression: NaturalJoin) -> PhysicalOperator:
        algorithm = self.options.join_algorithm or "hash"
        left = self._plan(expression.left)
        right = self._plan(expression.right)
        partitions = 1
        if len(expression.left.schema.intersection(expression.right.schema)):
            # A cross product has no join key to partition on.
            partitions = max(map(self.cost_model.exchange_partitions, expression.children))
        if partitions > 1:
            return self._budgeted(PartitionedHashJoin(left, right, algorithm, partitions))
        return JOIN_ALGORITHMS[algorithm](left, right)

    def _plan_group_by(self, expression: GroupBy) -> PhysicalOperator:
        aggregations = {spec.output: spec.build() for spec in expression.aggregates}
        child = self._plan(expression.child)
        if len(expression.grouping):
            # A grand total is one global group; it cannot be partitioned.
            partitions = self.cost_model.exchange_partitions(expression.child)
            if partitions > 1:
                return self._budgeted(
                    PartitionedAggregate(child, expression.grouping, aggregations, partitions)
                )
        return HashAggregate(child, expression.grouping, aggregations)

    def _budgeted(self, exchange: PartitionedOperator) -> PartitionedOperator:
        """An exchange the budget asked for, carrying the budget (so a
        static ``explain`` shows why it is there)."""
        exchange.memory_budget_mb = self._memory_budget_mb
        return exchange
