"""Physical cost model: the optimizer's one cost model.

It prices whole plans (:meth:`PhysicalCostModel.plan_cost`), which is how
a rewritten expression is compared with the one it came from, and says
where the session's memory budget puts an exchange
(:meth:`PhysicalCostModel.exchange_partitions`).  It chooses no
algorithm: the planner maps each logical operator to one physical
operator.

Each physical operator class carries a declarative
:class:`~repro.physical.base.PhysicalProperties` descriptor; the model
combines those coefficients with the cardinality estimator's quantities
(input sizes, quotient-candidate counts, divisor-group counts).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.algebra.expressions import (
    Expression,
    GreatDivide,
    LiteralRelation,
    Project,
    RelationRef,
    Rename,
    Select,
    SmallDivide,
)
from repro.optimizer.statistics import CardinalityEstimator, StatisticsCatalog, TableStatistics
from repro.physical import PhysicalOperator
from repro.physical.parallel import PartitionedDivision, PartitionedHashJoin
from repro.physical.parallel.exchange import MAX_PLANNED_PARTITIONS, HashPartitionExchange

__all__ = ["PhysicalCostModel"]


class PhysicalCostModel:
    """Prices plans from operator descriptors + statistics.

    ``memory_budget_mb`` is the one thing a price does not decide: where a
    partitionable operator's input is estimated above it,
    :meth:`exchange_partitions` says how many partitions the planner's
    exchange splits it into.
    """

    def __init__(
        self, statistics: StatisticsCatalog, memory_budget_mb: Optional[float] = None
    ) -> None:
        self._statistics = statistics
        self._estimator = CardinalityEstimator(statistics)
        self._memory_budget_mb = memory_budget_mb

    def exchange_partitions(self, expression: Expression) -> int:
        """Partitions for an exchange over ``expression``: 1 (no exchange)
        where its estimate fits the session's memory budget, else enough
        for each partition to fit it — at least 2, at most
        :data:`~repro.physical.parallel.exchange.MAX_PLANNED_PARTITIONS`.

        The budget is converted to tuples by the exchange's own estimate
        (:meth:`HashPartitionExchange.budget_in_tuples`), fed each
        attribute's maximum from the statistics in place of the sample the
        exchange takes from its first chunk (``None`` where none is known).
        """
        if self._memory_budget_mb is None:
            return 1
        statistics, names = self._base_attributes(expression, expression.schema.names)
        maxima = {} if statistics is None else statistics.maxima
        sample = tuple(maxima.get(name) for name in names)
        budget = HashPartitionExchange.budget_in_tuples(self._memory_budget_mb, [sample])
        cardinality = self._estimator.cardinality(expression)
        if cardinality <= budget:
            return 1
        return min(max(2, math.ceil(cardinality / budget)), MAX_PLANNED_PARTITIONS)

    # ------------------------------------------------------------------
    # whole plans
    # ------------------------------------------------------------------
    def plan_cost(self, plan: PhysicalOperator, expression: Expression) -> float:
        """The estimated price of ``plan``, built by the planner for ``expression``.

        The sum over the plan's operators, each its own descriptor over the
        estimated sizes of its logical node's inputs and output; a division
        also over its quotient candidates and divisor groups.  An exchange
        the budget put around a division or a join is priced as the
        algorithm it runs.  The planner maps every logical node to one
        operator built over the plans of the node's inputs
        (:attr:`PhysicalOperator.inputs`), so plan and expression are
        walked side by side, each node estimated once per call.
        """
        with self._estimator._memoized():
            return self._plan_cost(plan, expression)

    def _plan_cost(self, plan: PhysicalOperator, expression: Expression) -> float:
        estimate = self._estimator.estimate
        sizes = [estimate(child) for child in expression.children]
        left = sizes[0].cardinality if sizes else estimate(expression).cardinality
        quantities = {
            "left": left,
            "right": sum(size.cardinality for size in sizes[1:]),
            "candidates": left,
            "divisor_groups": 1.0,
        }
        if isinstance(expression, (SmallDivide, GreatDivide)):
            shared = expression.left.schema.intersection(expression.right.schema)
            a_names = expression.left.schema.difference(shared).names
            c_names = expression.right.schema.difference(shared).names
            quantities["candidates"] = self._group_count(sizes[0], a_names)
            quantities["divisor_groups"] = self._group_count(sizes[1], c_names)
        operator = type(plan)
        if isinstance(plan, (PartitionedDivision, PartitionedHashJoin)):
            operator = plan.operator_class
        own = self._price(operator, quantities, estimate(expression).cardinality)
        return own + sum(
            self._plan_cost(child, node) for child, node in zip(plan.inputs, expression.children)
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _price(
        self, operator: type[PhysicalOperator], quantities: dict[str, float], output: float
    ) -> float:
        props = operator.properties
        inputs = quantities["left"] + quantities["right"]
        cost = props.startup_cost + props.per_input_cost * inputs + props.per_output_cost * output
        if not props.streaming:
            # Blocking operators materialize their result before the first
            # tuple flows downstream — charged as half a touch per output.
            cost += 0.5 * output
        if props.sort_factor:
            sort_n = max(quantities["left"], 2.0)
            cost += props.sort_factor * sort_n * math.log2(sort_n)
        if props.pairwise_factor:
            first, second = props.pairwise_operands
            cost += props.pairwise_factor * quantities[first] * quantities[second]
        return cost

    def _base_attributes(
        self, expression: Expression, names
    ) -> tuple[Optional[TableStatistics], tuple[str, ...]]:
        """The base table's statistics behind ``expression`` and what
        ``names`` are called there.

        The lookup traverses the streaming wrappers a base scan typically sits under — selection,
        projection and renaming (with the names mapped back to the base
        attributes).  Anywhere else there is no base table: ``None``.
        """
        names = tuple(names)
        while isinstance(expression, (Select, Project, Rename)):
            if isinstance(expression, Rename):
                inverse = {new: old for old, new in expression.mapping.items()}
                names = tuple(inverse.get(name, name) for name in names)
            expression = expression.child
        if isinstance(expression, RelationRef):
            return self._statistics.table(expression.name), names
        if isinstance(expression, LiteralRelation):
            return self._estimator.literal_statistics(expression.relation), names
        return None, names

    def _group_count(self, estimate, names) -> float:
        """Estimated number of distinct groups over ``names`` (≥ 1)."""
        if not len(names):
            return 1.0
        groups = math.prod(estimate.distinct(name) for name in names)
        return max(1.0, min(groups, estimate.cardinality or 1.0))

    @property
    def estimator(self) -> CardinalityEstimator:
        """The underlying cardinality estimator (shared with callers)."""
        return self._estimator

