"""Physical cost model: the optimizer's one cost model.

It ranks *algorithm* alternatives for a single logical operator — the
paper's observation that no division algorithm dominates (hash,
merge-sort, nested-loops and the algebra simulation each win under
different dividend/divisor shapes) made operational — and prices whole
plans (:meth:`PhysicalCostModel.plan_cost`), which is how a rewritten
expression is compared with the one it came from.

Each physical operator class carries a declarative
:class:`~repro.physical.base.PhysicalProperties` descriptor; the model
combines those coefficients with the cardinality estimator's quantities
(input sizes, quotient-candidate counts, divisor-group counts) and with the
statistics' *interesting order* information: when the dividend's scan order
is already clustered on the quotient attributes, sort-based division is not
charged its sort (and runs in its cheaper streaming mode).

The produced :class:`PlanDecision` objects are attached to the chosen
operators so ``explain()`` can show the rationale — chosen algorithm,
estimated cost, and the costs of the alternatives it beat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.algebra.expressions import (
    Expression,
    GreatDivide,
    LiteralRelation,
    NaturalJoin,
    Project,
    RelationRef,
    Rename,
    Select,
    SmallDivide,
)
from repro.optimizer.statistics import CardinalityEstimator, StatisticsCatalog, TableStatistics
from repro.physical import JOIN_ALGORITHMS, PhysicalOperator
from repro.physical.division import GREAT_DIVIDE_ALGORITHMS, SMALL_DIVIDE_ALGORITHMS
from repro.physical.parallel.exchange import MAX_PLANNED_PARTITIONS, HashPartitionExchange

__all__ = ["PlanAlternative", "PlanDecision", "PhysicalCostModel", "decision_for"]


@dataclass(frozen=True)
class PlanAlternative:
    """One priced algorithm candidate for a logical operator."""

    name: str
    operator: type[PhysicalOperator]
    cost: float
    #: Whether the price assumes (and the operator should exploit) an input
    #: clustered on the grouping attributes.
    clustered: bool = False

    def __lt__(self, other: "PlanAlternative") -> bool:
        return (self.cost, self.name) < (other.cost, other.name)


@dataclass(frozen=True)
class PlanDecision:
    """Why the planner picked one algorithm: the full priced slate.

    ``alternatives`` is sorted cheapest-first and includes the chosen entry;
    ``forced`` marks a per-operator override that bypassed the costing.
    """

    kind: str
    chosen: PlanAlternative
    forced: bool
    alternatives: tuple[PlanAlternative, ...]

    def describe(self) -> str:
        """One-line rationale for EXPLAIN output."""
        chosen = self.chosen
        mode = "forced" if self.forced else "cost-based"
        parts = [f"algorithm={chosen.name} ({mode}, est cost {chosen.cost:.0f}"]
        if chosen.clustered:
            parts.append(", clustered input: sort waived")
        parts.append(")")
        others = [alt for alt in self.alternatives if alt is not chosen]
        if others:
            listed = ", ".join(f"{alt.name}={alt.cost:.0f}" for alt in others)
            parts.append(f"; alternatives: {listed}")
        return "".join(parts)


class PhysicalCostModel:
    """Prices algorithm alternatives from operator descriptors + statistics.

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

    # ------------------------------------------------------------------
    # interesting orders
    # ------------------------------------------------------------------
    def ordered_attributes(self, expression: Expression) -> frozenset[str]:
        """Attributes the expression's *scan order* is sorted on.

        Base tables report the sortedness flags gathered by ``analyze()``;
        order survives the streaming, order-preserving operators (selection,
        renaming, duplicate-eliminating projection — first-seen order) and
        is lost everywhere else.
        """
        if isinstance(expression, RelationRef):
            return self._statistics.table(expression.name).sorted_attributes
        if isinstance(expression, LiteralRelation):
            return self._estimator.literal_statistics(expression.relation).sorted_attributes
        if isinstance(expression, Select):
            return self.ordered_attributes(expression.child)
        if isinstance(expression, Rename):
            inner = self.ordered_attributes(expression.child)
            mapping = expression.mapping
            return frozenset(mapping.get(name, name) for name in inner)
        if isinstance(expression, Project):
            kept = set(expression.schema.names)
            return frozenset(self.ordered_attributes(expression.child) & kept)
        return frozenset()

    def clustered_prefix(self, expression: Expression) -> tuple[str, ...]:
        """The composite lexicographic-sort prefix of the expression's scan.

        Complements :meth:`ordered_attributes`: after
        ``relation.clustered(["a", "b"])`` only ``a`` is globally
        non-decreasing, but the (a, b) *combination* is still contiguous in
        the scan — which is all the streaming merge division needs.
        """
        if isinstance(expression, RelationRef):
            return self._statistics.table(expression.name).lexicographic_prefix
        if isinstance(expression, LiteralRelation):
            return self._estimator.literal_statistics(expression.relation).lexicographic_prefix
        if isinstance(expression, Select):
            return self.clustered_prefix(expression.child)
        if isinstance(expression, Rename):
            mapping = expression.mapping
            return tuple(
                mapping.get(name, name) for name in self.clustered_prefix(expression.child)
            )
        return ()

    # ------------------------------------------------------------------
    # alternatives per logical operator kind
    # ------------------------------------------------------------------
    def small_divide_alternatives(self, expression: SmallDivide) -> list[PlanAlternative]:
        """All small-divide algorithms priced for this dividend/divisor shape."""
        return self._divide_alternatives(
            expression, SMALL_DIVIDE_ALGORITHMS, expression.schema.names, ()
        )

    def great_divide_alternatives(self, expression: GreatDivide) -> list[PlanAlternative]:
        """All great-divide algorithms priced for this shape."""
        shared = expression.left.schema.intersection(expression.right.schema)
        a_names = expression.left.schema.difference(shared).names
        c_names = expression.right.schema.difference(shared).names
        return self._divide_alternatives(expression, GREAT_DIVIDE_ALGORITHMS, a_names, c_names)

    def _divide_alternatives(self, expression, registry, a_names, c_names) -> list[PlanAlternative]:
        """A division's algorithms: ``a_names`` are the quotient candidates'
        attributes (the partition key), ``c_names`` the divisor groups'."""
        dividend = self._estimator.estimate(expression.left)
        divisor = self._estimator.estimate(expression.right)
        quantities = {
            "left": dividend.cardinality,
            "right": divisor.cardinality,
            "candidates": self._group_count(dividend, a_names),
            "divisor_groups": self._group_count(divisor, c_names),
        }
        output = self._estimator.cardinality(expression)
        clustered = self._clustered_on(expression.left, a_names)
        return sorted(
            self._price(name, operator, quantities, output, clustered)
            for name, operator in registry.items()
        )

    def natural_join_alternatives(self, expression: NaturalJoin) -> list[PlanAlternative]:
        """Hash join vs nested loops, priced on the input sizes."""
        left = self._estimator.cardinality(expression.left)
        right = self._estimator.cardinality(expression.right)
        quantities = {"left": left, "right": right, "candidates": left, "divisor_groups": 1.0}
        output = self._estimator.cardinality(expression)
        return sorted(
            self._price(name, operator, quantities, output, clustered=False)
            for name, operator in JOIN_ALGORITHMS.items()
        )

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

        The sum over the plan's operators: a priced choice costs what its
        :class:`PlanDecision` chose, any other operator its own descriptor
        over the estimated sizes of its logical node's inputs and output.
        The planner maps every logical node to one operator built over the
        plans of the node's inputs (:attr:`PhysicalOperator.inputs`), so
        plan and expression are walked side by side, each node estimated
        once per call.
        """
        with self._estimator._memoized():
            return self._plan_cost(plan, expression)

    def _plan_cost(self, plan: PhysicalOperator, expression: Expression) -> float:
        if plan.decision is not None:
            own = plan.decision.chosen.cost
        else:
            cardinality = self._estimator.cardinality
            sizes = [cardinality(child) for child in expression.children]
            left = sizes[0] if sizes else cardinality(expression)
            quantities = {
                "left": left,
                "right": sum(sizes[1:]),
                "candidates": left,
                "divisor_groups": 1.0,
            }
            operator = type(plan)
            own = self._price(
                operator.__name__, operator, quantities, cardinality(expression), clustered=False
            ).cost
        return own + sum(
            self._plan_cost(child, node) for child, node in zip(plan.inputs, expression.children)
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _price(
        self,
        name: str,
        operator: type[PhysicalOperator],
        quantities: dict[str, float],
        output: float,
        clustered: bool,
    ) -> PlanAlternative:
        props = operator.properties
        exploits_order = props.sort_factor > 0.0 or props.clustered_input_discount != 1.0
        use_clustered = clustered and exploits_order
        per_input = props.per_input_cost * (
            props.clustered_input_discount if use_clustered else 1.0
        )
        inputs = quantities["left"] + quantities["right"]
        cost = props.startup_cost + per_input * inputs + props.per_output_cost * output
        if not props.streaming:
            # Blocking operators materialize their result before the first
            # tuple flows downstream — charged as half a touch per output.
            cost += 0.5 * output
        if props.sort_factor and not use_clustered:
            sort_n = max(quantities["left"], 2.0)
            cost += props.sort_factor * sort_n * math.log2(sort_n)
        if props.pairwise_factor:
            first, second = props.pairwise_operands
            cost += props.pairwise_factor * quantities[first] * quantities[second]
        return PlanAlternative(name=name, operator=operator, cost=cost, clustered=use_clustered)

    def _base_attributes(
        self, expression: Expression, names
    ) -> tuple[Optional[TableStatistics], tuple[str, ...]]:
        """The base table's statistics behind ``expression`` and what
        ``names`` are called there.

        Like :meth:`ordered_attributes`, the lookup traverses the
        streaming wrappers a base scan typically sits under — selection,
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

    def _clustered_on(self, expression: Expression, names) -> bool:
        """Whether the expression's scan order clusters the given attributes.

        Two sufficient conditions: every attribute individually globally
        non-decreasing (pointwise order ⇒ equal combinations contiguous),
        or the attribute set forms a prefix of the scan's lexicographic
        sort order.
        """
        if not len(names):
            return False
        ordered = self.ordered_attributes(expression)
        if all(name in ordered for name in names):
            return True
        prefix = self.clustered_prefix(expression)
        width = len(names)
        return len(prefix) >= width and set(prefix[:width]) == set(names)

    @property
    def estimator(self) -> CardinalityEstimator:
        """The underlying cardinality estimator (shared with callers)."""
        return self._estimator


def decision_for(
    kind: str,
    alternatives: list[PlanAlternative],
    forced: Optional[str] = None,
) -> PlanDecision:
    """Build the decision record: cheapest alternative, or the forced one."""
    ranked = tuple(sorted(alternatives))
    if forced is None:
        return PlanDecision(kind=kind, chosen=ranked[0], forced=False, alternatives=ranked)
    chosen = next(alt for alt in ranked if alt.name == forced)
    return PlanDecision(kind=kind, chosen=chosen, forced=True, alternatives=ranked)
