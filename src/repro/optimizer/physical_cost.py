"""Physical cost model: pricing algorithm alternatives for one logical operator.

The logical cost model (:mod:`repro.optimizer.cost`) ranks *rewrite*
alternatives; this module ranks *algorithm* alternatives for a single
logical operator — the paper's observation that no division algorithm
dominates (hash, merge-sort, nested-loops and the algebra simulation each
win under different dividend/divisor shapes) made operational.

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
import os
from dataclasses import dataclass, replace
from typing import Optional

from repro.algebra.expressions import (
    Expression,
    GreatDivide,
    GroupBy,
    LiteralRelation,
    NaturalJoin,
    Project,
    RelationRef,
    Rename,
    Select,
    SmallDivide,
)
from repro.optimizer.statistics import CardinalityEstimator, StatisticsCatalog, TableStatistics
from repro.physical import (
    JOIN_ALGORITHMS,
    HashAggregate,
    PartitionedAggregate,
    PartitionedDivision,
    PartitionedHashJoin,
    PhysicalOperator,
)
from repro.physical.division import GREAT_DIVIDE_ALGORITHMS, SMALL_DIVIDE_ALGORITHMS
from repro.physical.parallel import HashPartitionExchange

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
    #: Pool size this price assumes (1 = serial execution; > 1 = the
    #: algorithm wrapped in a hash-partition exchange).
    workers: int = 1
    #: Number of hash partitions the exchange splits the input into.
    partitions: int = 1
    #: Of a parallel variant's ``cost``: the partition pass plus what
    #: crosses to the workers, and the pool round trips.  The rest is the
    #: sub-plan (serial cost over the effective DOP, output shipped back).
    exchange: float = 0.0
    tasks: float = 0.0

    def __lt__(self, other: "PlanAlternative") -> bool:
        return (self.cost, self.name, self.workers) < (other.cost, other.name, other.workers)

    def label(self) -> str:
        """Display label distinguishing the parallel variant of a name."""
        return self.name if self.workers == 1 else f"{self.name}[dop={self.workers}]"

    def charges(self) -> str:
        """The three charges a parallel variant's price is made of."""
        sub_plan = self.cost - self.exchange - self.tasks
        return f"exchange={self.exchange:.0f} tasks={self.tasks:.0f} sub-plan={sub_plan:.0f}"


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
        """One-line rationale for EXPLAIN output.

        A parallel session always shows what the exchange was priced at:
        on the chosen variant when it won, on the cheapest parallel variant
        next to the serial price that beat it otherwise.
        """
        chosen = self.chosen
        mode = "forced" if self.forced else "cost-based"
        parts = [f"algorithm={chosen.name} ({mode}, est cost {chosen.cost:.0f}"]
        if chosen.clustered:
            parts.append(", clustered input: sort waived")
        if chosen.workers > 1:
            parts.append(
                f", dop={chosen.workers}, partitions={chosen.partitions}: {chosen.charges()}"
            )
        parts.append(")")
        others = [alt for alt in self.alternatives if alt is not chosen]
        runner_up = next((alt for alt in others if alt.workers > chosen.workers), None)
        if others:
            listed = ", ".join(
                f"{alt.label()}={alt.cost:.0f}"
                + (f" ({alt.charges()})" if alt is runner_up else "")
                for alt in others
            )
            parts.append(f"; alternatives: {listed}")
        if all(alt.workers > 1 for alt in self.alternatives):
            parts.append("; serial: over memory budget")
        return "".join(parts)


class PhysicalCostModel:
    """Prices algorithm alternatives from operator descriptors + statistics.

    With ``workers > 1`` every partitionable algorithm is additionally
    priced as a *parallel* variant, from the descriptor of the exchange
    operator that would run it (``PartitionedDivision`` /
    ``PartitionedHashJoin`` / ``PartitionedAggregate``), as three charges:

    * **exchange** — every partitioned input tuple crosses to a worker, as
      codes (``per_input_cost``) when its input is a base table under the
      wrappers that keep code columns, as a value tuple
      (``per_output_cost``) otherwise and always under a memory budget;
      the broadcast side crosses once per partition;
    * **tasks** — one pool round trip (``startup_cost``) per partition;
    * **sub-plan** — the serial price over the effective degree of
      parallelism, plus the output shipped back as value tuples.

    The effective DOP is capped by the pool, the partitions, the CPUs this
    process may use and the partition-key *skew* (top-key frequency
    gathered by ``analyze()``): hash partitioning cannot split one key's
    rows, so the speedup is capped at ``1 / skew``.

    ``memory_budget_mb`` is the one thing a price does not decide.  Only an
    exchange honours the budget, so where a partitioned input is estimated
    above it the serial alternatives are not candidates.
    """

    def __init__(
        self,
        statistics: StatisticsCatalog,
        workers: int = 1,
        partitions: Optional[int] = None,
        memory_budget_mb: Optional[float] = None,
    ) -> None:
        self._statistics = statistics
        self._estimator = CardinalityEstimator(statistics)
        self._workers = max(1, workers)
        self._partitions = partitions if partitions is not None else self._workers
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
        serial = [
            self._price(name, operator, quantities, output, clustered)
            for name, operator in registry.items()
        ]
        skew = self._partition_skew(expression.left, a_names)
        return self._with_parallel(
            serial, PartitionedDivision, output, skew, [expression.left], expression.right
        )

    def natural_join_alternatives(self, expression: NaturalJoin) -> list[PlanAlternative]:
        """Hash join vs nested loops, priced on the input sizes."""
        left = self._estimator.cardinality(expression.left)
        right = self._estimator.cardinality(expression.right)
        quantities = {"left": left, "right": right, "candidates": left, "divisor_groups": 1.0}
        output = self._estimator.cardinality(expression)
        serial = [
            self._price(name, operator, quantities, output, clustered=False)
            for name, operator in JOIN_ALGORITHMS.items()
        ]
        shared = expression.left.schema.intersection(expression.right.schema)
        if not len(shared):
            # A cross product has no join key to partition on.
            return sorted(serial)
        skew = max(self._partition_skew(side, shared.names) for side in expression.children)
        return self._with_parallel(
            serial, PartitionedHashJoin, output, skew, [expression.left, expression.right]
        )

    def aggregate_alternatives(self, expression: GroupBy) -> list[PlanAlternative]:
        """Serial hash aggregation vs its hash-partitioned parallel variant."""
        size = self._estimator.cardinality(expression.child)
        quantities = {"left": size, "right": 0.0, "candidates": size, "divisor_groups": 1.0}
        output = self._estimator.cardinality(expression)
        serial = [self._price("hash", HashAggregate, quantities, output, clustered=False)]
        if not len(expression.grouping):
            # A grand total is one global group; it cannot be partitioned.
            return serial
        skew = self._partition_skew(expression.child, expression.grouping.names)
        return self._with_parallel(serial, PartitionedAggregate, output, skew, [expression.child])

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

    def _with_parallel(
        self,
        alternatives: list[PlanAlternative],
        wrapper: type[PhysicalOperator],
        output: float,
        skew: float,
        partitioned: list[Expression],
        broadcast: Optional[Expression] = None,
    ) -> list[PlanAlternative]:
        """Extend serial alternatives with their parallel variants (ranked).

        No-op at ``workers=1``.  Otherwise each serial price also competes
        wrapped in ``wrapper``'s exchange over the ``partitioned`` inputs
        (the three charges of the class docstring, in
        ``wrapper.properties``' units, which are those of the algorithms it
        wraps), and the cheapest overall wins: the planner parallelizes an
        operator only where its serial work per tuple costs more than
        moving the tuple to another process.  Under a memory budget that a
        partitioned input outgrows only the parallel variants are returned.
        """
        if self._workers <= 1:
            return sorted(alternatives)
        costs = wrapper.properties
        cardinality = self._estimator.cardinality

        def crossing(expression: Expression, coded: bool) -> float:
            coded = coded and self._ships_codes(expression)
            price = costs.per_input_cost if coded else costs.per_output_cost
            return cardinality(expression) * price

        exchange = sum(crossing(each, self._memory_budget_mb is None) for each in partitioned)
        if broadcast is not None:
            # Collected once (never against the budget), pickled into every task.
            exchange += crossing(broadcast, True) * self._partitions
        tasks = costs.startup_cost * self._partitions
        dop = self.effective_dop(skew)
        parallel = [
            replace(
                alternative,
                cost=exchange + tasks + alternative.cost / dop + costs.per_output_cost * output,
                workers=self._workers,
                partitions=self._partitions,
                exchange=exchange,
                tasks=tasks,
            )
            for alternative in alternatives
        ]
        if any(self._over_budget(each) for each in partitioned):
            return sorted(parallel)
        return sorted(alternatives + parallel)

    def effective_dop(self, skew: float) -> float:
        """The speedup ceiling: workers, partitions, CPUs and key skew combined.

        More tasks than CPUs this process may run on take turns.  Hash
        partitioning cannot split one key's rows, so when the top key
        holds fraction ``skew`` of the input the largest partition holds at
        least that fraction and the speedup is capped at ``1 / skew`` —
        heavily skewed keys price parallelism out of the running.
        """
        dop = float(min(self._workers, self._partitions, _available_cpus()))
        if skew > 0.0:
            dop = min(dop, 1.0 / skew)
        return dop

    def _ships_codes(self, expression: Expression) -> bool:
        """Whether an exchange over ``expression`` sees code columns.

        A base table's scan hands up its cached codes and selections,
        renamings and attribute-keeping projections pass them on; anything
        else (a join's or an aggregate's output, a duplicate-eliminating
        projection) produces value tuples, which take the tuple route.
        """
        while isinstance(expression, (Select, Rename, Project)):
            if len(expression.schema) < len(expression.child.schema):
                return False
            expression = expression.child
        return isinstance(expression, (RelationRef, LiteralRelation))

    def _over_budget(self, expression: Expression) -> bool:
        """Whether the session's memory budget is below this exchange input.

        The budget is converted to tuples by the exchange's own estimate
        (:meth:`HashPartitionExchange.budget_in_tuples`), fed each
        attribute's maximum from the statistics in place of the sample the
        exchange takes from its first chunk (``None`` where none is known).
        """
        if self._memory_budget_mb is None:
            return False
        statistics, names = self._base_attributes(expression, expression.schema.names)
        maxima = {} if statistics is None else statistics.maxima
        sample = tuple(maxima.get(name) for name in names)
        budget = HashPartitionExchange.budget_in_tuples(self._memory_budget_mb, [sample])
        return self._estimator.cardinality(expression) > budget

    def _partition_skew(self, expression: Expression, names) -> float:
        """Top-key frequency fraction of the partition key, when known.

        Read off the base table the key comes from
        (:meth:`_base_attributes`); anywhere else the skew is unknown and
        reported as 0.0 (no discount).  A projection's duplicate
        elimination can only *reduce* the top-key share, so the base
        table's figure is a safe upper bound, and multi-attribute keys can
        only be less skewed than their most selective component, so the
        minimum over the attributes bounds the composite skew from above.
        """
        statistics, base_names = self._base_attributes(expression, names)
        if statistics is None or not statistics.cardinality:
            return 0.0
        fractions = [
            statistics.partition_skew(name)
            for name in base_names
            if statistics.top_frequency(name)
        ]
        return min(fractions, default=0.0)

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


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or the machine's
    count on platforms without one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
