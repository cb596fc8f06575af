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
from dataclasses import dataclass
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
from repro.physical import JOIN_ALGORITHMS, HashAggregate, PhysicalOperator
from repro.physical.division import GREAT_DIVIDE_ALGORITHMS, SMALL_DIVIDE_ALGORITHMS

__all__ = ["PlanAlternative", "PlanDecision", "PhysicalCostModel", "decision_for"]

#: Abstract-cost charge per pool worker: process dispatch, block pickling
#: and result shipping.  Sets the estimated-cardinality threshold below
#: which the planner refuses to parallelize (with the default coefficients,
#: parallel execution starts to pay off around ~15–20k input tuples).
PARALLEL_WORKER_STARTUP = 4000.0

#: Per-input-tuple cost of the hash-partition exchange pass.  Priced for the
#: tuple route (hash + bucket append + cross-process copy of value tuples);
#: coded chunks pay a table lookup and ship integers, several times less.
#: Left as it is on purpose: lowering it would move the parallel threshold
#: and with it which plans run, which is a change of its own to measure.
EXCHANGE_PER_TUPLE = 0.5


@dataclass(frozen=True)
class PlanAlternative:
    """One priced algorithm candidate for a logical operator."""

    name: str
    operator: type[PhysicalOperator]
    cost: float
    #: Whether the price assumes (and the operator should exploit) an input
    #: clustered on the grouping attributes.
    clustered: bool = False
    #: Degree of parallelism this price assumes (1 = serial execution;
    #: > 1 = the algorithm wrapped in a hash-partition exchange).
    workers: int = 1
    #: Number of hash partitions the exchange splits the input into.
    partitions: int = 1

    def __lt__(self, other: "PlanAlternative") -> bool:
        return (self.cost, self.name, self.workers) < (other.cost, other.name, other.workers)

    def label(self) -> str:
        """Display label distinguishing the parallel variant of a name."""
        return self.name if self.workers == 1 else f"{self.name}[dop={self.workers}]"


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
        mode = "forced" if self.forced else "cost-based"
        parts = [f"algorithm={self.chosen.name} ({mode}, est cost {self.chosen.cost:.0f}"]
        if self.chosen.clustered:
            parts.append(", clustered input: sort waived")
        if self.chosen.workers > 1:
            parts.append(f", dop={self.chosen.workers}, partitions={self.chosen.partitions}")
        parts.append(")")
        others = [alt for alt in self.alternatives if alt is not self.chosen]
        if others:
            listed = ", ".join(f"{alt.label()}={alt.cost:.0f}" for alt in others)
            parts.append(f"; alternatives: {listed}")
        return "".join(parts)


class PhysicalCostModel:
    """Prices algorithm alternatives from operator descriptors + statistics.

    With ``workers > 1`` every partitionable algorithm is additionally
    priced as a *parallel* variant: the serial cost divided by the
    effective degree of parallelism, plus a per-worker startup charge and a
    per-tuple exchange charge.  The startup charge makes parallelism lose
    below an input-cardinality threshold, and the effective DOP is
    discounted by the partition-key *skew* (top-key frequency gathered by
    ``analyze()``) — hash partitioning cannot split one key's rows, so the
    speedup is capped at ``1 / skew``.
    """

    def __init__(
        self,
        statistics: StatisticsCatalog,
        workers: int = 1,
        partitions: Optional[int] = None,
    ) -> None:
        self._statistics = statistics
        self._estimator = CardinalityEstimator(statistics)
        self._workers = max(1, workers)
        self._partitions = partitions if partitions is not None else self._workers

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
        dividend = self._estimator.estimate(expression.left)
        divisor = self._estimator.estimate(expression.right)
        quotient_names = expression.schema.names
        candidates = self._group_count(dividend, quotient_names)
        quantities = {
            "left": dividend.cardinality,
            "right": divisor.cardinality,
            "candidates": candidates,
            "divisor_groups": 1.0,
        }
        output = self._estimator.cardinality(expression)
        clustered = self._clustered_on(expression.left, quotient_names)
        serial = [
            self._price(name, operator, quantities, output, clustered)
            for name, operator in SMALL_DIVIDE_ALGORITHMS.items()
        ]
        return self._with_parallel(serial, quantities, self._partition_skew(expression.left, quotient_names))

    def great_divide_alternatives(self, expression: GreatDivide) -> list[PlanAlternative]:
        """All great-divide algorithms priced for this shape."""
        dividend = self._estimator.estimate(expression.left)
        divisor = self._estimator.estimate(expression.right)
        shared = expression.left.schema.intersection(expression.right.schema)
        a_names = expression.left.schema.difference(shared).names
        c_names = expression.right.schema.difference(shared).names
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
            for name, operator in GREAT_DIVIDE_ALGORITHMS.items()
        ]
        return self._with_parallel(serial, quantities, self._partition_skew(expression.left, a_names))

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
        skew = max(
            self._partition_skew(expression.left, shared.names),
            self._partition_skew(expression.right, shared.names),
        )
        return self._with_parallel(serial, quantities, skew)

    def aggregate_alternatives(self, expression: GroupBy) -> list[PlanAlternative]:
        """Serial hash aggregation vs its hash-partitioned parallel variant."""
        child = self._estimator.estimate(expression.child)
        quantities = {
            "left": child.cardinality,
            "right": 0.0,
            "candidates": child.cardinality,
            "divisor_groups": 1.0,
        }
        output = self._estimator.cardinality(expression)
        serial = [self._price("hash", HashAggregate, quantities, output, clustered=False)]
        if not len(expression.grouping):
            # A grand total is one global group; it cannot be partitioned.
            return serial
        skew = self._partition_skew(expression.child, expression.grouping.names)
        return self._with_parallel(serial, quantities, skew)

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
        quantities: dict[str, float],
        skew: float,
    ) -> list[PlanAlternative]:
        """Extend serial alternatives with their parallel variants (ranked).

        No-op at ``workers=1``; otherwise each serial price also competes
        as ``startup·W + exchange·inputs + serial/DOP``, and the cheapest
        overall wins — so the planner only parallelizes when the input is
        big enough to amortize the worker startup, and never on keys whose
        skew caps the achievable DOP.
        """
        if self._workers <= 1:
            return sorted(alternatives)
        extended = list(alternatives)
        for alternative in alternatives:
            parallel = self._parallel_variant(alternative, quantities, skew)
            if parallel is not None:
                extended.append(parallel)
        return sorted(extended)

    def _parallel_variant(
        self,
        alternative: PlanAlternative,
        quantities: dict[str, float],
        skew: float,
    ) -> Optional[PlanAlternative]:
        dop = self.effective_dop(skew)
        if dop <= 1.0:
            return None
        inputs = quantities["left"] + quantities["right"]
        cost = (
            self._workers * PARALLEL_WORKER_STARTUP
            + EXCHANGE_PER_TUPLE * inputs
            + alternative.cost / dop
        )
        return PlanAlternative(
            name=alternative.name,
            operator=alternative.operator,
            cost=cost,
            clustered=alternative.clustered,
            workers=self._workers,
            partitions=self._partitions,
        )

    def effective_dop(self, skew: float) -> float:
        """The speedup ceiling: workers, partitions and key skew combined.

        Hash partitioning cannot split one key's rows, so when the top key
        holds fraction ``skew`` of the input the largest partition holds at
        least that fraction and the speedup is capped at ``1 / skew`` —
        heavily skewed keys price parallelism out of the running.
        """
        dop = float(min(self._workers, self._partitions))
        if skew > 0.0:
            dop = min(dop, 1.0 / skew)
        return dop

    def _partition_skew(self, expression: Expression, names) -> float:
        """Top-key frequency fraction of the partition key, when known.

        Like :meth:`ordered_attributes`, the lookup traverses the
        streaming wrappers a base scan typically sits under — selection,
        renaming (with the key names mapped back to the base attributes)
        and projection (whose duplicate elimination can only *reduce* the
        top-key share, so the child's figure is a safe upper bound).
        Anywhere else the skew is unknown and reported as 0.0 (no
        discount).  Multi-attribute keys can only be less skewed than
        their most selective component, so the minimum over the attributes
        bounds the composite skew from above.
        """
        if isinstance(expression, (Select, Project)):
            return self._partition_skew(expression.child, names)
        if isinstance(expression, Rename):
            inverse = {new: old for old, new in expression.mapping.items()}
            return self._partition_skew(
                expression.child, tuple(inverse.get(name, name) for name in names)
            )
        statistics = self._base_statistics(expression)
        if statistics is None or not statistics.cardinality:
            return 0.0
        fractions = [
            statistics.partition_skew(name)
            for name in names
            if statistics.top_frequency(name)
        ]
        if not fractions:
            return 0.0
        return min(fractions)

    def _base_statistics(self, expression: Expression) -> Optional[TableStatistics]:
        if isinstance(expression, RelationRef):
            return self._statistics.table(expression.name)
        if isinstance(expression, LiteralRelation):
            return self._estimator.literal_statistics(expression.relation)
        return None

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
