"""Partition-wise wrappers: run a serial algorithm per key-disjoint partition.

Each wrapper hash-partitions its probe input(s) on the attribute set that
determines the result groups — quotient attributes for division, the shared
attributes for a natural join, the grouping attributes for aggregation —
then runs the *unchanged* serial algorithm over each partition in turn, in
this process, and concatenates the outputs.  Because no key spans two
partitions the concatenation is exactly the serial result: same tuples,
and the wrapper's own output counter equals the serial operator's.

The planner builds a wrapper where an input is estimated above the
session's memory budget (ARCHITECTURE Invariant 6): a partition, not the
whole input, is what one sub-plan holds, and the budgeted exchange spills
the partitions it buffers.

The wrappers record per-partition statistics after execution:

* :attr:`PartitionedOperator.partition_input_sizes` — tuples routed to each
  partition (the skew figure ``explain(analyze=True)`` reports), and
  :attr:`PartitionedOperator.exchange_input` — in what form the exchange
  handed them on (``code columns`` or ``tuples``);
* :attr:`PartitionedOperator.key_source` / ``kernel_name`` — what the
  partitions' division operators recorded about their key columns;
* :attr:`PartitionedOperator.partition_statistics` — each partition
  sub-plan's per-operator tuple counters, aggregated as a *maximum* over
  partitions by :meth:`PartitionedOperator.partition_peaks` — partitions
  hold disjoint slices of the work, so the largest single intermediate of a
  partitioned run is the biggest per-partition intermediate, not their sum.
"""

from __future__ import annotations

import shutil
import tempfile
from collections.abc import Iterator, Mapping
from typing import Any, Optional

from repro.errors import ExecutionError
from repro.physical.aggregate import HashAggregate
from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.physical.division.great_divide_ops import (
    GREAT_DIVIDE_ALGORITHMS,
    _great_division_schemas,
)
from repro.physical.division.small_divide_ops import SMALL_DIVIDE_ALGORITHMS, _division_schemas
from repro.physical.joins import JOIN_ALGORITHMS
from repro.physical.parallel.exchange import HashPartitionExchange, PartitionSource
from repro.relation.aggregates import Aggregate
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = [
    "PartitionedOperator",
    "PartitionedDivision",
    "PartitionedHashJoin",
    "PartitionedAggregate",
]


class PartitionedOperator(PhysicalOperator):
    """Base of the exchange wrappers: partition, run each, concatenate."""

    #: Marks exchange operators for :meth:`PhysicalOperator.set_memory_budget`.
    parallel = True

    #: Spill budget in MB for the exchange's buffered partitions; ``None``
    #: disables spilling.  Set per plan by
    #: :meth:`PhysicalOperator.set_memory_budget` (driven by
    #: ``connect(memory_budget_mb=...)``).
    memory_budget_mb: Optional[float] = None

    def __init__(
        self,
        schema: Schema,
        children: tuple[PhysicalOperator, ...],
        key: AttributeNames,
        partitions: int,
    ) -> None:
        if partitions < 1:
            raise ExecutionError(f"partitions must be positive, got {partitions}")
        super().__init__(schema, children)
        self._key = as_schema(key)
        self.partitions = partitions
        #: Tuples routed to each partition by the most recent execution.
        self.partition_input_sizes: list[int] = []
        #: Per-partition sub-plan counters of the most recent execution.
        self.partition_statistics: list[dict[str, int]] = []
        #: How the most recent execution handed its partitioned input(s) on:
        #: "code columns", "tuples" or both (``None``: no exchange ran).
        self.exchange_input: Optional[str] = None
        #: Where the partitions' division operators read their dividend
        #: keys from and which bitset kernel ran (what the serial operators
        #: record; differing partitions are joined with " / ").
        self.key_source: Optional[str] = None
        self.kernel_name: Optional[str] = None
        #: Spill counters of the most recent execution (empty without a
        #: budget): spilled_blocks/tuples/partitions plus the buffered
        #: high-water marks, summed over this operator's exchanges.
        self.spill_statistics: dict[str, int] = {}
        #: Exchanges built by the current ``_subplans()`` pass, and the spill
        #: directory they write to (alive only while the sub-plans run).
        self._exchanges: list[HashPartitionExchange] = []
        self._spill_directory: Optional[str] = None
        #: Route tables of the key dictionaries seen so far, kept across
        #: executions of this plan (see ``HashPartitionExchange``).
        self._route_tables: dict[tuple[int, int], tuple[list[Any], Any]] = {}

    @property
    def partition_key(self) -> Schema:
        """The attribute set the exchange hashes on."""
        return self._key

    def partition_peaks(self) -> dict[str, int]:
        """Per-inner-operator peak counters: max over partitions, not sum.

        Partition sub-plans hold key-disjoint slices, so the largest single
        intermediate result of the partitioned run is the largest
        per-partition figure — this is what
        :func:`~repro.physical.base.collect_statistics` folds into
        :attr:`~repro.physical.base.PlanStatistics.partition_peaks`.
        """
        peaks: dict[str, int] = {}
        for counters in self.partition_statistics:
            for label, value in counters.items():
                if value > peaks.get(label, 0):
                    peaks[label] = value
        return peaks

    def _subplans(self) -> list[PhysicalOperator]:
        """Consume the inputs; one serial sub-plan per populated partition."""
        raise NotImplementedError

    def _exchange(self) -> HashPartitionExchange:
        """Build this pass's exchange, threading budget and spill directory."""
        exchange = HashPartitionExchange(
            self._key,
            self.partitions,
            memory_budget_mb=self.memory_budget_mb,
            spill_directory=self._spill_directory,
            route_tables=self._route_tables,
        )
        self._exchanges.append(exchange)
        return exchange

    def _collect_spill_statistics(self) -> dict[str, int]:
        if not any(exchange.memory_budget_mb is not None for exchange in self._exchanges):
            return {}
        return {
            "budget_tuples": max(
                (exchange.budget_tuples or 0 for exchange in self._exchanges), default=0
            ),
            "peak_buffered_tuples": max(
                (exchange.peak_buffered_tuples for exchange in self._exchanges), default=0
            ),
            "peak_buffered_blocks": max(
                (exchange.peak_buffered_blocks for exchange in self._exchanges), default=0
            ),
            "spilled_tuples": sum(exchange.spilled_tuples for exchange in self._exchanges),
            "spilled_blocks": sum(exchange.spilled_blocks for exchange in self._exchanges),
            "spilled_partitions": sum(
                exchange.spilled_partitions for exchange in self._exchanges
            ),
        }

    def _produce_chunks(self) -> Iterator[Chunk]:
        self.partition_input_sizes = []
        self.partition_statistics = []
        self.spill_statistics = {}
        self.exchange_input = self.key_source = self.kernel_name = None
        self._exchanges = []
        spill_directory: Optional[str] = None
        if self.memory_budget_mb is not None:
            spill_directory = tempfile.mkdtemp(prefix="repro-spill-")
        self._spill_directory = spill_directory
        try:
            subplans = self._subplans()
            self.spill_statistics = self._collect_spill_statistics()
            forms = set().union(*(exchange.input_forms for exchange in self._exchanges))
            self.exchange_input = " + ".join(sorted(forms)) or None
            # The sub-plans stream the spill files, so the directory goes
            # once the last of them has run.
            schema = self._schema
            keys: set[tuple[str, str]] = set()
            for plan in subplans:
                plan.batch_size = self.batch_size  # the leaves carry their own
                for chunk in plan.chunks():
                    yield chunk.aligned(schema)
                self.partition_statistics.append(
                    {f"{index:02d}:{op.name}": op.tuples_out for index, op in enumerate(plan.walk())}
                )
                key_source = getattr(plan, "key_source", None)
                if key_source is not None:
                    keys.add((key_source, plan.kernel_name))
        finally:
            self._spill_directory = None
            self._exchanges = []
            if spill_directory is not None:
                shutil.rmtree(spill_directory, ignore_errors=True)
        if keys:
            sources, kernels = zip(*keys)
            self.key_source = " / ".join(sorted(set(sources)))
            self.kernel_name = " / ".join(sorted(set(kernels)))

    def _exchange_summary(self) -> str:
        summary = f"partitions={self.partitions}"
        if self.memory_budget_mb is not None:
            summary += f", budget={self.memory_budget_mb:g}MB"
        return summary


class PartitionedDivision(PartitionedOperator):
    """Division partitioned on the quotient attributes.

    Sound for every division algorithm because division is independent per
    quotient-key group: whether a candidate ``a`` belongs to the quotient
    depends only on the dividend tuples carrying ``a`` (all in one
    partition) and on the divisor, which is *broadcast* — collected once
    and read by every partition, exactly like the small relation of a
    Grace hash join.  For the great divide the same holds per ``(a, c)``
    pair, so partitioning on ``A`` alone is sufficient.
    """

    name = "partitioned_division"

    #: What the exchange adds to the wrapped algorithm's price, in the
    #: division operators' units (≈10 ns): a tuple through a budgeted
    #: exchange — the tuple route, the spill write and the re-read, ≈0.9 µs
    #: at 104k tuples (2 vCPU).  The cost model prices a partitioned
    #: division as its :attr:`operator_class`, which the budget does not
    #: choose; this descriptor is the exchange's own.
    properties = PhysicalProperties(streaming=False, per_input_cost=90.0)

    def __init__(
        self,
        dividend: PhysicalOperator,
        divisor: PhysicalOperator,
        algorithm: str = "hash",
        kind: str = "small",
        partitions: int = 2,
    ) -> None:
        if kind == "small":
            if algorithm not in SMALL_DIVIDE_ALGORITHMS:
                raise ExecutionError(
                    f"unknown small-divide algorithm {algorithm!r}; "
                    f"choose from {sorted(SMALL_DIVIDE_ALGORITHMS)}"
                )
            schemas = _division_schemas(dividend, divisor)
            key, schema = schemas.a, schemas.quotient
        elif kind == "great":
            if algorithm not in GREAT_DIVIDE_ALGORITHMS:
                raise ExecutionError(
                    f"unknown great-divide algorithm {algorithm!r}; "
                    f"choose from {sorted(GREAT_DIVIDE_ALGORITHMS)}"
                )
            key, _shared, group = _great_division_schemas(dividend, divisor)
            schema = key.union(group)
        else:
            raise ExecutionError(f"unknown division kind {kind!r}; use 'small' or 'great'")
        super().__init__(schema, (dividend, divisor), key, partitions)
        self.algorithm = algorithm
        self.kind = kind

    @property
    def operator_class(self) -> type[PhysicalOperator]:
        """The serial division algorithm each partition runs."""
        registry = GREAT_DIVIDE_ALGORITHMS if self.kind == "great" else SMALL_DIVIDE_ALGORITHMS
        return registry[self.algorithm]

    def _subplans(self) -> list[PhysicalOperator]:
        dividend, divisor = self._children
        exchange = self._exchange()
        divisor_block = exchange.collect(divisor)
        buckets = exchange.partition(dividend)
        self.partition_input_sizes = [len(bucket) for bucket in buckets]
        return [
            self.operator_class(
                PartitionSource(dividend.schema.names, bucket),
                PartitionSource(divisor.schema.names, divisor_block),
            )
            for bucket in buckets
            if bucket
        ]

    def describe(self) -> str:
        return f"PartitionedDivision[{self.algorithm}, {self._exchange_summary()}]"


class PartitionedHashJoin(PartitionedOperator):
    """Natural join partitioned on the shared attributes (Grace hash join).

    Both inputs are partitioned with the *same* hash on the join key, so
    every joinable pair meets in exactly one partition and every output
    tuple (whose key is part of the tuple) is produced exactly once across
    partitions.  Partitions where either side is empty produce nothing and
    are skipped outright.
    """

    name = "partitioned_hash_join"

    #: The budgeted exchange's ≈0.9 µs a tuple (see ``PartitionedDivision``)
    #: in the join operators' units (≈550 ns); the cost model prices a
    #: partitioned join as its :attr:`operator_class`.
    properties = PhysicalProperties(per_input_cost=1.6)

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        algorithm: str = "hash",
        partitions: int = 2,
    ) -> None:
        if algorithm not in JOIN_ALGORITHMS:
            raise ExecutionError(
                f"unknown natural-join algorithm {algorithm!r}; "
                f"choose from {sorted(JOIN_ALGORITHMS)}"
            )
        key = left.schema.intersection(right.schema)
        if len(key) == 0:
            raise ExecutionError(
                "partitioned join needs shared attributes to partition on; "
                "a cross product cannot be hash-partitioned"
            )
        super().__init__(left.schema.union(right.schema), (left, right), key, partitions)
        self.algorithm = algorithm

    @property
    def operator_class(self) -> type[PhysicalOperator]:
        """The serial join algorithm each partition runs."""
        return JOIN_ALGORITHMS[self.algorithm]

    def _subplans(self) -> list[PhysicalOperator]:
        left, right = self._children
        exchange = self._exchange()
        left_buckets = exchange.partition(left)
        right_buckets = exchange.partition(right)
        self.partition_input_sizes = [
            len(left_bucket) + len(right_bucket)
            for left_bucket, right_bucket in zip(left_buckets, right_buckets)
        ]
        return [
            self.operator_class(
                PartitionSource(left.schema.names, left_bucket),
                PartitionSource(right.schema.names, right_bucket),
            )
            for left_bucket, right_bucket in zip(left_buckets, right_buckets)
            if left_bucket and right_bucket
        ]

    def describe(self) -> str:
        keys = ", ".join(self._key.names)
        return f"PartitionedHashJoin[{keys}; {self.algorithm}, {self._exchange_summary()}]"


class PartitionedAggregate(PartitionedOperator):
    """Grouped aggregation partitioned on the grouping attributes.

    Every group lives wholly inside one partition, so per-partition
    :class:`~repro.physical.aggregate.HashAggregate` runs produce final
    (not partial) aggregates and the concatenation needs no re-merge.
    Requires a non-empty grouping key; the single global group of a
    grand total cannot be partitioned.
    """

    name = "partitioned_aggregate"

    #: The budgeted exchange in the aggregate's units, which are the
    #: join's (``HashAggregate`` reads tuples too).
    properties = PhysicalProperties(streaming=False, per_input_cost=1.6)

    def __init__(
        self,
        child: PhysicalOperator,
        grouping: AttributeNames,
        aggregations: Mapping[str, Aggregate],
        partitions: int = 2,
    ) -> None:
        grouping_schema = child.schema.project(as_schema(grouping))
        if len(grouping_schema) == 0:
            raise ExecutionError("partitioned aggregation needs grouping attributes")
        schema = Schema(grouping_schema.names + tuple(aggregations.keys()))
        super().__init__(schema, (child,), grouping_schema, partitions)
        self._aggregations = dict(aggregations)

    def _subplans(self) -> list[PhysicalOperator]:
        (child,) = self._children
        buckets = self._exchange().partition(child)
        self.partition_input_sizes = [len(bucket) for bucket in buckets]
        return [
            HashAggregate(PartitionSource(child.schema.names, bucket), self._key.names, self._aggregations)
            for bucket in buckets
            if bucket
        ]

    def describe(self) -> str:
        aggregates = ", ".join(
            f"{label}→{output}" for output, (label, _fn) in self._aggregations.items()
        )
        keys = ", ".join(self._key.names)
        return f"PartitionedAggregate[{keys}; {aggregates}; {self._exchange_summary()}]"
