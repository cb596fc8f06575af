"""Partition-wise wrappers: run a serial algorithm per key-disjoint partition.

Each wrapper hash-partitions its probe input(s) on the attribute set that
determines the result groups — quotient attributes for division, the shared
attributes for a natural join, the grouping attributes for aggregation —
then runs the *unchanged* serial algorithm per partition (on a worker pool
when ``workers > 1``) and concatenates the outputs.  Because no key spans
two partitions the concatenation is exactly the serial result: same tuples,
and the wrapper's own output counter equals the serial operator's.

The wrappers record per-partition statistics after execution:

* :attr:`PartitionedOperator.partition_input_sizes` — tuples routed to each
  partition (the skew figure ``explain(analyze=True)`` reports), and
  :attr:`PartitionedOperator.exchange_input` — in what form they were
  shipped (``code columns`` or ``tuples``);
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
from collections.abc import Iterator, Mapping, Sequence
from time import perf_counter
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ExecutionError
from repro.physical.aggregate import HashAggregate
from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.physical.division.great_divide_ops import (
    GREAT_DIVIDE_ALGORITHMS,
    _great_division_schemas,
)
from repro.physical.division.small_divide_ops import SMALL_DIVIDE_ALGORITHMS, _division_schemas
from repro.physical.joins import JOIN_ALGORITHMS
from repro.physical.parallel.exchange import HashPartitionExchange
from repro.physical.parallel.pool import (
    PartitionTask,
    RetryPolicy,
    SupervisionReport,
    run_tasks,
)
from repro.relation.aggregates import Aggregate
from repro.relation.schema import AttributeNames, Schema, as_schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.expressions import AggregateSpec

__all__ = [
    "PartitionedOperator",
    "PartitionedDivision",
    "PartitionedHashJoin",
    "PartitionedAggregate",
]


class PartitionedOperator(PhysicalOperator):
    """Base of the exchange wrappers: partition, fan out, concatenate."""

    #: Marks exchange operators for :meth:`PhysicalOperator.set_workers`.
    parallel = True

    #: Spill budget in MB for the exchange's buffered partitions; ``None``
    #: disables spilling.  Set per plan by
    #: :meth:`PhysicalOperator.set_memory_budget` (driven by
    #: ``connect(memory_budget_mb=...)``).
    memory_budget_mb: Optional[float] = None

    #: Retry policy handed to the pool supervisor; ``None`` means
    #: :data:`~repro.physical.parallel.pool.DEFAULT_RETRY_POLICY`.  The
    #: RP703 verifier check validates an override's sanity statically.
    retry_policy: Optional[RetryPolicy] = None

    def __init__(
        self,
        schema: Schema,
        children: tuple[PhysicalOperator, ...],
        key: AttributeNames,
        partitions: int,
        workers: int,
    ) -> None:
        if partitions < 1:
            raise ExecutionError(f"partitions must be positive, got {partitions}")
        if workers < 1:
            raise ExecutionError(f"workers must be positive, got {workers}")
        super().__init__(schema, children)
        self._key = as_schema(key)
        self.partitions = partitions
        self.workers = workers
        #: Tuples routed to each partition by the most recent execution.
        self.partition_input_sizes: list[int] = []
        #: Per-partition sub-plan counters of the most recent execution.
        self.partition_statistics: list[dict[str, int]] = []
        #: How the most recent execution shipped its partitioned input(s):
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
        #: Exchanges built by the current ``_tasks()`` pass, and the spill
        #: directory they write to (alive only while the tasks run).
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

    def _tasks(self) -> list[PartitionTask]:
        """Consume the inputs and describe one serial sub-plan per partition."""
        raise NotImplementedError

    def _inline_operator(self) -> PhysicalOperator:
        """The serial operator over the *actual* children (single-partition)."""
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
        if self.partitions == 1:
            # Zero-overhead serial fallback: no hash pass, no block
            # materialization, no pool — the serial operator streams
            # straight over the wrapper's children.
            yield from self._produce_inline()
            return
        self._exchanges = []
        spill_directory: Optional[str] = None
        if self.memory_budget_mb is not None:
            spill_directory = tempfile.mkdtemp(prefix="repro-spill-")
        self._spill_directory = spill_directory
        try:
            tasks = self._tasks()
            self.spill_statistics = self._collect_spill_statistics()
            forms = set().union(*(exchange.input_forms for exchange in self._exchanges))
            self.exchange_input = " + ".join(sorted(forms)) or None
            # run_tasks drains the pool before returning, so this interval is
            # exactly the time spent inside worker execution; explain(analyze)
            # reports it as the coordinator/worker elapsed split.  Spill files
            # are only read by the tasks, so the directory can go as soon as
            # all results are in.
            started = perf_counter()
            report = SupervisionReport()
            results = run_tasks(tasks, self.workers, policy=self.retry_policy, report=report)
            self.worker_seconds += perf_counter() - started
            self.tasks_retried += report.tasks_retried
            self.tasks_degraded += report.tasks_degraded
        finally:
            self._spill_directory = None
            self._exchanges = []
            if spill_directory is not None:
                shutil.rmtree(spill_directory, ignore_errors=True)
        keys = [keys for _tuples, _counters, keys in results if keys is not None]
        if keys:
            sources, kernels = zip(*keys)
            self.key_source = " / ".join(sorted(set(sources)))
            self.kernel_name = " / ".join(sorted(set(kernels)))
        schema = self._schema
        size = self.batch_size
        for tuples, counters, _keys in results:
            self.partition_statistics.append(counters)
            for start in range(0, len(tuples), size):
                yield Chunk(schema, tuples[start : start + size])

    def _produce_inline(self) -> Iterator[Chunk]:
        operator = self._inline_operator()
        operator.batch_size = self.batch_size  # the children carry their own
        schema = self._schema
        for chunk in operator.chunks():
            yield chunk.aligned(schema)
        self.partition_input_sizes = [
            sum(child.tuples_out for child in self._children)
        ]
        self.partition_statistics = [{f"00:{operator.name}": operator.tuples_out}]
        self.key_source = getattr(operator, "key_source", None)
        self.kernel_name = getattr(operator, "kernel_name", None)

    def _exchange_summary(self) -> str:
        summary = f"partitions={self.partitions}, workers={self.workers}"
        if self.memory_budget_mb is not None:
            summary += f", budget={self.memory_budget_mb:g}MB"
        return summary


class PartitionedDivision(PartitionedOperator):
    """Division partitioned on the quotient attributes.

    Sound for every division algorithm because division is independent per
    quotient-key group: whether a candidate ``a`` belongs to the quotient
    depends only on the dividend tuples carrying ``a`` (all in one
    partition) and on the divisor, which is *broadcast* — shipped whole to
    every partition, exactly like the small relation of a Grace hash join.
    For the great divide the same holds per ``(a, c)`` pair, so
    partitioning on ``A`` alone is sufficient.

    Hash partitioning keeps contiguous equal-key runs contiguous within
    their bucket, so a dividend that arrives clustered on the quotient
    attributes stays clustered per partition and the streaming merge-group
    mode of :class:`~repro.physical.division.MergeSortDivision` remains
    valid (``assume_clustered`` is forwarded).
    """

    name = "partitioned_division"

    #: What the exchange adds to the wrapped algorithm's serial price, in
    #: the division operators' units (≈10 ns: the coded hash division
    #: spent 19 ns a tuple at ``per_input_cost=2.0`` when these were set;
    #: 12 ns since scans hand up whole blocks, which only makes the
    #: declined exchange dearer — ARCHITECTURE §7), as
    #: ``PhysicalCostModel._with_parallel`` reads them: ``startup_cost`` is
    #: one pool round trip, charged per task (0.5–0.7 ms measured; the pool
    #: is reused, there is no worker startup); ``per_input_cost`` a tuple
    #: crossing as codes (14 ns partition pass + 10 ns pickling);
    #: ``per_output_cost`` a tuple crossing as a Python value tuple — the
    #: tuple route in (≈500 ns: hash + append, pickle, unpickle) and the
    #: quotient on its way back.
    properties = PhysicalProperties(
        streaming=False, startup_cost=60_000.0, per_input_cost=2.4, per_output_cost=50.0
    )

    def __init__(
        self,
        dividend: PhysicalOperator,
        divisor: PhysicalOperator,
        algorithm: str = "hash",
        kind: str = "small",
        partitions: int = 2,
        workers: int = 1,
        assume_clustered: bool = False,
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
        super().__init__(schema, (dividend, divisor), key, partitions, workers)
        self.algorithm = algorithm
        self.kind = kind
        self.assume_clustered = assume_clustered

    def _tasks(self) -> list[PartitionTask]:
        dividend, divisor = self._children
        exchange = self._exchange()
        divisor_block = exchange.collect(divisor)
        buckets = exchange.partition(dividend)
        self.partition_input_sizes = [len(bucket) for bucket in buckets]
        options: tuple[tuple[str, Any], ...] = ()
        if self.kind == "small" and self.algorithm == "merge_sort" and self.assume_clustered:
            options = (("assume_clustered", True),)
        kind = "small_divide" if self.kind == "small" else "great_divide"
        dividend_names = dividend.schema.names
        divisor_names = divisor.schema.names
        return [
            PartitionTask(
                kind=kind,
                algorithm=self.algorithm,
                inputs=((dividend_names, bucket), (divisor_names, divisor_block)),
                options=options,
            )
            for bucket in buckets
            if bucket
        ]

    def _inline_operator(self) -> PhysicalOperator:
        dividend, divisor = self._children
        if self.kind == "small":
            operator_class = SMALL_DIVIDE_ALGORITHMS[self.algorithm]
            if self.algorithm == "merge_sort" and self.assume_clustered:
                return operator_class(dividend, divisor, assume_clustered=True)
            return operator_class(dividend, divisor)
        return GREAT_DIVIDE_ALGORITHMS[self.algorithm](dividend, divisor)

    def describe(self) -> str:
        mode = f"{self.algorithm}(streaming)" if self.assume_clustered else self.algorithm
        return f"PartitionedDivision[{mode}, {self._exchange_summary()}]"


class PartitionedHashJoin(PartitionedOperator):
    """Natural join partitioned on the shared attributes (Grace hash join).

    Both inputs are partitioned with the *same* hash on the join key, so
    every joinable pair meets in exactly one partition and every output
    tuple (whose key is part of the tuple) is produced exactly once across
    partitions.  Partitions where either side is empty produce nothing and
    are skipped outright.
    """

    name = "partitioned_hash_join"

    #: The exchange's charges (see ``PartitionedDivision.properties``) in
    #: the join operators' units: a tuple-at-a-time hash join spends
    #: ≈550 ns per unit (``per_input_cost=2.0``, ``per_output_cost=1.0``),
    #: so the same 0.6 ms round trip is 1 000 units, a coded tuple (24 ns
    #: plus ≈105 ns decoding it for the join on the worker) 0.25 and a
    #: value tuple crossing (≈500 ns) 0.9.
    properties = PhysicalProperties(startup_cost=1000.0, per_input_cost=0.25, per_output_cost=0.9)

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        algorithm: str = "hash",
        partitions: int = 2,
        workers: int = 1,
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
        super().__init__(left.schema.union(right.schema), (left, right), key, partitions, workers)
        self.algorithm = algorithm

    def _tasks(self) -> list[PartitionTask]:
        left, right = self._children
        exchange = self._exchange()
        left_buckets = exchange.partition(left)
        right_buckets = exchange.partition(right)
        self.partition_input_sizes = [
            len(left_bucket) + len(right_bucket)
            for left_bucket, right_bucket in zip(left_buckets, right_buckets)
        ]
        left_names = left.schema.names
        right_names = right.schema.names
        return [
            PartitionTask(
                kind="natural_join",
                algorithm=self.algorithm,
                inputs=((left_names, left_bucket), (right_names, right_bucket)),
            )
            for left_bucket, right_bucket in zip(left_buckets, right_buckets)
            if left_bucket and right_bucket
        ]

    def _inline_operator(self) -> PhysicalOperator:
        left, right = self._children
        return JOIN_ALGORITHMS[self.algorithm](left, right)

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

    The built aggregate ``(label, fn)`` pairs are closures and do not
    pickle, so when the declarative
    :class:`~repro.algebra.expressions.AggregateSpec` list is available
    (``specs``) the task ships *it* and the worker rebuilds the functions;
    without specs, custom functions that cannot cross a process boundary
    automatically degrade to inline execution in the pool layer — same
    result, no parallelism.
    """

    name = "partitioned_aggregate"

    #: The exchange's charges in the aggregate's units, which are the
    #: join's (``HashAggregate`` reads tuples too: ≈550 ns a unit).
    properties = PhysicalProperties(
        streaming=False, startup_cost=1000.0, per_input_cost=0.25, per_output_cost=0.9
    )

    def __init__(
        self,
        child: PhysicalOperator,
        grouping: AttributeNames,
        aggregations: Mapping[str, Aggregate],
        partitions: int = 2,
        workers: int = 1,
        specs: Optional[Sequence["AggregateSpec"]] = None,
    ) -> None:
        grouping_schema = child.schema.project(as_schema(grouping))
        if len(grouping_schema) == 0:
            raise ExecutionError("partitioned aggregation needs grouping attributes")
        schema = Schema(grouping_schema.names + tuple(aggregations.keys()))
        super().__init__(schema, (child,), grouping_schema, partitions, workers)
        self._aggregations = dict(aggregations)
        self._specs = tuple(specs) if specs is not None else None

    def _tasks(self) -> list[PartitionTask]:
        (child,) = self._children
        exchange = self._exchange()
        buckets = exchange.partition(child)
        self.partition_input_sizes = [len(bucket) for bucket in buckets]
        child_names = child.schema.names
        if self._specs is not None:
            options = (("grouping", self._key.names), ("specs", self._specs))
        else:
            options = (("grouping", self._key.names), ("aggregations", self._aggregations))
        return [
            PartitionTask(kind="aggregate", algorithm="hash", inputs=((child_names, bucket),), options=options)
            for bucket in buckets
            if bucket
        ]

    def _inline_operator(self) -> PhysicalOperator:
        (child,) = self._children
        return HashAggregate(child, self._key.names, self._aggregations)

    def describe(self) -> str:
        aggregates = ", ".join(
            f"{label}→{output}" for output, (label, _fn) in self._aggregations.items()
        )
        keys = ", ".join(self._key.names)
        return f"PartitionedAggregate[{keys}; {aggregates}; {self._exchange_summary()}]"


