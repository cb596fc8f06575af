"""Grace-style hash-partition exchange.

:class:`HashPartitionExchange` consumes a physical operator's chunk stream
and materializes it as ``K`` *key-disjoint* partitions: every tuple lands in
the bucket ``hash(key) % K`` of its partition-key value, so all tuples that
agree on the key — one quotient-candidate group, one join-key equivalence
class, one aggregation group — end up in the same partition.  That
disjointness is what makes partition-wise execution sound: each partition
can run the existing *serial* algorithm to completion and the concatenated
outputs are exactly the unpartitioned result (no key spans two partitions,
so no merge step and no cross-partition duplicate elimination is needed).

A :class:`Partition` is a block of **code columns**, not a list of tuples.
Chunks that carry dictionary codes (scans, dictionary-filtered segments)
are routed without their values being touched: ``hash(value) % K`` is
computed once per *dictionary entry* (a route table, kept per dictionary
object by whoever owns the plan; composite keys go through
:func:`~repro.relation.encoding.merge_code_columns` first), a table lookup
over the key's code buffer turns it into one route per tuple, and every
partition takes its codes by that route, in stream order; a column whose
dictionary is larger than the partition is compacted to the entries the
partition carries.  What crosses a process boundary (see
:mod:`repro.physical.parallel.pool`) is therefore ``(attribute names,
dictionaries, int32 / array('i') code buffers)`` — integers plus distinct
values, never more values than codes.  The buckets, their order and their
sizes are exactly those of ``hash(key) % K`` per tuple.

Chunks without code columns (join output, raw-stored columns) and every
chunk of a run under a memory budget take the *tuple route*
(:meth:`HashPartitionExchange._route_tuples`, the only reader of
``chunk.tuples`` in this package — lint rule RP406) and become plain lists
of aligned value tuples; the choice is made per chunk, so one partition may
hold both kinds of piece, in stream order.

:class:`PartitionSource` is the matching leaf operator: a scan over one
partition, used to rebuild per-partition sub-plans on a worker.  Coded
pieces come back as coded chunks (tuples decoded only if a join or an
aggregate asks for them), so the division operators in the sub-plan read
cached codes just as they do over a table scan.  Bucket order is the scan
order, so a dividend that arrives clustered on the partition key stays
clustered *within* every partition (contiguous equal-key runs map to a
single bucket and are taken in order) — order-exploiting algorithms keep
their streaming mode.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator
from typing import Any, Optional, Union

from repro.errors import ExecutionError
from repro.physical.base import DEFAULT_BATCH_SIZE, Chunk, PhysicalOperator
from repro.physical.base import PhysicalProperties, TupleProjector
from repro.relation.encoding import (
    CodeColumn,
    concatenate_codes,
    merge_code_columns,
    route_codes,
    split_code_columns,
)
from repro.relation.schema import AttributeNames, as_schema

__all__ = ["HashPartitionExchange", "Partition", "PartitionSource"]

#: One run of a partition: code columns (one per attribute, over shared
#: dictionaries), a list of aligned value tuples, or — once a memory budget
#: forced a flush — a block-streaming on-disk handle
#: (:class:`repro.storage.spill.SpilledPartition`).
Piece = Union[tuple[CodeColumn, ...], list[tuple[Any, ...]], "SpilledPartition"]  # noqa: F821


class Partition:
    """One bucket of an exchange pass: its pieces, in stream order."""

    __slots__ = ("pieces", "size", "coded_size")

    def __init__(self) -> None:
        self.pieces: list[Piece] = []
        #: Tuples held, and how many of them as code columns.
        self.size = 0
        self.coded_size = 0

    def add(self, piece: Piece) -> None:
        """Append a piece (an empty one is dropped)."""
        coded = isinstance(piece, tuple)
        count = len(piece[0]) if coded else len(piece)
        if count:
            self.pieces.append(piece)
            self.size += count
            self.coded_size += count if coded else 0

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"<Partition {self.size} tuples ({self.coded_size} coded) "
            f"in {len(self.pieces)} piece(s)>"
        )


class PartitionSource(PhysicalOperator):
    """Leaf scan over one partition.

    The per-partition twin of :class:`~repro.physical.scans.RelationScan`:
    pure slicing of code columns or tuple lists, no per-tuple work,
    preserves the partition's order (and with it any clustering the
    exchange preserved).  A spilled piece is streamed block by block — a
    worker re-reading a spilled partition never holds more than one spill
    block of it.  A bare tuple list is accepted as a one-piece partition.
    """

    name = "partition_source"

    properties = PhysicalProperties(per_input_cost=0.0, per_output_cost=0.5, preserves_order=True)

    def __init__(self, attributes: AttributeNames, block: Union[Partition, Piece]) -> None:
        super().__init__(as_schema(attributes))
        if not isinstance(block, Partition):
            block, piece = Partition(), block
            block.add(piece)
        self._block = block
        # A sub-plan is drained inside one task, so nothing is gained by
        # re-slicing what already sits in memory: unless a batch size is
        # set, every piece (every spill block) goes up as one chunk.
        self.batch_size = sys.maxsize

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        size = self.batch_size
        for piece in self._block.pieces:
            if isinstance(piece, tuple):
                yield from Chunk.coded(schema, piece).pieces(size)
                continue
            iter_spill_blocks = getattr(piece, "iter_blocks", None)
            for block in (piece,) if iter_spill_blocks is None else iter_spill_blocks():
                yield from Chunk(schema, block).pieces(size)

    def describe(self) -> str:
        spilled = any(hasattr(piece, "iter_blocks") for piece in self._block.pieces)
        return f"PartitionSource({len(self._block)} tuples{' (spilled)' if spilled else ''})"


def _dictionaries(chunk: Chunk) -> Optional[tuple[int, ...]]:
    """What a run of coded chunks shares (None: the chunk carries no codes)."""
    if chunk.columns is None:
        return None
    return tuple(id(column.dictionary) for column in chunk.columns)


class HashPartitionExchange:
    """Split a chunk stream into ``partitions`` key-disjoint :class:`Partition` s.

    With a memory budget set (``memory_budget_mb``), the buffered buckets
    are tracked against it and the largest bucket is flushed to a
    per-partition spill file (block format of :mod:`repro.storage.spill`)
    whenever the total buffered tuples outgrow the budget; the flushed
    partitions come back as re-streamable
    :class:`~repro.storage.spill.SpilledPartition` pieces.  Counters
    (``peak_buffered_tuples``/``peak_buffered_blocks``, ``spilled_*``)
    accumulate across :meth:`partition` calls so a join exchange that
    partitions both sides reports combined figures.
    """

    __slots__ = (
        "key",
        "partitions",
        "memory_budget_mb",
        "spill_directory",
        "budget_tuples",
        "peak_buffered_tuples",
        "peak_buffered_blocks",
        "spilled_tuples",
        "spilled_blocks",
        "spilled_partitions",
        "input_forms",
        "_key_of",
        "_route_tables",
    )

    def __init__(
        self,
        key: AttributeNames,
        partitions: int,
        memory_budget_mb: Optional[float] = None,
        spill_directory: Optional[str] = None,
        route_tables: Optional[dict[tuple[int, int], tuple[list[Any], Any]]] = None,
    ) -> None:
        key_schema = as_schema(key)
        if partitions < 1:
            raise ExecutionError(f"exchange needs at least one partition, got {partitions}")
        if len(key_schema) == 0:
            raise ExecutionError("exchange needs at least one partition-key attribute")
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ExecutionError(f"memory budget must be positive, got {memory_budget_mb}")
        self.key = key_schema
        self.partitions = partitions
        self.memory_budget_mb = memory_budget_mb
        self.spill_directory = spill_directory
        #: The budget converted to tuples (estimated from a sample of the
        #: first chunk; ``None`` until the first budgeted partition pass).
        self.budget_tuples: Optional[int] = None
        self.peak_buffered_tuples = 0
        self.peak_buffered_blocks = 0
        self.spilled_tuples = 0
        self.spilled_blocks = 0
        self.spilled_partitions = 0
        #: In what form :meth:`partition` handed its input on so far:
        #: "code columns", "tuples" or both.
        self.input_forms: set[str] = set()
        self._key_of = TupleProjector(key_schema)
        #: ``(id(dictionary), partitions)`` → ``(dictionary, routes of its
        #: entries)``.  A caller that outlives this pass (the partitioned
        #: operator of a cached plan) hands the same dict in every time:
        #: dictionaries live as long as their relation value, so the plan
        #: re-routes for the price of the table lookup.
        self._route_tables = {} if route_tables is None else route_tables

    def partition(self, source: PhysicalOperator) -> list[Partition]:
        """Consume ``source`` into ``partitions`` key-disjoint partitions.

        Columns are aligned with ``source.schema`` so a
        :class:`PartitionSource` over a partition reproduces the source's
        share exactly.  With one partition nothing is hashed — the
        zero-overhead serial fallback.  Neither the coded route nor
        spilling changes a partition's content or order: both hold exactly
        the tuples ``hash(key) % partitions`` per tuple would have appended.
        """
        if self.memory_budget_mb is not None:
            partitions = self._partition_with_budget(source)
        else:
            partitions = self._route(source, self.partitions)
        for partition in partitions:
            if partition.coded_size:
                self.input_forms.add("code columns")
            if partition.coded_size < len(partition):
                self.input_forms.add("tuples")
        return partitions

    def collect(self, source: PhysicalOperator) -> Partition:
        """Materialize ``source`` as one block (broadcast side)."""
        (block,) = self._route(source, 1)
        return block

    def _route(self, source: PhysicalOperator, count: int) -> list[Partition]:
        """The partition pass without a budget: per run of chunks that share
        their dictionaries the coded route, per uncoded chunk the tuple route."""
        schema = source.schema
        partitions = [Partition() for _ in range(count)]
        # Coded chunks are cheap to hold (their tuples are still deferred).
        chunks = [chunk.aligned(schema) for chunk in source.chunks()]
        for shared, run in itertools.groupby(chunks, _dictionaries):
            if shared is None:
                pieces: Any = [[] for _ in range(count)]
                for chunk in run:
                    self._route_tuples(chunk, pieces)
            else:
                pieces = self._route_codes(list(run), count)
            for partition, piece in zip(partitions, pieces):
                partition.add(piece)
        return partitions

    def _route_codes(self, run: list[Chunk], count: int) -> list[tuple[CodeColumn, ...]]:
        """The coded route: one route per dictionary entry, then a table
        lookup over the key's code buffer — no tuple is materialized."""
        first = run[0]
        columns = [
            CodeColumn(
                column.dictionary,
                concatenate_codes([chunk.columns[index].codes for chunk in run]),
            )
            for index, column in enumerate(first.columns)
        ]
        if count == 1:
            return split_code_columns(columns, None, None, 1)
        key = [columns[first.schema.position(name)] for name in self.key.names]
        if len(key) == 1:
            key_codes, routes = key[0].codes, self._route_table(key[0].dictionary, count)
        else:
            key_codes, keys = merge_code_columns(
                [[column.codes] for column in key], [column.dictionary for column in key]
            )
            routes = route_codes(keys, count)
        return split_code_columns(columns, key_codes, routes, count)

    def _route_table(self, dictionary: list[Any], count: int) -> Any:
        """The routes of a key dictionary's entries, cached by dictionary
        identity (the entry holds the dictionary, so its id cannot be
        reused while the entry lives) and partition count."""
        tables = self._route_tables
        cached = tables.get((id(dictionary), count))
        if cached is None:
            if len(tables) >= 8:  # one per input is the rule
                tables.clear()
            cached = tables[id(dictionary), count] = (dictionary, route_codes(dictionary, count))
        return cached[1]

    def _route_tuples(
        self, chunk: Chunk, buckets: list[list[tuple[Any, ...]]]
    ) -> list[tuple[Any, ...]]:
        """The tuple route: append each tuple of ``chunk`` to the bucket
        ``hash(key) % len(buckets)``; returns the chunk's tuples.  The one
        place in this package that reads ``chunk.tuples`` (RP406)."""
        tuples = chunk.tuples
        count = len(buckets)
        if count == 1:
            buckets[0].extend(tuples)
        else:
            for values, key in zip(tuples, self._key_of.keys_of(chunk)):
                buckets[hash(key) % count].append(values)
        return tuples

    def _partition_with_budget(self, source: PhysicalOperator) -> list[Partition]:
        """The spill-aware partition pass (budget set): tuple route only,
        spill files hold value tuples."""
        from repro.storage.spill import SPILL_BLOCK_TUPLES, SpillWriter

        if self.spill_directory is None:
            raise ExecutionError(
                "exchange has a memory budget but no spill directory; "
                "run it through a partitioned operator (or set spill_directory)"
            )
        schema = source.schema
        names = schema.names
        count = self.partitions
        buckets: list[list[tuple[Any, ...]]] = [[] for _ in range(count)]
        writers: list[Optional[SpillWriter]] = [None] * count
        buffered = 0
        peak = self.peak_buffered_tuples
        try:
            # A scan's chunk is its whole block: cut what is larger than a
            # batch, or the first chunk alone buffers past any budget.
            cut = (chunk.aligned(schema).pieces(DEFAULT_BATCH_SIZE) for chunk in source.chunks())
            for piece in itertools.chain.from_iterable(cut):
                tuples = self._route_tuples(piece, buckets)
                buffered += len(tuples)
                if self.budget_tuples is None and tuples:
                    self.budget_tuples = self.budget_in_tuples(self.memory_budget_mb, tuples)
                if buffered > peak:
                    peak = buffered
                # Flush the largest buffered bucket until back under budget;
                # a bucket flushes as a whole, so the loop always terminates.
                while self.budget_tuples is not None and buffered > self.budget_tuples:
                    index = max(range(count), key=lambda i: len(buckets[i]))
                    bucket = buckets[index]
                    if not bucket:
                        break
                    writer = writers[index]
                    if writer is None:
                        writer = writers[index] = SpillWriter(
                            self.spill_directory, f"partition-{id(self):x}-{index:04d}", names
                        )
                    blocks_before = writer.spilled_blocks
                    writer.spill(bucket)
                    self.spilled_blocks += writer.spilled_blocks - blocks_before
                    self.spilled_tuples += len(bucket)
                    buffered -= len(bucket)
                    buckets[index] = []
            self.peak_buffered_tuples = peak
            self.peak_buffered_blocks = -(-peak // SPILL_BLOCK_TUPLES)
            results = [Partition() for _ in range(count)]
            for index, writer in enumerate(writers):
                if writer is None:
                    results[index].add(buckets[index])
                    continue
                # Append the unflushed tail so the handle streams the full
                # bucket in original order, then seal the file.
                writer.spill(buckets[index])
                results[index].add(writer.finish())
                self.spilled_partitions += 1
        except BaseException:
            # A failed spill (disk full, injected fault) must not leave
            # half-written files behind: close and delete every writer
            # before the error unwinds to the operator's teardown.
            for writer in writers:
                if writer is not None:
                    writer.abort()
            raise
        return results

    @staticmethod
    def budget_in_tuples(memory_budget_mb: float, sample: list[tuple[Any, ...]]) -> int:
        """Convert an MB budget into a tuple count via a shallow sample.

        Measures tuple + per-value ``sys.getsizeof`` over the leading
        tuples of the first chunk — an estimate, but the budget is a
        coarse knob and the floor of one tuple keeps progress guaranteed.
        The planner asks the same question of the statistics' maxima to
        tell whether an input will outgrow the budget.
        """
        measured = sample[:64]
        total = 0
        for values in measured:
            total += sys.getsizeof(values)
            for value in values:
                total += sys.getsizeof(value)
        per_tuple = max(total // max(len(measured), 1), 1)
        budget_bytes = int(memory_budget_mb * 1024 * 1024)
        return max(budget_bytes // per_tuple, 1)

    def __repr__(self) -> str:
        return f"<HashPartitionExchange key={self.key.names!r} partitions={self.partitions}>"
