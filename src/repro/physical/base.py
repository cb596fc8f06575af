"""Volcano-style physical operators with a columnar chunk pull model.

Physical operators produce streams of :class:`Chunk` objects — an interned
:class:`~repro.relation.schema.Schema` plus a block of tuples (a scan's
whole block, :data:`DEFAULT_BATCH_SIZE` from an operator that builds
tuples), held as dictionary-code columns (when the block comes from a scan)
beside a lazily materialized list of value tuples aligned with the schema.
Flowing codes and bare value tuples instead of
:class:`~repro.relation.row.Row` objects removes the per-tuple ``Row``
allocation and order-insensitive hash from every operator boundary; a
plan's result is a relation held as code columns or as a tuple block,
whose rows are built only when someone asks for them
(:meth:`PhysicalOperator.execute`).

Every operator counts the tuples it emits, so the benchmark harness can
report *intermediate result sizes* — the metric behind the paper's argument
(after Leinders & Van den Bussche) that division must be a first-class
operator: any simulation through the basic algebra produces quadratically
large intermediate results, a special-purpose operator does not.  Counts
are sums over chunks, so where the chunk boundaries fall never moves them:
the per-operator counts are bit-identical to the row-at-a-time model.

Every subclass implements :meth:`PhysicalOperator._produce_chunks`.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from repro.errors import ExecutionError
from repro.relation.encoding import (
    CodeColumn,
    concatenate_codes,
    mask_positions,
    select_items,
    take,
)
from repro.relation.relation import Relation
from repro.relation.row import Row
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "Chunk",
    "PhysicalOperator",
    "PhysicalProperties",
    "PlanStatistics",
    "TupleProjector",
    "aligned_values",
    "batched",
    "chunked",
    "collect_statistics",
]

#: Tuples per chunk of every operator that *produces* tuples (joins,
#: projections, aggregates, quotients).  Scans are not bound by it: unless a
#: batch size is set their chunk is the whole block, and what only selects
#: or relabels a chunk passes it on at the size it came.
DEFAULT_BATCH_SIZE = 1024


@dataclass(frozen=True)
class PhysicalProperties:
    """Declarative cost/behaviour descriptor of one physical operator class.

    The physical cost model (:mod:`repro.optimizer.physical_cost`) prices
    a plan from these coefficients plus the cardinality estimates, so what
    an operator costs sits on its class.  The coefficients are abstract
    tuple-touch units; only their *ratios* matter (they compare plans, they
    do not predict wall-clock time).
    """

    #: Emits output while consuming input (False → materializes/blocks).
    streaming: bool = True
    #: Fixed setup overhead (hash tables, dictionary encodings).
    startup_cost: float = 0.0
    #: Cost per input tuple (all inputs).
    per_input_cost: float = 1.0
    #: Cost per output tuple.
    per_output_cost: float = 1.0
    #: × n·log2(n) on the build/dividend input (a sort-based algorithm).
    sort_factor: float = 0.0
    #: × quadratic term (pairs × groups; operator-shape specific).
    pairwise_factor: float = 0.0
    #: Which two estimated quantities the quadratic term multiplies — names
    #: from the cost model's quantity table ("left", "right", "candidates",
    #: "divisor_groups").
    pairwise_operands: tuple[str, str] = ("left", "right")


class BaseBlock(NamedTuple):
    """Where a chunk that is a relation's whole block came from.

    A scan whose batch size is unset hands up its relation's block with
    this mark (a stored table's scan does so only when the planner set it
    to, and then reads no page until something reads the chunk's codes); a
    :class:`~repro.physical.basic.Filter` whose predicate reads one
    attribute hands up a *restricted block* under the same mark plus the
    predicate's truth table over that attribute's dictionary.  The
    division operators that sweep the dividend's codes read the mark
    instead (the relation's containment bitmap, see
    :mod:`repro.physical.division.keys`); everything else reads the chunk.
    Both read the relation's summaries
    (:meth:`~repro.relation.relation.Relation._summary`), not the chunk.
    """

    relation: Relation
    #: ``(position, entry truth table, the table's packed words)`` of a
    #: restricted block, else ``None``.
    restriction: Optional[tuple[int, Any, Any]] = None


class Chunk:
    """A block of tuples aligned with one interned schema, in two forms.

    The columnar unit of the physical layer.  ``columns`` (when not
    ``None``) holds one :class:`~repro.relation.encoding.CodeColumn` per
    schema attribute — the scanned relation's cached encoding, or a slice
    or selection of it — which the division operators and filters read
    directly.  ``tuples`` is the row-major view:
    ``tuples[i][j]`` is the value of attribute ``schema.names[j]`` in the
    ``i``-th tuple.  Chunks derived by selecting or permuting another chunk
    materialize it lazily, on first access, so a pipeline that only ever
    reads the codes never builds the tuple list; every other consumer
    (joins, aggregates, the exchange, a result that cannot stay coded)
    keeps reading ``chunk.tuples`` unchanged.  No :class:`Row` objects exist inside a
    chunk; :meth:`rows` materializes them on demand.  ``_base`` marks a
    relation's whole or restricted block (:class:`BaseBlock`); a restricted
    block (:meth:`_restricted`) and a stored table's whole block
    (:meth:`base_block`) defer their code columns too.
    """

    __slots__ = ("schema", "columns", "_tuples", "_length", "_thunk", "_base")

    def __init__(
        self,
        schema: Schema,
        tuples: list[tuple[Any, ...]],
        columns: Optional[tuple[CodeColumn, ...]] = None,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self._tuples: Optional[list[tuple[Any, ...]]] = tuples
        self._length = len(tuples)
        self._thunk: Optional[Callable[[], list[tuple[Any, ...]]]] = None
        self._base: Optional[BaseBlock] = None

    @classmethod
    def deferred(
        cls,
        schema: Schema,
        columns: Optional[tuple[CodeColumn, ...]],
        length: int,
        thunk: Callable[[], list[tuple[Any, ...]]],
    ) -> "Chunk":
        """A chunk of ``length`` tuples that ``thunk`` builds on first use."""
        chunk = object.__new__(cls)
        chunk.schema = schema
        chunk.columns = columns
        chunk._tuples = None
        chunk._length = length
        chunk._thunk = thunk
        chunk._base = None
        return chunk

    @classmethod
    def coded(cls, schema: Schema, columns: tuple[CodeColumn, ...]) -> "Chunk":
        """A chunk over code columns; first use of its tuples decodes them
        (dictionary lookups, then the transpose)."""
        return cls.deferred(
            schema,
            columns,
            len(columns[0]),
            lambda: list(zip(*(column.values() for column in columns))),
        )

    @classmethod
    def base_block(
        cls, schema: Schema, length: int, relation: Relation, read: Callable[[], "Chunk"]
    ) -> "Chunk":
        """``relation``'s block of ``length`` tuples, marked :class:`BaseBlock`,
        whose code columns and tuples are those of ``read()`` — called once,
        and only if something reads them."""
        return _DeferredBlock(schema, length, BaseBlock(relation), read)

    @property
    def tuples(self) -> list[tuple[Any, ...]]:
        """The value tuples (materialized on first access, then kept)."""
        tuples = self._tuples
        if tuples is None:
            tuples = self._tuples = self._thunk()  # type: ignore[misc]
            self._thunk = None
        return tuples

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        coded = "" if self.columns is None else " coded"
        return f"<Chunk schema={self.schema.names!r} tuples={self._length}{coded}>"

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Row]) -> "Chunk":
        """Build a chunk over ``schema`` from rows (realigned as needed)."""
        return cls(schema, [aligned_values(row, schema) for row in rows])

    # contract: rows-ok (the public Row API of predicates and aggregates)
    def rows(self) -> list[Row]:
        """Materialize the chunk as :class:`Row` objects (boundary only)."""
        return Row.block(self.schema, self.tuples)

    def aligned(self, schema: Schema) -> "Chunk":
        """This chunk realigned with ``schema``'s attribute order.

        Returns ``self`` (zero copy) when the orders already agree;
        otherwise the code columns are reordered and one cached-picker pass
        permutes the tuples when (if) they are read.
        """
        own = self.schema
        if schema is own or schema.names == own.names:
            return self
        get = own.tuple_getter(schema.names)
        columns = self.columns
        if columns is not None:
            columns = tuple(columns[own.position(name)] for name in schema.names)
        return Chunk.deferred(schema, columns, self._length, lambda: list(map(get, self.tuples)))

    def relabeled(self, schema: Schema) -> "Chunk":
        """The same block under ``schema`` (positions unchanged: a rename)."""
        if schema is self.schema:
            return self
        return Chunk.deferred(schema, self.columns, self._length, lambda: self.tuples)

    def selected(self, mask: Any, count: int) -> "Chunk":
        """The ``count`` tuples where ``mask`` (a code-buffer mask) is set."""
        # The mask becomes positions once and every column gathers by those
        # (see ``CodeColumn.select``); the tuples, if read, compress by it.
        columns = self.columns
        if columns is not None:
            positions = mask_positions(mask)
            columns = tuple(column.select(positions) for column in columns)
        return Chunk.deferred(
            self.schema, columns, count, lambda: select_items(self.tuples, mask)
        )

    def _restricted(self, position: int, table: Any, packed: Any, count: int) -> "Chunk":
        """This chunk, a relation's whole block, cut to the ``count``
        tuples whose entry of column ``position`` ``table`` sets (``packed``:
        the table's words).  Nothing is selected until the cut's columns or
        tuples are read; then :meth:`selected` cuts both once (take →
        nonzero → select)."""
        base = BaseBlock(self._base.relation, (position, table, packed))  # type: ignore[union-attr]

        def cut() -> Chunk:
            codes = self.columns[position].codes  # type: ignore[index]
            return self.selected(take(table, codes), count)

        return _DeferredBlock(self.schema, count, base, cut)

    def pieces(self, size: int) -> Iterator["Chunk"]:
        """This chunk as it is when it holds at most ``size`` tuples, else
        in slices of ``size`` (code columns now, tuples if they are read)."""
        total = self._length
        if total <= size:
            yield self
            return
        columns = self.columns
        for start in range(0, total, size):
            stop = min(start + size, total)
            yield Chunk.deferred(
                self.schema,
                None if columns is None else tuple(c.slice(start, stop) for c in columns),
                stop - start,
                lambda start=start, stop=stop: self.tuples[start:stop],
            )

    def column(self, name: str) -> list[Any]:
        """One attribute's values, in tuple order."""
        position = self.schema.position(name)
        return [values[position] for values in self.tuples]


class _DeferredBlock(Chunk):
    """A marked block (:class:`BaseBlock`) whose length is known and whose
    code columns and tuples are another chunk's, built by one call the
    first time either is read.  ``columns`` is a property here only, so
    every other chunk reads a plain slot."""

    __slots__ = ("_cut",)

    def __init__(
        self, schema: Schema, length: int, base: BaseBlock, build: Callable[[], Chunk]
    ) -> None:
        cut = self._cut = functools.cache(build)
        self.schema = schema
        self._tuples = None
        self._length = length
        self._thunk = lambda: cut().tuples
        self._base = base

    @property  # type: ignore[override]
    def columns(self) -> Optional[tuple[CodeColumn, ...]]:
        return self._cut().columns


@dataclass
class PlanStatistics:
    """Tuple counts (and wall-clock time) gathered from one executed plan."""

    #: operator label → number of tuples that operator emitted
    tuples_by_operator: dict[str, int] = field(default_factory=dict)
    #: exchange label → peak per-partition counter of its inner sub-plans
    #: (the *maximum* over partitions — partitions hold key-disjoint slices
    #: of the work, so summing them would overstate the largest single
    #: intermediate a partitioned run ever materializes)
    partition_peaks: dict[str, int] = field(default_factory=dict)
    #: wall-clock seconds spent executing the plan (filled by the executor)
    elapsed_seconds: float = 0.0
    #: Always zero: there is no worker pool.  ``bench/`` reads them; the
    #: [benchmark] PR (ROADMAP item 1) deletes them.
    worker_seconds = 0.0
    tasks_retried = 0
    tasks_degraded = 0
    #: fault-point name → injections fired during this run (empty unless a
    #: :mod:`repro.faults` plan is armed; filled by the executor from the
    #: registry's counter delta)
    faults_injected: dict[str, int] = field(default_factory=dict)

    @property
    def total_tuples(self) -> int:
        """Total number of tuples produced by all (plan-level) operators.

        Partition-local counters are intentionally excluded: an exchange
        operator's own output count already covers the concatenated
        partition outputs, so including the per-partition figures would
        double-charge the partitioned operators.
        """
        return sum(self.tuples_by_operator.values())

    @property
    def max_intermediate(self) -> int:
        """The largest single intermediate result (the paper's key metric).

        Covers both plan-level operators and the per-partition peaks of
        exchange operators (max over concurrent partitions, not their sum).
        """
        largest = max(self.tuples_by_operator.values(), default=0)
        peak = max(self.partition_peaks.values(), default=0)
        return max(largest, peak)

    def __getitem__(self, label: str) -> int:
        return self.tuples_by_operator.get(label, 0)


class TupleProjector:
    """Extract value tuples (or hashable group keys) for a fixed attribute
    list out of chunks or rows.

    Caches C-level :func:`operator.itemgetter` extractors per source schema;
    because schemas are interned and all chunks of one input stream normally
    share a schema object, the per-chunk cost is an identity check plus one
    ``map(itemgetter, tuples)`` sweep — no dict lookups per attribute.

    :meth:`keys` / :meth:`keys_of` return *bare* values (not 1-tuples) when
    the target is a single attribute; such keys are only for
    hashing/grouping — convert back with :meth:`key_tuple` before building
    output tuples.
    """

    __slots__ = ("_names", "_single", "_schema", "_tuple_get", "_key_get")

    def __init__(self, attributes: AttributeNames) -> None:
        self._names = tuple(as_schema(attributes).names)
        self._single = len(self._names) == 1
        self._schema: Optional[Schema] = None
        self._tuple_get = None
        self._key_get = None

    def _rebind(self, schema: Schema) -> None:
        self._tuple_get, self._key_get = schema.getters(self._names)
        self._schema = schema

    def __call__(self, row: Row) -> tuple[Any, ...]:
        """The target attributes of one row, as a value tuple."""
        if row._schema is not self._schema:
            self._rebind(row._schema)
        return self._tuple_get(row._values)

    # ------------------------------------------------------------------
    # chunk-level extraction (the hot path)
    # ------------------------------------------------------------------
    def tuples_of(self, chunk: Chunk) -> list[tuple[Any, ...]]:
        """Value tuples of the target attributes for a whole chunk."""
        if chunk.schema is not self._schema:
            self._rebind(chunk.schema)
        return list(map(self._tuple_get, chunk.tuples))

    def keys_of(self, chunk: Chunk) -> list[Any]:
        """Hashable group keys for a whole chunk.

        A bare value for single-attribute targets, a tuple otherwise.
        """
        if chunk.schema is not self._schema:
            self._rebind(chunk.schema)
        return list(map(self._key_get, chunk.tuples))

    # ------------------------------------------------------------------
    # row-level extraction (compatibility consumers)
    # ------------------------------------------------------------------
    def tuples(self, batch: list[Row]) -> list[tuple[Any, ...]]:
        """Value tuples for a whole batch of rows."""
        schema = self._schema
        get = self._tuple_get
        out: list[tuple[Any, ...]] = []
        append = out.append
        for row in batch:
            row_schema = row._schema
            if row_schema is not schema:
                self._rebind(row_schema)
                schema = row_schema
                get = self._tuple_get
            append(get(row._values))
        return out

    def keys(self, batch: list[Row]) -> list[Any]:
        """Hashable group keys for a whole batch of rows."""
        schema = self._schema
        get = self._key_get
        out: list[Any] = []
        append = out.append
        for row in batch:
            row_schema = row._schema
            if row_schema is not schema:
                self._rebind(row_schema)
                schema = row_schema
                get = self._key_get
            append(get(row._values))
        return out

    def key_tuple(self, key: Any) -> tuple[Any, ...]:
        """Convert a :meth:`keys`-style key back to an aligned value tuple."""
        return (key,) if self._single else key


def aligned_values(row: Row, schema: Schema) -> tuple[Any, ...]:
    """Value tuple of ``row`` aligned with ``schema``'s attribute order."""
    row_schema = row.schema
    if row_schema is schema or row_schema.names == schema.names:
        return row.values_tuple
    return row.values_for(schema)


def batched(rows: Iterable[Row], size: int) -> Iterator[list[Row]]:
    """Slice an iterable of rows into lists of at most ``size`` rows."""
    batch: list[Row] = []
    append = batch.append
    for row in rows:
        append(row)
        if len(batch) >= size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


def chunked(tuples: Iterable[tuple[Any, ...]], schema: Schema, size: int) -> Iterator[Chunk]:
    """Slice an iterable of aligned value tuples into chunks of ``size``."""
    block: list[tuple[Any, ...]] = []
    append = block.append
    for values in tuples:
        append(values)
        if len(block) >= size:
            yield Chunk(schema, block)
            block = []
            append = block.append
    if block:
        yield Chunk(schema, block)


class PhysicalOperator:
    """Base class of all physical operators.

    Subclasses implement :meth:`_produce_chunks` (a generator of
    :class:`Chunk` objects).  The public :meth:`chunks` wraps it with tuple
    counting; :meth:`execute` materializes the stream into a
    :class:`Relation` without per-operator row objects.
    """

    #: Human-readable operator name used in plans and statistics.
    name = "physical"

    #: Declarative cost/behaviour descriptor consumed by the physical cost
    #: model; subclasses override with their own coefficients.
    properties = PhysicalProperties()

    #: True for exchange operators, which run their work per partition;
    #: :meth:`set_memory_budget` sets their spill budget.
    parallel = False

    #: Contract flag consumed by the partitioned wrappers and the static
    #: verifier (RP202): True only for algorithms whose result over a
    #: key-disjoint partitioning of their inputs equals the union of the
    #: per-partition results.  Division and great-division algorithms
    #: qualify (quotient groups never span a partition of the quotient
    #: key), as do equi-joins and grouped aggregation partitioned on their
    #: key; anything else must stay False and never be wrapped.
    key_disjoint_safe = False

    #: Process-wide construction counter backing collision-free labels.
    _construction_ids = itertools.count()

    def __init__(self, schema: Schema, children: tuple["PhysicalOperator", ...] = ()) -> None:
        self._schema = Schema.interned(schema.names)
        self._children = children
        self.tuples_out = 0
        self.batch_size = DEFAULT_BATCH_SIZE
        self._ordinal = next(PhysicalOperator._construction_ids)
        self._plan_ordinal: Optional[int] = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The output schema of this operator."""
        return self._schema

    @property
    def children(self) -> tuple["PhysicalOperator", ...]:
        """Input operators."""
        return self._children

    @property
    def inputs(self) -> tuple["PhysicalOperator", ...]:
        """The plans this operator was built over, one per input of its
        logical node: its children, unless it runs a sub-plan of its own
        over them (then that sub-plan is its one child)."""
        return self._children

    @property
    def label(self) -> str:
        """Stable identifier for this operator, for explain output and tooling.

        (:func:`collect_statistics` keys its counts by walk position,
        ``"NN:name"``, not by this label.)  After :meth:`assign_labels` ran
        on the plan root, labels are sequential in walk order
        (``name#0001``); before that, a process-wide construction ordinal is
        used.  Either way two distinct operators never share a label (unlike
        the earlier ``id(self) & 0xFFFF`` scheme, which could collide within
        one plan).
        """
        ordinal = self._plan_ordinal if self._plan_ordinal is not None else self._ordinal
        return f"{self.name}#{ordinal:04d}"

    def assign_labels(self) -> None:
        """Assign stable per-plan sequential labels (pre-order walk)."""
        for index, operator in enumerate(self.walk()):
            operator._plan_ordinal = index

    def walk(self) -> Iterator["PhysicalOperator"]:
        """Yield this operator and all descendants, pre-order."""
        yield self
        for child in self._children:
            yield from child.walk()

    def set_batch_size(self, size: int) -> None:
        """Set the chunk size of this operator and the whole subtree."""
        if size < 1:
            raise ExecutionError(f"batch size must be positive, got {size}")
        for operator in self.walk():
            operator.batch_size = size

    def set_memory_budget(self, memory_budget_mb: Optional[float]) -> None:
        """Set the spill budget of every exchange in the subtree.

        A runtime knob like :meth:`set_batch_size`: exchange operators
        (``parallel = True``) buffer their hash partitions in memory and,
        with a budget set, spill the largest buffered partitions to disk
        once the buffered tuples outgrow it (see
        :mod:`repro.storage.spill`).  ``None`` disables spilling; serial
        plans are unaffected.
        """
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ExecutionError(f"memory budget must be positive, got {memory_budget_mb}")
        for operator in self.walk():
            if operator.parallel:
                operator.memory_budget_mb = memory_budget_mb

    def partition_peaks(self) -> dict[str, int]:
        """Per-partition peak counters (exchange operators override)."""
        return {}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _produce_chunks(self) -> Iterator[Chunk]:
        """Produce the output as aligned-tuple chunks (every subclass)."""
        raise NotImplementedError(f"{type(self).__name__} must implement _produce_chunks()")

    def chunks(self) -> Iterator[Chunk]:
        """Stream the output chunks, counting tuples as chunks are pulled."""
        for chunk in self._produce_chunks():
            count = len(chunk)
            if count:
                self.tuples_out += count
                yield chunk

    def produces_any(self) -> bool:
        """Emptiness probe: does this operator emit at least one tuple?

        Temporarily forces batch size 1 throughout the subtree, so every
        chunk pulled holds one tuple and the partially-consumed pipeline
        charges every operator the same tuple counts as the historical
        row-at-a-time model (a 1024-tuple chunk pulled for a one-row peek
        would otherwise inflate the counts of inner operators — and with
        them ``max_intermediate``).
        """
        saved = [(operator, operator.batch_size) for operator in self.walk()]
        for operator, _ in saved:
            operator.batch_size = 1
        try:
            for _ in self.chunks():
                return True
            return False
        finally:
            for operator, size in saved:
                operator.batch_size = size

    def drain(self) -> list[tuple[Any, ...]]:
        """Run to completion; the output as one block of aligned tuples."""
        schema = self._schema
        tuples: list[tuple[Any, ...]] = []
        extend = tuples.extend
        for chunk in self.chunks():
            extend(chunk.aligned(schema).tuples)
        return tuples

    def execute(self) -> Relation:
        """The output as a set-semantics relation, in the coded or the
        block state.

        When every chunk carries code columns over one shared dictionary
        per attribute, the stream is a set by construction — a scan, a
        dictionary filter, a permuting projection, a rename, a quotient or
        an exchange partition of one — and the relation is handed the
        joined code buffers: no tuple is decoded and no set pass runs.
        Otherwise value tuples flow from the last operator straight into
        the relation, de-duplicated there.  Either way its ``Row`` objects
        and row set are built only if someone asks.
        """
        schema = self._schema
        stream = (chunk.aligned(schema) for chunk in self.chunks())
        chunks = list(itertools.islice(stream, 1))
        if chunks and chunks[0].columns:
            # Coded chunks are cheap to hold (their tuples are deferred).
            chunks += stream
            if _shares_dictionaries(chunks, schema, range(len(schema))):
                columns = tuple(
                    CodeColumn(parts[0].dictionary, concatenate_codes([p.codes for p in parts]))
                    for parts in zip(*(chunk.columns for chunk in chunks))
                )
                return Relation._from_columns(schema, columns)
        tuples: list[tuple[Any, ...]] = []
        for chunk in itertools.chain(chunks, stream):
            tuples.extend(chunk.tuples)
        return Relation._from_block(schema, tuples)

    def reset_counters(self) -> None:
        """Reset tuple counters in the whole subtree (before a fresh run)."""
        for operator in self.walk():
            operator.tuples_out = 0

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def explain(self, indent: int = 0) -> str:
        """Indented physical plan, similar to EXPLAIN output."""
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self._children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line description of this operator."""
        return self.name

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} schema={self._schema.names!r}>"


def _shares_dictionaries(chunks: list[Chunk], schema: Schema, positions: Iterable[int]) -> bool:
    """Do all chunks carry code columns, aligned with ``schema``, over the
    same dictionaries (as the first chunk's) at ``positions``?"""
    first = chunks[0].columns
    for chunk in chunks:
        columns = chunk.columns
        if columns is None or chunk.schema.names != schema.names:
            return False
        for position in positions:
            if columns[position].dictionary is not first[position].dictionary:
                return False
    return True


def collect_statistics(plan: PhysicalOperator) -> PlanStatistics:
    """Collect the per-operator tuple counts after a plan has been executed.

    Exchange operators additionally contribute their per-partition peak
    counters (max over partitions) under ``"NN:name/inner-label"`` keys,
    feeding :attr:`PlanStatistics.max_intermediate` without inflating the
    plan-level totals.
    """
    stats = PlanStatistics()
    for index, operator in enumerate(plan.walk()):
        stats.tuples_by_operator[f"{index:02d}:{operator.name}"] = operator.tuples_out
        for label, value in operator.partition_peaks().items():
            stats.partition_peaks[f"{index:02d}:{operator.name}/{label}"] = value
    return stats
