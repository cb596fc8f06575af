"""``StoredScan``: stream a stored table's blocks into the chunk pipeline.

The stored counterpart of ``TableScan``: instead of handing up a
materialized relation's cached tuples and codes, it reads the table file
block by block, one chunk per stored block (sliced further only when a
batch size is set) — the backing
:class:`~repro.storage.store.StoredRelation` stays on disk.  A block's
column pages are typed code buffers over table-wide dictionary pages —
exactly a chunk's code-column form: the verified buffers go up **as they
are**, and the page lookups plus the transpose into tuples only happen for
a chunk whose consumer reads ``chunk.tuples`` (or, block by block, for a
table with a raw column).  A streaming scan reads and checks its pages
anew on every execution, so joins, aggregates and exchanges over a stored
table hold one block at a time.

A division's dividend is the exception (:meth:`StoredScan.set_one_block`,
set by the planner): the scan hands up **one** chunk marked as the
relation's block (:class:`~repro.physical.base.BaseBlock`), whose length
is the kept blocks' counts summed from the block index and whose pages are
read — the kept blocks, checked and joined — only if something reads its
codes.  The division answers from the containment bitmap, and a filter
above it from the column frequencies, that the ``StoredRelation`` built
from one checked read of its pages and keeps
(:meth:`~repro.relation.relation.Relation._summary`), so a warm division
over a stored table reads no page at all.

With a *skip predicate* attached (the optimizer pushes a query's leaf
predicate down when its attributes are covered by the scan schema), each
block's zone maps are tested first and provably non-matching blocks are
never read.  The predicate is advisory: the plan keeps its ``Filter``, so
skipping only ever removes whole blocks the filter would have emptied
anyway, and the ``blocks_skipped`` counter it maintains is surfaced by
``explain(analyze=True)``, as is ``bytes_read`` (the payload bytes the
most recent execution read: 0 when one block's codes were never read).
"""

from __future__ import annotations

import sys
from typing import Any, Iterator, Optional

from repro.algebra.predicates import Predicate, conjunction
from repro.errors import ExecutionError
from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.relation.encoding import CodeColumn, as_code_buffer
from repro.storage.format import block_may_match
from repro.storage.store import StoredRelation

__all__ = ["StoredScan"]


class StoredScan(PhysicalOperator):
    """Leaf operator streaming blocks of a stored table."""

    name = "stored_scan"

    #: Same pricing as the in-memory scans: no input side, cheap streaming
    #: emission.
    properties = PhysicalProperties(per_input_cost=0.0, per_output_cost=0.5)

    def __init__(
        self,
        relation: StoredRelation,
        table: Optional[str] = None,
        predicate: Optional[Predicate] = None,
    ) -> None:
        super().__init__(relation.schema)
        self.relation = relation
        self.batch_size = sys.maxsize  # a chunk is a stored block, as for the in-memory scans
        self.table = table if table is not None else relation.reader.table
        self.skip_predicate: Optional[Predicate] = None
        #: Hand up the kept blocks as one deferred, marked chunk
        #: (:meth:`set_one_block`) instead of one chunk per block.
        self.one_block = False
        #: ``(skip predicate, kept blocks)`` of :meth:`_kept`.
        self._zones: Optional[tuple[Optional[Predicate], frozenset[int]]] = None
        self.blocks_total = len(relation.reader.blocks)
        self.blocks_skipped = 0
        #: Block payload bytes read by the most recent execution.
        self.bytes_read = 0
        #: "code buffers", or "raw": a column has no dictionary page.
        self.page_kind = "raw" if None in relation.reader.dictionary_pages else "code buffers"
        if predicate is not None:
            self.set_skip_predicate(predicate)

    def set_skip_predicate(self, predicate: Predicate) -> None:
        """Attach (or AND onto) the zone-map pruning predicate."""
        missing = predicate.attributes - self._schema.name_set
        if missing:
            raise ExecutionError(
                f"skip predicate references attributes {sorted(missing)!r} "
                f"outside the stored table's schema {self._schema.names!r}"
            )
        if self.skip_predicate is None:
            self.skip_predicate = predicate
        else:
            self.skip_predicate = conjunction([self.skip_predicate, predicate])

    def set_one_block(self) -> None:
        """Hand up one chunk for the whole scan (the planner sets it, at
        plan time, on a division's dividend only): the blocks the zone maps
        keep, marked as the relation's block
        (:class:`~repro.physical.base.BaseBlock`), their pages read only if
        something reads the chunk's codes.  A batch size, when set, still
        slices block by block."""
        self.one_block = True

    def _kept(self) -> frozenset[int]:
        """The blocks (by index entry) the zone maps keep under the skip
        predicate: tested once per predicate, since a scan's block index
        never changes, and read by every re-execution of the plan."""
        predicate = self.skip_predicate
        if self._zones is None or self._zones[0] is not predicate:
            kept = frozenset(
                id(meta)
                for meta in self.relation.reader.blocks
                if predicate is None or block_may_match(predicate, meta.get("zones") or {})
            )
            self._zones = (predicate, kept)
        return self._zones[1]

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        size = self.batch_size
        reader = self.relation.reader
        kept = self._kept()
        self.blocks_total = len(reader.blocks)
        self.blocks_skipped = self.bytes_read = 0

        def reads(meta: dict[str, Any]) -> bool:
            if id(meta) not in kept:
                return False
            self.bytes_read += meta["length"]
            return True

        def streams(meta: dict[str, Any]) -> bool:
            if reads(meta):
                return True
            self.blocks_skipped += 1
            return False

        if self.page_kind == "raw":  # no codes to hand up: the reader's decoded view
            for _meta, tuples in reader.iter_blocks(streams):
                yield from Chunk(schema, tuples).pieces(size)
            return
        pages = reader.dictionary_pages
        if self.one_block and size == sys.maxsize:
            self.blocks_skipped = self.blocks_total - len(kept)
            length = sum(meta["count"] for meta in reader.blocks if id(meta) in kept)
            if length:

                def read() -> Chunk:  # the kept blocks, checked and joined, if asked
                    return Chunk.coded(
                        schema, tuple(map(CodeColumn, pages, reader.joined_columns(reads)))
                    )

                yield Chunk.base_block(schema, length, self.relation, read)
            return
        for _meta, buffers in reader.iter_block_columns(streams):
            # The narrow pages cast to code buffers: one copy each, kept by the chunk.
            columns = tuple(map(CodeColumn, pages, map(as_code_buffer, buffers)))
            yield from Chunk.coded(schema, columns).pieces(size)

    def describe(self) -> str:
        description = (
            f"StoredScan({self.table}, {self.relation.reader.tuple_count} tuples, "
            f"{self.blocks_total} blocks)"
        )
        if self.skip_predicate is not None:
            description += f" skip:{self.skip_predicate!r}"
        return description
