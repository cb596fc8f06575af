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
table with a raw column).  Every scan reads and checks its pages anew.

With a *skip predicate* attached (the optimizer pushes a query's leaf
predicate down when its attributes are covered by the scan schema), each
block's zone maps are tested first and provably non-matching blocks are
never read.  The predicate is advisory: the plan keeps its ``Filter``, so
skipping only ever removes whole blocks the filter would have emptied
anyway, and the ``blocks_skipped`` counter it maintains is surfaced by
``explain(analyze=True)``, as is ``bytes_read`` (the payload bytes the
most recent execution read).
"""

from __future__ import annotations

import sys
from typing import Any, Iterator, Optional

from repro.algebra.predicates import Predicate, conjunction
from repro.errors import ExecutionError
from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.relation.encoding import CodeColumn
from repro.storage.format import block_may_match
from repro.storage.store import StoredRelation

__all__ = ["StoredScan"]


class StoredScan(PhysicalOperator):
    """Leaf operator streaming blocks of a stored table."""

    name = "stored_scan"

    #: Same pricing as the in-memory scans: no input side, cheap streaming
    #: emission, and the stored block order is the save-time scan order, so
    #: order-exploiting consumers may rely on it.
    properties = PhysicalProperties(
        per_input_cost=0.0,
        per_output_cost=0.5,
        preserves_order=True,
    )

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

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        size = self.batch_size
        predicate = self.skip_predicate
        reader = self.relation.reader
        self.blocks_total = len(reader.blocks)
        self.blocks_skipped = self.bytes_read = 0

        def selector(meta: dict[str, Any]) -> bool:
            if predicate is None or block_may_match(predicate, meta.get("zones") or {}):
                self.bytes_read += meta["length"]
                return True
            self.blocks_skipped += 1
            return False

        if self.page_kind == "raw":  # no codes to hand up: the reader's decoded view
            for _meta, tuples in reader.iter_blocks(selector):
                yield from Chunk(schema, tuples).pieces(size)
            return
        pages = reader.dictionary_pages
        for _meta, buffers in reader.iter_block_columns(selector):
            yield from Chunk.coded(schema, tuple(map(CodeColumn, pages, buffers))).pieces(size)

    def describe(self) -> str:
        description = (
            f"StoredScan({self.table}, {self.relation.reader.tuple_count} tuples, "
            f"{self.blocks_total} blocks)"
        )
        if self.skip_predicate is not None:
            description += f" skip:{self.skip_predicate!r}"
        return description
