"""``StoredScan``: stream a stored table's blocks into the chunk pipeline.

The stored counterpart of ``TableScan``: instead of slicing a
materialized relation's cached tuples and codes, it reads the table file
block by block and re-slices into chunks — the backing
:class:`~repro.storage.store.StoredRelation` stays on disk.  A block is
stored column-major as codes into table-wide dictionary pages, which is
exactly a chunk's code-column form: the codes go up **untransposed**, and
the page lookups plus the transpose into tuples only happen for a chunk
whose consumer reads ``chunk.tuples``.

With a *skip predicate* attached (the optimizer pushes a query's leaf
predicate down when its attributes are covered by the scan schema), each
block's zone maps are tested first and provably non-matching blocks are
never read.  The predicate is advisory: the plan keeps its ``Filter``, so
skipping only ever removes whole blocks the filter would have emptied
anyway, and the ``blocks_skipped`` counter it maintains is surfaced by
``explain(analyze=True)``.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.algebra.predicates import Predicate, conjunction
from repro.errors import ExecutionError, StorageError
from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.relation.encoding import CodeColumn, code_buffer
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
        self.table = table if table is not None else relation.reader.table
        self.skip_predicate: Optional[Predicate] = None
        self.blocks_total = len(relation.reader.blocks)
        self.blocks_skipped = 0
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
        self.blocks_skipped = 0

        if predicate is None:
            selector = None
        else:

            def selector(meta: dict[str, Any]) -> bool:
                if block_may_match(predicate, meta.get("zones") or {}):
                    return True
                self.blocks_skipped += 1
                return False

        pages = [reader.dictionaries.get(name) for name in schema.names]
        if None in pages:  # a column stored raw has no codes to hand up
            for _meta, tuples in reader.iter_blocks(selector):
                for start in range(0, len(tuples), size):
                    yield Chunk(schema, tuples[start : start + size])
            return
        for meta, stored in reader.iter_block_columns(selector):
            count = meta["count"]
            try:
                buffers = [code_buffer(codes, count) for codes in stored]
            except (TypeError, ValueError, OverflowError) as error:
                raise StorageError(f"{reader.path} has an unreadable block: {error}") from None
            columns = [CodeColumn(page, buffer) for page, buffer in zip(pages, buffers)]
            for start in range(0, count, size):
                stop = min(start + size, count)
                yield Chunk.coded(schema, tuple(column.slice(start, stop) for column in columns))

    def describe(self) -> str:
        description = (
            f"StoredScan({self.table}, {self.relation.reader.tuple_count} tuples, "
            f"{self.blocks_total} blocks)"
        )
        if self.skip_predicate is not None:
            description += f" skip:{self.skip_predicate!r}"
        return description
