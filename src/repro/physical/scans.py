"""Leaf physical operators: table scans and literal relations.

Scans are the chunk producers at the bottom of every plan.  A scan's chunk
is its block: the relation's cached aligned-tuple list beside its cached
dictionary codes (see
:meth:`~repro.relation.relation.Relation.aligned_tuples` and
:meth:`~repro.relation.relation.Relation.encoded_columns`), handed up as
one :class:`~repro.physical.base.Chunk` — nothing sliced, nothing copied.
Only a plan whose batch size was set (``set_batch_size``,
``connect(batch_size=N)``, an emptiness probe) gets the block in slices of
that size.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping

from repro.errors import ExecutionError
from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.relation.relation import Relation

__all__ = ["TableScan", "RelationScan"]


class _ScanBase(PhysicalOperator):
    """Shared chunk producer for leaf scans over an in-memory relation."""

    #: The cached tuple block and code columns as they are; delivers the
    #: relation's physical scan order unchanged (clustered layouts survive).
    properties = PhysicalProperties(per_input_cost=0.0, per_output_cost=0.5, preserves_order=True)

    def __init__(self, relation: Relation) -> None:
        super().__init__(relation.schema)
        self.relation = relation
        # The block already sits in memory and everything above a scan works
        # on whole code columns, so re-slicing it only multiplies the
        # per-chunk overheads: unless a batch size is set, one chunk.
        self.batch_size = sys.maxsize

    def _produce_chunks(self) -> Iterator[Chunk]:
        relation = self.relation
        block = Chunk(self._schema, relation.aligned_tuples(), relation.encoded_columns())
        return block.pieces(self.batch_size)


class RelationScan(_ScanBase):
    """Scan of an in-memory relation value."""

    name = "relation_scan"

    def __init__(self, relation: Relation, label: str = "relation") -> None:
        super().__init__(relation)
        self._label = label

    def describe(self) -> str:
        return f"RelationScan({self._label}, {len(self.relation)} rows)"


class TableScan(_ScanBase):
    """Scan of a named table resolved from a database at construction time."""

    name = "table_scan"

    def __init__(self, database: Mapping[str, Relation], table: str) -> None:
        if table not in database:
            raise ExecutionError(f"unknown table {table!r}")
        super().__init__(database[table])
        self.table = table

    def describe(self) -> str:
        return f"TableScan({self.table}, {len(self.relation)} rows)"
