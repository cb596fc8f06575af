"""Leaf physical operators: table scans and literal relations.

Scans are the chunk producers at the bottom of every plan: they slice the
relation's cached aligned-tuple block and its cached dictionary codes (see
:meth:`~repro.relation.relation.Relation.aligned_tuples` and
:meth:`~repro.relation.relation.Relation.encoded_columns`) into
:class:`~repro.physical.base.Chunk` objects — no per-tuple work at all
beyond the slices.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.errors import ExecutionError
from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.relation.relation import Relation

__all__ = ["TableScan", "RelationScan"]


class _ScanBase(PhysicalOperator):
    """Shared chunk producer for leaf scans over an in-memory relation."""

    #: Pure slicing over the cached tuple block and code columns; delivers
    #: the relation's physical scan order unchanged (clustered layouts survive).
    properties = PhysicalProperties(per_input_cost=0.0, per_output_cost=0.5, preserves_order=True)

    relation: Relation

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        tuples = self.relation.aligned_tuples()
        columns = self.relation.encoded_columns()
        total = len(tuples)
        size = self.batch_size
        for start in range(0, total, size):
            stop = min(start + size, total)
            yield Chunk.deferred(
                schema,
                tuple(column.slice(start, stop) for column in columns),
                stop - start,
                lambda start=start, stop=stop: tuples[start:stop],
            )


class RelationScan(_ScanBase):
    """Scan of an in-memory relation value."""

    name = "relation_scan"

    def __init__(self, relation: Relation, label: str = "relation") -> None:
        super().__init__(relation.schema)
        self.relation = relation
        self._label = label

    def describe(self) -> str:
        return f"RelationScan({self._label}, {len(self.relation)} rows)"


class TableScan(_ScanBase):
    """Scan of a named table resolved from a database at construction time."""

    name = "table_scan"

    def __init__(self, database: Mapping[str, Relation], table: str) -> None:
        if table not in database:
            raise ExecutionError(f"unknown table {table!r}")
        relation = database[table]
        super().__init__(relation.schema)
        self.table = table
        self.relation = relation

    def describe(self) -> str:
        return f"TableScan({self.table}, {len(self.relation)} rows)"
