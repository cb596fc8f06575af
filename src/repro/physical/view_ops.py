"""Physical operator serving a maintained view from its counter table.

``CounterTableScan`` is a leaf like :class:`~repro.physical.scans.TableScan`,
but its source is the view's maintained quotient set rather than a base
relation: the division was already "executed" incrementally by the delta
rules, so reading the view is pure chunked emission of the counter table's
A+C value tuples, in the quotient set's own order (the result is a set;
sorting it on every read after an edit was most of what a read cost).  A
view whose select list is not in A+C order gets its columns permuted by one
``itemgetter`` over the shape's ``order``.  The operator reports the
applied-delta count in ``describe()`` so ``explain(analyze=True)`` shows
what the plan replaced.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.relation.schema import Schema

if TYPE_CHECKING:
    from repro.views.view import MaintainedView

__all__ = ["CounterTableScan"]


class CounterTableScan(PhysicalOperator):
    """Chunked scan over a maintained view's quotient counter table."""

    name = "counter_table_scan"
    #: Pure list slicing over the already-maintained quotient — the same
    #: cost shape as an in-memory scan; no division work remains at read
    #: time (that is the whole point of maintenance).
    properties = PhysicalProperties(per_input_cost=0.0, per_output_cost=0.5)

    def __init__(self, view: "MaintainedView") -> None:
        super().__init__(Schema.interned(view.schema_names))
        self.view = view

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        quotient = self.view.quotient_tuples()
        shape = self.view.shape
        assert shape is not None
        tuples = list(quotient if shape.in_order else map(itemgetter(*shape.order), quotient))
        size = self.batch_size
        for start in range(0, len(tuples), size):
            yield Chunk(schema, tuples[start : start + size])

    def describe(self) -> str:
        return (
            f"CounterTableScan({self.view.name}, "
            f"deltas_applied={self.view.deltas_applied})"
        )
