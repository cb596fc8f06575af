"""Basic physical operators: filter, project, rename, set operations, product.

All operators stream :class:`~repro.physical.base.Chunk` objects and, where
the operation is positional, work directly on the chunks' value tuples via
cached schema pickers instead of materializing per-tuple ``Row`` objects.
Set semantics over tuples is safe because every consumer realigns incoming
chunks with its own schema order first (``Chunk.aligned``), so equal rows
always compare as equal tuples.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from typing import Any

from repro.physical.base import (
    Chunk,
    PhysicalOperator,
    PhysicalProperties,
    TupleProjector,
    batched,
    chunked,
)
from repro.relation.row import Row
from repro.relation.schema import AttributeNames, as_schema

__all__ = [
    "Filter",
    "ProjectOp",
    "RenameOp",
    "UnionOp",
    "IntersectOp",
    "DifferenceOp",
    "ProductOp",
    "DuplicateElimination",
]


class Filter(PhysicalOperator):
    """Streaming selection σ_p.

    Predicates take :class:`Row` objects (the public predicate API), so this
    is the one mid-pipeline operator that materializes a row per tuple — the
    row is dropped immediately after the predicate call.
    """

    name = "filter"

    #: Streams, but materializes one Row per tuple for the predicate call.
    properties = PhysicalProperties(per_input_cost=1.2, per_output_cost=0.0, preserves_order=True)

    def __init__(self, child: PhysicalOperator, predicate: Callable[[Row], bool]) -> None:
        super().__init__(child.schema, (child,))
        self.predicate = predicate

    # contract: rows-ok (the public predicate API takes a Row; compilation inlines it away)
    def _produce_chunks(self) -> Iterator[Chunk]:
        predicate = self.predicate
        schema = self._schema
        from_schema = Row.from_schema
        for chunk in self._children[0].chunks():
            tuples = chunk.aligned(schema).tuples
            matched = [values for values in tuples if predicate(from_schema(schema, values))]
            if matched:
                yield Chunk(schema, matched)

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


class ProjectOp(PhysicalOperator):
    """Projection with duplicate elimination (set semantics)."""

    name = "project"

    #: Duplicate elimination keeps a hash set over the output; first-seen
    #: order makes the output follow the input's scan order.
    properties = PhysicalProperties(per_input_cost=1.0, per_output_cost=1.0, preserves_order=True)

    def __init__(self, child: PhysicalOperator, attributes: AttributeNames) -> None:
        schema = child.schema.project(as_schema(attributes))
        super().__init__(schema, (child,))

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        project = TupleProjector(schema)
        seen: set[tuple[Any, ...]] = set()
        add = seen.add

        def fresh_tuples() -> Iterator[tuple[Any, ...]]:
            for chunk in self._children[0].chunks():
                for values in project.tuples_of(chunk):
                    if values not in seen:
                        add(values)
                        yield values

        yield from chunked(fresh_tuples(), schema, self.batch_size)

    def describe(self) -> str:
        return f"Project[{', '.join(self._schema.names)}]"


class RenameOp(PhysicalOperator):
    """Streaming attribute renaming (zero-copy over aligned chunks)."""

    name = "rename"

    properties = PhysicalProperties(per_input_cost=0.1, per_output_cost=0.0, preserves_order=True)

    def __init__(self, child: PhysicalOperator, mapping: Mapping[str, str]) -> None:
        super().__init__(child.schema.rename(dict(mapping)), (child,))
        self.mapping = dict(mapping)

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        source = self._children[0].schema
        for chunk in self._children[0].chunks():
            yield chunk.aligned(source).relabeled(schema)


class DuplicateElimination(PhysicalOperator):
    """Explicit duplicate elimination (used after bag-producing operators)."""

    name = "distinct"

    properties = PhysicalProperties(per_input_cost=1.0, per_output_cost=1.0, preserves_order=True)

    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__(child.schema, (child,))

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        seen: set[tuple[Any, ...]] = set()
        for chunk in self._children[0].chunks():
            tuples = chunk.aligned(schema).tuples
            fresh = [values for values in tuples if values not in seen]
            if fresh:
                seen.update(fresh)
                yield Chunk(schema, fresh)


class UnionOp(PhysicalOperator):
    """Set union: stream the left input, then the unseen tuples of the right."""

    name = "union"

    properties = PhysicalProperties(per_input_cost=2.0, per_output_cost=1.0)

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__(left.schema, (left, right))

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        seen: set[tuple[Any, ...]] = set()
        for child in self._children:
            for chunk in child.chunks():
                tuples = chunk.aligned(schema).tuples
                fresh = [values for values in tuples if values not in seen]
                if fresh:
                    seen.update(fresh)
                    yield Chunk(schema, fresh)


class IntersectOp(PhysicalOperator):
    """Set intersection: build the right side, probe with the left."""

    name = "intersect"

    properties = PhysicalProperties(streaming=False, per_input_cost=2.0, per_output_cost=1.0)

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__(left.schema, (left, right))

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        right_tuples: set[tuple[Any, ...]] = set()
        for chunk in self._children[1].chunks():
            right_tuples.update(chunk.aligned(schema).tuples)
        emitted: set[tuple[Any, ...]] = set()
        for chunk in self._children[0].chunks():
            tuples = chunk.aligned(schema).tuples
            fresh = [v for v in tuples if v in right_tuples and v not in emitted]
            if fresh:
                emitted.update(fresh)
                yield Chunk(schema, fresh)


class DifferenceOp(PhysicalOperator):
    """Set difference: build the right side, stream the left through it."""

    name = "difference"

    properties = PhysicalProperties(streaming=False, per_input_cost=2.0, per_output_cost=1.0)

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__(left.schema, (left, right))

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        right_tuples: set[tuple[Any, ...]] = set()
        for chunk in self._children[1].chunks():
            right_tuples.update(chunk.aligned(schema).tuples)
        emitted: set[tuple[Any, ...]] = set()
        for chunk in self._children[0].chunks():
            tuples = chunk.aligned(schema).tuples
            fresh = [v for v in tuples if v not in right_tuples and v not in emitted]
            if fresh:
                emitted.update(fresh)
                yield Chunk(schema, fresh)


class ProductOp(PhysicalOperator):
    """Nested-loops Cartesian product (the right input is materialized)."""

    name = "product"

    properties = PhysicalProperties(
        streaming=False, per_input_cost=1.0, per_output_cost=1.0, pairwise_factor=1.0
    )

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__(left.schema.union(right.schema), (left, right))

    # contract: rows-ok (overlap fallback merges via Row; the disjoint fast path is tuple-only)
    def _produce_chunks(self) -> Iterator[Chunk]:
        left, right = self._children
        schema = self._schema
        left_schema, right_schema = left.schema, right.schema
        if not left_schema.is_disjoint(right_schema):
            # Overlapping inputs: fall back to value-checked row merging.
            right_rows = [row for chunk in right.chunks() for row in chunk.rows()]
            merged = (
                left_row.merge(right_row)
                for chunk in left.chunks()
                for left_row in chunk.rows()
                for right_row in right_rows
            )
            for batch in batched(merged, self.batch_size):
                yield Chunk.from_rows(schema, batch)
            return
        right_tuples = [
            values for chunk in right.chunks() for values in chunk.aligned(right_schema).tuples
        ]

        def combined() -> Iterator[tuple[Any, ...]]:
            for chunk in left.chunks():
                for left_values in chunk.aligned(left_schema).tuples:
                    for right_values in right_tuples:
                        yield left_values + right_values

        yield from chunked(combined(), schema, self.batch_size)
