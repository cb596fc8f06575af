"""Physical join operators: nested-loops, hash join, semi-/anti-join, outer join.

The hash-based joins key their tables on value tuples picked positionally
out of chunks (via :class:`~repro.physical.base.TupleProjector`) and build
output tuples by concatenating aligned value tuples, so no per-tuple ``Row``
objects exist on the build or probe paths.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

from repro.physical.base import (
    Chunk,
    PhysicalOperator,
    PhysicalProperties,
    TupleProjector,
    batched,
    chunked,
)
from repro.relation.relation import NULL
from repro.relation.row import Row
from repro.relation.schema import Schema

__all__ = [
    "NestedLoopsJoin",
    "HashJoin",
    "NestedLoopsNaturalJoin",
    "HashSemiJoin",
    "HashAntiJoin",
    "HashLeftOuterJoin",
    "JOIN_ALGORITHMS",
]


class NestedLoopsJoin(PhysicalOperator):
    """Theta-join by nested loops over disjoint-schema inputs.

    The theta predicate takes a merged :class:`Row`, so rows are
    materialized per pair — this operator exists for arbitrary predicates,
    not for speed.
    """

    name = "nested_loops_join"

    #: Rows are materialized and the predicate evaluated once per pair.
    properties = PhysicalProperties(
        streaming=False, per_input_cost=1.0, per_output_cost=1.0, pairwise_factor=2.0
    )

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        predicate: Callable[[Row], bool],
    ) -> None:
        super().__init__(left.schema.union(right.schema), (left, right))
        self.predicate = predicate

    # contract: rows-ok (the public theta-predicate API takes a merged Row per pair)
    def _produce_chunks(self) -> Iterator[Chunk]:
        left, right = self._children
        predicate = self.predicate
        schema = self._schema
        right_rows = [row for chunk in right.chunks() for row in chunk.rows()]

        def matches() -> Iterator[Row]:
            for chunk in left.chunks():
                for left_row in chunk.rows():
                    for right_row in right_rows:
                        combined = left_row.merge(right_row)
                        if predicate(combined):
                            yield combined

        for batch in batched(matches(), self.batch_size):
            yield Chunk.from_rows(schema, batch)


class _SharedKeyMixin:
    """Helpers for join operators keyed on the shared attributes."""

    @staticmethod
    def shared_schema(left: PhysicalOperator, right: PhysicalOperator) -> Schema:
        return left.schema.intersection(right.schema)


class HashJoin(PhysicalOperator, _SharedKeyMixin):
    """Natural join: build a hash table on the right input, probe with the left."""

    name = "hash_join"

    #: Hash-table build on the right input plus a probing pass on the left.
    properties = PhysicalProperties(startup_cost=16.0, per_input_cost=2.0, per_output_cost=1.0)

    #: Equi-join on the shared attributes: matching tuples agree on the
    #: join key, so hash-partitioning both inputs on (a subset of) it keeps
    #: every match within one partition.
    key_disjoint_safe = True

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__(left.schema.union(right.schema), (left, right))
        self._key = self.shared_schema(left, right)

    def _produce_chunks(self) -> Iterator[Chunk]:
        left, right = self._children
        schema = self._schema
        left_schema = left.schema
        if not len(self._key):
            # Disjoint schemas: degenerates to the Cartesian product.
            right_schema = right.schema
            right_tuples = [
                values for chunk in right.chunks() for values in chunk.aligned(right_schema).tuples
            ]
            pairs = (
                left_values + right_values
                for chunk in left.chunks()
                for left_values in chunk.aligned(left_schema).tuples
                for right_values in right_tuples
            )
            yield from chunked(pairs, schema, self.batch_size)
            return
        extra = right.schema.difference(left_schema)
        right_key = TupleProjector(self._key)
        right_extra = TupleProjector(extra)
        left_key = TupleProjector(self._key)
        index: dict[Any, list[tuple[Any, ...]]] = {}
        for chunk in right.chunks():
            for key, extra_values in zip(right_key.keys_of(chunk), right_extra.tuples_of(chunk)):
                index.setdefault(key, []).append(extra_values)
        emitted: set[tuple[Any, ...]] = set()
        lookup = index.get

        def matches() -> Iterator[tuple[Any, ...]]:
            for chunk in left.chunks():
                aligned = chunk.aligned(left_schema)
                for left_values, key in zip(aligned.tuples, left_key.keys_of(aligned)):
                    partners = lookup(key)
                    if not partners:
                        continue
                    for extra_values in partners:
                        combined = left_values + extra_values
                        if combined not in emitted:
                            emitted.add(combined)
                            yield combined

        yield from chunked(matches(), schema, self.batch_size)

    def describe(self) -> str:
        return f"HashJoin[{', '.join(self._key.names)}]"


class NestedLoopsNaturalJoin(PhysicalOperator, _SharedKeyMixin):
    """Natural join by nested loops: no hash table, one key comparison per pair.

    Emits exactly the same tuple set (and therefore the same per-operator
    counts) as :class:`HashJoin`; ``PlannerOptions(join_algorithm=
    "nested_loops")`` forces it, for tiny inputs, where skipping the
    hash-table build can beat the O(n·m) pair scan.
    """

    name = "nested_loops_natural_join"

    properties = PhysicalProperties(per_input_cost=1.0, per_output_cost=1.0, pairwise_factor=0.5)

    #: Same tuple set as :class:`HashJoin`, same key-partitioning argument.
    key_disjoint_safe = True

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__(left.schema.union(right.schema), (left, right))
        self._key = self.shared_schema(left, right)

    def _produce_chunks(self) -> Iterator[Chunk]:
        left, right = self._children
        schema = self._schema
        left_schema = left.schema
        right_schema = right.schema
        right_key = TupleProjector(self._key) if len(self._key) else None
        right_extra = TupleProjector(right_schema.difference(left_schema))
        pairs: list[tuple[Any, tuple[Any, ...]]] = []
        for chunk in right.chunks():
            keys = right_key.keys_of(chunk) if right_key else [None] * len(chunk)
            pairs.extend(zip(keys, right_extra.tuples_of(chunk)))
        if right_key is None:
            # Disjoint schemas: degenerates to the Cartesian product.
            combined = (
                left_values + extra_values
                for chunk in left.chunks()
                for left_values in chunk.aligned(left_schema).tuples
                for _, extra_values in pairs
            )
            yield from chunked(combined, schema, self.batch_size)
            return
        left_key = TupleProjector(self._key)
        emitted: set[tuple[Any, ...]] = set()

        def matches() -> Iterator[tuple[Any, ...]]:
            for chunk in left.chunks():
                aligned = chunk.aligned(left_schema)
                for left_values, key in zip(aligned.tuples, left_key.keys_of(aligned)):
                    for right_key_value, extra_values in pairs:
                        if right_key_value != key:
                            continue
                        combined = left_values + extra_values
                        if combined not in emitted:
                            emitted.add(combined)
                            yield combined

        yield from chunked(matches(), schema, self.batch_size)

    def describe(self) -> str:
        return f"NestedLoopsNaturalJoin[{', '.join(self._key.names)}]"


class HashSemiJoin(PhysicalOperator, _SharedKeyMixin):
    """Left semi-join with a hash set built on the right input."""

    name = "hash_semijoin"

    properties = PhysicalProperties(startup_cost=8.0, per_input_cost=1.5, per_output_cost=0.0)

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__(left.schema, (left, right))
        self._key = self.shared_schema(left, right)

    def _produce_chunks(self) -> Iterator[Chunk]:
        left, right = self._children
        if not len(self._key):
            if right.produces_any():
                yield from left.chunks()
            return
        right_key = TupleProjector(self._key)
        keys = {key for chunk in right.chunks() for key in right_key.keys_of(chunk)}
        left_key = TupleProjector(self._key)
        for chunk in left.chunks():
            matched = [
                values
                for values, key in zip(chunk.tuples, left_key.keys_of(chunk))
                if key in keys
            ]
            if matched:
                yield Chunk(chunk.schema, matched)

    def describe(self) -> str:
        return f"HashSemiJoin[{', '.join(self._key.names)}]"


class HashAntiJoin(PhysicalOperator, _SharedKeyMixin):
    """Left anti-semi-join with a hash set built on the right input."""

    name = "hash_antijoin"

    properties = PhysicalProperties(startup_cost=8.0, per_input_cost=1.5, per_output_cost=0.0)

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__(left.schema, (left, right))
        self._key = self.shared_schema(left, right)

    def _produce_chunks(self) -> Iterator[Chunk]:
        left, right = self._children
        if not len(self._key):
            if not right.produces_any():
                yield from left.chunks()
            return
        right_key = TupleProjector(self._key)
        keys = {key for chunk in right.chunks() for key in right_key.keys_of(chunk)}
        left_key = TupleProjector(self._key)
        for chunk in left.chunks():
            dangling = [
                values
                for values, key in zip(chunk.tuples, left_key.keys_of(chunk))
                if key not in keys
            ]
            if dangling:
                yield Chunk(chunk.schema, dangling)


class HashLeftOuterJoin(PhysicalOperator, _SharedKeyMixin):
    """Left outer join padding unmatched left tuples with NULL."""

    name = "hash_outer_join"

    properties = PhysicalProperties(startup_cost=16.0, per_input_cost=2.0, per_output_cost=1.0)

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        super().__init__(left.schema.union(right.schema), (left, right))
        self._key = self.shared_schema(left, right)
        self._pad = right.schema.difference(left.schema)

    def _produce_chunks(self) -> Iterator[Chunk]:
        left, right = self._children
        schema = self._schema
        left_schema = left.schema
        # The output extras are exactly the right-only attributes (the pad
        # schema), both for matched tuples (partner values) and for dangling
        # tuples (NULL padding) — the shared attributes are already carried
        # by the aligned left tuple.
        right_key = TupleProjector(self._key)
        right_extra = TupleProjector(self._pad)
        index: dict[Any, list[tuple[Any, ...]]] = {}
        all_extras: list[tuple[Any, ...]] = []
        for chunk in right.chunks():
            for key, extra_values in zip(right_key.keys_of(chunk), right_extra.tuples_of(chunk)):
                index.setdefault(key, []).append(extra_values)
                all_extras.append(extra_values)
        left_key = TupleProjector(self._key)
        null_padding = (NULL,) * len(self._pad)
        keyed = bool(len(self._key))
        emitted: set[tuple[Any, ...]] = set()

        def joined() -> Iterator[tuple[Any, ...]]:
            for chunk in left.chunks():
                aligned = chunk.aligned(left_schema)
                for left_values, key in zip(aligned.tuples, left_key.keys_of(aligned)):
                    partners = index.get(key) if keyed else all_extras
                    if partners:
                        for extra_values in partners:
                            combined = left_values + extra_values
                            if combined not in emitted:
                                emitted.add(combined)
                                yield combined
                    else:
                        yield left_values + null_padding

        yield from chunked(joined(), schema, self.batch_size)


#: Natural-join algorithm registry: ``hash`` is the planner's, ``nested_loops``
#: is forced through ``PlannerOptions``.
JOIN_ALGORITHMS = {
    "hash": HashJoin,
    "nested_loops": NestedLoopsNaturalJoin,
}
