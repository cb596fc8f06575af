"""Basic physical operators: filter, project, rename, set operations, product.

All operators stream :class:`~repro.physical.base.Chunk` objects and, where
the operation is positional, work directly on the chunks' value tuples via
cached schema pickers instead of materializing per-tuple ``Row`` objects.
Set semantics over tuples is safe because every consumer realigns incoming
chunks with its own schema order first (``Chunk.aligned``), so equal rows
always compare as equal tuples.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterator, Mapping
from typing import Any, Optional, Union

from repro.algebra.predicates import (
    _OPERATORS,
    And,
    AttributeRef,
    Comparison,
    FalsePredicate,
    Literal,
    Not,
    Or,
    TruePredicate,
)
from repro.errors import PredicateError
from repro.physical.base import (
    Chunk,
    PhysicalOperator,
    PhysicalProperties,
    TupleProjector,
    batched,
    chunked,
)
from repro.relation.encoding import (
    CodeColumn,
    flag_table,
    mask_and,
    mask_count,
    mask_not,
    mask_or,
    packed_table,
    passing_count,
    take,
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

#: A test on one value tuple aligned with the filter's schema.
TupleTest = Callable[[tuple[Any, ...]], Any]


# ----------------------------------------------------------------------
# the dictionary path: one evaluation per dictionary entry, then masks
# ----------------------------------------------------------------------
class _EntryTable:
    """A predicate over one attribute, evaluated per dictionary entry.

    ``build(dictionary)`` returns the truth table (a mask over the
    dictionary) and may raise whatever the comparison raises.  The outcome
    is cached for the dictionary it was computed from — dictionaries live
    as long as their relation value, so a cached plan re-executes for free
    — and so are its packed words, which a restricted block hands the
    containment bitmap.
    """

    __slots__ = ("position", "build", "_dictionary", "_table", "_packed")

    def __init__(self, position: int, build: Callable[[list[Any]], Any]) -> None:
        self.position = position
        self.build = build
        self._dictionary: Optional[list[Any]] = None
        self._table: Any = None
        self._packed: Any = None

    def table(self, dictionary: list[Any]) -> Any:
        """The truth table over ``dictionary``, or None when the predicate
        raises on an entry."""
        if dictionary is not self._dictionary:
            try:
                self._table = self.build(dictionary)
            except Exception:
                # Whether a tuple carrying the offending entry ever reaches
                # the comparison is the per-tuple test's call
                # (short-circuits, earlier filters): it runs instead.
                self._table = None
            self._dictionary, self._packed = dictionary, None
        return self._table

    def packed(self) -> Any:
        """The last :meth:`table` (not None) as bitmap words, packed once."""
        if self._packed is None:
            self._packed = packed_table(self._table)
        return self._packed

    def mask(self, columns: tuple[CodeColumn, ...]) -> Any:
        """The chunk's mask, or None when the predicate raises on an entry."""
        column = columns[self.position]
        table = self.table(column.dictionary)
        return None if table is None else take(table, column.codes)


class _MaskCombination:
    """A connective over sub-masks that read different attributes."""

    __slots__ = ("combine", "operands")

    def __init__(self, combine: Callable[[list[Any]], Any], operands: list["_MaskNode"]) -> None:
        self.combine = combine
        self.operands = operands

    def mask(self, columns: tuple[CodeColumn, ...]) -> Any:
        masks = [operand.mask(columns) for operand in self.operands]
        return None if any(mask is None for mask in masks) else self.combine(masks)


_MaskNode = Union[_EntryTable, _MaskCombination]


def _merged(tables: list[_EntryTable], pairwise: Callable[[Any, Any], Any]) -> _EntryTable:
    """Tables over one attribute, combined per dictionary entry."""
    if len(tables) == 1:
        return tables[0]
    builds = [table.build for table in tables]
    return _EntryTable(
        tables[0].position, lambda d: functools.reduce(pairwise, [build(d) for build in builds])
    )


def _mask_node(predicate: Any, positions: dict[str, int]) -> Optional[_MaskNode]:
    """Dictionary-evaluable form of ``predicate`` (None: test it per tuple).

    Comparisons of an attribute with a literal under ``And`` / ``Or`` /
    ``Not`` qualify.  Operands of one connective that read the same
    attribute merge into one table, so ``lo <= a AND a < hi`` costs one
    gather per chunk.
    """
    if isinstance(predicate, Comparison):
        compare = _OPERATORS[predicate.operator]
        left, right = predicate.left, predicate.right
        if isinstance(left, AttributeRef) and isinstance(right, Literal):
            name, value = left.name, right.value

            def build(d: list[Any]) -> Any:
                return flag_table(map(compare, d, itertools.repeat(value)), len(d))

        elif isinstance(left, Literal) and isinstance(right, AttributeRef):
            name, value = right.name, left.value

            def build(d: list[Any]) -> Any:
                return flag_table(map(compare, itertools.repeat(value), d), len(d))

        else:
            return None
        return _EntryTable(positions[name], build) if name in positions else None
    if isinstance(predicate, Not):
        inner = _mask_node(predicate.operand, positions)
        if isinstance(inner, _EntryTable):
            return _EntryTable(inner.position, lambda d: mask_not(inner.build(d)))
        if inner is None:
            return None
        return _MaskCombination(lambda masks: mask_not(masks[0]), [inner])
    if isinstance(predicate, (And, Or)):
        pairwise = mask_and if isinstance(predicate, And) else mask_or
        operands = [_mask_node(operand, positions) for operand in predicate.operands]
        if any(operand is None for operand in operands):
            return None
        nodes: list[_MaskNode] = []
        tables: dict[int, list[_EntryTable]] = {}
        for operand in operands:
            if isinstance(operand, _EntryTable):
                tables.setdefault(operand.position, []).append(operand)
            else:
                nodes.append(operand)
        nodes.extend(_merged(group, pairwise) for group in tables.values())
        if len(nodes) == 1:
            return nodes[0]
        return _MaskCombination(lambda masks: functools.reduce(pairwise, masks), nodes)
    return None


# ----------------------------------------------------------------------
# the per-tuple path: a positional test built once from the AST
# ----------------------------------------------------------------------
def _comparison_test(comparison: Comparison, positions: dict[str, int]) -> Optional[TupleTest]:
    """``t[i] < v``-style test (None: an attribute outside the schema)."""
    terms = []
    for term in (comparison.left, comparison.right):
        if isinstance(term, AttributeRef):
            if term.name not in positions:
                return None
            terms.append((positions[term.name], None))
        else:
            terms.append((None, term.value))
    (i, x), (j, y) = terms
    compare = _OPERATORS[comparison.operator]

    def test(t: tuple[Any, ...]) -> Any:
        a = x if i is None else t[i]
        b = y if j is None else t[j]
        try:
            return compare(a, b)
        except TypeError as error:
            raise PredicateError(
                f"cannot evaluate {comparison!r}: {type(a).__name__} "
                f"{comparison.operator} {type(b).__name__} is not supported"
            ) from error

    return test


def _both(first: TupleTest, second: TupleTest) -> TupleTest:
    return lambda t: first(t) and second(t)


def _either(first: TupleTest, second: TupleTest) -> TupleTest:
    return lambda t: first(t) or second(t)


def _tuple_test(predicate: Any, positions: dict[str, int]) -> Optional[TupleTest]:
    """``predicate`` as a test on aligned value tuples (None: opaque)."""
    if isinstance(predicate, Comparison):
        return _comparison_test(predicate, positions)
    if isinstance(predicate, (And, Or)):
        tests = [_tuple_test(operand, positions) for operand in predicate.operands]
        if any(test is None for test in tests):
            return None
        return functools.reduce(_both if isinstance(predicate, And) else _either, tests)
    if isinstance(predicate, Not):
        inner = _tuple_test(predicate.operand, positions)
        return None if inner is None else (lambda t: not inner(t))
    if isinstance(predicate, TruePredicate):
        return lambda t: True
    if isinstance(predicate, FalsePredicate):
        return lambda t: False
    return None


class Filter(PhysicalOperator):
    """Streaming selection σ_p.

    The predicate runs on each chunk one of two ways.  On a chunk with code
    columns, a predicate of attribute-vs-literal comparisons under ``And`` /
    ``Or`` / ``Not`` is evaluated once per *dictionary entry* (cached per
    dictionary) and selects the chunk by a mask over its codes; the
    filtered chunk keeps its code columns and builds its tuples only if a
    consumer asks.  On any other chunk, or when the predicate raises on
    some entry of the chunk's dictionary, a positional test built once from
    the predicate's AST runs over the value tuples — an entry no tuple
    reaches (short-circuits, an earlier filter) then never raises.  Only an
    opaque callable gets a :class:`Row` per tuple (the public predicate
    API).  A comparison the values do not support raises
    :class:`PredicateError`.

    On a relation's whole block (a scan's, see
    :class:`~repro.physical.base.BaseBlock`) a predicate on one attribute
    reads no code at all: it hands up a *restricted block*, whose length is
    summed from the column's code frequencies over the entries that pass
    and whose columns and tuples are selected only if something reads them
    (a division reads the relation's containment bitmap instead).  The
    dictionary and the frequencies are a summary of the relation value
    (built once per value), so neither the chunk's codes nor a stored
    table's pages are read.  A stored block may lack blocks its zone maps
    skipped; the planner pushes only this filter's own predicate into the
    scan, so a skipped block holds no tuple that passes, and the count over
    the whole table is the count over the block.
    """

    name = "filter"

    #: Streams; one predicate test per tuple (or per dictionary entry).
    properties = PhysicalProperties(per_input_cost=1.2, per_output_cost=0.0)

    #: How the most recent execution filtered: "dictionary" (every chunk on
    #: the dictionary) or "per tuple" (at least one chunk fell back).
    _filter_mode: Optional[str] = None

    def __init__(self, child: PhysicalOperator, predicate: Callable[[Row], bool]) -> None:
        super().__init__(child.schema, (child,))
        self.predicate = predicate
        positions = {name: position for position, name in enumerate(self._schema.names)}
        self._masks = _mask_node(predicate, positions)
        self._test = _tuple_test(predicate, positions)

    # contract: rows-ok (an opaque predicate callable takes a Row)
    def _produce_chunks(self) -> Iterator[Chunk]:
        schema, predicate, masks = self._schema, self.predicate, self._masks
        from_schema = Row.from_schema
        test = self._test or (lambda values: predicate(from_schema(schema, values)))
        self._filter_mode = "per tuple" if masks is None else "dictionary"
        one_attribute = isinstance(masks, _EntryTable)
        for chunk in self._children[0].chunks():
            chunk = chunk.aligned(schema)
            base = chunk._base
            if one_attribute and base is not None and base.restriction is None:
                restricted = self._restrict(chunk, base.relation, masks)  # type: ignore[arg-type]
                if restricted is not None:
                    if len(restricted):
                        yield restricted
                    continue
            columns = chunk.columns
            mask = None if masks is None or columns is None else masks.mask(columns)
            if mask is not None:
                count = mask_count(mask)
                if count:
                    yield chunk if count == len(chunk) else chunk.selected(mask, count)
                continue
            self._filter_mode = "per tuple"
            try:
                matched = [values for values in chunk.tuples if test(values)]
            except TypeError as error:  # an opaque callable's (AST comparisons wrap their own)
                raise PredicateError(f"cannot evaluate {predicate!r}: {error}") from error
            if matched:
                yield Chunk(schema, matched)

    @staticmethod
    def _restrict(chunk: Chunk, relation: Any, entries: _EntryTable) -> Optional[Chunk]:
        """A whole block under a one-attribute predicate: itself, or its
        restricted block (None when the predicate raises on an entry)."""
        position = entries.position
        dictionary, frequencies = relation.column_frequencies(position)
        table = entries.table(dictionary)
        if table is None:
            return None
        count = passing_count(frequencies, table)
        if count == len(relation):  # every tuple passes: no block was skipped
            return chunk
        return chunk._restricted(position, table, entries.packed(), count)

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


class ProjectOp(PhysicalOperator):
    """Projection with duplicate elimination (set semantics).

    A projection that keeps every attribute only permutes: a chunk with
    code columns passes through reordered, codes and all.  Coded chunks
    come from scans and quotients (sets, possibly filtered), so permuting
    one cannot create a duplicate.  Every other chunk goes through the
    seen-set.
    """

    name = "project"

    #: Duplicate elimination keeps a hash set over the output.
    properties = PhysicalProperties(per_input_cost=1.0, per_output_cost=1.0)

    def __init__(self, child: PhysicalOperator, attributes: AttributeNames) -> None:
        schema = child.schema.project(as_schema(attributes))
        super().__init__(schema, (child,))

    def _produce_chunks(self) -> Iterator[Chunk]:
        schema = self._schema
        project = TupleProjector(schema)
        permutes = len(schema) == len(self._children[0].schema)
        seen: set[tuple[Any, ...]] = set()
        add = seen.add
        for chunk in self._children[0].chunks():
            if permutes and chunk.columns is not None:
                yield chunk.aligned(schema)
                continue
            tuples = project.tuples_of(chunk)
            fresh = [values for values in tuples if not (values in seen or add(values))]
            yield from Chunk(schema, fresh).pieces(self.batch_size)

    def describe(self) -> str:
        return f"Project[{', '.join(self._schema.names)}]"


class RenameOp(PhysicalOperator):
    """Streaming attribute renaming (zero-copy over aligned chunks)."""

    name = "rename"

    properties = PhysicalProperties(per_input_cost=0.1, per_output_cost=0.0)

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

    properties = PhysicalProperties(per_input_cost=1.0, per_output_cost=1.0)

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
