"""Pipeline-segment compiler: fuse streaming operator chains into one loop.

The interpreter executes a plan as a stack of ``_produce_chunks()``
generators — every chunk crosses one Python generator frame per operator,
and ``Filter`` additionally materializes a :class:`Row` per tuple for the
predicate call.  This module removes that overhead for the *streaming*
operators: maximal chains of ``Filter`` / ``ProjectOp`` / ``RenameOp``
(anything that neither blocks nor reorders) are compiled into **one**
specialized Python function per chain via textual codegen + :func:`compile`.
Division, joins, aggregation, set operations and exchanges stay pipeline
breakers: they keep their interpreted implementations and simply pull the
compiled segment below them.

The generated function is a generator over the segment *input*'s chunks:

* predicates built from the AST (:class:`Comparison` over attribute refs
  and literals, ``And``/``Or``/``Not``) are inlined as positional tuple
  expressions (``t[2] == _b4``) — no ``Row`` objects, no per-tuple
  ``evaluate`` dispatch; opaque predicate callables keep the row-based
  call as a binding;
* projections are one cached :func:`operator.itemgetter` ``map`` plus the
  same first-seen duplicate elimination the interpreter uses;
* renames are free (positions do not change);
* every *interior* fused operator's ``tuples_out`` is bumped per chunk, so
  per-operator tuple counts — the paper's max-intermediate metric — are
  bit-identical to the interpreted pipeline.

On top of the generated per-tuple function sits a **dictionary path**
(:class:`_ColumnPath`) for chains without a duplicate-eliminating
projection whose filters compare attributes with literals: when the
incoming chunks carry code columns (a scan of an in-memory relation), each
comparison is evaluated once per *dictionary entry* — cached per
dictionary, so a re-executed plan pays nothing — and becomes a per-chunk
mask over the codes; renames relabel and attribute-permuting projections
reorder the columns.  The tuples of a filtered chunk are only built if a
consumer asks for them.  A predicate that raises on any dictionary entry
(or a chunk without code columns) sends that chunk through the generated
per-tuple function instead, so errors, results and per-operator counts
are those of the per-tuple segment.

Only literal values, schemas, getters and operator references differ
between structurally identical segments, and they all travel through the
``_bind`` tuple — the generated *source* is identical, so a module-level
``source → code object`` cache lets equal-shaped segments across plans
share one compiled code object (the analogue of the PR 2 fingerprint
cache, keyed by segment structure).

Compiled producers attach to the existing segment-root operator instances
(``root._compiled_producer``); the plan shape is untouched, and the
interpreted path remains available (``rows()`` and emptiness probes keep
using it, with identical row-at-a-time accounting).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union

from repro.algebra.predicates import (
    And,
    AttributeRef,
    Comparison,
    FalsePredicate,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.physical.base import Chunk, PhysicalOperator
from repro.physical.basic import Filter, ProjectOp, RenameOp
from repro.relation.encoding import (
    CodeColumn,
    flag_table,
    mask_and,
    mask_count,
    mask_not,
    mask_or,
    take,
)
from repro.relation.row import Row
from repro.relation.schema import Schema

__all__ = [
    "FUSABLE_OPERATORS",
    "CompiledSegment",
    "CompilationReport",
    "compile_plan",
    "code_cache_size",
    "clear_code_cache",
]

#: Operators that fuse into streaming segments; everything else breaks the
#: pipeline (division, joins, aggregation, set operations, exchanges).
FUSABLE_OPERATORS = (Filter, ProjectOp, RenameOp)

#: Predicate AST operator → Python comparison source.
_COMPARISON_SOURCE = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: The same comparisons as functions, for per-dictionary-entry evaluation.
_COMPARISON_FUNCTION = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Module-wide ``source → code object`` cache (segment-structure keyed:
#: values are bindings, so equal-shaped segments emit identical source).
_CODE_CACHE: dict[str, Any] = {}


@dataclass(frozen=True)
class CompiledSegment:
    """One fused chain: its shape, generated source and cache provenance."""

    #: ``describe()`` of the segment root (the operator the producer runs as).
    root: str
    #: ``describe()`` of every fused operator, root first.
    operators: tuple[str, ...]
    #: The generated Python source of the segment function.
    source: str
    #: True when the code object came from the structure-keyed cache.
    shared: bool

    @property
    def fused_count(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class CompilationReport:
    """What the compilation backend did to one prepared plan."""

    #: The normalized ``PlannerOptions.compile`` mode ("auto" or "on").
    mode: str
    #: One entry per compiled segment (empty when nothing fused).
    segments: tuple[CompiledSegment, ...] = ()

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    def summary(self) -> str:
        """The one-line status ``explain()`` prints."""
        if not self.segments:
            return f"no (no fusable segments, mode={self.mode})"
        noun = "segment" if len(self.segments) == 1 else "segments"
        return f"yes · {len(self.segments)} {noun}"


class _SourceBuilder:
    """Accumulates the ``_bind`` tuple while the source is being written."""

    def __init__(self) -> None:
        self.bindings: list[Any] = []

    def bind(self, value: Any) -> str:
        name = f"_b{len(self.bindings)}"
        self.bindings.append(value)
        return name


# ----------------------------------------------------------------------
# predicate inlining
# ----------------------------------------------------------------------
def _term_source(term: Any, schema: Schema, builder: _SourceBuilder) -> Optional[str]:
    if isinstance(term, AttributeRef):
        try:
            return f"t[{schema.position(term.name)}]"
        except KeyError:
            return None
    if isinstance(term, Literal):
        return builder.bind(term.value)
    return None


def _predicate_source(
    predicate: Predicate, schema: Schema, builder: _SourceBuilder
) -> Optional[str]:
    """Positional tuple expression for an AST predicate (None = not inlinable)."""
    if isinstance(predicate, Comparison):
        operator = _COMPARISON_SOURCE.get(predicate.operator)
        left = _term_source(predicate.left, schema, builder)
        right = _term_source(predicate.right, schema, builder)
        if operator is None or left is None or right is None:
            return None
        return f"({left} {operator} {right})"
    if isinstance(predicate, And):
        parts = [_predicate_source(operand, schema, builder) for operand in predicate.operands]
        if any(part is None for part in parts):
            return None
        return "(" + " and ".join(parts) + ")"  # type: ignore[arg-type]
    if isinstance(predicate, Or):
        parts = [_predicate_source(operand, schema, builder) for operand in predicate.operands]
        if any(part is None for part in parts):
            return None
        return "(" + " or ".join(parts) + ")"  # type: ignore[arg-type]
    if isinstance(predicate, Not):
        inner = _predicate_source(predicate.operand, schema, builder)
        return None if inner is None else f"(not {inner})"
    if isinstance(predicate, TruePredicate):
        return "True"
    if isinstance(predicate, FalsePredicate):
        return "False"
    return None


# ----------------------------------------------------------------------
# segment discovery
# ----------------------------------------------------------------------
def _segment_roots(plan: PhysicalOperator) -> list[PhysicalOperator]:
    """Fusable operators whose parent does not fuse them (pre-order).

    Plans can share subtrees (the algebra-simulation division re-scans its
    dividend); an operator can be interior to one segment *and* the root of
    another — both producers then bump its counter exactly as often as the
    interpreter would have pulled it.
    """
    roots: list[PhysicalOperator] = []
    seen: set[int] = set()

    def visit(operator: PhysicalOperator, fused_by_parent: bool) -> None:
        fusable = isinstance(operator, FUSABLE_OPERATORS)
        if fusable and not fused_by_parent and id(operator) not in seen:
            seen.add(id(operator))
            roots.append(operator)
        for child in operator.children:
            visit(child, fusable)

    visit(plan, False)
    return roots


def _chain(root: PhysicalOperator) -> list[PhysicalOperator]:
    """The maximal fused chain under ``root``, bottom stage first."""
    stages = [root]
    while isinstance(stages[-1].children[0], FUSABLE_OPERATORS):
        stages.append(stages[-1].children[0])
    stages.reverse()
    return stages


# ----------------------------------------------------------------------
# the dictionary path
# ----------------------------------------------------------------------
class _EntryTable:
    """A predicate over one attribute, evaluated per dictionary entry.

    ``build(dictionary)`` returns the truth table (a mask over the
    dictionary) and may raise whatever the comparison raises.  The outcome
    is cached for the dictionary it was computed from — dictionaries live
    as long as their relation value, so a cached plan re-executes for free.
    """

    __slots__ = ("position", "build", "_dictionary", "_table")

    def __init__(self, position: int, build: Callable[[list[Any]], Any]) -> None:
        self.position = position
        self.build = build
        self._dictionary: Optional[list[Any]] = None
        self._table: Any = None

    def mask(self, columns: tuple[CodeColumn, ...]) -> Any:
        """The chunk's mask, or None when the predicate raises on an entry."""
        column = columns[self.position]
        if column.dictionary is not self._dictionary:
            try:
                self._table = self.build(column.dictionary)
            except Exception:
                # Whether a tuple carrying the offending entry ever reaches
                # the comparison is the per-tuple segment's call
                # (short-circuits, earlier filters): it runs instead and
                # raises exactly what, and where, it always did.
                self._table = None
            self._dictionary = column.dictionary
        return None if self._table is None else take(self._table, column.codes)


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


def _mask_node(predicate: Predicate, positions: dict[str, int]) -> Optional[_MaskNode]:
    """Dictionary-evaluable form of ``predicate`` (None: keep it per tuple).

    ``positions`` maps attribute names to *entry* column positions.
    Operands of one connective that read the same attribute merge into one
    table, so ``lo <= a AND a < hi`` costs one gather per chunk.
    """
    if isinstance(predicate, Comparison):
        compare = _COMPARISON_FUNCTION.get(predicate.operator)
        left, right = predicate.left, predicate.right
        if compare is None:
            return None
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
        if not operands or any(operand is None for operand in operands):
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


class _ColumnPath:
    """The fused chain as operations on code columns (see module docstring).

    ``steps`` lists the chain bottom-up as ``(mask node or None, interior
    operator or None)``.  Filters contribute a mask over the *entry*
    columns — masks commute with relabeling, so every filter is evaluated
    against the unfiltered chunk and the masks are ANDed — and interior
    stages get their ``tuples_out`` bumped with the running count, exactly
    as the generated per-tuple function does.
    """

    def __init__(
        self,
        root: PhysicalOperator,
        entry: Schema,
        arranged: Schema,
        steps: list[tuple[Optional[_MaskNode], Optional[PhysicalOperator]]],
    ) -> None:
        self.root = root
        self.entry = entry
        #: The entry attributes in output order (permuting projections).
        self.arranged = arranged
        self.steps = steps

    def run(
        self, pull: Callable[[], Any], per_tuple: Callable[..., Any], bindings: tuple[Any, ...]
    ) -> Iterator[Chunk]:
        root = self.root
        root._filter_mode = "dictionary"
        for chunk in pull():
            produced = self._apply(chunk)
            if produced is NotImplemented:
                root._filter_mode = "per tuple"
                yield from per_tuple(lambda chunk=chunk: (chunk,), bindings)
            elif produced is not None:
                yield produced

    def _apply(self, chunk: Chunk) -> Any:
        """The output chunk, None when empty, NotImplemented: go per tuple."""
        chunk = chunk.aligned(self.entry)
        columns = chunk.columns
        if columns is None:
            return NotImplemented
        masks = []
        for node, _interior in self.steps:
            mask = None if node is None else node.mask(columns)
            if node is not None and mask is None:
                return NotImplemented
            masks.append(mask)
        selection = None
        count = len(chunk)
        for mask, (_node, interior) in zip(masks, self.steps):
            if mask is not None:
                selection = mask if selection is None else mask_and(selection, mask)
                count = mask_count(selection)
            if interior is not None:
                interior.tuples_out += count
        if count == 0:
            return None
        if count < len(chunk):
            chunk = chunk.selected(selection, count)
        return chunk.aligned(self.arranged).relabeled(self.root.schema)


def _column_path(root: PhysicalOperator, stages: list[PhysicalOperator]) -> Optional[_ColumnPath]:
    """The dictionary path of a chain, or None when a stage rules it out."""
    entry = stages[0].children[0].schema
    #: current attribute name → entry column position
    positions = {name: position for position, name in enumerate(entry.names)}
    steps: list[tuple[Optional[_MaskNode], Optional[PhysicalOperator]]] = []
    for stage in stages:
        node = None
        if isinstance(stage, Filter):
            node = _mask_node(stage.predicate, positions)
            if node is None:
                return None
        elif isinstance(stage, RenameOp):
            renamed = zip(stage.children[0].schema.names, stage.schema.names)
            positions = {new: positions[old] for old, new in renamed}
        elif len(stage.schema) == len(stage.children[0].schema):
            positions = {name: positions[name] for name in stage.schema.names}
        else:
            return None  # the projection drops attributes: it eliminates duplicates
        steps.append((node, stage if stage is not root else None))
    if all(node is None for node, _interior in steps):
        return None  # nothing to filter: the generated function is already free
    arranged = [entry.names[positions[name]] for name in root.schema.names]
    return _ColumnPath(root, entry, Schema.interned(arranged), steps)


# ----------------------------------------------------------------------
# codegen
# ----------------------------------------------------------------------
def _compile_segment(
    root: PhysicalOperator,
) -> Optional[tuple[Callable[[], Any], str, tuple[PhysicalOperator, ...], bool]]:
    """Producer closure + source for the chain rooted at ``root``.

    Returns ``None`` when the chain cannot be compiled safely (schema
    bookkeeping disagrees with the root's output schema); the interpreter
    then keeps running that chain.
    """
    stages = _chain(root)
    input_operator = stages[0].children[0]
    builder = _SourceBuilder()
    chunk_name = builder.bind(Chunk)
    entry_schema = input_operator.schema
    entry_name = builder.bind(entry_schema)
    current = entry_schema

    preamble: list[str] = []
    body: list[str] = []
    last = len(stages) - 1
    for position, stage in enumerate(stages):
        if isinstance(stage, Filter):
            expression = _predicate_source(stage.predicate, current, builder)
            if expression is None:
                # Opaque callable (or attribute outside the schema): keep
                # the interpreter's row-based call, still without the
                # per-operator generator frame.
                predicate_name = builder.bind(stage.predicate)
                row_name = builder.bind(Row.from_schema)
                schema_name = builder.bind(current)
                expression = f"{predicate_name}({row_name}({schema_name}, t))"
            body.append(f"        _t = [t for t in _t if {expression}]")
        elif isinstance(stage, ProjectOp):
            getter_name = builder.bind(current.tuple_getter(stage.schema.names))
            seen = f"_seen{position}"
            add = f"_add{position}"
            preamble.append(f"    {seen} = set()")
            preamble.append(f"    {add} = {seen}.add")
            body.append(
                f"        _t = [v for v in map({getter_name}, _t)"
                f" if not (v in {seen} or {add}(v))]"
            )
            current = stage.schema
        elif isinstance(stage, RenameOp):
            # Positions are unchanged; only the schema label moves.
            current = stage.schema
        else:  # pragma: no cover - FUSABLE_OPERATORS guards this
            return None
        if position != last:
            # Interior operators are bypassed at runtime; bump their
            # counters so tuple counts match the interpreted pipeline
            # (the root is counted by the ordinary chunks() wrapper).
            operator_name = builder.bind(stage)
            body.append(f"        {operator_name}.tuples_out += len(_t)")

    if current.names != root.schema.names:
        return None
    output_name = builder.bind(root.schema)

    lines = ["def _segment(_pull, _bind):"]
    unpack = ", ".join(f"_b{i}" for i in range(len(builder.bindings)))
    lines.append(f"    ({unpack},) = _bind")
    lines.extend(preamble)
    lines.append("    for _chunk in _pull():")
    lines.append(f"        _t = _chunk.aligned({entry_name}).tuples")
    lines.extend(body)
    lines.append("        if _t:")
    lines.append(f"            yield {chunk_name}({output_name}, _t)")
    source = "\n".join(lines)

    code = _CODE_CACHE.get(source)
    shared = code is not None
    if code is None:
        code = compile(source, "<repro-compiled-segment>", "exec")
        _CODE_CACHE[source] = code
    namespace: dict[str, Any] = {}
    exec(code, namespace)  # noqa: S102 - executing our own generated source
    function = namespace["_segment"]
    bindings = tuple(builder.bindings)
    pull = input_operator.chunks
    columns = _column_path(root, stages)
    root._filter_mode = "per tuple" if any(isinstance(s, Filter) for s in stages) else None

    def producer() -> Any:
        if columns is not None:
            return columns.run(pull, function, bindings)
        return function(pull, bindings)

    return producer, source, tuple(stages), shared


def compile_plan(plan: PhysicalOperator, mode: str = "auto") -> CompilationReport:
    """Attach compiled producers to every fusable segment of ``plan``.

    The plan shape is untouched: producers hang off the existing segment
    roots and the interpreter remains the reference implementation for
    ``rows()`` / emptiness probes.  Idempotent — recompiling a plan simply
    replaces the producers (and hits the code cache).
    """
    segments: list[CompiledSegment] = []
    for root in _segment_roots(plan):
        compiled = _compile_segment(root)
        if compiled is None:
            continue
        producer, source, stages, shared = compiled
        root._compiled_producer = producer
        root._compiled_source = source
        root._compiled_fused = len(stages)
        segments.append(
            CompiledSegment(
                root=root.describe(),
                operators=tuple(stage.describe() for stage in reversed(stages)),
                source=source,
                shared=shared,
            )
        )
    return CompilationReport(mode=mode, segments=tuple(segments))


def code_cache_size() -> int:
    """Number of distinct segment structures compiled so far (diagnostics)."""
    return len(_CODE_CACHE)


def clear_code_cache() -> None:
    """Drop the structure-keyed code cache (tests only)."""
    _CODE_CACHE.clear()
