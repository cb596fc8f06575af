"""The key-column seam: integer key codes in, a coded quotient out.

A division operator never looks at key *values* — it wants, per key side
(quotient candidates ``A``, shared values ``B``, divisor groups ``C``), one
integer code per tuple plus the list mapping codes back to keys, and it
answers with the codes of the keys in its quotient.  :func:`encode_keys` is
the single place that produces the codes:

* when every chunk of the input carries code columns over one shared
  dictionary (a scan, possibly under filters, or an exchange partition:
  the exchange hands on code columns), the cached
  codes are **read directly** — a single attribute's buffers joined and
  its dictionary *as they are*, composite keys combined by mixed radix —
  so whatever the operator then looks up per key costs one lookup per
  *dictionary entry*, not per tuple, and nothing is counted or renumbered
  on the way;
* otherwise (join output, a stream that changes dictionaries mid-way, a
  partition that was spilled or routed as tuples) the key values are
  dictionary-encoded **on the fly**, one ``dict`` operation per tuple —
  the cost of the per-algorithm loops this replaces.

The contract: codes index ``keys``; **a key may not occur** (a selection
under the division leaves dictionary entries no tuple carries), and the
order of codes is unspecified, which is sound because quotients are sets.
That is all a dividend needs: a value table is per dictionary entry
either way, an absent candidate's bitmask stays empty and cannot match a
non-empty divisor, and a great divide's groups come from divisor tuples, so
none is empty.  The callers that must count what occurs ask
:meth:`KeySide.dense` — the small divide's divisor side (its width), the
great divide's group and divisor-value sides (the group list, the bit
width; hundreds of tuples), and the dividend's candidates only under an
empty divisor, where the quotient is every candidate *that occurs*.

The operators that sweep the dividend's codes ask for more: when the
dividend is one chunk that is a relation's whole block, or a restricted
block a :class:`~repro.physical.basic.Filter` made of one (see
:class:`~repro.physical.base.BaseBlock`), and both key sides are single
attributes, :func:`encode_keys` answers with a :class:`Containment`
before anything reads the chunk's columns: the relation's *containment
bitmap* (value-major: row ``b`` holds, as ``⌈|A|/64⌉`` words, the
candidates ``a`` with ``(a, b)`` a tuple; built once per relation value,
whatever the kernel, by the numpy gather sweep with the value codes as
rows, at identity positions, and kept on the value with the two dictionaries,
:meth:`~repro.relation.relation.Relation._summary`; a stored table's value
builds it from one checked read of its pages, and a table's edit hands
the folded value its bitmap patched by the edit, :func:`_patched_bitmap`)
plus the restriction —
nothing reads the chunk's codes, or a stored table's pages.
A divisor (group) of ``d`` values is then the AND of those ``d`` rows, and
every set of a division is answered in one kernel call
(:meth:`~repro.physical.compile.kernels.PythonBitsetKernel.intersection_matches`);
a restriction on ``A`` is one more row ANDed into every result (Law 3 read
right to left: ``σ_p(A)(r1) ÷ r2 = σ_p(A)(r1 ÷ r2)``), and a value that a
restriction on ``B`` fails, or that the dictionary lacks, empties its set.
A bitmap is built only where its bytes, ``|B| · ⌈|A|/64⌉ · 8``, are at most
those of the two code buffers it summarises; elsewhere, and for every other
input, the sides come back as above and the operator sweeps.

:meth:`KeyedDivisionOperator._emit` is the single way out: the quotient
is one chunk of code columns over the sides' own key lists (a composite
side decodes through its key tuples), cut by the operator's batch size.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator, Sequence
from typing import Any, NamedTuple, Optional

from repro.physical.base import Chunk, PhysicalOperator, TupleProjector, _shares_dictionaries
from repro.physical.compile.kernels import _KERNELS, PythonBitsetKernel, active_kernel, bitmap_rows
from repro.relation.encoding import (
    CodeColumn,
    CodeFold,
    DenseEncoder,
    as_code_buffer,
    merge_code_columns,
)
from repro.relation.relation import _DROPPED, _SUMMARY_PATCHES, Relation
from repro.relation.schema import Schema

__all__ = ["KeySide", "Containment", "EncodedKeys", "KeyedDivisionOperator", "encode_keys"]


class KeySide:
    """One key side of an encoded input: per-tuple codes and code → key."""

    __slots__ = ("codes", "keys", "single", "_dense")

    def __init__(self, codes: Any, keys: list[Any], single: bool, dense: bool) -> None:
        #: One integer per input tuple (a list, or a code buffer from cached
        #: codes); ``None`` beside a containment bitmap, which answers instead.
        self.codes = codes
        #: code → key: the bare value for one attribute, a value tuple otherwise.
        self.keys = keys
        #: One attribute: ``keys`` can be a code column's dictionary.
        self.single = single
        self._dense = dense

    def dense(self) -> "KeySide":
        """This side with every key occurring: as it is when that is known
        (encoded on the fly, or a composite), else renumbered onto the keys
        its codes carry — one count over the codes, for the callers named
        in the module docstring."""
        if self._dense:
            return self
        column = CodeColumn(self.keys, self.codes).dense()
        return KeySide(column.codes, column.dictionary, self.single, True)

    def table(self, mapping: dict[Any, Any], default: Any) -> list[Any]:
        """``mapping`` re-indexed by code: one lookup per dictionary entry."""
        get = mapping.get
        return [get(key, default) for key in self.keys]


class Containment(NamedTuple):
    """A dividend answered from its relation's containment bitmap.

    The bitmap is value-major (one row of candidates per value code), so a
    set of divisor values costs the AND of its rows — ``d`` rows of
    ``⌈|A|/64⌉`` words — and not a compare with every candidate's row."""

    #: Per value code, the candidates holding it: ``(|B|, ⌈|A|/64⌉)``
    #: ``uint64`` rows (:func:`~repro.physical.compile.kernels.bitmap_rows`).
    rows: Any
    #: The relation's value dictionary (code → key of ``B``).
    values: list[Any]
    #: The relation's candidate count (``|A|``, the width of a row).
    count: int
    #: A restricted block's predicate: over ``A`` as packed words (one more
    #: row ANDed in), or over ``B`` as its truth table.
    candidate_table: Any
    value_table: Any
    #: What ``explain`` prints on its ``· bitmap:`` line.
    description: str

    def matches(
        self, kernel: PythonBitsetKernel, set_codes: Any, value_codes: Any, keys: Sequence[Any]
    ) -> tuple[Any, Any]:
        """The quotient's ``(candidate, set)`` code pairs: per set of the
        divisor's ``(set, value)`` pairs (value codes indexing ``keys``), the
        candidates whose tuples left hold every value of the set — the AND
        of the values' rows, every set in one kernel call.  A value no tuple
        left carries (missing from the dictionary, or failing a ``σ`` on
        ``B``) is an empty row, so its set matches nothing."""
        code_of = dict(zip(self.values, range(len(self.values))))
        row_of = [code_of.get(key, -1) for key in keys]
        table = self.value_table
        if table is not None:
            row_of = [row if row >= 0 and table[row] else -1 for row in row_of]
        return kernel.intersection_matches(
            self.rows, set_codes, value_codes, row_of, self.count, self.candidate_table
        )


class EncodedKeys(NamedTuple):
    """The key sides of one drained input, in the order they were asked for."""

    sides: tuple[KeySide, ...]
    #: "cached codes (N chunks)" or "encoded on the fly" (what ``explain``
    #: prints): an unset batch size reads one chunk per scan block.
    source: str
    #: Set when the sides are a relation's own key lists, to be answered
    #: from its containment bitmap (then the sides carry no codes).
    containment: Optional[Containment] = None


class KeyedDivisionOperator(PhysicalOperator):
    """What all division algorithms share: the dividend's key columns.

    Quotient groups are keyed by ``A``; partitioning the dividend on ``A``
    keeps each group (and its containment test against the divisor, or
    every divisor group) within one partition, so per-partition results
    union to the global result — the PartitionedDivision wrapper relies
    on it.
    """

    key_disjoint_safe = True

    #: Where the most recent execution's dividend keys came from and which
    #: bitset kernel ran (``None`` before the first execution);
    #: ``explain(analyze=True)`` prints both.
    key_source: Optional[str] = None
    kernel_name: Optional[str] = None
    #: The containment bitmap the most recent execution read (``None``: it
    #: swept the codes); ``explain(analyze=True)`` prints it.
    _bitmap_source: Optional[str] = None

    def _dividend_keys(
        self, a: Schema, b: Schema, bitmap: bool = False
    ) -> tuple[PythonBitsetKernel, KeySide, KeySide, Optional[Containment]]:
        """``(kernel, candidates, values, containment)`` of the dividend
        (first child); ``containment`` only if ``bitmap`` asks for it and
        :func:`encode_keys` can answer with one."""
        kernel = active_kernel()
        keys = encode_keys(self._children[0], a, b, bitmap=bitmap)
        self.key_source, self.kernel_name = keys.source, kernel.name
        containment = keys.containment
        self._bitmap_source = None if containment is None else containment.description
        return (kernel, *keys.sides, containment)

    def _emit(self, sides: Sequence[KeySide], codes: Sequence[Any]) -> Iterator[Chunk]:
        """The quotient: tuple ``i`` is the keys ``sides[j].keys[codes[j][i]]``
        side by side (the sides in schema order, one code buffer each).

        One chunk, cut into pieces of the batch size.  Single-attribute
        sides stay code columns over their own key lists — a scanned
        table's dictionary, so a selection above the division filters on
        it — and nothing is decoded before something reads the tuples; a
        composite side's keys are value tuples already and decode here.
        """
        coded = all(side.single for side in sides)
        self.key_source = f"{self.key_source} → {'coded quotient' if coded else 'tuples'}"
        if coded:
            columns = map(CodeColumn, (side.keys for side in sides), map(as_code_buffer, codes))
            chunk = Chunk.coded(self._schema, tuple(columns))
        else:
            parts = []
            for side, buffer in zip(sides, codes):
                keys = map(side.keys.__getitem__, buffer.tolist())
                parts.append(zip(keys) if side.single else keys)
            tuples = parts[0] if len(parts) == 1 else map(operator.add, *parts)
            chunk = Chunk(self._schema, list(tuples))
        return chunk.pieces(self.batch_size)


def encode_keys(
    source: PhysicalOperator,
    *attribute_sets: Schema,
    bitmap: bool = False,
) -> EncodedKeys:
    """Drain ``source`` and encode each attribute set as one key side.

    With ``bitmap`` (two single-attribute sets ``A``, ``B``), a dividend
    that is one whole or restricted block comes back with its relation's
    :class:`Containment`, built if need be."""
    stream = source.chunks()
    first = next(stream, None)
    if bitmap and first is not None and first._base is not None:
        rest = list(stream)
        if not rest and first.schema.names == source.schema.names:
            keys = _containment(first, source.schema, attribute_sets)
            if keys is not None:
                return keys
        stream = iter(rest)
    if first is not None and first.columns is not None:
        # Coded chunks are cheap to hold (their tuples are still deferred),
        # so keep them in case a later chunk breaks the shared-dictionary run.
        chunks = [first, *stream]
        positions = [
            [source.schema.position(name) for name in attributes.names]
            for attributes in attribute_sets
        ]
        if _shares_dictionaries(chunks, source.schema, {p for side in positions for p in side}):
            sides = tuple(_cached_side(chunks, side) for side in positions)
            count = "1 chunk" if len(chunks) == 1 else f"{len(chunks)} chunks"
            return EncodedKeys(sides, f"cached codes ({count})")
        stream = iter(chunks)
    elif first is not None:
        stream = itertools.chain((first,), stream)
    # On the fly: one dict operation per tuple and side, chunk by chunk.
    projectors = [TupleProjector(attributes) for attributes in attribute_sets]
    encoders = [DenseEncoder() for _ in attribute_sets]
    for chunk in stream:
        for projector, encoder in zip(projectors, encoders):
            encoder.extend(projector.keys_of(chunk))
    sides = tuple(
        KeySide(encoder.codes, encoder.finish(), len(attributes) == 1, dense=True)
        for encoder, attributes in zip(encoders, attribute_sets)
    )
    return EncodedKeys(sides, "encoded on the fly")


def _containment(
    chunk: Chunk, schema: Schema, attribute_sets: Sequence[Schema]
) -> Optional[EncodedKeys]:
    """The keys of a whole or restricted block with its relation's
    containment bitmap (None: a composite side, or a bitmap over the bound)."""
    if any(len(attributes) != 1 for attributes in attribute_sets):
        return None
    a, b = (schema.position(attributes.names[0]) for attributes in attribute_sets)
    relation, restriction = chunk._base  # type: ignore[misc]
    candidate_table = value_table = None
    if restriction is not None:
        position, table, packed = restriction
        if position not in (a, b):
            return None
        if position == a:
            candidate_table = packed
        else:
            value_table = table
    bitmap = relation._summary(("containment", a, b), functools.partial(_containment_bitmap, a, b))
    if bitmap is None:
        return None
    rows, candidates, values, origin = bitmap
    count = len(candidates)
    description = (
        f"{schema.names[a]} → {schema.names[b]}, {len(values)} rows × {count} bits, {origin}"
    )
    if restriction is not None:
        masked = "candidates" if restriction[0] == a else "values"
        description += f", σ on {schema.names[restriction[0]]} masks {masked}"
    # Only the key lists are read: the quotient's codes index them.
    sides = tuple(KeySide(None, keys, True, False) for keys in (candidates, values))
    containment = Containment(rows, values, count, candidate_table, value_table, description)
    return EncodedKeys(sides, "cached codes (1 chunk)", containment)


def _containment_bitmap(
    a: int, b: int, relation: Relation
) -> Optional[tuple[Any, list[Any], list[Any], str]]:
    """``(rows, candidate keys, value keys, origin)``: row ``b``, bit ``a``
    set iff the relation holds ``(a, b)``, over the two columns'
    dictionaries, as :func:`~repro.physical.compile.kernels.bitmap_rows`
    holds them whatever the kernel — the words a saved store holds
    (:meth:`~repro.relation.relation.Relation.stored_bitmap`) read in
    place, else the numpy gather sweep with the value codes as rows, at
    identity positions.  ``None`` when the bitmap's bytes would
    exceed those of the two code buffers it summarises — a structural
    bound, so no bitmap outgrows the encoding it sits beside (and a store
    holds none such).  ``origin`` is what ``explain`` says of it."""
    stored = relation.stored_bitmap(a, b)
    if stored is not None:
        words, candidate_keys, value_keys = stored
        rows = bitmap_rows(words, len(value_keys), len(candidate_keys))
        return rows, candidate_keys, value_keys, "read from the store"
    columns = relation._summary_columns()
    candidates, values = columns[a], columns[b]
    if _over_bound(candidates, values):
        return None
    width, count = len(candidates.dictionary), len(values.dictionary)
    sweep = _KERNELS["numpy"].gather_sweep
    rows = sweep(count, values.codes, candidates.codes, range(width), width)
    if isinstance(rows, list):  # under 32 tuples: the reference's int masks
        rows = bitmap_rows(rows, count, width)
    return rows, candidates.dictionary, values.dictionary, f"built from {relation.summary_source}"


def _over_bound(candidates: CodeColumn, values: CodeColumn) -> bool:
    """Whether the containment bitmap of these two columns would take more
    bytes than their code buffers (then no bitmap is kept)."""
    width = len(candidates.dictionary)
    summarised = candidates.codes.nbytes + values.codes.nbytes
    return len(values.dictionary) * -(-width // 64) * 8 > summarised


def _patched_bitmap(bitmap: Any, key: tuple[Any, ...], fold: CodeFold) -> Any:
    """A held ``("containment", a, b)`` summary carried over a table's
    edit: the rows patched
    (:meth:`~repro.physical.compile.kernels.NumpyBitsetKernel.patch_rows`)
    over the edited columns' dictionaries — what
    :func:`_containment_bitmap` would build on the folded value, ``None``
    included once the size bound is crossed.  Left to that build
    (``_DROPPED``) when the parent held ``None`` and the bound is no
    longer crossed, when the bitmap is not over the parent's encoding, or
    when the edit cannot say which pairs went (:meth:`CodeFold.pairs`)."""
    _kind, a, b = key
    candidates, values = fold.columns[a], fold.columns[b]
    over = _over_bound(candidates, values)
    if bitmap is None or over:
        return None if over else _DROPPED
    rows, candidate_keys, value_keys, _origin = bitmap
    before = fold.before
    if candidate_keys is not before[a].dictionary or value_keys is not before[b].dictionary:
        return _DROPPED
    changes = fold.pairs(a, b)
    if changes is None:
        return _DROPPED
    rows = _KERNELS["numpy"].patch_rows(
        rows,
        len(candidate_keys),
        (fold.renumberings[a], fold.renumberings[b]),
        changes,
        (len(values.dictionary), len(candidates.dictionary)),
    )
    edit = len(fold.dropped) + fold.appended
    return rows, candidates.dictionary, values.dictionary, f"patched by a {edit}-row edit"


_SUMMARY_PATCHES["containment"] = _patched_bitmap


def _cached_side(chunks: list[Chunk], positions: list[int]) -> KeySide:
    """One key side read from the chunks' cached code columns."""
    first = chunks[0].columns
    codes, keys = merge_code_columns(
        [[chunk.columns[position].codes for chunk in chunks] for position in positions],
        [first[position].dictionary for position in positions],
    )
    # A composite comes back over the combinations that occur; a single
    # attribute over its column's whole dictionary.
    single = len(positions) == 1
    return KeySide(codes, keys, single, dense=not single)
