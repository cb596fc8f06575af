"""Dictionary encoding of relation columns, and masks over the codes.

A :class:`CodeColumn` is one attribute in columnar form: a *dictionary* of
its distinct values in first-seen (scan) order plus one compact buffer of
integer *codes*, ``dictionary[codes[i]]`` being the value of tuple ``i``.
:func:`encode_columns` builds one per attribute from a relation's aligned
tuple block; :meth:`~repro.relation.relation.Relation.encoded_columns`
caches the result next to the tuple block, so the encoding is paid once per
relation value (a table version) instead of once per operator open.

Distinct means distinct under ``==``/``hash``: ``1``, ``1.0`` and ``True``
share one dictionary entry (the first one seen), exactly as they share one
slot in the ``dict``-based encoders this replaces.

Code buffers are ``numpy.int32`` arrays — never lists of ``int`` objects
— and every helper that builds or reshapes one lives here, so the format
is decided in this module only: :func:`merge_code_columns` (the
concatenate / mixed-radix step behind the division operators' key columns;
:meth:`CodeColumn.dense` renumbers one onto the entries it carries, for the
few callers that must count them), :func:`repeat_codes` and
:func:`as_code_buffer` (a quotient's code columns out of the kernels' match
scans), :func:`split_code_columns` (the exchange's partition pass),
:func:`fold_code_columns` (a table edit carried over to the encoding, and
to the counts and bounds its columns keep),
the mask helpers (boolean arrays; callers treat masks as opaque values
produced and consumed by these functions only) and, at the bottom, what a
restricted block and the division operators' containment bitmap read of
a truth table: :func:`code_frequencies` (kept on the relation value),
:func:`passing_count` and :func:`packed_table` (the table as bitmap words).
"""

from __future__ import annotations

import itertools
import math
import operator
import zlib
from collections import defaultdict
from collections.abc import Iterable, Sequence
from typing import Any, NamedTuple, Optional

import numpy as _np

__all__ = [
    "CodeColumn",
    "DenseEncoder",
    "as_code_buffer",
    "code_buffer",
    "code_width",
    "concatenate_codes",
    "drop_positions",
    "empty_codes",
    "encode_columns",
    "iter_codes",
    "merge_code_columns",
    "narrow_codes",
    "fold_code_columns",
    "CodeFold",
    "Renumbering",
    "repeat_codes",
    "route_codes",
    "stable_hash",
    "split_code_columns",
    "widen_codes",
    "narrow_view",
    "flag_table",
    "take",
    "mask_and",
    "mask_or",
    "mask_not",
    "mask_count",
    "mask_positions",
    "select_items",
    "code_frequencies",
    "passing_count",
    "packed_table",
    "sets_padding",
]


class CodeColumn:
    """One attribute as dictionary codes (a slice shares the dictionary)."""

    __slots__ = ("dictionary", "codes", "_table", "_first", "_counts", "_bounds")

    def __init__(self, dictionary: list[Any], codes: Any) -> None:
        #: code → value, first-seen order; shared by every slice of a column.
        self.dictionary = dictionary
        #: One code per tuple, in scan order.
        self.codes = codes
        #: What :func:`fold_code_columns` reads of a relation's encoding,
        #: carried from one table version to the next: value → code of the
        #: dictionary (kept by :func:`encode_columns`, which builds it
        #: anyway) and the position of each entry's first tuple (found by
        #: the first edit).  ``None`` until then; never pickled.
        self._table: Optional[dict[Any, int]] = None
        self._first: Any = None
        #: What the statistics read, kept once asked for and patched by a
        #: fold like the two above: :func:`code_frequencies` and
        #: ``(bounds, family)`` of :meth:`bounds`.
        self._counts: Any = None
        self._bounds: Optional[tuple[Optional[tuple[Any, Any]], Optional[str]]] = None

    def __len__(self) -> int:
        return len(self.codes)

    def __reduce__(self) -> tuple[Any, ...]:
        """Pickles narrow (:func:`narrow_codes`) and widens again on load —
        a pickled coded relation costs its codes' narrow bytes."""
        return _widened, (self.dictionary, narrow_codes(self.codes, len(self.dictionary)))

    def slice(self, start: int, stop: int) -> "CodeColumn":
        return CodeColumn(self.dictionary, self.codes[start:stop])

    def select(self, selection: Any) -> "CodeColumn":
        """The codes ``selection`` keeps: a mask from the helpers below, or
        the positions :func:`mask_positions` makes of one.  Pass positions:
        on a 306k-code column a boolean gather takes 2.6 ms and a gather by
        position 0.12 ms (20×), so the 0.26 ms that turn the mask into
        positions are paid back by the first column that takes them."""
        return CodeColumn(self.dictionary, self.codes[selection])

    def dense(self) -> "CodeColumn":
        """This column over a dictionary of just the entries it carries (one
        count over the codes finds them; the column itself when every entry
        occurs)."""
        codes, dictionary = _compact(self.codes, self.dictionary)
        return self if dictionary is self.dictionary else CodeColumn(dictionary, codes)

    def first_seen(self) -> "CodeColumn":
        """This column as :func:`encode_columns` would build it from its
        values: over just the entries it carries, in first-seen order (the
        column itself when its dictionary already is that)."""
        codes, dictionary = _first_seen(self.codes, self.dictionary)
        return self if dictionary is self.dictionary else CodeColumn(dictionary, codes)

    def bounded(self) -> "CodeColumn":
        """This column, :meth:`dense` if the dictionary outgrows the codes
        (so neither dominates the other)."""
        return self if len(self.dictionary) <= len(self.codes) else self.dense()

    def values(self) -> list[Any]:
        """The decoded values, in tuple order."""
        return list(map(self.dictionary.__getitem__, self.codes.tolist()))

    def distinct_values(self) -> list[Any]:
        """The values the column carries, each once (in no particular order):
        one dictionary lookup per distinct code, not per tuple."""
        # Sort and keep each run's head: at block sizes three to four times
        # faster than ``np.unique`` and independent of the dictionary size.
        ordered = _np.sort(self.codes)
        head = _np.ones(len(ordered), dtype=bool)
        head[1:] = ordered[1:] != ordered[:-1]
        return list(map(self.dictionary.__getitem__, ordered[head].tolist()))

    def frequencies(self) -> Any:
        """:func:`code_frequencies` of this column, counted once."""
        if self._counts is None:
            self._counts = code_frequencies(self)
        return self._counts

    def top_frequency(self) -> int:
        """Tuple count of the most frequent value (0 for an empty column)."""
        return int(self.frequencies().max()) if len(self.codes) else 0

    def bounds(self) -> Optional[tuple[Any, Any]]:
        """``(min, max)`` over the dictionary's values, ``None`` when they do
        not compare (or there are none); computed once."""
        if self._bounds is None:
            self._bounds = _bounds_of(self.dictionary)
        return self._bounds[0]


def _widened(dictionary: list[Any], data: bytes) -> CodeColumn:
    """Unpickle a :class:`CodeColumn` (see its ``__reduce__``): bytes of
    our own, widened without the range check a file's pages get."""
    return CodeColumn(dictionary, widen_codes(data, len(dictionary), checked=False))


def _bounds_of(values: list[Any]) -> tuple[Optional[tuple[Any, Any]], Optional[str]]:
    """``(bounds, family)`` of a dictionary: ``(min, max)`` of its values
    (``None``: they do not compare, or there are none) and the family of
    values a fold can patch those bounds over exactly (see
    :func:`_value_family`)."""
    try:
        bounds = min(values), max(values)
    except (TypeError, ValueError):
        bounds = None
    return bounds, _value_family(values)


def _value_family(values: list[Any]) -> Optional[str]:
    """``"text"`` when every value is a ``str``, ``"number"`` when every
    value is an ``int``, ``float`` or ``bool`` and none is NaN, else
    ``None``: only over one of the two are ``min`` and ``max`` independent
    of the order the values come in, so that bounds patched value by value
    are the ones a fresh pass would find."""
    kinds = set(map(type, values))
    if kinds <= {str}:
        return "text"
    if kinds <= {int, float, bool} and (float not in kinds or all(v == v for v in values)):
        return "number"
    return None


def code_width(entries: int) -> int:
    """Bytes of the narrowest unsigned type that holds every code of a
    dictionary with ``entries`` entries: 1, 2 or 4."""
    return 1 if entries <= 1 << 8 else 2 if entries <= 1 << 16 else 4


def narrow_codes(codes: Any, entries: int) -> bytes:
    """A code buffer as raw little-endian bytes, :func:`code_width` bytes a
    code — the form codes take on disk (a column page of a stored block)
    and on the wire (a pickled :class:`CodeColumn`)."""
    return codes.astype(f"<u{code_width(entries)}").tobytes()


def narrow_view(data: Any, entries: int, checked: bool = True) -> Any:
    """The bytes of :func:`narrow_codes` read in place: a read-only array of
    :func:`code_width` bytes a code, nothing copied.  Raises ``ValueError``
    for bytes that are no whole number of codes or — unless ``checked`` is
    off: bytes the engine narrowed itself, not a file's — hold a code
    outside the dictionary."""
    narrow = _np.frombuffer(data, dtype=f"<u{code_width(entries)}")
    if checked and len(narrow):
        highest = int(narrow.max())
        if highest >= entries:
            raise ValueError(f"code {highest} outside a dictionary of {entries}")
    return narrow


def widen_codes(data: Any, entries: int, checked: bool = True) -> Any:
    """Inverse of :func:`narrow_codes`: the bytes as an int32 code buffer,
    copied once (:func:`narrow_view`, then one cast)."""
    return narrow_view(data, entries, checked).astype(_np.int32)


def code_buffer(codes: Iterable[int], count: int) -> Any:
    """``count`` integer codes as an int32 code buffer."""
    return _np.fromiter(codes, dtype=_np.int32, count=count)


def empty_codes(count: int) -> Any:
    """A code buffer of ``count`` codes, to be filled slice by slice."""
    return _np.empty(count, dtype=_np.int32)


def concatenate_codes(buffers: Sequence[Any]) -> Any:
    """Code buffers over one dictionary joined in order (one: as it is)."""
    if len(buffers) == 1:
        return buffers[0]
    return _np.concatenate(buffers) if buffers else code_buffer((), 0)


def as_code_buffer(indices: Any) -> Any:
    """An integer array that is not a code buffer yet — a bitset kernel's
    match scan — as one (a view or one cast; never a pass in Python)."""
    return _np.asarray(indices, dtype=_np.int32)


def repeat_codes(codes: Sequence[int], counts: Sequence[int]) -> Any:
    """``codes[i]`` repeated ``counts[i]`` times, in order, as a code buffer."""
    return _np.repeat(_np.asarray(codes, dtype=_np.int32), counts)


def iter_codes(codes: Any) -> Iterable[int]:
    """A code column as Python ints, for loops that run in Python (a buffer
    through a ``memoryview``: no list of boxed ints; a list as it is)."""
    return codes if isinstance(codes, list) else memoryview(codes)


def encode_columns(tuples: Sequence[tuple[Any, ...]], width: int) -> tuple[CodeColumn, ...]:
    """Encode every attribute of an aligned tuple block (scan order kept)."""
    columns = []
    for position in range(width):
        getter = operator.itemgetter(position)
        dictionary = list(dict.fromkeys(map(getter, tuples)))
        table = _code_table(dictionary)
        codes = map(table.__getitem__, map(getter, tuples))
        column = CodeColumn(dictionary, code_buffer(codes, len(tuples)))
        column._table = table
        columns.append(column)
    return tuple(columns)


class DenseEncoder:
    """First-seen dense codes of hashable values, fed chunk by chunk.

    ``code_of[value]`` on a missing value calls the default factory —
    ``len(code_of)``, the next free code — and stores it, so a whole chunk
    encodes as one C-level ``map``.
    """

    __slots__ = ("code_of", "codes")

    def __init__(self) -> None:
        self.code_of: defaultdict[Any, int] = defaultdict()
        self.code_of.default_factory = self.code_of.__len__
        self.codes: list[int] = []

    def extend(self, values: Iterable[Any]) -> None:
        self.codes.extend(map(self.code_of.__getitem__, values))

    def finish(self) -> list[Any]:
        """code → value; also unhooks the factory (it refers back to the dict)."""
        self.code_of.default_factory = None
        return list(self.code_of)


def merge_code_columns(
    parts: list[list[Any]], dictionaries: list[list[Any]]
) -> tuple[Any, list[Any]]:
    """One key column out of per-attribute code buffers.

    ``parts[i]`` lists attribute ``i``'s code buffers in stream order (one
    per chunk, all over ``dictionaries[i]``).  Returns ``(codes, keys)``:
    one code per tuple and ``keys[code]`` its key.  A single attribute
    comes back as it is — its buffers joined, ``keys`` the column's own
    dictionary, so a key may not occur (a selection leaves entries no tuple
    carries; :meth:`CodeColumn.dense` renumbers for a caller that must
    count what occurs).  Several attributes are combined by mixed radix into
    value tuples, each of which occurs.
    """
    arrays = [concatenate_codes(buffers) for buffers in parts]
    if len(arrays) == 1:
        return arrays[0], dictionaries[0]
    combined = _combine_codes(arrays, [len(dictionary) for dictionary in dictionaries])
    if combined is None:
        return _merge_by_dict([array.tolist() for array in arrays], dictionaries)
    unique, codes = _np.unique(combined, return_inverse=True)
    digits = []
    for dictionary in reversed(dictionaries):
        unique, digit = _np.divmod(unique, len(dictionary))
        digits.append([dictionary[code] for code in digit.tolist()])
    return codes, list(zip(*reversed(digits)))


def _combine_codes(arrays: Sequence[Any], sizes: Sequence[int]) -> Any:
    """Aligned code buffers as one int64 buffer of mixed-radix composites
    over dictionaries of ``sizes`` entries; ``None`` when the radix product
    overflows int64 (callers combine as code tuples, or do without)."""
    if math.prod(sizes) >= 1 << 62:
        return None
    combined = arrays[0].astype(_np.int64)
    for array_, size in zip(arrays[1:], sizes[1:]):
        combined = combined * size + array_
    return combined


def _compact(codes: Any, dictionary: list[Any]) -> tuple[Any, list[Any]]:
    """A code buffer renumbered onto the dictionary entries it carries
    (buffer and dictionary as they are when every entry occurs)."""
    present = _np.flatnonzero(_np.bincount(codes, minlength=len(dictionary)))
    if len(present) == len(dictionary):
        return codes, dictionary
    remap = _np.zeros(len(dictionary), dtype=_np.int32)
    remap[present] = _np.arange(len(present), dtype=_np.int32)
    return remap[codes], list(map(dictionary.__getitem__, present.tolist()))


def _merge_by_dict(
    columns: list[Iterable[int]], dictionaries: list[list[Any]]
) -> tuple[list[int], list[Any]]:
    """:func:`merge_code_columns` through a ``dict`` over code tuples, for
    a composite past int64."""
    encoder = DenseEncoder()
    encoder.extend(zip(*columns))
    keys = [
        tuple(dictionary[code] for dictionary, code in zip(dictionaries, combination))
        for combination in encoder.finish()
    ]
    return encoder.codes, keys


#: Keeps :func:`stable_hash` of a tuple inside ``int64``.
_HASH_MASK = (1 << 61) - 1


def stable_hash(value: Any) -> int:
    """A hash of ``value`` that is the same in every process, for routing.

    The builtin ``hash`` of a string (and of a tuple holding one, and of
    ``None``) changes with the process's hash seed; this one does not, so
    one value goes to one partition in every run.  Equal values hash alike
    as under ``hash`` (``1``, ``1.0`` and ``True`` too): numbers keep the
    builtin's hash, which depends on no seed; strings hash by CRC-32 of
    their UTF-8, tuples combine their items' hashes in order, frozensets
    (nested values) sum theirs.  Any other value falls back to the builtin
    ``hash``.
    """
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8", "surrogatepass"))
    if isinstance(value, tuple):
        combined = 0x345678
        for item in value:
            combined = (combined * 1000003 ^ stable_hash(item)) & _HASH_MASK
        return combined
    if value is None:
        return 0x2F1E
    if isinstance(value, frozenset):
        return sum(map(stable_hash, value)) & _HASH_MASK
    return hash(value)


def route_codes(keys: Sequence[Any], count: int) -> Any:
    """``stable_hash(key) % count`` per key: the table
    :func:`split_code_columns` routes by (numpy's modulo, like Python's:
    never negative)."""
    return _np.fromiter(map(stable_hash, keys), dtype=_np.int64, count=len(keys)) % count


def split_code_columns(
    columns: Sequence[CodeColumn], key_codes: Any, routes: Any, count: int
) -> list[tuple[CodeColumn, ...]]:
    """Aligned code columns split into ``count`` blocks, stream order kept.

    Block ``routes[code]`` takes every tuple whose ``key_codes`` entry is
    ``code`` (``routes`` from :func:`route_codes` over the key's dictionary) — one
    table lookup per tuple, no value is touched.  A column whose
    dictionary is larger than its block comes over a dictionary compacted
    to the entries the block carries, so what a block holds is bounded by
    its size, not by the table it was cut from.  With one block
    there is nothing to look up.
    """
    if count == 1:
        blocks = [list(columns)]
    else:
        # Positions, not boolean masks: on scattered keys one gather per
        # column is several times faster than a mask per column.
        block_of = routes[key_codes]
        masks = [_np.flatnonzero(block_of == block) for block in range(count)]
        blocks = [[column.select(mask) for column in columns] for mask in masks]
    return [tuple(column.bounded() for column in block) for block in blocks]


class Renumbering(NamedTuple):
    """How a fold renumbered one column (:meth:`CodeFold.renumberings`)."""

    #: The old code of each entry the column still carries, by new code.
    survivors: Any
    #: ``(old code, new code)`` of each entry that lost its first tuple,
    #: ascending by old code; new code ``-1``: no tuple carries it any
    #: more.  Every other entry keeps its place among the survivors.
    heads: list[tuple[int, int]]


class CodeFold:
    """A tuple block's encoding carried over an edit (:func:`fold_code_columns`).

    Holds the encoding before (:attr:`before`) and after (:attr:`columns`)
    the edit and how every column's codes moved, which is what a folded
    value's summaries are patched by: :meth:`counts` patches a count per
    entry, :meth:`value_bounds` a column's bounds and :meth:`pairs` names
    the ``(a, b)`` code pairs a containment bitmap loses and gains.
    Nothing here reads a kept tuple.
    """

    __slots__ = ("before", "columns", "dropped", "renumberings", "_lost", "_tails", "_hits")

    def __init__(
        self,
        before: Sequence[CodeColumn],
        columns: tuple[CodeColumn, ...],
        dropped: list[int],
        renumberings: list[Optional[Renumbering]],
        lost: list[Any],
        tails: list[Any],
        hits: Optional[tuple[int, Any]],
    ) -> None:
        self.before = tuple(before)
        #: The edited block's encoding, as :func:`encode_columns` would build it.
        self.columns = columns
        #: Ascending positions of the removed tuples in the old block.
        self.dropped = dropped
        #: Per column its :class:`Renumbering`, ``None`` when every old
        #: code kept its number (then no entry left either).
        self.renumberings = renumberings
        #: Per column the removed tuples' old codes and the appended
        #: tuples' new codes; the column searched for the removed tuples
        #: and the positions of every tuple sharing a removed one's code
        #: there (``None``: nothing was removed).
        self._lost, self._tails, self._hits = lost, tails, hits

    @property
    def appended(self) -> int:
        """Tuples the edit appended (the edited block's last ones)."""
        return len(self._tails[0])

    def departed(self, position: int) -> list[Any]:
        """The values whose last tuple the edit removed (their entries left)."""
        renumbering = self.renumberings[position]
        if renumbering is None:
            return []
        dictionary = self.before[position].dictionary
        return [dictionary[old] for old, new in renumbering.heads if new < 0]

    def fresh(self, position: int) -> list[Any]:
        """The values the edit added as new entries (the dictionary's tail)."""
        renumbering = self.renumberings[position]
        before = self.before[position].dictionary
        kept = len(before if renumbering is None else renumbering.survivors)
        return self.columns[position].dictionary[kept:]

    def counts(self, position: int, counts: Any) -> Any:
        """:func:`code_frequencies` of the edited column, from the old
        column's ``counts``: the removed tuples' codes counted off, the
        entries moved to their new codes, the appended tuples' counted on."""
        counts = counts.copy()
        _np.subtract.at(counts, self._lost[position], 1)
        renumbering = self.renumberings[position]
        if renumbering is not None:
            counts = counts[renumbering.survivors]
        entries = len(self.columns[position].dictionary)
        if entries > len(counts):
            grown = _np.zeros(entries, dtype=counts.dtype)
            grown[: len(counts)] = counts
            counts = grown
        _np.add.at(counts, self._tails[position], 1)
        return counts

    def value_bounds(
        self, position: int, held: tuple[Optional[tuple[Any, Any]], Optional[str]]
    ) -> Optional[tuple[Optional[tuple[Any, Any]], Optional[str]]]:
        """:meth:`CodeColumn.bounds`' ``(bounds, family)`` of the edited
        column, from the old column's ``held``: the new values compared with
        the old bounds.  ``None`` (collect afresh) unless the patch is exact:
        the values and the new ones are of one family and no bound left."""
        bounds, family = held
        if family is None or bounds is None:
            return None
        low, high = bounds
        if any(value == low or value == high for value in self.departed(position)):
            return None
        fresh = self.fresh(position)
        if fresh:
            if _value_family(fresh) != family:
                return None
            low, high = min(low, min(fresh)), max(high, max(fresh))
        return (low, high), family

    def pairs(self, a: int, b: int) -> Optional[tuple[tuple[Any, Any], tuple[Any, Any]]]:
        """``(cleared, set)``: the code pairs of the columns at ``a`` and
        ``b`` that no tuple holds any more (old codes) and the pairs the
        appended tuples hold (new codes), each as two aligned code arrays.

        Over a whole two-column schema a removed tuple is its pair.  Over
        a wider one a pair is cleared only if no kept tuple holds it, which
        the tuples sharing a removed tuple's code in the searched column
        tell when that column is ``a`` or ``b``; ``None`` otherwise."""
        cleared = self._lost[a], self._lost[b]
        if self._hits is not None and len(self.before) > 2:
            pivot, hits = self._hits
            if pivot not in (a, b):
                return None
            before, gone = self.before, set(self.dropped)
            hit_pairs = zip(before[a].codes[hits].tolist(), before[b].codes[hits].tolist())
            held = {pair for at, pair in zip(hits.tolist(), hit_pairs) if at not in gone}
            lost_pairs = zip(cleared[0].tolist(), cleared[1].tolist())
            free = [i for i, pair in enumerate(lost_pairs) if pair not in held]
            cleared = cleared[0][free], cleared[1][free]
        return cleared, (self._tails[a], self._tails[b])


def fold_code_columns(
    columns: Sequence[CodeColumn],
    removed: Sequence[tuple[Any, ...]],
    added: Sequence[tuple[Any, ...]],
) -> Optional[CodeFold]:
    """The encoding of a tuple block after an edit, from the block's own.

    ``columns`` encode the block; the edit drops the tuples ``removed``
    (each of them in the block) and appends the tuples ``added`` (none of
    them in it).  The fold's :attr:`~CodeFold.columns` are what
    :func:`encode_columns` would build from the edited block —
    dictionaries hold the values still carried, in first-seen order — and
    it says where the removed tuples were and how each column's codes
    moved (:class:`CodeFold`).  The counts and bounds a column holds
    (:meth:`CodeColumn.frequencies`, :meth:`CodeColumn.bounds`) come over
    patched.

    No kept tuple is read and nothing is redone per dictionary entry: the
    removed tuples are found among the few that share their value of the
    column with the largest dictionary (one gather over its codes); a
    column is renumbered only when a removed tuple was its value's first
    one, and then only the entries that move are looked at (each such
    value's next tuple is searched for from where its first one was); the
    edited codes are one pass over the kept ones (plus one through the
    renumbering), the added values taking the next free codes.  The value →
    code tables and first positions this reads are carried from column to
    column (see :class:`CodeColumn`).  A dictionary that changes is a new
    list (older blocks and chunk slices share the old one).  ``None`` when
    the columns cannot say where the removed tuples are (no attribute, or a
    composite past int64): the caller encodes the edited block afresh.
    """
    dropped: list[int] = []
    hits: Optional[tuple[int, Any]] = None
    if removed:
        if not columns:
            return None
        located = _positions_of(columns, removed)
        if located is None:
            return None
        dropped, pivot, positions = located
        hits = pivot, positions
    gone = _np.array(dropped, dtype=_np.int64)
    size = len(columns[0].codes) if columns else 0
    # The kept tuples are the runs between removed ones: each column's
    # edited codes are one copy of those runs and the appended codes.
    bounds = [-1, *dropped, size]
    runs = [(start + 1, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start + 1]
    patched, renumberings, lost, tails = [], [], [], []
    for position, column in enumerate(columns):
        dictionary, table, first = column.dictionary, column._table, column._first
        codes, renumbered, renumbering = column.codes, None, None
        lost.append(codes[gone])
        parts = [codes]
        if dropped:
            searched = positions if position == pivot else None
            dictionary, table, first, renumbered, renumbering = _without(
                column, gone, lost[-1], searched
            )
            parts = [codes[start:stop] for start, stop in runs]
        tail = empty_codes(0)
        if added:
            values = [values[position] for values in added]
            dictionary, table, first, tail = _with_tail(
                dictionary, table, first, values, size - len(dropped)
            )
        if renumbered is None:
            codes = concatenate_codes([*parts, tail])
        else:  # the kept codes through the renumbering, into the edited buffer
            codes = empty_codes(size - len(dropped) + len(tail))
            # Every code indexes the table: "clip" checks nothing and, unlike
            # the default, writes ``out`` without buffering it first.
            kept = concatenate_codes(parts)
            _np.take(renumbered, kept, out=codes[: len(kept)], mode="clip")
            codes[len(kept) :] = tail
        patched.append(_carried(dictionary, codes, table, first))
        renumberings.append(renumbering)
        tails.append(tail)
    fold = CodeFold(columns, tuple(patched), dropped, renumberings, lost, tails, hits)
    for position, (before, after) in enumerate(zip(columns, patched)):
        if before._counts is not None:
            after._counts = fold.counts(position, before._counts)
        if before._bounds is not None:
            after._bounds = fold.value_bounds(position, before._bounds)
    return fold


def _code_table(dictionary: list[Any]) -> dict[Any, int]:
    """value → code of a dictionary."""
    return dict(zip(dictionary, range(len(dictionary))))


def _lookup(column: CodeColumn) -> dict[Any, int]:
    """The column's value → code table (built here only for a column that
    :func:`encode_columns` did not make)."""
    table = column._table
    if table is None:
        table = column._table = _code_table(column.dictionary)
    return table


def _first_positions(column: CodeColumn) -> Any:
    """Ascending position of each entry's first tuple in a first-seen
    column that carries every entry (one pass over the codes, then kept)."""
    first = column._first
    if first is None:
        codes = column.codes
        # A code above everything before it is seen for the first time.
        first = _np.flatnonzero(codes[1:] > _np.maximum.accumulate(codes)[:-1]) + 1
        if len(codes):
            first = _np.concatenate(([0], first))
        column._first = first
    return first


def _carried(dictionary: list[Any], codes: Any, table: Any, first: Any) -> CodeColumn:
    column = CodeColumn(dictionary, codes)
    column._table, column._first = table, first
    return column


def _occurrences(codes: Any, wanted: Any, entries: int) -> Any:
    """Ascending positions of the codes that are one of ``wanted``."""
    flags = _np.zeros(entries, dtype=bool)
    flags[wanted] = True
    return _np.flatnonzero(_np.take(flags, codes))


def _positions_of(
    columns: Sequence[CodeColumn], removed: Sequence[tuple[Any, ...]]
) -> Optional[tuple[list[int], int, Any]]:
    """Where the ``removed`` tuples are: their ascending positions, the
    column searched and the positions of every tuple that shares a removed
    tuple's code there; ``None`` when the composite overflows int64.

    The column with the largest dictionary is searched (one gather over
    its codes) and only its hits are compared on every column, as
    mixed-radix composites of their codes."""
    sizes = [len(column.dictionary) for column in columns]
    if math.prod(sizes) >= 1 << 62:
        return None
    targets = [
        list(map(_lookup(column).__getitem__, values))
        for column, values in zip(columns, zip(*removed))
    ]
    wanted = [0] * len(removed)
    for size, codes in zip(sizes, targets):
        wanted = [key * size + code for key, code in zip(wanted, codes)]
    wanted = _np.array(sorted(wanted), dtype=_np.int64)
    pivot = max(range(len(columns)), key=sizes.__getitem__)
    hits = _occurrences(columns[pivot].codes, targets[pivot], sizes[pivot])
    found = _combine_codes([column.codes[hits] for column in columns], sizes)
    matched = wanted.take(_np.searchsorted(wanted, found), mode="clip") == found
    return hits[matched].tolist(), pivot, hits


def _without(
    column: CodeColumn, gone: Any, lost: Any, hits: Any
) -> tuple[list[Any], Any, Any, Any, Optional[Renumbering]]:
    """What dropping the tuples at the ascending positions ``gone`` does
    to the column's entries: ``(dictionary, table, first, renumbered,
    renumbering)`` — the value → code table and first positions after the
    drop, and when a value lost its first tuple, the old code → new code
    table the kept codes go through and the :class:`Renumbering` (both
    ``None``: no code moved).  The codes themselves are not touched.

    ``lost`` are the codes at ``gone``; ``hits`` (``None``: searched
    here) holds the position of every tuple whose code is a removed
    tuple's, which covers those values' tuples."""
    codes, dictionary, first = column.codes, column.dictionary, _first_positions(column)
    heads = lost[first[lost] == gone]  # values whose first tuple goes
    if not len(heads):
        return dictionary, column._table, first - _np.searchsorted(gone, first), None, None
    entries, size = len(dictionary), len(codes)
    # Each such value's first kept tuple (``size``: none is), then the
    # entries in first-seen order again.
    moved = first.copy()
    flags = _np.zeros(entries, dtype=bool)
    flags[heads] = True
    if hits is None:
        hits = _np.flatnonzero(_np.take(flags, codes))
    else:
        hits = hits[_np.take(flags, codes[hits])]
    hits = hits[gone[_np.minimum(_np.searchsorted(gone, hits), len(gone) - 1)] != hits]
    moved[heads] = size
    _np.minimum.at(moved, codes[hits], hits)
    order = _np.argsort(moved, kind="stable")
    carried = entries - int(_np.count_nonzero(moved == size))
    survivors = order[:carried]
    shifted = _np.flatnonzero(survivors != _np.arange(carried))
    first = moved[survivors]
    first -= _np.searchsorted(gone, first)
    if carried == entries and not len(shifted):
        return dictionary, column._table, first, None, None
    renumbered = _np.empty(entries, dtype=_np.int32)
    renumbered[order] = _np.arange(entries, dtype=_np.int32)
    # Only the heads moved: out of the list, then back in where they now
    # are first seen (ascending), every other entry in its old order.
    heads = sorted(heads.tolist())
    new_codes = renumbered[heads].tolist()
    carried_values = list(dictionary)
    for code in reversed(heads):
        del carried_values[code]
    for code, new in sorted(zip(heads, new_codes), key=lambda head: head[1]):
        if new < carried:
            carried_values.insert(new, dictionary[code])
    table = column._table
    if table is not None:  # the old table, less what went, moved entries re-coded
        table = dict(table)
        for code in order[carried:].tolist():
            del table[dictionary[code]]
        codes_moved = shifted.tolist()
        table.update(zip(map(carried_values.__getitem__, codes_moved), codes_moved))
    moved_heads = [(code, new if new < carried else -1) for code, new in zip(heads, new_codes)]
    return carried_values, table, first, renumbered, Renumbering(survivors, moved_heads)


def _with_tail(
    dictionary: list[Any], table: Optional[dict[Any, int]], first: Any, values: list[Any], size: int
) -> tuple[list[Any], dict[Any, int], Any, Any]:
    """What appending one tuple per value of ``values`` to a column of
    ``size`` tuples does: ``(dictionary, table, first, tail)``, a value the
    dictionary lacks taking the next free code, and the tail's codes."""
    if table is None:
        table = _code_table(dictionary)
    fresh = [value for value in dict.fromkeys(values) if value not in table]
    if fresh:
        table = dict(table)
        table.update(zip(fresh, range(len(dictionary), len(dictionary) + len(fresh))))
        dictionary = dictionary + fresh
        if first is not None:
            at = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))
            tail_first = [size + at[value] for value in fresh]
            first = _np.concatenate((first, _np.array(tail_first, dtype=_np.int64)))
    return dictionary, table, first, code_buffer(map(table.__getitem__, values), len(values))


def drop_positions(items: list[Any], positions: Sequence[int]) -> list[Any]:
    """A list without the elements at the ascending ``positions``: the
    runs between them joined, no per-element work."""
    kept = items[:0]
    start = 0
    for position in positions:
        kept += items[start:position]
        start = position + 1
    kept += items[start:]
    return kept


def _first_seen(codes: Any, dictionary: list[Any]) -> tuple[Any, list[Any]]:
    """A code buffer renumbered so that its dictionary lists the values it
    carries in first-seen order (both as they are when it already does).

    The first occurrences come from the running maximum — a code above
    everything before it is seen for the first time — and only the codes
    that are not (a value whose first tuple went away resurfaces behind
    larger codes, or not at all) are looked for one by one.
    """
    size, entries = len(codes), len(dictionary)
    first = _np.full(entries, size, dtype=_np.int64)
    if size:
        records = _np.flatnonzero(codes[1:] > _np.maximum.accumulate(codes)[:-1]) + 1
        first[codes[0]] = 0
        first[codes[records]] = records
    late = first == size
    if not late.any():
        return codes, dictionary
    positions = _np.flatnonzero(late[codes])
    _np.minimum.at(first, codes[positions], positions)
    order = _np.argsort(first, kind="stable")
    carried = entries - int(_np.count_nonzero(first == size))
    renumbered = _np.empty(entries, dtype=_np.int32)
    renumbered[order] = _np.arange(entries, dtype=_np.int32)
    return renumbered[codes], [dictionary[code] for code in order[:carried].tolist()]


# ----------------------------------------------------------------------
# masks over code buffers
# ----------------------------------------------------------------------
def flag_table(flags: Iterable[Any], count: int) -> Any:
    """A per-dictionary-entry truth table (``count`` entries)."""
    return _np.fromiter(map(bool, flags), dtype=bool, count=count)


def take(table: Any, codes: Any) -> Any:
    """The mask ``table[code]`` for every code of a buffer."""
    return _np.take(table, codes)  # half the time of ``table[codes]`` at block sizes


def mask_and(left: Any, right: Any) -> Any:
    return left & right


def mask_or(left: Any, right: Any) -> Any:
    return left | right


def mask_not(mask: Any) -> Any:
    return ~mask


def mask_count(mask: Any) -> int:
    return int(_np.count_nonzero(mask))


def mask_positions(mask: Any) -> Any:
    """The ascending positions where ``mask`` is set (what
    :meth:`CodeColumn.select` gathers by)."""
    return _np.flatnonzero(mask)


def select_items(items: Sequence[Any], mask: Any) -> list[Any]:
    """The elements of a plain sequence where ``mask`` is set (or, for a
    count per element such as :func:`code_frequencies`, nonzero)."""
    return list(itertools.compress(items, mask.tolist()))


def code_frequencies(column: CodeColumn) -> Any:
    """Tuples per dictionary entry of a column: one count over its codes."""
    return _np.bincount(column.codes, minlength=len(column.dictionary))


def passing_count(frequencies: Any, table: Any) -> int:
    """Tuples whose entry ``table`` sets, from their column's
    :func:`code_frequencies`: one pass over the dictionary, none over the codes."""
    return int(frequencies.sum(where=table))


def packed_table(table: Any) -> Any:
    """A truth table as little-endian ``uint64`` words, bit ``i`` of the
    words being entry ``i``: a row of the containment bitmap over the same
    dictionary (``⌈len(table)/64⌉`` words; the padding bits are clear)."""
    packed = _np.zeros(-(-len(table) // 64) * 8, dtype=_np.uint8)
    packed[: -(-len(table) // 8)] = _np.packbits(table, bitorder="little")
    return packed.view("<u8")


def sets_padding(words: Any, size: int, width: int) -> bool:
    """Whether rows of ``size`` little-endian ``uint64`` words (the
    bytes of a containment bitmap's rows of ``width`` bits) set any bit at
    or past ``width``: the padding :func:`packed_table` keeps clear."""
    spare = 64 * size - width
    if not spare:
        return False
    last = _np.frombuffer(words, dtype="<u8")[size - 1 :: size]
    return bool((last >> _np.uint64(64 - spare)).any())
