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
:func:`patch_code_columns` (a table edit carried over to the encoding) and
the mask helpers at the bottom (boolean arrays; callers treat masks as
opaque values produced and consumed by these functions only).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from collections.abc import Iterable, Sequence
from typing import Any, Optional

import numpy as _np

__all__ = [
    "CodeColumn",
    "DenseEncoder",
    "as_code_buffer",
    "code_buffer",
    "code_width",
    "concatenate_codes",
    "drop_positions",
    "encode_columns",
    "iter_codes",
    "merge_code_columns",
    "narrow_codes",
    "patch_code_columns",
    "repeat_codes",
    "route_codes",
    "split_code_columns",
    "widen_codes",
    "flag_table",
    "take",
    "mask_and",
    "mask_or",
    "mask_not",
    "mask_count",
    "mask_positions",
    "select_items",
]


class CodeColumn:
    """One attribute as dictionary codes (a slice shares the dictionary)."""

    __slots__ = ("dictionary", "codes")

    def __init__(self, dictionary: list[Any], codes: Any) -> None:
        #: code → value, first-seen order; shared by every slice of a column.
        self.dictionary = dictionary
        #: One code per tuple, in scan order.
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __reduce__(self) -> tuple[Any, ...]:
        """Pickles narrow (:func:`narrow_codes`) and widens again on load —
        what a partition costs to ship is mostly its bytes."""
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

    def top_frequency(self) -> int:
        """Tuple count of the most frequent value (0 for an empty column)."""
        if not len(self.codes):
            return 0
        return int(_np.bincount(self.codes).max())

    def is_non_decreasing(self) -> bool:
        """Whether the *codes* never step down (equal values are contiguous
        runs in first-seen order; the dictionary decides the value order)."""
        codes = self.codes
        return bool((codes[1:] >= codes[:-1]).all())


def _widened(dictionary: list[Any], data: bytes) -> CodeColumn:
    """Unpickle a :class:`CodeColumn` (see its ``__reduce__``): bytes of
    our own, widened without the range check a file's pages get."""
    return CodeColumn(dictionary, widen_codes(data, len(dictionary), checked=False))


def code_width(entries: int) -> int:
    """Bytes of the narrowest unsigned type that holds every code of a
    dictionary with ``entries`` entries: 1, 2 or 4."""
    return 1 if entries <= 1 << 8 else 2 if entries <= 1 << 16 else 4


def narrow_codes(codes: Any, entries: int) -> bytes:
    """A code buffer as raw little-endian bytes, :func:`code_width` bytes a
    code — the form codes take on disk (a column page of a stored block)
    and on the wire (a pickled :class:`CodeColumn`)."""
    return codes.astype(f"<u{code_width(entries)}").tobytes()


def widen_codes(data: bytes, entries: int, checked: bool = True) -> Any:
    """Inverse of :func:`narrow_codes`: the bytes as an int32 code buffer,
    copied once.  Raises ``ValueError`` for bytes that are no whole number
    of codes or — unless ``checked`` is off: bytes the engine narrowed
    itself, not a file's — hold a code outside the dictionary."""
    narrow = _np.frombuffer(data, dtype=f"<u{code_width(entries)}")
    if checked and len(narrow):
        highest = int(narrow.max())
        if highest >= entries:
            raise ValueError(f"code {highest} outside a dictionary of {entries}")
    return narrow.astype(_np.int32)


def code_buffer(codes: Iterable[int], count: int) -> Any:
    """``count`` integer codes as an int32 code buffer."""
    return _np.fromiter(codes, dtype=_np.int32, count=count)


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
        codes = map(_code_table(dictionary).__getitem__, map(getter, tuples))
        columns.append(CodeColumn(dictionary, code_buffer(codes, len(tuples))))
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
    combined = _combine_codes(arrays, dictionaries)
    if combined is None:
        return _merge_by_dict([array.tolist() for array in arrays], dictionaries)
    unique, codes = _np.unique(combined, return_inverse=True)
    digits = []
    for dictionary in reversed(dictionaries):
        unique, digit = _np.divmod(unique, len(dictionary))
        digits.append([dictionary[code] for code in digit.tolist()])
    return codes, list(zip(*reversed(digits)))


def _combine_codes(arrays: Sequence[Any], dictionaries: Sequence[list[Any]]) -> Any:
    """Aligned code buffers as one int64 buffer of mixed-radix
    composites; ``None`` when the radix product overflows int64 (callers
    combine as code tuples, or do without)."""
    if math.prod(map(len, dictionaries)) >= 1 << 62:
        return None
    combined = arrays[0].astype(_np.int64)
    for array_, dictionary in zip(arrays[1:], dictionaries[1:]):
        combined = combined * len(dictionary) + array_
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


def route_codes(keys: Sequence[Any], count: int) -> Any:
    """``hash(key) % count`` per key: the table :func:`split_code_columns`
    routes by (numpy's modulo, like Python's: never negative)."""
    return _np.fromiter(map(hash, keys), dtype=_np.int64, count=len(keys)) % count


def split_code_columns(
    columns: Sequence[CodeColumn], key_codes: Any, routes: Any, count: int
) -> list[tuple[CodeColumn, ...]]:
    """Aligned code columns split into ``count`` blocks, stream order kept.

    Block ``routes[code]`` takes every tuple whose ``key_codes`` entry is
    ``code`` (``routes`` from :func:`route_codes` over the key's dictionary) — one
    table lookup per tuple, no value is touched.  A column whose
    dictionary is larger than its block comes over a dictionary compacted
    to the entries the block carries, so what a block costs to ship is
    bounded by its size, not by the table it was cut from.  With one block
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


def patch_code_columns(
    columns: Sequence[CodeColumn],
    removed: Sequence[tuple[Any, ...]],
    added: Sequence[tuple[Any, ...]],
) -> Optional[tuple[list[int], tuple[CodeColumn, ...]]]:
    """The encoding of a tuple block after an edit, from the block's own.

    ``columns`` encode the block; the edit drops the tuples ``removed``
    (each of them in the block) and appends the tuples ``added`` (none of
    them in it).  Returns ``(dropped, columns)``: the ascending positions
    of the removed tuples in the old block (for :func:`drop_positions`) and
    the columns :func:`encode_columns` would build from the edited block —
    dictionaries hold the values still carried, in first-seen order —
    found without reading a kept tuple: the removed tuples' positions come
    from the composite of the code columns, added values take the next
    free codes.  A dictionary that changes is a new list (older blocks and
    chunk slices share the old one).  ``None`` when the columns cannot say
    where the removed tuples are (no attribute, or a composite past
    int64): the caller encodes the edited block afresh.
    """
    dropped: Optional[list[int]] = []
    if removed:
        if not columns:
            return None
        targets = [
            list(map(_code_table(column.dictionary).__getitem__, values))
            for column, values in zip(columns, zip(*removed))
        ]
        dropped = _positions_of(columns, targets)
        if dropped is None:
            return None
    patched = []
    for position, column in enumerate(columns):
        codes, dictionary = column.codes, column.dictionary
        if dropped:
            codes, dictionary = _first_seen(drop_positions(codes, dropped), dictionary)
        if added:
            values = [values[position] for values in added]
            table = _code_table(dictionary)
            fresh = [value for value in dict.fromkeys(values) if value not in table]
            if fresh:
                table.update(zip(fresh, range(len(dictionary), len(dictionary) + len(fresh))))
                dictionary = dictionary + fresh
            tail = code_buffer(map(table.__getitem__, values), len(values))
            codes = concatenate_codes([codes, tail])
        patched.append(CodeColumn(dictionary, codes))
    return dropped, tuple(patched)


def _code_table(dictionary: list[Any]) -> dict[Any, int]:
    """value → code of a dictionary."""
    return dict(zip(dictionary, range(len(dictionary))))


def _positions_of(columns: Sequence[CodeColumn], targets: list[list[int]]) -> Optional[list[int]]:
    """Ascending positions of the tuples that are one of ``targets`` (one
    code list per column, aligned); ``None`` when the composite overflows."""
    dictionaries = [column.dictionary for column in columns]
    combined = _combine_codes([column.codes for column in columns], dictionaries)
    if combined is None:
        return None
    wanted = _combine_codes([_np.array(codes, dtype=_np.int32) for codes in targets], dictionaries)
    return _np.flatnonzero(_np.isin(combined, wanted)).tolist()


def drop_positions(items: Any, positions: list[int]) -> Any:
    """A list or code buffer without the elements at the ascending
    ``positions``: the runs between them joined, no per-element work."""
    if not isinstance(items, list):
        return _np.delete(items, positions)
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
    """The elements of a plain sequence where ``mask`` is set."""
    return list(itertools.compress(items, mask.tolist()))
