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

Code buffers are ``numpy.int32`` arrays when numpy imports and
``array('i')`` otherwise — never lists of ``int`` objects.  Everything
that depends on that flavour lives here: :func:`merge_code_columns` (the
concatenate / compact / mixed-radix step behind the division operators'
key columns) and the mask helpers at the bottom (boolean arrays or
``bytes`` of 0 and 1; callers treat masks as opaque values produced and
consumed by these functions only).
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from typing import Any

try:
    import numpy as _np
except ImportError:
    _np = None

__all__ = [
    "CodeColumn",
    "DenseEncoder",
    "code_buffer",
    "encode_columns",
    "iter_codes",
    "merge_code_columns",
    "flag_table",
    "take",
    "mask_and",
    "mask_or",
    "mask_not",
    "mask_count",
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

    def slice(self, start: int, stop: int) -> "CodeColumn":
        return CodeColumn(self.dictionary, self.codes[start:stop])

    def select(self, mask: Any) -> "CodeColumn":
        """The codes where ``mask`` (from the helpers below) is set."""
        if _np is not None:
            return CodeColumn(self.dictionary, self.codes[mask])
        return CodeColumn(self.dictionary, array("i", itertools.compress(self.codes, mask)))

    def values(self) -> list[Any]:
        """The decoded values, in tuple order."""
        return list(map(self.dictionary.__getitem__, self.codes.tolist()))

    def top_frequency(self) -> int:
        """Tuple count of the most frequent value (0 for an empty column)."""
        if not len(self.codes):
            return 0
        if _np is not None:
            return int(_np.bincount(self.codes).max())
        return max(Counter(self.codes).values())

    def is_non_decreasing(self) -> bool:
        """Whether the *codes* never step down (equal values are contiguous
        runs in first-seen order; the dictionary decides the value order)."""
        codes = self.codes
        if _np is not None:
            return bool((codes[1:] >= codes[:-1]).all())
        return all(map(operator.le, codes, itertools.islice(codes, 1, None)))


def code_buffer(codes: Iterable[int], count: int) -> Any:
    """``count`` integer codes as a compact buffer (int32 / ``array('i')``)."""
    if _np is not None:
        return _np.fromiter(codes, dtype=_np.int32, count=count)
    return array("i", codes)


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
        code_of = dict(zip(dictionary, range(len(dictionary))))
        codes = map(code_of.__getitem__, map(getter, tuples))
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
    """One dense key column out of per-attribute code buffers.

    ``parts[i]`` lists attribute ``i``'s code buffers in stream order (one
    per chunk, all over ``dictionaries[i]``).  Returns ``(codes, keys)``:
    one code per tuple, every code in ``range(len(keys))`` occurring at
    least once (selections leave dictionary entries no tuple carries; they
    are compacted away), and ``keys[code]`` the bare value for a single
    attribute, the value tuple for several (combined by mixed radix).
    """
    single = len(parts) == 1
    if _np is None:
        columns = [[code for buffer in buffers for code in buffer] for buffers in parts]
        return _merge_by_dict(columns, dictionaries)
    arrays = [buffers[0] if len(buffers) == 1 else _np.concatenate(buffers) for buffers in parts]
    if single:
        (codes,), (dictionary,) = arrays, dictionaries
        present = _np.flatnonzero(_np.bincount(codes, minlength=len(dictionary)))
        if len(present) == len(dictionary):
            return codes, dictionary
        remap = _np.zeros(len(dictionary), dtype=_np.int32)
        remap[present] = _np.arange(len(present), dtype=_np.int32)
        return remap[codes], [dictionary[code] for code in present.tolist()]
    if math.prod(map(len, dictionaries)) >= 1 << 62:
        # The mixed-radix product overflows int64: combine as code tuples.
        return _merge_by_dict([array.tolist() for array in arrays], dictionaries)
    combined = arrays[0].astype(_np.int64)
    for array_, dictionary in zip(arrays[1:], dictionaries[1:]):
        combined = combined * len(dictionary) + array_
    unique, codes = _np.unique(combined, return_inverse=True)
    digits = []
    for dictionary in reversed(dictionaries):
        unique, digit = _np.divmod(unique, len(dictionary))
        digits.append([dictionary[code] for code in digit.tolist()])
    return codes, list(zip(*reversed(digits)))


def _merge_by_dict(
    columns: list[list[int]], dictionaries: list[list[Any]]
) -> tuple[list[int], list[Any]]:
    """:func:`merge_code_columns` through a ``dict`` over codes / code tuples."""
    encoder = DenseEncoder()
    if len(columns) == 1:
        encoder.extend(columns[0])
        return encoder.codes, [dictionaries[0][code] for code in encoder.finish()]
    encoder.extend(zip(*columns))
    keys = [
        tuple(dictionary[code] for dictionary, code in zip(dictionaries, combination))
        for combination in encoder.finish()
    ]
    return encoder.codes, keys


# ----------------------------------------------------------------------
# masks over code buffers
# ----------------------------------------------------------------------
def flag_table(flags: Iterable[Any], count: int) -> Any:
    """A per-dictionary-entry truth table (``count`` entries)."""
    if _np is not None:
        return _np.fromiter(map(bool, flags), dtype=bool, count=count)
    return bytes(map(bool, flags))


def take(table: Any, codes: Any) -> Any:
    """The mask ``table[code]`` for every code of a buffer."""
    if _np is not None:
        return table[codes]
    return bytes(map(table.__getitem__, codes))


def mask_and(left: Any, right: Any) -> Any:
    if _np is not None:
        return left & right
    return bytes(map(operator.and_, left, right))


def mask_or(left: Any, right: Any) -> Any:
    if _np is not None:
        return left | right
    return bytes(map(operator.or_, left, right))


def mask_not(mask: Any) -> Any:
    if _np is not None:
        return ~mask
    return bytes(map(operator.not_, mask))


def mask_count(mask: Any) -> int:
    if _np is not None:
        return int(_np.count_nonzero(mask))
    return mask.count(1)


def select_items(items: Sequence[Any], mask: Any) -> list[Any]:
    """The elements of a plain sequence where ``mask`` is set."""
    return list(itertools.compress(items, mask.tolist() if _np is not None else mask))
