"""Vectorized kernels for the bitset-division inner loops.

All eight division algorithms funnel their hot loops through one dispatch
seam (:func:`active_kernel`): the *gather sweep* that ORs each dividend
tuple's divisor bit into its candidate's bitmask, the *run merge* of
merge-sort division (the same masks, one candidate run at a time in the
Python reference, the gather sweep itself once vectorized) and the *match
scans* that find the candidates whose bitmask is full / a superset / has
the required popcount.  A division over a relation's containment bitmap
(value-major: the gather sweep with the value codes as rows, one row of
candidate bits per value) has one scan of its own, the *intersection
scan*: per divisor set, the AND of its values' rows, every set of the
division in one call.  That bitmap has one row form whatever the kernel,
``uint64`` word rows (:func:`bitmap_rows`), and one patch: a table's edit
patches it instead of sweeping again (:meth:`NumpyBitsetKernel.patch_rows`).
All work on the integer key codes the key-column seam
(:mod:`repro.physical.division.keys`) hands out.  Two implementations
exist:

* :class:`NumpyBitsetKernel` — the one the engine runs: batch operations
  over *multi-word* masks, ``(n, ⌈bits/64⌉)`` ``uint64`` arrays, so a
  divisor of any width stays vectorized (a byte-flag scatter packed into
  words — ``np.bitwise_or.at`` where the flags would outgrow the input —
  then word-wise compare / subset / popcount scans, and an intersection
  scan that gathers every set's rows, ANDs them with one ``reduceat`` and
  unpacks the result words with a hit in one pass);
* :class:`PythonBitsetKernel` — plain loops over Python ``int`` bitmasks
  (arbitrary precision), a bitmap's word rows read as ``int`` masks.  The
  numpy kernel hands it the inputs it is measured faster on — fewer than
  ``_MIN_VECTOR_SIZE`` tuples, int-mask lists that short, or an
  intersection scan of that few values over short rows — and the tests
  hold every result of the numpy kernel against it.

Results never depend on the kernel in use.  The partitioned wrappers run
the unchanged serial operators over each partition, so the kernel
dispatch applies per partition without any further wiring.  Tests
and the ``numpy-kernel`` gate pin a kernel with :func:`use_kernel`.
"""

from __future__ import annotations

import functools
import operator
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as _np

from repro.errors import ExecutionError
from repro.relation.encoding import iter_codes

__all__ = [
    "PythonBitsetKernel",
    "NumpyBitsetKernel",
    "active_kernel",
    "bitmap_rows",
    "use_kernel",
]

#: Inputs smaller than this stay on the Python reference even under the
#: numpy kernel — the array conversion would cost more than it saves.
_MIN_VECTOR_SIZE = 32

#: The numpy intersection scan hands the reference a scan of fewer than
#: ``_MIN_VECTOR_SIZE`` divisor values that gathers fewer row words than this.
_MIN_VECTOR_WORDS = 1024

#: Tuples per pass of the numpy gather sweep: bounds its index/bit
#: temporaries (a few arrays of this length) whatever the input size.
_SWEEP_SLAB = 1 << 16

#: Words of bitmap rows the numpy intersection scan gathers per pass: bounds
#: its temporaries (2 MB of rows, at most 16 MB of result flags) however
#: many sets it answers.
_MATCH_SLAB = 1 << 18


class PythonBitsetKernel:
    """Reference implementation: loops over Python ``int`` bitmasks."""

    name = "python"

    # -- sweeps ---------------------------------------------------------
    def prepare_indices(self, indices: Any) -> Any:
        """Pre-convert a code column reused across several sweeps."""
        return iter_codes(indices)

    def gather_sweep(
        self,
        count: int,
        candidate_codes: Any,
        value_codes: Any,
        positions: Sequence[int],
        width: int,
    ) -> Any:
        """``masks[c] |= 1 << positions[v]`` for every ``(c, v)`` pair.

        ``positions[v]`` is the divisor bit of value code ``v`` (below
        ``width``), or ``-1`` when the value is not in the divisor.
        """
        # Each mask is built once from its positions: ORing ``1 << position``
        # per tuple copies the mask every time, and a containment bitmap's
        # rows are ``|A|`` bits wide.
        members: defaultdict[int, list[int]] = defaultdict(list)
        pairs = zip(
            self.prepare_indices(candidate_codes),
            map(positions.__getitem__, self.prepare_indices(value_codes)),
        )
        for candidate, position in pairs:
            if position >= 0:
                members[candidate].append(position)
        masks = [0] * count
        for candidate, row in members.items():
            masks[candidate] = _mask_of(row, width)
        return masks

    def merge_runs(
        self,
        count: int,
        candidate_codes: Any,
        value_codes: Any,
        positions: Sequence[int],
        width: int,
    ) -> Any:
        """The masks of :meth:`gather_sweep`, sorted and merged run by run.

        The pairs are sorted by candidate code, then each run of one
        candidate accumulates its mask and is stored in the candidate's
        slot at the run boundary.  This loop serves inputs under 32 tuples.
        """
        bits = [1 << position if position >= 0 else 0 for position in positions]
        pairs = sorted(
            pair
            for pair in zip(
                self.prepare_indices(candidate_codes),
                map(bits.__getitem__, self.prepare_indices(value_codes)),
            )
            if pair[1]
        )
        masks = [0] * count
        current = -1
        mask = 0
        for candidate, bit in pairs:
            if candidate != current:
                if current >= 0:
                    masks[current] |= mask
                current = candidate
                mask = 0
            mask |= bit
        if current >= 0:
            masks[current] |= mask
        return masks

    # -- match scans ----------------------------------------------------
    # Each returns the matching indices ascending, as an index array:
    # candidate codes, which the operators hand on as the quotient's code
    # column without boxing them.
    def full_matches(self, masks: Any, full: int) -> Any:
        """Indices whose mask equals ``full``."""
        return _indices([i for i, mask in enumerate(masks) if mask == full])

    def popcount_matches(self, masks: Any, required: int) -> Any:
        """Indices whose mask has exactly ``required`` bits set."""
        counts = map(int.bit_count, map(int, masks))
        return _indices([i for i, count in enumerate(counts) if count == required])

    def subset_matches(self, masks: Any, needed: int) -> Any:
        """Indices whose mask contains every bit of ``needed``."""
        return _indices([i for i, mask in enumerate(masks) if needed & mask == needed])

    def equal_matches(self, masks: Any, fulls: Sequence[int]) -> Any:
        """Indices where ``masks[i] == fulls[i]`` (pairwise)."""
        return _indices([i for i, (mask, full) in enumerate(zip(masks, fulls)) if mask == full])

    def intersection_matches(
        self,
        rows: Any,
        set_codes: Any,
        value_codes: Any,
        row_of: Sequence[int],
        count: int,
        allowed: Any = None,
    ) -> tuple[Any, Any]:
        """The ``(candidate, set)`` pairs whose candidate is in the row of
        every value of the set — and in ``allowed``, when given: a truth
        table over the candidates packed as one row (``⌈count/64⌉``
        ``uint64`` words, :func:`~repro.relation.encoding.packed_table`):
        per set, the AND of its values' rows.

        Set ``s`` holds every value ``value_codes[i]`` with ``set_codes[i]
        == s``; value ``v``'s row is ``rows[row_of[v]]`` (``rows`` a
        containment bitmap, :func:`bitmap_rows`, each row read here as an
        ``int`` mask of width ``count``), a negative ``row_of`` entry an
        empty row.  Two index arrays, candidates and sets: by set code,
        candidates ascending within a set."""
        row = _IntRows(rows).__getitem__
        members: dict[int, list[int]] = {}
        pairs = zip(self.prepare_indices(set_codes), self.prepare_indices(value_codes))
        for set_code, value in pairs:
            members.setdefault(set_code, []).append(row_of[value])
        every = (1 << count) - 1
        if allowed is not None:  # bit ``a`` of the packed row is candidate ``a``
            every = int.from_bytes(allowed.tobytes(), "little")
        candidates: list[int] = []
        sets: list[int] = []
        for set_code in sorted(members):
            codes = members[set_code]
            mask = 0
            if min(codes) >= 0:
                mask = functools.reduce(operator.and_, map(row, codes), every)
            hits = _set_bits(mask)
            candidates += hits
            sets += [set_code] * len(hits)
        return _indices(candidates), _indices(sets)


def _indices(found: list[int]) -> Any:
    """A match scan's indices as an ``int32`` index array."""
    return _np.array(found, dtype=_np.int32)


def _mask_of(positions: Iterable[int], width: int) -> int:
    """The ``int`` mask with the bits at ``positions`` (below ``width``) set:
    one binary digit string, parsed once."""
    digits = bytearray(b"0") * width
    for position in positions:
        digits[width - 1 - position] = 49  # ord("1")
    return int(digits, 2) if width else 0


def _set_bits(mask: int) -> list[int]:
    """The positions of ``mask``'s set bits, ascending."""
    digits = bin(mask)[:1:-1]  # bit i at index i
    found = []
    position = digits.find("1")
    while position >= 0:
        found.append(position)
        position = digits.find("1", position + 1)
    return found


class NumpyBitsetKernel(PythonBitsetKernel):
    """Batch kernel over ``(n, words)`` ``uint64`` mask arrays.

    A mask of ``b`` bits occupies ``⌈b/64⌉`` little-endian words, so no
    divisor is too wide to vectorize.  The sweeps return such arrays; the
    match scans accept them as well as plain lists of Python ``int`` masks
    (which the sort- and run-based algorithms build themselves).
    """

    name = "numpy"

    #: Flag matrices below this many bytes are indexed in ``int32`` (an
    #: attribute so a test can reach the wide branch without a 2 GB array).
    _NARROW_INDEX_LIMIT = 1 << 31

    #: Set bits per byte value, for the word-width-independent popcount.
    _POPCOUNT = _np.array([byte.bit_count() for byte in range(256)], dtype=_np.uint8)

    @staticmethod
    def _index_array(indices: Any) -> Any:
        if isinstance(indices, _np.ndarray):
            return indices
        return _np.fromiter(indices, dtype=_np.intp, count=len(indices))

    @staticmethod
    def _words(masks: Sequence[int], words: int) -> Any:
        """Python ``int`` masks as an ``(n, words)`` ``uint64`` array."""
        size = words * 8
        buffer = b"".join([mask.to_bytes(size, "little") for mask in masks])
        return _np.frombuffer(buffer, dtype="<u8").reshape(len(masks), words)

    def _mask_array(self, masks: Any, *scalars: int) -> Any:
        """``masks`` as a word array wide enough for ``scalars`` too."""
        if isinstance(masks, _np.ndarray):
            return masks
        widest = max(max(masks, default=0), *scalars, 0)
        return self._words(masks, max(1, -(-widest.bit_length() // 64)))

    def _scalar(self, value: int, array: Any) -> Optional[Any]:
        """``value`` as one row of ``array``'s width (None: it cannot fit)."""
        words = array.shape[1]
        if value.bit_length() > 64 * words:
            return None
        return self._words([value], words)[0]

    @staticmethod
    def _matching_rows(array: Any, wanted: Any, subset: bool = False) -> Any:
        """Rows of ``array`` equal to ``wanted`` (one row, or a row each) —
        with ``subset``, holding every bit of it — compared one word column
        at a time: ``.all(axis=1)`` over an axis one or two words wide costs
        five times as much."""
        hit = None
        for word in range(array.shape[1]):
            column, want = array[:, word], wanted[..., word]
            match = ((column & want) if subset else column) == want
            hit = match if hit is None else hit & match
        return _np.flatnonzero(hit)

    def prepare_indices(self, indices: Any) -> Any:
        if len(indices) < _MIN_VECTOR_SIZE:
            return super().prepare_indices(indices)
        return self._index_array(indices)

    def gather_sweep(
        self,
        count: int,
        candidate_codes: Any,
        value_codes: Any,
        positions: Sequence[int],
        width: int,
    ) -> Any:
        if len(candidate_codes) < _MIN_VECTOR_SIZE:
            return super().gather_sweep(count, candidate_codes, value_codes, positions, width)
        words = max(1, -(-width // 64))
        # Identity positions (a containment bitmap's): each value code is its
        # own bit, so no position table is read per tuple.
        identity = isinstance(positions, range) and positions == range(len(positions))
        if identity:
            position = _np.arange(len(positions), dtype=_np.intp)
        else:
            position = _np.fromiter(positions, dtype=_np.intp, count=len(positions))
        valid = position >= 0
        candidates = self._index_array(candidate_codes)
        values = self._index_array(value_codes)
        # One byte flag per (candidate, bit), set by plain assignment and
        # packed into words at the end: a third of the time of
        # ``bitwise_or.at``, and repeated pairs stay harmless (a flag is as
        # idempotent as an OR).  Not where the flag matrix would outgrow the
        # index arrays it replaces — many candidates with few tuples each.
        scatter = count * words * 64 <= 16 * len(values)
        # Values outside the divisor carry no bit.  A flag has no "OR in
        # nothing", so the scatter drops their tuples; the OR sweep only
        # when they are the majority.
        drop = not valid.all() if scatter else 2 * _np.count_nonzero(valid) < len(valid)

        def slabs() -> Iterator[tuple[Any, Any]]:
            for start in range(0, len(values), _SWEEP_SLAB):
                slab = slice(start, start + _SWEEP_SLAB)
                candidate, value = candidates[slab], values[slab]
                if drop:
                    hit = _np.flatnonzero(valid[value])
                    candidate, value = candidate[hit], value[hit]
                yield candidate, value

        if scatter:
            stride = words * 64
            # Flag indices are computed in the codes' own width wherever
            # every flag's index fits it: on 306k tuples × 120 bits the
            # sweep takes 2.0 ms that way against 2.3 ms through ``intp``.
            narrow = count * stride < self._NARROW_INDEX_LIMIT
            index_type = _np.int32 if narrow else _np.intp
            offset = position.astype(index_type)
            flags = _np.zeros(count * stride, dtype=_np.uint8)
            for candidate, value in slabs():
                index = candidate.astype(index_type, copy=False) * stride
                index += value if identity else offset.take(value)
                flags[index] = 1
            return _np.packbits(flags, bitorder="little").view("<u8").reshape(count, words)
        # Per value code: the mask word its bit lives in and the bit itself
        # (0 for values outside the divisor — ORing it in is a no-op).
        word_of = _np.where(valid, position >> 6, 0)
        bit = _np.uint64(1) << (position & 63).astype(_np.uint64)
        bit_of = _np.where(valid, bit, _np.uint64(0))
        masks = _np.zeros(count * words, dtype=_np.uint64)
        for candidate, value in slabs():
            if words > 1:
                candidate = candidate.astype(_np.intp) * words + word_of[value]
            _np.bitwise_or.at(masks, candidate, bit_of[value])
        return masks.reshape(count, words)

    def patch_rows(
        self,
        rows: Any,
        width: int,
        renumberings: tuple[Any, Any],
        changes: tuple[tuple[Any, Any], tuple[Any, Any]],
        shape: tuple[int, int],
    ) -> Any:
        """A containment bitmap's rows after an edit, as :func:`bitmap_rows`
        holds them and a build over the edited columns gives them — the old
        ``rows`` (one per value, ``width`` candidate bits each) patched,
        never swept.

        ``renumberings`` are the candidate and the value column's
        :class:`~repro.relation.encoding.Renumbering` (``None``: no code
        moved), ``changes`` the ``(candidates, values)`` code pairs whose
        bits clear (old codes) and set (new codes), and the edited columns
        carry ``shape`` = ``(values, candidates)`` entries.  The cleared
        bits go first, then the rows and the bits move (a candidate that
        left has none set any more), then the new pairs' bits are set: a
        new value is a new row, a new candidate the next bit."""
        candidate_renumbering, value_renumbering = renumberings
        (lost_a, lost_b), (new_a, new_b) = changes
        count, new_width = shape
        words, new_words = _words_per_row(width), _words_per_row(new_width)
        patched = rows.copy()  # the old value keeps its rows
        if len(lost_a):
            _np.bitwise_and.at(patched, (lost_b, lost_a >> 6), ~_bits(lost_a))
        if value_renumbering is not None:
            patched = patched[value_renumbering.survivors]
        if candidate_renumbering is not None:
            # Entries moved: one flag per candidate, unpacked, gathered, packed.
            survivors = candidate_renumbering.survivors
            flags = _np.unpackbits(patched.view(_np.uint8), axis=1, bitorder="little")
            spread = _np.zeros((len(patched), 64 * new_words), dtype=_np.uint8)
            spread[:, : len(survivors)] = flags.take(survivors, axis=1)
            patched = _np.packbits(spread, axis=1, bitorder="little").view("<u8")
        kept_words = min(words, new_words)  # past them every bit is clear, or new
        if patched.shape != (count, new_words):
            grown = _np.zeros((count, new_words), dtype="<u8")
            grown[: len(patched), :kept_words] = patched[:, :kept_words]
            patched = grown
        if len(new_a):
            _np.bitwise_or.at(patched, (new_b, new_a >> 6), _bits(new_a))
        return patched

    def merge_runs(
        self,
        count: int,
        candidate_codes: Any,
        value_codes: Any,
        positions: Sequence[int],
        width: int,
    ) -> Any:
        if len(candidate_codes) < _MIN_VECTOR_SIZE:
            return super().merge_runs(count, candidate_codes, value_codes, positions, width)
        # ORs into a slot commute: the sweep builds these masks whatever the
        # order of the pairs, so there are no runs to find and nothing to sort.
        return self.gather_sweep(count, candidate_codes, value_codes, positions, width)

    def full_matches(self, masks: Any, full: int) -> Any:
        if len(masks) < _MIN_VECTOR_SIZE and not isinstance(masks, _np.ndarray):
            return super().full_matches(masks, full)
        array = self._mask_array(masks, full)
        wanted = self._scalar(full, array)
        if wanted is None:
            return _np.empty(0, dtype=_np.intp)
        return self._matching_rows(array, wanted)

    def popcount_matches(self, masks: Any, required: int) -> Any:
        if len(masks) < _MIN_VECTOR_SIZE and not isinstance(masks, _np.ndarray):
            return super().popcount_matches(masks, required)
        array = _np.ascontiguousarray(self._mask_array(masks))
        counts = self._POPCOUNT[array.view(_np.uint8)].sum(axis=1, dtype=_np.int64)
        return _np.flatnonzero(counts == required)

    def subset_matches(self, masks: Any, needed: int) -> Any:
        if len(masks) < _MIN_VECTOR_SIZE and not isinstance(masks, _np.ndarray):
            return super().subset_matches(masks, needed)
        array = self._mask_array(masks, needed)
        wanted = self._scalar(needed, array)
        if wanted is None:
            return _np.empty(0, dtype=_np.intp)
        return self._matching_rows(array, wanted, subset=True)

    def equal_matches(self, masks: Any, fulls: Sequence[int]) -> Any:
        if len(masks) < _MIN_VECTOR_SIZE and not isinstance(masks, _np.ndarray):
            return super().equal_matches(masks, fulls)
        array = self._mask_array(masks, max(fulls, default=0))
        return self._matching_rows(array, self._words(fulls, array.shape[1]))

    def intersection_matches(
        self,
        rows: Any,
        set_codes: Any,
        value_codes: Any,
        row_of: Sequence[int],
        count: int,
        allowed: Any = None,
    ) -> tuple[Any, Any]:
        pairs, words = len(value_codes), rows.shape[1]
        if pairs < _MIN_VECTOR_SIZE and pairs * words < _MIN_VECTOR_WORDS:
            # Few values over short rows: numpy's per-call cost would be most
            # of the time, so the reference ANDs them as ``int`` rows.
            return super().intersection_matches(
                rows, set_codes, value_codes, row_of, count, allowed
            )
        # The pairs set by set: each set's rows are one run of ``codes``.
        sets = self._index_array(set_codes)
        order = _np.argsort(sets, kind="stable")
        sets = sets[order]
        codes = _np.take(row_of, self._index_array(value_codes)[order])
        starts = [0, *(_np.flatnonzero(sets[1:] != sets[:-1]) + 1).tolist()]
        candidates, owners = [], []
        bounds = [*starts, len(codes)]
        for first, stop in _passes(bounds, max(1, _MATCH_SLAB // words)):
            low = bounds[first]
            run = codes[low : bounds[stop]]
            gathered = rows[run]
            if run.min() < 0:
                gathered[run < 0] = 0
            offsets = [start - low for start in starts[first:stop]]
            hits = _np.bitwise_and.reduceat(gathered, offsets, axis=0)
            if allowed is not None:
                hits &= allowed
            # Only the words with a hit are unpacked.  Bit ``j`` of word ``w``
            # of the pass's ``k``-th set is candidate ``64 w + j``, and the flat
            # word order keeps every set's candidates ascending.
            hits = hits.ravel()
            nonzero = _np.flatnonzero(hits)
            flags = _np.unpackbits(hits[nonzero].view(_np.uint8), bitorder="little")
            position = _np.flatnonzero(flags.view(bool))  # a quarter of the time of bytes
            set_index, word = _np.divmod(nonzero[position >> 6], words)
            candidates.append((word << 6) | (position & 63))
            owners.append(sets[_np.take(starts, set_index + first)])
        return (
            _np.concatenate(candidates).astype(_np.int32),
            _np.concatenate(owners).astype(_np.int32),
        )


def bitmap_rows(words: Any, count: int, width: int) -> Any:
    """A containment bitmap's one row form: ``count`` rows of ``width``
    candidate bits as a ``(count, ⌈width/64⌉)`` (at least one word)
    little-endian ``uint64`` array, bit ``i`` of a row being candidate
    ``i``.  ``words`` are the rows' bytes (a saved store's, read in place)
    or the reference sweep's ``int`` masks (a sweep of under 32 tuples),
    packed."""
    size = _words_per_row(width)
    if isinstance(words, list):
        return NumpyBitsetKernel._words(words, size)
    return _np.frombuffer(words, dtype="<u8").reshape(count, size)


def _words_per_row(width: int) -> int:
    """Words in a bitmap row of ``width`` bits (at least one)."""
    return max(1, -(-width // 64))


class _IntRows:
    """A bitmap's word rows read as Python ``int`` masks, a row at a time."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Any) -> None:
        self._rows = rows

    def __getitem__(self, code: int) -> int:
        return int.from_bytes(self._rows[code].tobytes(), "little")


def _passes(bounds: list[int], budget: int) -> Iterator[tuple[int, int]]:
    """Runs ``[first, stop)`` of consecutive sets, set ``i`` being rows
    ``bounds[i]:bounds[i + 1]``, of at most ``budget`` rows each (a larger
    set alone)."""
    first = 0
    for stop in range(2, len(bounds)):
        if bounds[stop] - bounds[first] > budget:
            yield first, stop - 1
            first = stop - 1
    yield first, len(bounds) - 1


_ONE = _np.uint64(1)


def _bits(codes: Any) -> Any:
    """Each code's bit within its word (``1 << code % 64``)."""
    return _ONE << (codes & 63).astype(_np.uint64)


#: Shared kernel instances (both are stateless), by the name
#: :func:`use_kernel` takes.
_KERNELS = {"python": PythonBitsetKernel(), "numpy": NumpyBitsetKernel()}

#: The kernel :func:`use_kernel` pinned (None: the numpy kernel).
_forced: Optional[PythonBitsetKernel] = None


def active_kernel() -> PythonBitsetKernel:
    """The kernel division operators should use for this execution: the
    numpy kernel unless :func:`use_kernel` pinned another.

    Consulted once per operator open, so :func:`use_kernel` affects any
    plan executed inside its scope.
    """
    return _forced or _KERNELS["numpy"]


@contextmanager
def use_kernel(name: str) -> Iterator[None]:
    """Context manager pinning the bitset kernel ``"python"`` or ``"numpy"``
    (parity tests and benches)."""
    global _forced
    if name not in _KERNELS:
        raise ExecutionError(f"unknown bitset kernel {name!r}; choose from {sorted(_KERNELS)}")
    saved = _forced
    _forced = _KERNELS[name]
    try:
        yield
    finally:
        _forced = saved
