"""Vectorized kernels for the bitset-division inner loops.

All eight division algorithms funnel their hot loops through one dispatch
seam (:func:`active_kernel`): the *gather sweep* that ORs each dividend
tuple's divisor bit into its candidate's bitmask, the *run merge* of
merge-sort division (the same masks, one candidate run at a time in the
Python reference, the gather sweep itself once vectorized) and the *match
scan* that finds the candidates whose bitmask is full / a superset / has
the required popcount.  All work on the integer key codes the key-column
seam (:mod:`repro.physical.division.keys`) hands out.  Two implementations
exist:

* :class:`PythonBitsetKernel` — the reference: plain loops over Python
  ``int`` bitmasks (arbitrary precision, always available);
* :class:`NumpyBitsetKernel` — batch operations over *multi-word* masks:
  ``(n, ⌈bits/64⌉)`` ``uint64`` arrays, so a divisor of any width stays
  vectorized (a byte-flag scatter packed into words — ``np.bitwise_or.at``
  where the flags would outgrow the input — then word-wise compare /
  subset / popcount scans).  Picked automatically when numpy is importable.

Results never depend on the kernel in use.  The partition-parallel
wrappers run the unchanged serial operators inside their workers, so the
kernel dispatch applies per partition without any further wiring.  Tests
pin a kernel with :func:`use_kernel`.
"""

from __future__ import annotations

from array import array as _buffer
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.relation.encoding import iter_codes

try:  # pragma: no cover - CI runs one leg with numpy and one without
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "BitsetKernel",
    "PythonBitsetKernel",
    "NumpyBitsetKernel",
    "KERNEL_NAMES",
    "active_kernel",
    "available_kernels",
    "numpy_available",
    "set_kernel",
    "use_kernel",
]

#: Inputs smaller than this stay on the Python reference even under the
#: numpy kernel — the array conversion would cost more than it saves.
_MIN_VECTOR_SIZE = 32

#: Tuples per pass of the numpy gather sweep: bounds its index/bit
#: temporaries (a few arrays of this length) whatever the input size.
_SWEEP_SLAB = 1 << 16


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
        bits = [1 << position if position >= 0 else 0 for position in positions]
        masks = [0] * count
        pairs = zip(self.prepare_indices(candidate_codes), self.prepare_indices(value_codes))
        for candidate, value in pairs:
            masks[candidate] |= bits[value]
        return masks

    def merge_runs(
        self,
        count: int,
        candidate_codes: Any,
        value_codes: Any,
        positions: Sequence[int],
        width: int,
        sort: bool = False,
    ) -> Any:
        """The masks of :meth:`gather_sweep`, merged run by run.

        Each contiguous run of one candidate code accumulates its mask and
        is ORed into the candidate's slot at the run boundary — one slot
        access per run instead of per tuple when the input is clustered on
        the candidate, and still correct when it is not (a candidate's runs
        land in the same slot).  ``sort`` orders the pairs by candidate
        first: the merge-sort variant for unclustered input.  This loop
        serves inputs under 32 tuples and processes without numpy.
        """
        bits = [1 << position if position >= 0 else 0 for position in positions]
        pairs: Any = zip(
            self.prepare_indices(candidate_codes),
            map(bits.__getitem__, self.prepare_indices(value_codes)),
        )
        if sort:
            pairs = sorted(pair for pair in pairs if pair[1])
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
    # Each returns the matching indices ascending, as an integer buffer (an
    # ``array`` here, an index array vectorized): candidate codes, which the
    # operators hand on as the quotient's code column without boxing them.
    def full_matches(self, masks: Any, full: int) -> Any:
        """Indices whose mask equals ``full``."""
        return _buffer("i", [i for i, mask in enumerate(masks) if mask == full])

    def popcount_matches(self, masks: Any, required: int) -> Any:
        """Indices whose mask has exactly ``required`` bits set."""
        counts = map(int.bit_count, map(int, masks))
        return _buffer("i", [i for i, count in enumerate(counts) if count == required])

    def subset_matches(self, masks: Any, needed: int) -> Any:
        """Indices whose mask contains every bit of ``needed``."""
        return _buffer("i", [i for i, mask in enumerate(masks) if needed & mask == needed])

    def equal_matches(self, masks: Any, fulls: Sequence[int]) -> Any:
        """Indices where ``masks[i] == fulls[i]`` (pairwise)."""
        return _buffer("i", [i for i, (mask, full) in enumerate(zip(masks, fulls)) if mask == full])


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
    _POPCOUNT = (
        None
        if _np is None
        else _np.array([bin(byte).count("1") for byte in range(256)], dtype=_np.uint8)
    )

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
                index += offset.take(value)
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

    def merge_runs(
        self,
        count: int,
        candidate_codes: Any,
        value_codes: Any,
        positions: Sequence[int],
        width: int,
        sort: bool = False,
    ) -> Any:
        if len(candidate_codes) < _MIN_VECTOR_SIZE:
            return super().merge_runs(count, candidate_codes, value_codes, positions, width, sort)
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


#: Shared kernel instances (both are stateless).
_PYTHON_KERNEL = PythonBitsetKernel()
_NUMPY_KERNEL = NumpyBitsetKernel() if _np is not None else None

#: Valid kernel-selection names.
KERNEL_NAMES = ("auto", "python", "numpy")

BitsetKernel = PythonBitsetKernel

#: Process-wide override set by :func:`set_kernel` (None = auto).
_forced: Optional[str] = None


def numpy_available() -> bool:
    """True when the numpy fast path can be used in this process."""
    return _NUMPY_KERNEL is not None


def available_kernels() -> tuple[str, ...]:
    """The kernel names usable in this process."""
    return ("python", "numpy") if numpy_available() else ("python",)


def set_kernel(name: Optional[str]) -> None:
    """Force one bitset kernel process-wide (``None``/"auto" restores auto)."""
    global _forced
    if name is None or name == "auto":
        _forced = None
        return
    if name not in KERNEL_NAMES:
        raise ExecutionError(
            f"unknown bitset kernel {name!r}; choose from {sorted(KERNEL_NAMES)}"
        )
    if name == "numpy" and _NUMPY_KERNEL is None:
        raise ExecutionError("bitset kernel 'numpy' requested but numpy is not importable")
    _forced = name


def active_kernel() -> PythonBitsetKernel:
    """The kernel division operators should use for this execution.

    Consulted once per operator open, so :func:`use_kernel` affects any
    plan executed inside its scope.
    """
    name = _forced
    if name == "python":
        return _PYTHON_KERNEL
    if name == "numpy":
        return _NUMPY_KERNEL  # type: ignore[return-value]  (set_kernel validated)
    return _NUMPY_KERNEL if _NUMPY_KERNEL is not None else _PYTHON_KERNEL


@contextmanager
def use_kernel(name: Optional[str]) -> Iterator[None]:
    """Context manager pinning the bitset kernel (parity tests and benches)."""
    global _forced
    saved = _forced
    set_kernel(name)
    try:
        yield
    finally:
        _forced = saved
