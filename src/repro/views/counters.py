"""Per-quotient-key bitset counter tables — the IVM core.

The counter table reuses the dictionary-encoding trick of the vectorized
division kernels: every distinct divisor-attribute value tuple *b* gets a
bit position, a dividend group ``a`` is the int bitmask of the *b* values
it contains, and a divisor group ``c`` (a single implicit group for small
divide) is the bitmask of its members.  Division then *is* the subset test
``group & ~mask == 0``, and the deltas are integer updates:

* dividend insert/delete — ``mask |= bit`` / ``mask &= ~bit`` on one
  group, plus an O(groups-containing-bit) membership re-check;
* divisor grow — the popcount threshold rises, so only current quotient
  members lacking the new bit can drop out;
* divisor shrink — the threshold falls, so only non-members can join;
  each is a single pass over existing counters, never over the data.

Because the engine's relations are sets, multiplicities are 0/1 and the
bitmask *is* the multiset counter classic IVM literature keeps — no
separate count column is needed.  The class maintains the invariant that
after **every** public operation the quotient set equals the exact
function of the current counters, so the order in which same-statement
dividend and divisor deltas are applied cannot matter.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

__all__ = ["CounterTable"]

#: A tuple of attribute values (one quotient key, one divisor-value tuple…).
Values = tuple[Any, ...]


class CounterTable:
    """Bitset counters for one division view, with delta maintenance."""

    __slots__ = (
        "kind",
        "a_width",
        "c_width",
        "_bit_of",
        "_value_of",
        "_masks",
        "_divisor_masks",
        "_quotient",
        "deltas_applied",
    )

    def __init__(self, kind: str, a_width: int, c_width: int = 0) -> None:
        if kind not in ("small", "great"):
            raise ValueError(f"unknown division kind {kind!r}")
        if kind == "small" and c_width:
            raise ValueError("small divide has no divisor-only attributes C")
        self.kind = kind
        self.a_width = a_width
        self.c_width = c_width
        #: divisor-value tuple → bit index, and its inverse (for decoding).
        self._bit_of: dict[Values, int] = {}
        self._value_of: list[Values] = []
        #: dividend group a → bitmask of its b values (keys with ≥1 row only).
        self._masks: dict[Values, int] = {}
        #: divisor group c → bitmask; small divide keeps the single implicit
        #: group ``()`` (possibly 0 = empty divisor ⇒ every a qualifies),
        #: great divide drops groups at mask 0 (no rows ⇒ no (a, c) pairs).
        self._divisor_masks: dict[Values, int] = {(): 0} if kind == "small" else {}
        #: the maintained quotient: A-values + C-values, schema order.
        self._quotient: set[Values] = set()
        #: delta rows routed into this table since the last rebuild.
        self.deltas_applied = 0

    @property
    def is_small(self) -> bool:
        return self.kind == "small"

    # ------------------------------------------------------------------
    # bulk (re)build
    # ------------------------------------------------------------------
    def rebuild(
        self,
        dividend: Iterable[tuple[Values, Values]],
        divisor: Iterable[tuple[Values, Values]],
    ) -> None:
        """Build all counters from scratch: ``(a, b)`` and ``(b, c)`` pairs."""
        self._bit_of.clear()
        self._value_of.clear()
        masks: dict[Values, int] = {}
        divisor_masks: dict[Values, int] = {(): 0} if self.is_small else {}
        for a, b in dividend:
            masks[a] = masks.get(a, 0) | 1 << self._bit(b)
        for b, c in divisor:
            key = () if self.is_small else c
            divisor_masks[key] = divisor_masks.get(key, 0) | 1 << self._bit(b)
        self._masks = masks
        self._divisor_masks = divisor_masks
        self._recompute_quotient()
        self.deltas_applied = 0

    def _recompute_quotient(self) -> None:
        if self.is_small:
            needed = self._divisor_masks[()]
            self._quotient = {a for a, mask in self._masks.items() if needed & ~mask == 0}
        else:
            quotient: set[Values] = set()
            for c, group in self._divisor_masks.items():
                for a, mask in self._masks.items():
                    if group & ~mask == 0:
                        quotient.add(a + c)
            self._quotient = quotient

    # ------------------------------------------------------------------
    # deltas
    # ------------------------------------------------------------------
    def insert_dividend(self, a: Values, b: Values) -> None:
        """One dividend row appears: OR the bit in, re-check one group."""
        self.deltas_applied += 1
        bit = 1 << self._bit(b)
        old = self._masks.get(a, 0)
        new = old | bit
        if new == old:
            return
        self._masks[a] = new
        if self.is_small:
            if self._divisor_masks[()] & ~new == 0:
                self._quotient.add(a)
        else:
            # Only divisor groups containing the new bit can newly qualify.
            for c, group in self._divisor_masks.items():
                if group & bit and group & ~new == 0:
                    self._quotient.add(a + c)

    def delete_dividend(self, a: Values, b: Values) -> None:
        """One dividend row disappears: AND the bit out, evict if needed."""
        self.deltas_applied += 1
        index = self._bit_of.get(b)
        if index is None:
            return  # a b value no counter ever saw cannot affect any mask
        bit = 1 << index
        old = self._masks.get(a, 0)
        new = old & ~bit
        if new == old:
            return
        if new:
            self._masks[a] = new
        else:
            del self._masks[a]  # group emptied: key leaves the dividend
        if self.is_small:
            # Members lose the quotient iff the divisor needs the dropped
            # bit — or the whole group vanished (empty-divisor case).
            if a in self._quotient and (self._divisor_masks[()] & bit or new == 0):
                self._quotient.discard(a)
        else:
            for c, group in self._divisor_masks.items():
                if group & bit:
                    self._quotient.discard(a + c)

    def insert_divisor(self, b: Values, c: Values = ()) -> None:
        """Divisor grows: the popcount threshold rises for one group, so
        only current members lacking the new bit can drop out."""
        self.deltas_applied += 1
        bit = 1 << self._bit(b)
        key = () if self.is_small else c
        old = self._divisor_masks.get(key, 0)
        new = old | bit
        if new == old and (self.is_small or key in self._divisor_masks):
            return
        self._divisor_masks[key] = new
        if self.is_small:
            self._quotient = {a for a in self._quotient if self._masks[a] & bit}
        elif old == 0:
            # Brand-new group: its (a, c) pairs must be seeded from scratch.
            for a, mask in self._masks.items():
                if new & ~mask == 0:
                    self._quotient.add(a + key)
        else:
            width = self.a_width
            self._quotient = {
                q
                for q in self._quotient
                if q[width:] != key or self._masks[q[:width]] & bit
            }

    def delete_divisor(self, b: Values, c: Values = ()) -> None:
        """Divisor shrinks: the threshold falls, so only non-members can
        join — one pass over existing counters, never over the data."""
        self.deltas_applied += 1
        index = self._bit_of.get(b)
        if index is None:
            return
        bit = 1 << index
        key = () if self.is_small else c
        old = self._divisor_masks.get(key)
        if old is None or not old & bit:
            return
        new = old & ~bit
        if self.is_small:
            self._divisor_masks[()] = new
            for a, mask in self._masks.items():
                if new & ~mask == 0:
                    self._quotient.add(a)
        elif new:
            self._divisor_masks[key] = new
            for a, mask in self._masks.items():
                if new & ~mask == 0:
                    self._quotient.add(a + key)
        else:
            del self._divisor_masks[key]  # group emptied: its pairs vanish
            width = self.a_width
            self._quotient = {q for q in self._quotient if q[width:] != key}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def quotient_tuples(self) -> frozenset[Values]:
        """The maintained quotient as aligned value tuples (A then C)."""
        return frozenset(self._quotient)

    def __len__(self) -> int:
        return len(self._quotient)

    @property
    def dividend_groups(self) -> int:
        return len(self._masks)

    @property
    def divisor_groups(self) -> int:
        return len(self._divisor_masks)

    # ------------------------------------------------------------------
    # decoded counters (equivalence testing / verifier)
    # ------------------------------------------------------------------
    def dividend_sets(self) -> dict[Values, frozenset[Values]]:
        """a → set of b-value tuples, independent of bit-assignment order."""
        return {a: self._decode(mask) for a, mask in self._masks.items()}

    def divisor_sets(self) -> dict[Values, frozenset[Values]]:
        """c → set of b-value tuples (small divide: the single key ``()``)."""
        return {c: self._decode(mask) for c, mask in self._divisor_masks.items()}

    def _decode(self, mask: int) -> frozenset[Values]:
        values = []
        index = 0
        while mask:
            if mask & 1:
                values.append(self._value_of[index])
            mask >>= 1
            index += 1
        return frozenset(values)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bit(self, b: Values) -> int:
        index = self._bit_of.get(b)
        if index is None:
            index = len(self._value_of)
            self._bit_of[b] = index
            self._value_of.append(b)
        return index

    def __repr__(self) -> str:
        return (
            f"<CounterTable {self.kind} groups={len(self._masks)} "
            f"divisor_groups={len(self._divisor_masks)} quotient={len(self._quotient)} "
            f"deltas={self.deltas_applied}>"
        )
