"""Engine-independent oracle: a dict-of-sets model of the benchmark tables.

The model holds the same three tables the engine sees --
``supplies(s_no, p_no)``, ``parts(p_no, color)``, ``wanted(p_no)`` -- as
plain Python dicts and sets, applies the same edits, and computes every
expected quotient by subset tests.  It imports nothing from ``repro``: a
query is described by a :class:`QuerySpec` (the workload renders the SQL
text from the same spec), never by engine objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["Model", "QuerySpec"]

#: Divisor shapes a :class:`QuerySpec` can name.
BY_COLOR = "by_color"  # great divide: one divisor group per colour
COLOR = "color"  # small divide: the parts of one colour
WANTED = "wanted"  # small divide: the ``wanted`` table
WANTED_COLOR = "wanted_color"  # small divide: wanted JOIN parts of one colour


@dataclass(frozen=True)
class QuerySpec:
    """One division query, independent of how its SQL is spelled.

    The dividend is ``supplies``, optionally restricted to suppliers with
    ``supplier_lo <= s_no < supplier_hi``; the divisor is named by
    ``divisor`` (+ ``color``), optionally restricted to ``p_no < part_below``.
    """

    divisor: str
    color: Optional[str] = None
    supplier_lo: Optional[str] = None
    supplier_hi: Optional[str] = None
    part_below: Optional[str] = None

    @property
    def columns(self) -> tuple[str, ...]:
        return ("s_no", "color") if self.divisor == BY_COLOR else ("s_no",)


class Model:
    """The benchmark database as dicts and sets, with the same edits."""

    def __init__(
        self,
        supplies: Iterable[tuple[str, str]],
        parts: Iterable[tuple[str, str]],
        wanted: Iterable[tuple[str]],
    ) -> None:
        #: Every table as a set of rows.  ``parts`` has no key constraint in
        #: the engine either, so one part may carry two colours after an edit.
        self.tables: dict[str, set[tuple[str, ...]]] = {
            "supplies": set(supplies),
            "parts": set(parts),
            "wanted": set(wanted),
        }
        #: Index over ``supplies``: supplier -> the parts it supplies.
        self.parts_of: dict[str, set[str]] = {}
        for supplier, part in self.tables["supplies"]:
            self.parts_of.setdefault(supplier, set()).add(part)
        #: Quotients of the current table contents; dropped by every edit.
        self._memo: dict[QuerySpec, frozenset[tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    # edits (return the number of rows that actually changed)
    # ------------------------------------------------------------------
    def insert(self, table: str, rows: Iterable[tuple[str, ...]]) -> int:
        target = self.tables[table]
        added = set(rows) - target
        target |= added
        if table == "supplies":
            for supplier, part in added:
                self.parts_of.setdefault(supplier, set()).add(part)
        if added:
            self._memo.clear()
        return len(added)

    def delete(self, table: str, rows: Iterable[tuple[str, ...]]) -> int:
        target = self.tables[table]
        removed = set(rows) & target
        target -= removed
        if table == "supplies":
            for supplier, part in removed:
                have = self.parts_of[supplier]
                have.discard(part)
                if not have:
                    del self.parts_of[supplier]
        if removed:
            self._memo.clear()
        return len(removed)

    def tuple_count(self) -> int:
        """Tuples stored across all three tables."""
        return sum(map(len, self.tables.values()))

    # ------------------------------------------------------------------
    # expected quotients
    # ------------------------------------------------------------------
    def _divisor_groups(self, spec: QuerySpec) -> dict[Optional[str], set[str]]:
        """Divisor parts per group key (``None`` = the one small-divide group)."""
        below = spec.part_below
        rows = [(p, c) for p, c in self.tables["parts"] if below is None or p < below]
        wanted = {row[0] for row in self.tables["wanted"]}
        if spec.divisor == BY_COLOR:
            groups: dict[Optional[str], set[str]] = {}
            for part, color in rows:
                groups.setdefault(color, set()).add(part)
            return groups
        if spec.divisor == COLOR:
            return {None: {p for p, c in rows if c == spec.color}}
        if spec.divisor == WANTED:
            return {None: {p for p in wanted if below is None or p < below}}
        if spec.divisor == WANTED_COLOR:
            return {None: {p for p, c in rows if c == spec.color and p in wanted}}
        raise ValueError(f"unknown divisor shape {spec.divisor!r}")

    def quotient(self, spec: QuerySpec) -> frozenset[tuple[str, ...]]:
        """Suppliers (per group) whose parts contain the whole divisor group.

        A small divide by an empty divisor yields every dividend supplier
        (the empty set is contained in every group), as in the algebra.
        """
        cached = self._memo.get(spec)
        if cached is not None:
            return cached
        groups = self._divisor_groups(spec)
        lo, hi = spec.supplier_lo, spec.supplier_hi
        result: set[tuple[str, ...]] = set()
        for supplier, have in self.parts_of.items():
            if (lo is not None and supplier < lo) or (hi is not None and supplier >= hi):
                continue
            for key, needed in groups.items():
                if needed <= have:
                    result.add((supplier,) if key is None else (supplier, key))
        frozen = frozenset(result)
        self._memo[spec] = frozen
        return frozen
