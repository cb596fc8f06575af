"""Maintained quotient views: the object behind ``Database.create_view``.

A :class:`MaintainedView` decides once, at registration, whether its
division query has a maintainable shape (all four delta rules of
:mod:`repro.laws.delta` match); if so it owns a
:class:`~repro.views.counters.CounterTable` and every table mutation routed
in by the database becomes an O(delta) bitmask update.  Reads are served by
a :class:`~repro.physical.view_ops.CounterTableScan` — no rewrite, no
planning, no division at read time.  When any delta rule's ``conditions``
do not hold (a projection, join or nested division in an input), the view
falls back to full recompute through the ordinary prepared-plan path and
``explain()`` says so.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.api.result import QueryResult
from repro.errors import ViewError
from repro.laws.registry import delta_rules
from repro.physical.executor import execute_plan
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.views.counters import CounterTable
from repro.views.shapes import DivisionShape, InputShape, UnsupportedViewShape, analyze_division

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.database import Database
    from repro.api.query import Query
    from repro.laws.delta import DeltaRule

__all__ = ["MaintainedView"]

Values = tuple[Any, ...]


class _SideExtractor:
    """Maps base-table rows of one division input to (key, b) value pairs.

    ``key_names``/``b_names`` are *base* attribute names (the shape's
    inverse rename applied), so the extractor works directly on mutation
    delta rows; rows failing the input's selection predicate are filtered
    out — the delta never reaches the counters (Laws 3/4: selection
    commutes with division).
    """

    __slots__ = ("predicate", "key_names", "b_names")

    def __init__(self, shape_input: InputShape, key_names: tuple[str, ...], b_names: tuple[str, ...]) -> None:
        inverse = shape_input.inverse_map()
        self.predicate = shape_input.predicate
        self.key_names = tuple(inverse[name] for name in key_names)
        self.b_names = tuple(inverse[name] for name in b_names)

    def pairs(self, relation: Relation) -> Iterator[tuple[Values, Values]]:
        predicate = self.predicate
        key_names, b_names = self.key_names, self.b_names
        for row in relation:
            if predicate is None or predicate(row):
                yield row.values_for(key_names), row.values_for(b_names)


class MaintainedView:
    """One registered division view, delta-maintained when possible."""

    def __init__(self, name: str, database: "Database", query: "Query") -> None:
        self.name = name
        self.database = database
        self.query = query
        self.expression = query.expression
        self.schema_names: tuple[str, ...] = self.expression.schema.names
        #: Version each referenced table had when its last delta (or full
        #: build) was incorporated.
        self.applied_versions: dict[str, int] = {}
        #: Delta-rule names that have fired for this view, in first-use order.
        self.rules_used: list[str] = []

        #: The four maintenance rules, keyed by (target, operation).
        self.delta_rules: dict[tuple[str, str], "DeltaRule"] = {
            (rule.target, rule.operation): rule for rule in delta_rules()
        }
        self.shape: Optional[DivisionShape] = None
        self.unsupported_reason = ""
        try:
            shape = analyze_division(self.expression)
        except UnsupportedViewShape as error:
            self.unsupported_reason = error.reason
        else:
            # Maintenance needs full {dividend,divisor} × {insert,delete}
            # coverage; a rule whose conditions don't hold disables it.
            unmatched = [
                f"{target} {operation}"
                for (target, operation), rule in sorted(self.delta_rules.items())
                if not rule.matches(self.expression)
            ]
            if unmatched:
                self.unsupported_reason = f"delta rules do not cover: {', '.join(unmatched)}"
            else:
                self.shape = shape
        self.counters: Optional[CounterTable] = None
        self._dividend_extract: Optional[_SideExtractor] = None
        self._divisor_extract: Optional[_SideExtractor] = None
        self._cached_result: Optional[QueryResult] = None
        self._dirty = True

        # One-time prepare: fingerprint + cost estimates for results served
        # from the counter table (maintained reads never re-plan).
        prepared, _ = database._prepare(self.expression)
        self._fingerprint = prepared.fingerprint
        self._rewritten = prepared.rewritten
        self._cost_before = prepared.original_cost.total_cost
        self._cost_after = prepared.rewritten_cost.total_cost

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    @property
    def maintained(self) -> bool:
        """True when reads are served from the counter table."""
        return self.shape is not None

    @property
    def tables(self) -> frozenset[str]:
        """Base tables this view depends on."""
        if self.shape is not None:
            return self.shape.tables
        return self.expression.relation_names()

    @property
    def deltas_applied(self) -> int:
        """Delta rows incorporated since the last full (re)build."""
        return self.counters.deltas_applied if self.counters is not None else 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def on_mutation(self, table: str, inserted: Relation, deleted: Relation, version: int) -> None:
        """Incorporate one table mutation (called by the database)."""
        if table not in self.tables:
            return
        self._cached_result = None
        if self.shape is None or self.counters is None:
            # Fallback view, or maintained view not built yet: the next
            # read recomputes/builds from the current catalog.
            self._dirty = True
            return
        shape, counters = self.shape, self.counters
        if table == shape.dividend.table:
            extract = self._dividend_extract
            assert extract is not None
            for a, b in extract.pairs(deleted):
                counters.delete_dividend(a, b)
                self._note_rule("dividend", "delete")
            for a, b in extract.pairs(inserted):
                counters.insert_dividend(a, b)
                self._note_rule("dividend", "insert")
        if table == shape.divisor.table:
            extract = self._divisor_extract
            assert extract is not None
            for c, b in extract.pairs(deleted):
                counters.delete_divisor(b, c)
                self._note_rule("divisor", "delete")
            for c, b in extract.pairs(inserted):
                counters.insert_divisor(b, c)
                self._note_rule("divisor", "insert")
        self.applied_versions[table] = version

    def _note_rule(self, target: str, operation: str) -> None:
        name = self.delta_rules[(target, operation)].name
        if name not in self.rules_used:
            self.rules_used.append(name)

    def rebuild(self) -> None:
        """Full (re)build of the counters from the current base tables."""
        if self.shape is None:
            self._dirty = True
            self._cached_result = None
            return
        shape = self.shape
        self._dividend_extract = _SideExtractor(shape.dividend, shape.a_names, shape.b_names)
        self._divisor_extract = _SideExtractor(shape.divisor, shape.c_names, shape.b_names)
        counters = CounterTable(shape.kind, len(shape.a_names), len(shape.c_names))
        dividend = self.database.relation(shape.dividend.table)
        divisor = self.database.relation(shape.divisor.table)
        counters.rebuild(
            self._dividend_extract.pairs(dividend),
            ((b, c) for c, b in self._divisor_extract.pairs(divisor)),
        )
        self.counters = counters
        self._cached_result = None
        for table in self.tables:
            self.applied_versions[table] = self.database.table_version(table)

    def _ensure_built(self) -> None:
        if self.counters is None:
            self.rebuild()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def quotient_tuples(self) -> frozenset[Values]:
        """The maintained quotient as aligned value tuples (A then C)."""
        self._ensure_built()
        assert self.counters is not None
        return self.counters.quotient_tuples()

    def run(self) -> QueryResult:
        """Answer the view: counter-table scan, or recompute on fallback."""
        if self.maintained:
            self._ensure_built()
            if self._cached_result is not None:
                return self._cached_result
            from repro.physical.view_ops import CounterTableScan

            execution = execute_plan(
                CounterTableScan(self), batch_size=self.database.batch_size
            )
            result = QueryResult(
                relation=execution.relation,
                expression=self.expression,
                rewritten=self._rewritten,
                rules_fired=tuple(self.rules_used),
                statistics=execution.statistics,
                fingerprint=self._fingerprint,
                cache_hit=True,
                estimated_cost_before=self._cost_before,
                estimated_cost_after=self._cost_after,
            )
            self._cached_result = result
            return result
        # Fallback: the ordinary prepared-plan path (version checks inside
        # _prepare keep it correct under mutations).
        if self._cached_result is not None and not self._dirty:
            return self._cached_result
        result = self.database._run(self.query)
        self._cached_result = result
        self._dirty = False
        for table in self.tables:
            self.applied_versions[table] = self.database.table_version(table)
        return result

    def relation(self) -> Relation:
        """The view's current contents."""
        return self.run().relation

    @property
    def schema(self) -> Schema:
        return self.expression.schema

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def explain(self, analyze: bool = False, verify: bool = False) -> str:
        """The query's EXPLAIN output, headed by the maintenance status."""
        if self.maintained:
            status = f"maintained  : yes · deltas applied={self.deltas_applied}"
        else:
            status = f"maintained  : no ({self.unsupported_reason}) · full recompute on read"
        body = self.query.explain(analyze=analyze, verify=verify)
        return f"view        : {self.name}\n{status}\n\n{body}"

    def __repr__(self) -> str:
        mode = "maintained" if self.maintained else "fallback"
        return f"<MaintainedView {self.name!r} {mode} deltas={self.deltas_applied}>"


def require_persistable(view: MaintainedView) -> None:
    """Loud-failure contract of ``Database.save``: fallback views have no
    counter-table form to persist."""
    if not view.maintained:
        raise ViewError(
            f"cannot persist view {view.name!r}: it runs in full-recompute "
            f"fallback mode ({view.unsupported_reason}); drop_view() it "
            "before save, or recreate it after reopening"
        )
