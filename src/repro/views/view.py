"""Maintained quotient views: the object behind ``Database.create_view``.

A :class:`MaintainedView` decides once, at registration, whether its
division query has a maintainable shape
(:func:`~repro.views.shapes.analyze_division`); if so it owns a
:class:`~repro.views.counters.CounterTable` and every table mutation routed
in by the database becomes an O(delta) bitmask update — the paper's
union/difference laws read as delta equations, one per
{dividend, divisor} × {insert, delete}, named in :data:`DELTA_RULES`.
Reads are served by a :class:`~repro.physical.view_ops.CounterTableScan` —
no rewrite, no planning, no division at read time.  A view without a shape
(a projection, join or nested division in an input) runs its query through
the session like any other, result cache included, and ``explain()`` says
so.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.api.result import QueryResult
from repro.errors import ViewError
from repro.physical.executor import execute_plan
from repro.relation.relation import Relation
from repro.relation.row import Row
from repro.relation.schema import Schema
from repro.views.counters import CounterTable
from repro.views.shapes import DivisionShape, InputShape, UnsupportedViewShape, analyze_division

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.database import Database
    from repro.api.query import Query

__all__ = ["DELTA_RULES", "MaintainedView"]

Values = tuple[Any, ...]

#: The name a view's ``rules_fired`` gives each delta it applied, keyed by
#: (input, operation).
DELTA_RULES: dict[tuple[str, str], str] = {
    ("dividend", "insert"): "delta_dividend_insert",
    ("dividend", "delete"): "delta_dividend_delete",
    ("divisor", "insert"): "delta_divisor_insert",
    ("divisor", "delete"): "delta_divisor_delete",
}


class _SideExtractor:
    """Maps base-table tuples of one division input to (key, b) value pairs.

    ``key_names``/``b_names`` are *base* attribute names (the shape's
    inverse rename applied), so the extractor works directly on a table or
    a mutation delta, reading its value tuples; tuples failing the input's
    selection predicate are filtered out — the delta never reaches the
    counters (Laws 3/4: selection commutes with division).
    """

    __slots__ = ("predicate", "key_names", "b_names")

    def __init__(self, shape_input: InputShape, key_names: tuple[str, ...], b_names: tuple[str, ...]) -> None:
        inverse = shape_input.inverse_map()
        self.predicate = shape_input.predicate
        self.key_names = tuple(inverse[name] for name in key_names)
        self.b_names = tuple(inverse[name] for name in b_names)

    # contract: rows-ok (an input's selection predicate takes a Row)
    def pairs(self, relation: Relation) -> Iterator[tuple[Values, Values]]:
        schema, predicate = relation.schema, self.predicate
        key_of, b_of = schema.tuple_getter(self.key_names), schema.tuple_getter(self.b_names)
        tuples = relation.aligned_tuples()
        if predicate is not None:
            from_schema = Row.from_schema
            tuples = [values for values in tuples if predicate(from_schema(schema, values))]
        for values in tuples:
            yield key_of(values), b_of(values)


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

        self.shape: Optional[DivisionShape] = None
        self.unsupported_reason = ""
        try:
            self.shape = analyze_division(self.expression)
        except UnsupportedViewShape as error:
            self.unsupported_reason = error.reason
        self.counters: Optional[CounterTable] = None
        self._dividend_extract: Optional[_SideExtractor] = None
        self._divisor_extract: Optional[_SideExtractor] = None
        #: A maintained view's last answer, kept until a delta moves it.
        self._cached_result: Optional[QueryResult] = None

        # One-time prepare: fingerprint + cost estimates for results served
        # from the counter table (maintained reads never re-plan).
        prepared, _ = database._prepare(self.expression)
        self._fingerprint = prepared.fingerprint
        self._rewritten = prepared.rewritten
        self._cost_before = prepared.original_cost
        self._cost_after = prepared.rewritten_cost

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
        if self.counters is None:
            # Fallback view, or maintained view not built yet: the next
            # read recomputes/builds from the current catalog.
            return
        shape, counters = self.shape, self.counters
        rules, moved = len(self.rules_used), False
        if table == shape.dividend.table:
            extract = self._dividend_extract
            assert extract is not None
            for a, b in extract.pairs(deleted):
                moved |= self._moves(counters.delete_dividend, a, b)
                self._note_rule("dividend", "delete")
            for a, b in extract.pairs(inserted):
                moved |= self._moves(counters.insert_dividend, a, b)
                self._note_rule("dividend", "insert")
        if table == shape.divisor.table:
            extract = self._divisor_extract
            assert extract is not None
            for c, b in extract.pairs(deleted):
                moved |= self._moves(counters.delete_divisor, b, c)
                self._note_rule("divisor", "delete")
            for c, b in extract.pairs(inserted):
                moved |= self._moves(counters.insert_divisor, b, c)
                self._note_rule("divisor", "insert")
        if moved or len(self.rules_used) != rules:
            # The last read's result holds the old quotient or rule names;
            # an edit that moved neither leaves it the answer.
            self._cached_result = None
        self.applied_versions[table] = version

    def _moves(
        self, delta: Callable[[Values, Values], None], first: Values, second: Values
    ) -> bool:
        """Apply one counter-table delta; whether it moved the quotient (a
        delta only adds members or only removes them, so its size says)."""
        assert self.counters is not None
        size = len(self.counters)
        delta(first, second)
        return len(self.counters) != size

    def _note_rule(self, target: str, operation: str) -> None:
        name = DELTA_RULES[(target, operation)]
        if name not in self.rules_used:
            self.rules_used.append(name)

    def rebuild(self) -> None:
        """Full (re)build of the counters from the current base tables."""
        shape = self.shape
        if shape is None:
            return
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
        """Answer the view: counter-table scan, or the session's query path
        (whose result cache is keyed by table versions) on fallback."""
        if not self.maintained:
            return self.database._run(self.query)
        self._ensure_built()
        if self._cached_result is not None:
            return self._cached_result
        from repro.physical.view_ops import CounterTableScan

        execution = execute_plan(CounterTableScan(self), batch_size=self.database.batch_size)
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
