"""The one front door: a session object unifying every execution path.

``Database`` wraps a :class:`~repro.algebra.catalog.Catalog` with the full
pipeline of the paper — SQL translation, canonicalization, law-based
rewriting, costing, physical planning and batched execution — behind two
entry points that produce the same lazy :class:`~repro.api.query.Query`
objects:

>>> db = connect(textbook_catalog)
>>> db.sql("SELECT s_no FROM supplies AS s DIVIDE BY ...").run()
>>> db.table("supplies").divide(db.table("parts"), on="p_no").run()

Every run is **one** physical execution whose
:class:`~repro.api.result.QueryResult` carries the result relation, the
rules fired, per-operator tuple counts, ``max_intermediate`` and wall-clock
time.

Prepared plans are cached in an LRU keyed by the canonical expression
fingerprint, so repeating a query — in *any* equivalent formulation — skips
translation-independent work (rewrite + costing + planning) entirely.
Hit/miss counters are exposed through :meth:`Database.cache_info` for tests
and benchmarks.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Generic, Optional, TypeVar, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.findings import VerificationReport
    from repro.views.view import MaintainedView

from repro.algebra.catalog import Catalog
from repro.algebra.expressions import Expression, Select
from repro.algebra.predicates import Predicate
from repro.api.fingerprint import optimizer_signature, plan_cache_key
from repro.api.query import Query
from repro.api.result import AnalyzeReport, CacheInfo, MutationResult, QueryResult
from repro.errors import RelationError, ReproError, SchemaError, ViewError
from repro.faults import registry as fault_registry
from repro.faults.plan import FaultPlan
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.planner import PlannerOptions
from repro.optimizer.rewriter import RewriteReport
from repro.optimizer.statistics import TableStatistics
from repro.physical.base import PhysicalOperator
from repro.physical.basic import Filter
from repro.physical.executor import execute_plan
from repro.relation.relation import Relation
from repro.relation.row import Row
from repro.relation.schema import Schema
from repro.sql.translator import SQLTranslator

__all__ = ["Database", "PreparedPlan", "connect"]

#: Anything a Database can be built from: a catalog, a plain name→relation
#: mapping, a zero-argument workload generator returning either, the path of
#: a saved store directory (:meth:`Database.save`), or nothing.
DatabaseSource = Union[
    Catalog, Mapping[str, Relation], Callable[[], object], str, "os.PathLike[str]", None
]

#: Rows accepted by :meth:`Database.insert`: a Relation over the same
#: attributes, or an iterable of Rows / name→value mappings / value tuples
#: aligned with the table's schema order.
RowsLike = Union[Relation, Iterable[Any]]

#: What :meth:`Database.delete` accepts: a predicate AST node, any row
#: callable, or the same row forms as :meth:`Database.insert`.
DeleteSpec = Union[Predicate, Callable[[Row], bool], Relation, Iterable[Any]]


def _coerce_rows(schema: Schema, rows: RowsLike) -> list[tuple[Any, ...]]:
    """Normalize mutation input to value tuples aligned with the table's
    schema, in the order given.

    Every tuple is built (and hashed) before the caller records anything,
    so a malformed or unhashable k-th row fails the whole batch with nothing
    applied.
    """
    names = schema.names
    tuples: list[tuple[Any, ...]]
    if isinstance(rows, Relation):
        if rows.schema.name_set != schema.name_set:
            raise SchemaError(
                f"mutation rows have attributes {rows.schema.names!r}, "
                f"table has {names!r}"
            )
        tuples = rows._tuples_as(schema)
    else:
        try:
            candidates = iter(rows)
        except TypeError:
            raise ReproError(
                f"cannot interpret {rows!r} as rows; pass a Relation or an "
                "iterable of Rows, mappings or value tuples"
            ) from None
        tuples = [_coerce_row(names, row) for row in candidates]
    return Relation._from_block(schema, tuples).aligned_tuples()


def _refuse_nan(method: str, schema: Schema, columns: Iterable[Iterable[Any]]) -> None:
    """Raise :class:`RelationError`, naming ``method`` and the attribute,
    for the first float NaN among ``columns`` (one iterable of values per
    attribute: an edit's rows transposed, or a table's dictionaries)."""
    for name, values in zip(schema.names, columns):
        if any(isinstance(value, float) and math.isnan(value) for value in values):
            raise RelationError(
                f"{method}: {name!r} holds a NaN; a NaN equals no value, itself "
                "included, so a set cannot hold it"
            )


def _refuse_nan_table(method: str, relation: Any) -> None:
    """:func:`_refuse_nan` over a relation's dictionaries, from its encoding
    (which its statistics read next): no tuple is visited.  A non-relation
    is left to the catalog's own refusal."""
    if isinstance(relation, Relation):
        dictionaries = (column.dictionary for column in relation.encoded_columns())
        _refuse_nan(method, relation.schema, dictionaries)


def _coerce_row(names: tuple[str, ...], row: Any) -> tuple[Any, ...]:
    if isinstance(row, Row):
        return row.values_for(names)
    if isinstance(row, Mapping):
        missing = [name for name in names if name not in row]
        if missing:
            raise SchemaError(f"mutation row {row!r} misses attributes {missing!r}")
        unknown = [name for name in row if name not in names]
        if unknown:
            raise SchemaError(
                f"mutation row {row!r} names attributes {unknown!r} the table lacks; "
                f"schema {names!r}"
            )
        return tuple(row[name] for name in names)
    if isinstance(row, (tuple, list)):
        if len(row) != len(names):
            raise SchemaError(
                f"mutation tuple {row!r} has {len(row)} values, "
                f"schema {names!r} needs {len(names)}"
            )
        return tuple(row)
    raise ReproError(
        f"cannot interpret {row!r} as a row; pass a Row, a mapping, "
        "or a value tuple aligned with the schema"
    )


#: Per-table version counters an entry was built against, sorted by name.
_TableVersions = tuple[tuple[str, int], ...]

_Entry = TypeVar("_Entry")


@dataclass(frozen=True)
class PreparedPlan:
    """One cached unit: everything derivable from a canonical expression."""

    fingerprint: str
    canonical: Expression
    rewrite_report: RewriteReport
    #: Estimated prices of the canonical and the rewritten expression's
    #: plans (:meth:`Optimizer.cost`).
    original_cost: float
    rewritten_cost: float
    plan: PhysicalOperator
    #: The table versions the plan was built against.  A lookup whose
    #: current versions differ sees a stale entry: the plan embedded the
    #: old relation contents at build time.
    table_versions: _TableVersions = ()
    #: The full plan-cache key (fingerprint + optimizer configuration).
    cache_key: str = ""

    @property
    def rewritten(self) -> Expression:
        return self.rewrite_report.result

    @property
    def rules_fired(self) -> list[str]:
        return self.rewrite_report.rules_fired


class _VersionedLRU(Generic[_Entry]):
    """A small LRU with hit/miss/invalidation counters whose entries carry
    the table versions they were built against; ``maxsize=0`` disables it.

    The plan cache keeps :class:`PreparedPlan` s, the result cache whole
    :class:`QueryResult` s: a plan pins the relations its scans read, a
    result is exact only at the versions it ran against.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._entries: "OrderedDict[str, tuple[_TableVersions, _Entry]]" = OrderedDict()

    def lookup(self, key: str, table_versions: _TableVersions) -> Optional[_Entry]:
        """Version-checked lookup: an entry built against other table
        versions is *stale* — it is evicted, counted as an invalidation,
        and the lookup misses."""
        entry = self._entries.get(key)
        if entry is not None and entry[0] == table_versions:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]
        self.misses += 1
        if entry is not None:
            del self._entries[key]
            self.invalidations += 1
        return None

    def sweep(self, table: str, version: int) -> None:
        """Evict every entry built against another version of ``table`` —
        no lookup can serve it again, and a plan pins that version's whole
        relation value through its scans — and count it as an invalidation
        (once: :meth:`lookup` can no longer find it)."""
        stale = [
            key
            for key, (built, _value) in self._entries.items()
            if any(name == table and seen != version for name, seen in built)
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)

    def put(self, key: str, table_versions: _TableVersions, value: _Entry) -> None:
        if self.maxsize == 0:
            return
        self._entries[key] = (table_versions, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)


def _require(ok: bool, name: str, rule: str, value: Any) -> None:
    """Refuse an argument by name: a :class:`ReproError` unless ``ok``."""
    if not ok:
        raise ReproError(f"{name} must be {rule}, got {value!r}")


def _check_options(
    batch_size: Optional[int],
    cache_size: int,
    result_cache_size: int,
    memory_budget_mb: Optional[float],
) -> None:
    """Reject a malformed session option by name, before anything is built."""

    def number(value: Any, kind: type) -> bool:
        return isinstance(value, kind) and not isinstance(value, bool)

    _require(
        batch_size is None or (number(batch_size, numbers.Integral) and batch_size >= 1),
        "batch_size",
        "an int >= 1 (batch size must be positive)",
        batch_size,
    )
    for name, size in (("cache_size", cache_size), ("result_cache_size", result_cache_size)):
        _require(number(size, numbers.Integral) and size >= 0, name, "an int >= 0", size)
    _require(
        memory_budget_mb is None
        or (
            number(memory_budget_mb, numbers.Real)
            and math.isfinite(memory_budget_mb)
            and memory_budget_mb > 0
        ),
        "memory_budget_mb",
        "a finite number > 0",
        memory_budget_mb,
    )


class Database:
    """A session over a catalog: SQL, fluent algebra, one execution engine.

    Parameters
    ----------
    source:
        A :class:`Catalog`, a plain ``name → Relation`` mapping, a
        zero-argument callable returning either (e.g. the workload
        generators ``textbook_catalog`` / ``generate_catalog``), or ``None``
        for an empty catalog to be populated via :meth:`add_table`.
    planner_options:
        Physical algorithm choices for the logical→physical mapping.
    recognize_division:
        Default for the SQL frontend's universal-quantification recognizer.
    cache_size:
        Maximum number of prepared plans kept (LRU); 0 disables the cache.
    result_cache_size:
        Maximum number of whole :class:`QueryResult` objects kept, keyed
        by (canonical fingerprint + configuration, input table versions);
        a table mutation bumps the version so stale entries can never be
        served.  0 disables result caching.
    batch_size:
        Chunk size used by the physical executor for every query this
        session runs.  Unset, operators that produce tuples emit chunks of
        :data:`~repro.physical.base.DEFAULT_BATCH_SIZE` and a scan hands
        up its whole block as one chunk (a stored scan: one stored block);
        set, it bounds the scans' chunks too.  Results and per-operator
        tuple counts are independent of it.
    memory_budget_mb:
        Memory budget (in MB) for an operator's input.  A division, natural
        join or grouped aggregation whose partitioned input is estimated
        above it is planned behind a hash-partition exchange, split into
        enough partitions for each to fit (at least 2); the partitions run
        one after another, and once the exchange's buffered partitions
        outgrow the budget the largest ones are spilled to disk in the
        columnar block format and re-streamed.  Results and per-operator
        tuple counts are identical with or without it.
    faults:
        A :class:`~repro.faults.FaultPlan` to install process-wide for
        deterministic fault injection (testing/chaos runs only): the
        registered fault points in the storage and spill layers consult
        it and raise/delay/corrupt according to the plan's seeded
        streams.  ``None`` leaves the current plan (possibly armed via the
        ``REPRO_FAULTS`` environment variable) untouched.
    workers:
        Accepted and without effect: ``bench/`` reads it; the [benchmark]
        PR (ROADMAP item 1) deletes it.

    Every option is checked before anything is built; a malformed one
    raises a :class:`ReproError` that names it.
    """

    #: Always ``False``: there is one rewriter.  ``bench/`` reads it; the
    #: [benchmark] PR (ROADMAP item 1) deletes it.
    cost_based = False

    #: Always 1: plans run in this process.  ``bench/`` reads it; the
    #: [benchmark] PR (ROADMAP item 1) deletes it.
    workers = 1

    def __init__(
        self,
        source: DatabaseSource = None,
        *,
        planner_options: Optional[PlannerOptions] = None,
        allow_data_inspection: bool = True,
        recognize_division: bool = True,
        cache_size: int = 128,
        result_cache_size: int = 64,
        batch_size: Optional[int] = None,
        workers: Optional[int] = None,
        memory_budget_mb: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        _check_options(batch_size, cache_size, result_cache_size, memory_budget_mb)
        if faults is not None:
            if not isinstance(faults, FaultPlan):
                raise ReproError(
                    f"faults must be a FaultPlan, got {type(faults).__name__}"
                )
            fault_registry.install_plan(faults)
        self.batch_size = batch_size
        self.memory_budget_mb = memory_budget_mb
        stored_versions: dict[str, int] = {}
        stored_views: list[dict[str, Any]] = []
        if isinstance(source, (str, os.PathLike)):
            from repro.storage.store import load_store

            self.catalog, stored_versions, stored_views = load_store(source)
        else:
            self.catalog = _coerce_catalog(source)
        self.planner_options = planner_options or PlannerOptions()
        self.recognize_division = recognize_division
        self.allow_data_inspection = allow_data_inspection
        self._optimizer = Optimizer(
            self.catalog,
            planner_options=self.planner_options,
            allow_data_inspection=allow_data_inspection,
            memory_budget_mb=memory_budget_mb,
        )
        self._configuration = optimizer_signature(
            self.cost_based, self.planner_options, allow_data_inspection
        )
        self._cache: _VersionedLRU[PreparedPlan] = _VersionedLRU(cache_size)
        self._result_cache: _VersionedLRU[QueryResult] = _VersionedLRU(result_cache_size)
        #: Monotonically increasing per-table version counters.  The
        #: Optimizer constructor above snapshotted statistics from the
        #: catalog, so every table's statistics are fresh at its current
        #: version right now.
        self._versions: dict[str, int] = {
            name: stored_versions.get(name, 0) for name in self.catalog
        }
        self._stats_versions: dict[str, int] = dict(self._versions)
        self._views: "dict[str, MaintainedView]" = {}
        if stored_views:
            from repro.views.persist import view_from_payload

            for payload in stored_views:
                view_from_payload(self, payload)

    # ------------------------------------------------------------------
    # query entry points
    # ------------------------------------------------------------------
    def sql(self, text: str, recognize_division: Optional[bool] = None) -> Query:
        """A lazy query from SQL text (translated on first use).  Both
        arguments are checked here, not when the query first runs."""
        _require(isinstance(text, str), "text", "a str of SQL", text)
        _require(
            recognize_division is None or isinstance(recognize_division, bool),
            "recognize_division",
            "a bool or None",
            recognize_division,
        )
        recognize = (
            self.recognize_division if recognize_division is None else recognize_division
        )
        return Query(self, sql=text, recognize_division=recognize)

    def table(self, name: str) -> Query:
        """A fluent query rooted at a catalog table."""
        return Query(self, expression=self.catalog.ref(name))

    def query(self, expression: Expression) -> Query:
        """Wrap an already-built logical expression as a query."""
        return Query(self, expression=expression)

    def execute(self, query: Union[Query, Expression, str]) -> QueryResult:
        """Run SQL text, a query or an expression in one call."""
        return self._as_query(query).run()

    def explain(
        self,
        query: Union[Query, Expression, str],
        analyze: bool = False,
        verify: bool = False,
    ) -> str:
        """Explain SQL text, a query or an expression in one call.

        ``verify=True`` adds the static verifier's status line and findings.
        """
        return self._as_query(query).explain(analyze=analyze, verify=verify)

    def verify(self, query: Union[Query, Expression, str]) -> "VerificationReport":
        """Statically verify the prepared plan for SQL text, a query or an
        expression; returns a
        :class:`~repro.analysis.findings.VerificationReport`."""
        return self._as_query(query).verify()

    def prepare(self, query: Union[Query, Expression, str]) -> Query:
        """Rewrite + plan now; the returned query's ``run()`` is a cache hit."""
        return self._as_query(query).prepare()

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------
    def add_table(self, name: str, relation: Relation, key=None) -> Query:
        """Register a relation; statistics and cached plans are refreshed.
        A relation holding a float NaN is refused, as :meth:`insert`
        refuses one."""
        _refuse_nan_table("add_table", relation)
        self.catalog.add_table(name, relation, key=key)
        self._versions.setdefault(name, 0)
        self._refresh(name)
        return self.table(name)

    def replace_table(self, name: str, relation: Relation) -> None:
        """Swap a table's contents (same schema); bumps the table version,
        routes the effective delta to maintained views, and invalidates
        cached plans.  A relation holding a float NaN is refused, as
        :meth:`insert` refuses one."""
        _refuse_nan_table("replace_table", relation)
        old = self.relation(name)
        self.catalog.replace_table(name, relation)
        schema = old.schema
        before, after = old.aligned_tuples(), relation._tuples_as(schema)
        old_values, new_values = set(before), set(after)
        self._note_mutation(
            name,
            Relation._from_block(schema, [v for v in after if v not in old_values]),
            Relation._from_block(schema, [v for v in before if v not in new_values]),
        )
        self._refresh(name)

    # ------------------------------------------------------------------
    # mutations (O(delta), version-counted)
    # ------------------------------------------------------------------
    def insert(self, table: str, rows: "RowsLike") -> MutationResult:
        """Insert rows into a table (set semantics: duplicates are no-ops).

        O(delta): the catalog records the effective rows beside the
        table's immutable relation value and the next *read* of the table
        folds them in (:meth:`Catalog.apply_delta`); the version counter
        bumps only when the delta is non-empty, and every maintained view
        over the table incorporates the delta through its counter table.
        A malformed row, one holding a float NaN (:class:`RelationError`
        naming the attribute: a NaN equals nothing, itself included, so no
        set can tell whether it holds it, and it leaves a column's minimum
        and maximum to the order its values come in), or one that would
        break a declared key fails the whole batch with nothing changed.
        """
        schema = self.catalog.schema(table)
        tuples = _coerce_rows(schema, rows)
        _refuse_nan("insert", schema, zip(*tuples))
        delta = self.catalog.apply_delta(table, tuples, ())
        return self._note_edit(table, schema, *delta)

    def delete(self, table: str, rows_or_predicate: "DeleteSpec") -> MutationResult:
        """Delete rows from a table, by predicate/callable or by value.

        ``rows_or_predicate`` may be a predicate AST node, any row
        callable, or the same row forms :meth:`insert` accepts; rows not
        currently present are no-ops (set semantics).  By value the edit
        is O(delta) like :meth:`insert`; a predicate runs as the engine's
        ``Filter`` over the (folded) table's scan, which is O(table) by
        nature: an AST predicate reads the codes and builds no ``Row``,
        an opaque callable gets one per tuple (its API takes a ``Row``).
        """
        schema = self.catalog.schema(table)
        spec = rows_or_predicate
        doomed: list[tuple[Any, ...]]
        if isinstance(spec, Predicate) or (callable(spec) and not isinstance(spec, Relation)):
            ref = self.catalog.ref(table)
            if isinstance(spec, Predicate):
                plan = self._optimizer.plan(Select(ref, spec))
            else:
                plan = Filter(self._optimizer.plan(ref), spec)
            doomed = plan.execute().aligned_tuples()
        else:
            doomed = _coerce_rows(schema, spec)
        delta = self.catalog.apply_delta(table, (), doomed)
        return self._note_edit(table, schema, *delta)

    def _note_edit(
        self,
        table: str,
        schema: Schema,
        inserted: list[tuple[Any, ...]],
        deleted: list[tuple[Any, ...]],
    ) -> MutationResult:
        """Wrap an edit's effective value tuples (aligned with the table's
        schema, so held as they are); bump the version, notify views."""
        added = Relation._from_block(schema, inserted)
        removed = Relation._from_block(schema, deleted)
        version = self._note_mutation(table, added, removed)
        return MutationResult(table=table, inserted=added, deleted=removed, version=version)

    def table_version(self, name: str) -> int:
        """The table's current version counter (0 = never mutated)."""
        if name not in self.catalog:
            raise SchemaError(f"table {name!r} is not defined")
        return self._versions.get(name, 0)

    @property
    def versions(self) -> dict[str, int]:
        """A snapshot of every table's version counter."""
        return {name: self._versions.get(name, 0) for name in self.catalog}

    def _note_mutation(self, name: str, inserted: Relation, deleted: Relation) -> int:
        """Bump the version and notify views; empty deltas change nothing."""
        if not len(inserted) and not len(deleted):
            return self._versions.get(name, 0)
        version = self._versions.get(name, 0) + 1
        self._versions[name] = version
        for view in self._views.values():
            view.on_mutation(name, inserted, deleted, version)
        return version

    # ------------------------------------------------------------------
    # maintained views
    # ------------------------------------------------------------------
    def create_view(
        self, name: str, query: Union[Query, Expression, str]
    ) -> "MaintainedView":
        """Register a division query as a (delta-maintained) view.

        When :func:`repro.views.shapes.analyze_division` finds the query's
        shape (a division over base tables under selections and renames,
        its select list in any column order), subsequent mutations of the
        base tables update the view's counter table in O(delta) and reads
        answer from it; otherwise a read runs the query like
        :meth:`Query.run`, through the session's result cache
        (``view.explain()`` reports which).  Views over views are rejected
        (RP604) — maintain the base-table view directly instead.
        """
        from repro.views.view import MaintainedView

        if name in self._views:
            raise ViewError(f"view {name!r} already exists")
        if name in self.catalog:
            raise ViewError(f"{name!r} is a table; view names must not shadow tables")
        bound = self._as_query(query)
        over_views = sorted(bound.expression.relation_names() & self._views.keys())
        if over_views:
            raise ViewError(
                f"view {name!r} references view(s) {over_views!r}; views over "
                "views are not maintainable (RP604) — define it over the base tables"
            )
        view = MaintainedView(name, self, bound)
        self._views[name] = view
        return view

    def view(self, name: str) -> "MaintainedView":
        """Look up a registered view."""
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(f"view {name!r} is not defined") from None

    @property
    def views(self) -> tuple[str, ...]:
        """Names of the registered views, in creation order."""
        return tuple(self._views)

    def drop_view(self, name: str) -> None:
        """Unregister a view (its counter table is discarded)."""
        if name not in self._views:
            raise ViewError(f"view {name!r} is not defined")
        del self._views[name]

    def verify_view(self, name: str) -> "VerificationReport":
        """Check a registered view's RP601–RP604 invariants."""
        from repro.analysis.view_verifier import verify_view

        return verify_view(self.view(name), self)

    def relation(self, name: str) -> Relation:
        """The current contents of a table."""
        try:
            return self.catalog[name]
        except KeyError:
            raise SchemaError(f"table {name!r} is not defined") from None

    @property
    def tables(self) -> tuple[str, ...]:
        """Names of the registered tables."""
        return tuple(self.catalog)

    def analyze(self, *names: str) -> AnalyzeReport:
        """Recollect table statistics from the session's current relations.

        The ``ANALYZE`` path: refreshes cardinality, per-attribute distinct
        counts, min/max and top frequencies for the given tables (default:
        all of them) and drops cached plans, whose prices and exchange
        partitions came from the old statistics.  Unknown names raise
        :class:`SchemaError` (from the statistics layer), listing the known
        tables.
        """
        gathered = self._optimizer.analyze(list(names) or None)
        for name in gathered:
            self._stats_versions[name] = self._versions.get(name, 0)
        # New statistics move plan prices and exchange partitions without any
        # version movement; cached results carry the old prices, so drop
        # them too.
        self._cache.clear()
        self._result_cache.clear()
        return AnalyzeReport(tables=gathered)

    def save(self, path: Union[str, "os.PathLike[str]"], *, block_size: Optional[int] = None) -> str:
        """Persist every table to ``path`` in the columnar block format.

        Writes one block file per table (fixed-size blocks with per-column
        dictionary pages and per-block min/max zone maps) plus a manifest
        carrying the declared keys, so ``repro.connect(path)`` reopens the
        same catalog lazily — tables stream from disk on demand and
        ``analyze()`` reads the save-time statistics without touching the
        blocks.  Returns the store directory path.

        Mutated tables are already materialized relations, so unflushed
        mutations persist naturally; table versions and registered views
        go into the manifest so ``repro.connect(path)`` restores both.
        Fallback (non-maintained) views have no counter-table form and
        make the save **fail loudly** — drop them first or recreate them
        after reopening.
        """
        from repro.storage.store import save_database
        from repro.views.persist import view_payload

        views = [view_payload(view) for view in self._views.values()]
        extra: dict[str, Any] = {
            "table_versions": dict(self._versions),
            "views": views,
        }
        if block_size is None:
            save_database(path, self.catalog, **extra)
        else:
            save_database(path, self.catalog, block_size=block_size, **extra)
        return os.fspath(path)

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the prepared-plan and result caches.

        ``invalidations`` counts stale plans evicted — plans built against
        a table version that has since moved — each once, whichever found
        it: the sweep at the first query after the edit, or a lookup.
        """
        plans = self._cache
        return CacheInfo(
            hits=plans.hits,
            misses=plans.misses,
            size=len(plans),
            maxsize=plans.maxsize,
            invalidations=plans.invalidations,
            result_hits=self._result_cache.hits,
            result_misses=self._result_cache.misses,
            result_size=len(self._result_cache),
            result_maxsize=self._result_cache.maxsize,
        )

    def clear_cache(self) -> None:
        """Drop all prepared plans and cached results; reset the counters."""
        self._cache.clear()
        self._result_cache.clear()

    # ------------------------------------------------------------------
    # the single execution path (internal; Query delegates here)
    # ------------------------------------------------------------------
    def _translate(self, sql: str, recognize_division: bool) -> Expression:
        return SQLTranslator(self.catalog, recognize_division=recognize_division).translate(sql)

    def _prepare(self, expression: Expression) -> tuple[PreparedPlan, bool]:
        """Prepared plan for ``expression``; (plan, came_from_cache).

        Version-checked: the plan records the versions of its input tables,
        and a lookup after any of them mutated evicts the stale entry and
        replans — the physical scans pin relation contents at build time,
        so a stale plan would serve pre-mutation rows.  Statistics for the
        referenced tables are refreshed first if their versions moved
        (``analyze`` is lazy under mutations).
        """
        canonical = expression.canonical()
        names = sorted(canonical.relation_names() & set(self.catalog))
        self._refresh_stale_statistics(names)
        versions = tuple((name, self._versions.get(name, 0)) for name in names)
        key = plan_cache_key(canonical, self._configuration, assume_canonical=True)
        cached = self._cache.lookup(key, versions)
        if cached is not None:
            return cached, True
        optimizer = self._optimizer
        rewrite_report = optimizer.rewrite(canonical)
        plan = optimizer.plan(rewrite_report.result)
        rewritten_cost = optimizer.cost(rewrite_report.result, plan)
        prepared = PreparedPlan(
            fingerprint=key.split(":", 1)[0],
            canonical=canonical,
            rewrite_report=rewrite_report,
            # Pricing the expression as written plans it a second time,
            # which only a fired rule makes necessary.
            original_cost=optimizer.cost(canonical) if rewrite_report.applied else rewritten_cost,
            rewritten_cost=rewritten_cost,
            plan=plan,
            table_versions=versions,
            cache_key=key,
        )
        self._cache.put(key, versions, prepared)
        return prepared, False

    def _refresh_stale_statistics(self, names: Iterable[str]) -> None:
        """Catch up with tables whose version moved past the statistics
        snapshot (mutations defer this work to prepare time): recollect
        the statistics, and sweep out what the caches still hold of the
        table's other versions — plans that pin a dead relation value,
        results no key can reach."""
        for name in names:
            if name not in self.catalog:
                continue
            version = self._versions.get(name, 0)
            if self._stats_versions.get(name) != version:
                self._optimizer.statistics.add(
                    name, TableStatistics.from_relation(self.catalog[name])
                )
                self._stats_versions[name] = version
                self._cache.sweep(name, version)
                self._result_cache.sweep(name, version)

    def _run(self, query: Query) -> QueryResult:
        """Answer ``query`` in its own column order: the plan and the cached
        result are the canonical tree's, which texts differing only in
        column order share."""
        expression = query.expression
        names = expression.schema.names
        prepared, cache_hit = self._prepare(expression)
        versions = prepared.table_versions
        cached = self._result_cache.lookup(prepared.cache_key, versions)
        if cached is not None:
            # The versions were verified current by _prepare, so the cached
            # relation is exact; no physical execution happens.
            # ``cache_hit`` reflects *this* call's plan lookup, not the
            # snapshot taken when the entry was first executed.
            return replace(
                cached,
                relation=_in_order(cached.relation, names),
                expression=expression,
                cache_hit=cache_hit,
                result_cache_hit=True,
            )
        execution = execute_plan(
            prepared.plan, batch_size=self.batch_size, memory_budget_mb=self.memory_budget_mb
        )
        result = QueryResult(
            relation=_in_order(execution.relation, names),
            expression=expression,
            rewritten=prepared.rewritten,
            rules_fired=tuple(prepared.rules_fired),
            statistics=execution.statistics,
            fingerprint=prepared.fingerprint,
            cache_hit=cache_hit,
            estimated_cost_before=prepared.original_cost,
            estimated_cost_after=prepared.rewritten_cost,
        )
        self._result_cache.put(prepared.cache_key, versions, result)
        return result

    def _as_query(self, query: Union[Query, Expression, str]) -> Query:
        if isinstance(query, Query):
            if query.database is not self:
                raise ReproError("this query is bound to a different database session")
            return query
        if isinstance(query, Expression):
            return self.query(query)
        if isinstance(query, str):
            return self.sql(query)
        raise ReproError(f"cannot interpret {query!r} as a query")

    def _refresh(self, name: str) -> None:
        """Refresh statistics-derived state after one table changed.

        The optimizer's rewriter context and planner read the catalog live,
        so only the changed table's statistics need recomputing (the
        :class:`StatisticsCatalog` is shared with the cost model); cached
        plans may embed stale rewrite decisions and are dropped wholesale.
        """
        self._optimizer.statistics.add(name, TableStatistics.from_relation(self.catalog[name]))
        self._stats_versions[name] = self._versions.get(name, 0)
        # Catalog-level swaps can change layout (clustering) without moving
        # the version counter, so version-keyed entries cannot be trusted:
        # drop results along with the plans.
        self._cache.clear()
        self._result_cache.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def optimizer(self) -> Optimizer:
        """The underlying optimizer (advanced use)."""
        return self._optimizer

    def __repr__(self) -> str:
        info = self.cache_info()
        return (
            f"<Database tables={list(self.tables)!r} "
            f"cache={info.size}/{info.maxsize} (hits={info.hits}, misses={info.misses})>"
        )


def connect(source: DatabaseSource = None, **options) -> Database:
    """Open a session: ``repro.connect(textbook_catalog)`` and go.

    ``source`` may be a :class:`Catalog`, a plain ``name → Relation``
    mapping, a zero-argument callable returning either (a workload
    generator), the path of a store directory written by
    :meth:`Database.save` (tables then open *lazily* and stream their
    blocks from disk), or ``None`` for an empty session.  Keyword options
    are forwarded to :class:`Database` — e.g.
    ``repro.connect(textbook_catalog, batch_size=4096)`` sets the executor
    chunk size for every query of the session (scans included, which
    otherwise hand up whole blocks),
    ``repro.connect(path, memory_budget_mb=64)`` plans operators whose
    input is estimated above the budget behind an exchange that runs its
    partitions one after another and spills them to disk, and
    ``repro.connect(path, faults=FaultPlan.parse("storage.block_read:corrupt"))``
    arms deterministic fault injection for chaos testing (also available
    without code changes via the ``REPRO_FAULTS`` environment variable).
    Every option is checked first: a malformed one raises a
    :class:`ReproError` that names it.
    """
    return Database(source, **options)


def _in_order(relation: Relation, names: tuple[str, ...]) -> Relation:
    """``relation`` with its columns in ``names`` order: itself when they
    already are, else its code columns permuted (no copy) or its tuples
    picked into a new block."""
    schema = relation.schema
    if schema.names == names:
        return relation
    target = Schema.interned(names)
    columns = relation.code_columns
    if columns is not None:
        return Relation._from_columns(target, tuple(columns[i] for i in schema.picker(target)))
    get = schema.tuple_getter(target)
    return Relation._from_block(target, [get(values) for values in relation.aligned_tuples()])


def _coerce_catalog(source: DatabaseSource) -> Catalog:
    if source is None:
        return Catalog()
    if isinstance(source, Catalog):
        return source
    if isinstance(source, (str, os.PathLike)):
        from repro.storage.store import load_catalog

        return load_catalog(source)
    if callable(source):
        produced = source()
        if isinstance(produced, Catalog):
            for name in produced:
                _refuse_nan_table("connect", produced[name])
            return produced
        if isinstance(produced, Mapping):
            return _coerce_catalog(produced)
        raise ReproError(
            f"workload generator {source!r} returned {type(produced).__name__}; "
            "expected a Catalog or a name → Relation mapping"
        )
    if isinstance(source, Mapping):
        catalog = Catalog()
        for name, relation in source.items():
            if not isinstance(relation, Relation):
                raise ReproError(
                    f"table {name!r} is a {type(relation).__name__}, expected a Relation"
                )
            _refuse_nan_table("connect", relation)
            catalog.add_table(name, relation)
        return catalog
    raise ReproError(
        f"cannot build a Database from {type(source).__name__}; "
        "pass a Catalog, a name → Relation mapping, or a generator callable"
    )
