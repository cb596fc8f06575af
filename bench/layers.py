"""Per-layer metrics: the entry points they time and the replay that times them.

``LAYER_METRICS`` is the one table mapping every per-layer metric to the
dotted public entry point it measures.  The end-to-end run takes only
:func:`resolve` from this module; the traced run does the rest.  For every
operation it *replays* the same SQL
text through the layers' public functions, one span per call, because the
front door offers no seam between parse, rewrite, plan and execute.

An entry point that no longer imports makes its metrics ``null`` (with one
warning) and the replay skips that step; any other replay failure disables
the replay with a warning.  Neither can fail the end-to-end run, so engine
refactors cannot brick the benchmark.
"""

from __future__ import annotations

import collections
import importlib
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from bench.trace import Tracer

__all__ = ["LAYER_METRICS", "LayerMetric", "Replay", "resolve"]

#: Layers in pipeline order (modules under ``src/repro``) and the replay span
#: names whose time makes up each layer's share.  Sibling steps only:
#: ``physical.execute`` is split into scan/decode/materialize/operators and
#: ``optimizer.plan`` is kept net of ``physical.compile``.
COMPONENTS: dict[str, tuple[str, ...]] = {
    "sql": ("sql.parse", "sql.translate"),
    "algebra": ("algebra.canonical", "algebra.fingerprint"),
    "optimizer": ("optimizer.stats_refresh", "optimizer.rewrite", "optimizer.cost", "optimizer.plan"),
    "physical": ("physical.compile", "physical.scan", "physical.materialize", "physical.operators"),
    "parallel": ("parallel.operators",),
    "storage": ("storage.decode", "storage.save", "storage.open"),
    "views": ("views.read", "views.delta"),
    "relation": ("relation.build", "relation.set_op"),
    "api": ("api.edit_rest",),
}

_DB = "repro.api.database:Database"
_OPT = "repro.optimizer.optimizer:Optimizer"
_REL = "repro.relation:Relation"
_STATS = "repro.physical.base:PlanStatistics"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: ``module:attribute`` the metric is measured at (dotted attribute path).
    entry: str
    meaning: str


_m = LayerMetric


#: ``*_ms`` values are mean milliseconds per operation of the workload
#: (summed time of the replayed step / operations traced), so they
#: add up to the mean operation latency; counts are exact totals over the
#: traced operations, which are a fixed number per ``--seconds``.
LAYER_METRICS: tuple[LayerMetric, ...] = (
    _m("sql.parse_ms", "ms", "lower", "repro.sql:parse", "tokenize + parse of the SQL text"),
    _m("sql.translate_ms", "ms", "lower", "repro.sql:SQLTranslator.translate", "AST to logical algebra (parse excluded)"),
    _m("sql.tokens", "count", "lower", "repro.sql:tokenize", "tokens lexed"),
    _m("sql.divisions_recognized", "count", "higher", "repro.sql:match_universal_quantification", "NOT EXISTS texts turned into a divide"),
    _m("algebra.canonical_ms", "ms", "lower", "repro.algebra.expressions:Expression.canonical", "canonicalization"),
    _m("algebra.fingerprint_ms", "ms", "lower", "repro.api.fingerprint:plan_cache_key", "fingerprint + plan-cache key"),
    _m("algebra.nodes_in", "count", "lower", "repro.algebra.expressions:Expression.size", "expression nodes as translated"),
    _m("algebra.nodes_out", "count", "lower", "repro.algebra.expressions:Expression.size", "expression nodes after canonicalization"),
    _m("optimizer.rewrite_ms", "ms", "lower", f"{_OPT}.rewrite", "law-driven rewrite (conditions may inspect data)"),
    _m("laws.rules_fired", "count", "higher", f"{_OPT}.rewrite", "rewrite laws applied"),
    _m("optimizer.cost_ms", "ms", "lower", f"{_OPT}.cost_report", "logical cost reports (before + after)"),
    _m("optimizer.plan_ms", "ms", "lower", f"{_OPT}.plan", "physical planning, compilation excluded"),
    _m("optimizer.stats_refresh_ms", "ms", "lower", "repro.optimizer.statistics:TableStatistics.from_relation", "statistics recollected after an edit"),
    _m("optimizer.alternatives_priced", "count", "lower", f"{_OPT}.planner_decisions", "algorithm alternatives priced"),
    _m("optimizer.parallel_plans_chosen", "count", "higher", f"{_OPT}.plan", "replayed plans containing an exchange operator"),
    _m("physical.compile_ms", "ms", "lower", "repro.physical:compile_plan", "segment compilation of the plan"),
    _m("physical.compiled_segments", "count", "higher", "repro.physical:compile_plan", "segments compiled"),
    _m("physical.code_cache_hits", "count", "higher", "repro.physical.compile.segments:code_cache_size", "compiled segments served by the code cache"),
    _m("physical.execute_ms", "ms", "lower", "repro.physical:execute_plan", "plan execution, whole"),
    _m("physical.scan_ms", "ms", "lower", "repro.physical.base:PhysicalOperator.chunks", "in-memory leaf scans drained alone"),
    _m("physical.materialize_ms", "ms", "lower", f"{_REL}.from_aligned", "result tuples to Relation"),
    _m("physical.operators_ms", "ms", "lower", "repro.physical:execute_plan", "execute - scan - decode - materialize (serial plans)"),
    _m("physical.tuples_total", "tuples", "lower", f"{_STATS}.total_tuples", "tuples emitted by all operators"),
    _m("physical.max_intermediate", "tuples", "lower", f"{_STATS}.max_intermediate", "largest intermediate result (the paper's metric)"),
    _m("physical.tuples_per_result", "ratio", "lower", f"{_STATS}.total_tuples", "tuples emitted / result rows"),
    _m("parallel.worker_s", "s", "lower", f"{_STATS}.worker_seconds", "wall seconds inside the worker pool"),
    _m("parallel.coordinator_ms", "ms", "lower", "repro.physical:execute_plan", "operators time of parallel plans minus pool time"),
    _m("parallel.partition_skew", "ratio", "lower", "repro.physical.parallel:PartitionedOperator", "largest / mean partition input"),
    _m("parallel.tasks", "count", "lower", "repro.physical.parallel:PartitionedOperator", "partition tasks run"),
    _m("parallel.tasks_retried", "count", "lower", f"{_STATS}.tasks_retried", "tasks resubmitted"),
    _m("parallel.tasks_degraded", "count", "lower", f"{_STATS}.tasks_degraded", "tasks that fell back inline"),
    _m("parallel.spilled_tuples", "tuples", "lower", "repro.physical.parallel:PartitionedOperator", "tuples spilled by exchanges"),
    _m("storage.save_ms", "ms", "lower", f"{_DB}.save", "db.save to a fresh directory"),
    _m("storage.open_ms", "ms", "lower", "repro:connect", "connect(path) + cold-load part of its first query"),
    _m("storage.decode_ms", "ms", "lower", "repro.storage.scan:StoredScan", "StoredScan leaves drained alone"),
    _m("storage.blocks_read", "count", "lower", "repro.storage.scan:StoredScan", "blocks decoded"),
    _m("storage.blocks_skipped", "count", "higher", "repro.storage.scan:StoredScan", "blocks skipped by zone maps"),
    _m("storage.skip_ratio", "ratio", "higher", "repro.storage.scan:StoredScan", "skipped / (read + skipped)"),
    _m("storage.bytes_written", "B", "lower", f"{_DB}.save", "bytes on disk written by saves"),
    _m("storage.bytes_per_tuple", "B", "lower", f"{_DB}.save", "bytes on disk / tuples stored"),
    _m("storage.save_ms_p50", "ms", "lower", f"{_DB}.save", "median latency of one save"),
    _m("storage.open_first_query_ms_p50", "ms", "lower", "repro:connect", "median connect(path) + first query"),
    _m("views.delta_ms", "ms", "lower", "repro.views.view:MaintainedView.on_mutation", "edit latency minus the same edit on a view-less twin"),
    _m("views.read_ms", "ms", "lower", "repro.views.view:MaintainedView.run", "view reads"),
    _m("views.read_ms_p50", "ms", "lower", "repro.views.view:MaintainedView.run", "median latency of one view read"),
    _m("views.deltas_applied", "count", "lower", "repro.views.view:MaintainedView.deltas_applied", "delta rows applied to view counters"),
    _m("views.rebuilds", "count", "lower", "repro.views.view:MaintainedView.deltas_applied", "full counter rebuilds observed"),
    _m("relation.set_op_ms", "ms", "lower", f"{_REL}.union", "the table-level set operations of an edit, timed directly"),
    _m("relation.build_ms", "ms", "lower", f"{_REL}.from_aligned", "edit rows to Relation"),
    _m("api.edit_ms_p50", "ms", "lower", f"{_DB}.insert", "median latency of one insert/delete"),
    _m("api.edit_ms_p90", "ms", "lower", f"{_DB}.insert", "p90 latency of one insert/delete"),
    _m("api.plan_cache_hit_ratio", "ratio", "higher", f"{_DB}.cache_info", "plan-cache hits / lookups"),
    _m("api.result_cache_hit_ratio", "ratio", "higher", f"{_DB}.cache_info", "result-cache hits / lookups"),
    _m("api.plan_invalidations", "count", "lower", f"{_DB}.cache_info", "plans evicted by a version bump"),
    _m("api.session_overhead_ms", "ms", "lower", f"{_DB}.sql", "operation latency minus all layer spans"),
    _m("analysis.verify_ms", "ms", "lower", "repro.api.query:Query.verify", "Query.verify() per distinct text (off the default path)"),
    _m("trace.overhead_ratio", "ratio", "lower", f"{_DB}.sql", "traced / untraced busy time of the same operations"),
    _m("trace.layer_coverage", "ratio", "higher", f"{_DB}.sql", "share of operation time covered by layer spans"),
) + tuple(
    _m(f"share.{layer}", "ratio", "lower", f"repro.{layer}" if layer != "parallel" else "repro.physical.parallel", f"share of operation time spent in {layer}")
    for layer in COMPONENTS
)  # fmt: skip


def resolve(entry: str) -> Optional[Any]:
    """Import ``module:attr.path``; ``None`` (and one warning) on failure."""
    module_name, _, path = entry.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
        for attribute in filter(None, path.split(".")):
            target = getattr(target, attribute)
    except (ImportError, AttributeError) as error:
        warnings.warn(f"bench: entry point {entry} is unavailable ({error}); its metrics are null")
        return None
    return target


def unavailable_metrics() -> set[str]:
    """Names of the per-layer metrics whose entry point does not import."""
    return {metric.name for metric in LAYER_METRICS if resolve(metric.entry) is None}


class Replay:
    """Replays traced operations through the layers' public functions.

    ``seconds[name]`` accumulates span time per layer step and
    ``counts[name]`` the exact counters; :mod:`bench.runner` turns both into
    the per-layer metrics.
    """

    _ENTRIES = {
        "tokenize": "repro.sql:tokenize",
        "parse": "repro.sql:parse",
        "translator": "repro.sql:SQLTranslator",
        "match": "repro.sql:match_universal_quantification",
        "plan_cache_key": "repro.api.fingerprint:plan_cache_key",
        "optimizer_signature": "repro.api.fingerprint:optimizer_signature",
        "table_statistics": "repro.optimizer.statistics:TableStatistics",
        "compile_plan": "repro.physical:compile_plan",
        "code_cache_size": "repro.physical.compile.segments:code_cache_size",
        "execute_plan": "repro.physical:execute_plan",
        "relation": _REL,
    }

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._entry = {key: resolve(entry) for key, entry in self._ENTRIES.items()}
        #: Set when an entry point is gone or a step raised: no more replays.
        self.broken = None in self._entry.values()
        #: text -> (database, table versions, replayed plan)
        self._plans: dict[str, tuple[Any, tuple, Any]] = {}
        self._verified: set[str] = set()
        self._stats_versions: dict[str, int] = {}
        self.last = 0.0  # seconds of the most recent timed step

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _timed(self, name: str, function: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``function`` inside a span; its time goes to ``seconds[name]``
        and ``last``."""
        with self.tracer.span(name) as span:
            value = function(*args, **kwargs)
        self.last = span.seconds
        self.seconds[name] += span.seconds
        return value

    def covered_seconds(self) -> float:
        """Operation time accounted for by layer spans so far."""
        seconds = self.seconds
        return sum(seconds[name] for names in COMPONENTS.values() for name in names)

    def guarded(self, step: Callable[..., None], *args: Any) -> None:
        """Run one replay step; a failure disables the replay, not the run."""
        if self.broken:
            return
        try:
            step(*args)
        except Exception as error:  # boundary: the benchmark must keep running
            self.broken = True
            warnings.warn(f"bench: layer replay disabled after {type(error).__name__}: {error}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, db: Any, text: str, result: Any, plan_hit: bool) -> None:
        """Replay one query: front half always, planning on a plan-cache
        miss, execution unless the result came from the result cache."""
        entry, counts = self._entry, self.counts
        counts["sql.tokens"] += len(entry["tokenize"](text)) - 1
        statement = self._timed("sql.parse", entry["parse"], text)
        translator = entry["translator"](db.catalog, recognize_division=db.recognize_division)
        expression = self._timed("sql.translate", translator.translate, statement)
        if entry["match"](statement) is not None:
            counts["sql.divisions_recognized"] += expression.contains_division()
        canonical = self._timed("algebra.canonical", expression.canonical)
        configuration = entry["optimizer_signature"](
            db.cost_based, db.planner_options, db.allow_data_inspection
        )
        self._timed(
            "algebra.fingerprint", entry["plan_cache_key"], canonical, configuration, assume_canonical=True
        )
        counts["algebra.nodes_in"] += expression.size()
        counts["algebra.nodes_out"] += canonical.size()

        versions = tuple(sorted(db.versions.items()))
        if not plan_hit:
            self._plan(db, text, canonical, versions)
        if result.result_cache_hit:
            return
        cached = self._plans.get(text)
        if cached is None or cached[0] is not db or cached[1] != versions:
            # The plan was warmed before tracing began: rebuild it off the clock.
            optimizer = db.optimizer
            self._remember(db, text, versions, optimizer.plan(optimizer.rewrite(canonical).result))
        self._execute(db, self._plans[text][2], result)

    def _remember(self, db: Any, text: str, versions: tuple, plan: Any) -> None:
        self._plans[text] = (db, versions, plan)
        self.counts["optimizer.parallel_plans_chosen"] += any(op.parallel for op in plan.walk())

    def _plan(self, db: Any, text: str, canonical: Any, versions: tuple) -> None:
        entry, counts, optimizer = self._entry, self.counts, db.optimizer
        for name, version in versions:
            relation = db.relation(name)
            # Stored tables answer statistics from their header: nothing to time.
            if self._stats_versions.setdefault(name, version) != version and type(relation) is entry["relation"]:
                self._timed("optimizer.stats_refresh", entry["table_statistics"].from_relation, relation)
                self._stats_versions[name] = version
        report = self._timed("optimizer.rewrite", optimizer.rewrite, canonical)
        counts["laws.rules_fired"] += len(report.rules_fired)
        self._timed("optimizer.cost", lambda: [optimizer.cost_report(e) for e in (canonical, report.result)])
        cached_before = entry["code_cache_size"]()
        plan = self._timed("optimizer.plan", optimizer.plan, report.result)
        self._remember(db, text, versions, plan)
        counts["optimizer.alternatives_priced"] += sum(
            len(decision.alternatives) for decision in optimizer.planner_decisions
        )
        compilation = optimizer.planner_compilation
        if compilation is not None:
            segments = compilation.segment_count
            counts["physical.compiled_segments"] += segments
            counts["physical.code_cache_hits"] += segments - (entry["code_cache_size"]() - cached_before)
            # optimizer.plan compiled already; compiling again (idempotent)
            # times the step alone so it can be taken out of plan time.
            self._timed("physical.compile", entry["compile_plan"], plan, mode=compilation.mode)
            self.seconds["optimizer.plan"] -= self.last
        if text not in self._verified:
            self._verified.add(text)
            self._timed("analysis.verify", db.sql(text).verify)

    def _execute(self, db: Any, plan: Any, result: Any) -> None:
        entry, counts, seconds = self._entry, self.counts, self.seconds
        execution = self._timed(
            "physical.execute",
            entry["execute_plan"],
            plan,
            batch_size=db.batch_size,
            workers=db.workers,
            memory_budget_mb=db.memory_budget_mb,
        )
        rest = self.last
        operators = list(plan.walk())
        parallel = [op for op in operators if op.parallel]
        for op in parallel:
            sizes = op.partition_input_sizes
            if len(sizes) > 1 and sum(sizes):
                counts["parallel.tasks"] += len(sizes)
                counts["parallel.skew_sum"] += max(sizes) * len(sizes) / sum(sizes)
                counts["parallel.skew_samples"] += 1
            counts["parallel.spilled_tuples"] += op.spill_statistics.get("spilled_tuples", 0)
        for leaf in operators:
            if leaf.children:
                continue
            stored = hasattr(leaf, "blocks_skipped")  # a StoredScan
            if stored:
                counts["storage.blocks_skipped"] += leaf.blocks_skipped
                counts["storage.blocks_read"] += leaf.blocks_total - leaf.blocks_skipped
            self._timed("storage.decode" if stored else "physical.scan", collections.deque, leaf.chunks(), 0)
            rest -= self.last
        relation = execution.relation
        self._timed(
            "physical.materialize", entry["relation"].from_aligned, relation.schema, relation.aligned_tuples()
        )
        # Whatever execution took beyond its leaves and the final Relation is
        # the operators' own time: the exchange's when the plan has one.
        rest = max(0.0, rest - self.last)
        seconds["parallel.operators" if parallel else "physical.operators"] += rest

        statistics = result.statistics  # the real execution, not the replay
        counts["physical.tuples_total"] += statistics.total_tuples
        counts["physical.result_rows"] += len(result.relation)
        counts["physical.max_intermediate"] = max(counts["physical.max_intermediate"], statistics.max_intermediate)
        counts["parallel.worker_s"] += statistics.worker_seconds
        counts["parallel.tasks_retried"] += statistics.tasks_retried
        counts["parallel.tasks_degraded"] += statistics.tasks_degraded
        if parallel:
            seconds["parallel.worker"] += min(rest, execution.statistics.worker_seconds)

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def edit(self, twin: Any, kind: str, table: str, rows: tuple, edit_seconds: float) -> None:
        """Apply the same edit to the view-less twin and time its parts."""
        before = twin.relation(table)
        with self.tracer.span("api.edit_twin") as span:
            getattr(twin, kind)(table, rows)
        twin_seconds = span.seconds
        self.seconds["views.delta"] += max(0.0, edit_seconds - twin_seconds)
        delta = self._timed("relation.build", self._entry["relation"].from_aligned, before.schema, rows)
        rest = twin_seconds - self.last
        if kind == "insert":
            self._timed("relation.set_op", lambda: before.union(delta.difference(before)))
        else:
            self._timed("relation.set_op", lambda: before.difference(before.intersection(delta)))
        self.seconds["api.edit_rest"] += max(0.0, rest - self.last)
