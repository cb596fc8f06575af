"""Measure one workload (the driver's contract) or report all of them.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` sets the
workload up, measures it and prints one JSON object as the last line of
standard output.  Without ``--workload`` every workload runs in a fresh
subprocess, untraced and traced, and every metric is printed by name.

Load model: one driver process, one client, closed loop -- the callers of an
embedded library wait for each reply.  Every result is checked against the
oracle right after its operation, outside the operation's timer; latencies
and ``ops_per_s`` count engine time only (``ops_per_s`` = operations of one
mix cycle / the median summed latency of a cycle).  Times are reported at a
reference machine speed: see :func:`calibrate` and :class:`Segments`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: End-to-end metrics, from the untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Every reported time is *calibrated*: scaled by this reference over the
#: calibration kernel's time just before and after the work.  The reference
#: is the kernel's time in this sandbox on a quiet minute, so on such a
#: machine the numbers are plain seconds.
CALIBRATION_REFERENCE_S = 0.0060
#: Seconds of work after which the calibration kernel runs again (at the
#: next operation boundary).
CALIBRATION_INTERVAL_S = 0.1
_CALIBRATION_KEYS = [f"s{(index * 7919) % 20000:06d}" for index in range(20000)]
#: Value printed for a per-layer metric whose entry point is gone (the
#: contract wants numbers; the human report prints ``null``).
UNAVAILABLE = -1


class _Stopwatch:
    """The untraced twin of a tracer span: times, records nothing."""

    __slots__ = ("seconds", "_start")

    def __enter__(self) -> "_Stopwatch":
        self._start = perf_counter()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.seconds = perf_counter() - self._start


def calibrate() -> float:
    """Run the calibration kernel once; returns its seconds.

    The sandbox is a shared VM that flips between a quiet and a contended
    state every few seconds: the kernel takes 5.9 ms in one and 8 to 12 ms
    in the other, and ten 12 s runs of one workload differ by far more than
    any bound (``NOISE.md`` has raw and calibrated spread side by side).
    The kernel -- dict updates, set membership and a sort over 20 000 strings,
    the interpreter and memory work the engine itself does -- is interleaved
    with the measured operations and lets times be reported at a reference
    machine speed.  It allocates three containers, so it never triggers the
    garbage collector.
    """
    start = perf_counter()
    counts = dict.fromkeys(_CALIBRATION_KEYS, 0)
    for key in _CALIBRATION_KEYS:
        counts[key] += 1
    members = set(_CALIBRATION_KEYS)
    hits = 0
    for key in _CALIBRATION_KEYS:
        hits += key in members
    sorted(_CALIBRATION_KEYS)
    return perf_counter() - start


class Segments:
    """Cuts work into segments between two runs of the calibration kernel.

    A segment's factor -- the reference over the mean of the kernel runs on
    either side of it -- turns its measured seconds into seconds at the
    reference speed.  The machine's speed changes within a run, so a factor
    per segment (a tenth of a second of work) steadies percentiles that one
    factor per run leaves to the luck of how much of the run was contended.
    """

    def __init__(self) -> None:
        #: Wall seconds of all closed segments (kernel runs excluded),
        #: as measured and at the reference speed.
        self.measured = self.at_reference = 0.0
        self._kernel = calibrate()
        self._start = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self._start >= CALIBRATION_INTERVAL_S

    def close(self) -> float:
        """End the open segment and start the next; returns its factor."""
        seconds = perf_counter() - self._start
        following = calibrate()
        factor = 2 * CALIBRATION_REFERENCE_S / (self._kernel + following)
        self.measured += seconds
        self.at_reference += factor * seconds
        self._kernel = following
        self._start = perf_counter()
        return factor


@dataclass
class TraceState:
    """What the traced pass accumulates besides the replay's own totals."""

    tracer: Any
    replay: Any
    twin: Any = None  # view-less copy of the session, built before the first edit
    caches: Counter = field(default_factory=Counter)
    bytes_written: int = 0
    view_deltas: dict[str, int] = field(default_factory=dict)
    deltas_before_rebuilds: int = 0
    rebuilds: int = 0


@dataclass
class PassResult:
    """The timed operations of one pass, in order, and the tallies."""

    attempted: int = 0
    failed: int = 0
    #: Kind and latency as measured of every timed operation ...
    kinds: list[str] = field(default_factory=list)
    measured: list[float] = field(default_factory=list)
    #: ... and its latency at the reference machine speed, known once the
    #: operation's segment is closed.
    calibrated: list[float] = field(default_factory=list)

    def close_segment(self, factor: float) -> None:
        self.calibrated.extend(factor * seconds for seconds in self.measured[len(self.calibrated) :])

    def latencies(self, kind: str, raw: bool = False) -> list[float]:
        seconds = self.measured if raw else self.calibrated
        return [spent for spent, its_kind in zip(seconds, self.kinds) if its_kind == kind]

    def cycle_seconds(self, cycle: int, raw: bool = False) -> list[float]:
        """Summed latency of each whole mix cycle of the pass."""
        seconds = self.measured if raw else self.calibrated
        return [sum(seconds[start : start + cycle]) for start in range(0, len(seconds) - cycle + 1, cycle)]

    @property
    def samples(self) -> Counter:
        return Counter(self.kinds)

    @property
    def busy(self) -> float:
        """Summed operation latency at the reference speed."""
        return sum(self.calibrated)

    @property
    def reference_factor(self) -> float:
        """Busy-weighted mean of the pass's segment factors."""
        return self.busy / sum(self.measured)


# ----------------------------------------------------------------------
# one operation through the front door
# ----------------------------------------------------------------------
def _directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def _matches(result: Any, session: Any, spec: Any) -> bool:
    return result.relation.to_tuples(spec.columns) == session.model.quotient(spec)


def perform(session: Any, op: Any, trace: Optional[TraceState] = None) -> tuple[str, float, bool]:
    """Run one operation and check it; returns (kind, seconds, correct).

    With ``trace`` the same front-door calls run inside spans and the
    operation is then replayed through the layers (off the operation's clock).
    """
    import repro

    db = session.db
    kind = op.kind
    span = trace.tracer.span if trace else None
    replay = trace.replay if trace else None

    if kind == "query":
        if trace is None:
            with _Stopwatch() as timer:
                result = db.sql(op.text).run()
        else:
            before = db.cache_info()
            with span("api.query") as timer:
                query = db.sql(op.text)
                with span("query.expression"):
                    query.expression
                with span("query.run"):
                    result = query.run()
            after = db.cache_info()
            for counter in ("hits", "misses", "invalidations", "result_hits", "result_misses"):
                trace.caches[counter] += getattr(after, counter) - getattr(before, counter)
            replay.guarded(replay.query, db, op.text, result, after.hits > before.hits)
        return kind, timer.seconds, _matches(result, session, op.spec)

    if kind in ("insert", "delete"):
        if trace is not None and trace.twin is None:
            trace.twin = repro.connect({name: db.relation(name) for name in db.tables})
        with span(f"api.{kind}") if trace else _Stopwatch() as timer:
            outcome = getattr(db, kind)(op.table, op.rows)
        expected = getattr(session.model, kind)(op.table, op.rows)
        changed = outcome.inserted if kind == "insert" else outcome.deleted
        if trace is not None:
            replay.guarded(replay.edit, trace.twin, kind, op.table, op.rows, timer.seconds)
            _note_view_counters(db, trace)
        return "edit", timer.seconds, len(changed) == expected

    if kind == "view":
        with span("views.read") if trace else _Stopwatch() as timer:
            result = db.view(op.view).run()
        if trace is not None:
            replay.seconds["views.read"] += timer.seconds
        return kind, timer.seconds, _matches(result, session, op.spec)

    if kind == "save":
        target = session.workdir / f"save-{session.saves}"
        session.saves += 1
        with span("storage.save") if trace else _Stopwatch() as timer:
            db.save(target)
        written = _directory_bytes(target)
        # The session itself stays connected to its base store; older saves go.
        if session.store is not None and session.store.name != "base":
            shutil.rmtree(session.store)
        session.store = target
        session.saved_bytes = written
        if trace is not None:
            replay.seconds["storage.save"] += timer.seconds
            trace.bytes_written += written
        return kind, timer.seconds, written > 0

    if kind == "open":
        if trace is None:
            with _Stopwatch() as timer:
                result = repro.connect(session.store, **session.options).sql(op.text).run()
        else:
            with span("api.open") as timer:
                with span("storage.open") as connecting:
                    opened = repro.connect(session.store, **session.options)
                with span("api.first_query") as querying:
                    result = opened.sql(op.text).run()
            covered = replay.covered_seconds()
            replay.guarded(replay.query, opened, op.text, result, False)
            # What the cold first query cost beyond its warm replay is the
            # store being loaded: storage time, like the connect itself.
            cold = max(0.0, querying.seconds - (replay.covered_seconds() - covered))
            replay.seconds["storage.open"] += connecting.seconds + cold
        return kind, timer.seconds, _matches(result, session, op.spec)

    raise ValueError(f"unknown operation kind {kind!r}")


def _note_view_counters(db: Any, trace: TraceState) -> None:
    """Track ``deltas_applied`` per view; a drop means the counters were rebuilt."""
    for name in db.views:
        applied = db.view(name).deltas_applied
        previous = trace.view_deltas.get(name, 0)
        if applied < previous:
            trace.rebuilds += 1
            trace.deltas_before_rebuilds += previous
        trace.view_deltas[name] = applied


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def _attempt(session: Any, op: Any, trace: Optional[TraceState], outcome: PassResult, record: bool) -> None:
    """Perform and check one operation; ``record`` keeps its latency."""
    outcome.attempted += 1
    if trace is not None:
        trace.tracer.op_id = outcome.attempted
    try:
        kind, seconds, correct = perform(session, op, trace)
    except Exception:  # boundary: a failed operation is counted, the run goes on
        kind, seconds, correct = "failed", 0.0, False
        if outcome.failed < 3:
            print(f"bench: operation failed: {op}", file=sys.stderr)
            traceback.print_exc()
    else:
        if not correct and outcome.failed < 3:
            print(f"bench: result differs from the oracle: {op}", file=sys.stderr)
    outcome.failed += not correct
    if record:
        outcome.kinds.append(kind)
        outcome.measured.append(seconds)


def set_up(workload: Any, seed: int, scale: str, workdir: Path, outcome: PassResult) -> tuple[Any, Segments]:
    """Generate data, open the session and warm it up (checked, untimed).

    Returns the session and the set-up's seconds, as measured and calibrated.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    segments = Segments()
    session = workload.build(seed, scale, workdir)
    segments.close()
    for op in session.warmup:
        _attempt(session, op, None, outcome, record=False)
        if segments.due():
            segments.close()
    segments.close()
    return session, segments


def run_pass(
    session: Any,
    outcome: PassResult,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    trace: Optional[TraceState] = None,
) -> None:
    """Closed loop over the session's operation stream, for ``seconds`` or
    for ``count`` operations; stops only on a whole mix cycle."""
    gc.collect()  # start from a clean heap; the collector stays on
    deadline = perf_counter() + seconds if seconds is not None else None
    segments = Segments()
    done = 0
    while True:
        stop = done % session.cycle == 0 and (
            (deadline is not None and perf_counter() >= deadline) or (count is not None and done >= count)
        )
        if stop or segments.due():
            outcome.close_segment(segments.close())
        if stop:
            break
        _attempt(session, next(session.ops), trace, outcome, record=True)
        done += 1


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _ms(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    return 1e3 * (statistics.median(values) if share == 0.5 else _percentile(values, share))


def end_to_end_metrics(outcome: PassResult, setup_seconds: float, cycle: int, raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics, calibrated or (``raw``) as measured."""
    queries = outcome.latencies("query", raw)
    return {
        "setup_s": setup_seconds,
        # From the median mix cycle, so one stall does not move it.
        "ops_per_s": cycle / statistics.median(outcome.cycle_seconds(cycle, raw)),
        "query_ms_p50": _ms(queries, 0.5),
        "query_ms_p90": _ms(queries, 0.9),
        # The whole process: the benchmark's tables and oracle (the same on
        # every commit) plus everything the engine held at its peak.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(session: Any, plain: PassResult, traced: PassResult, trace: TraceState) -> dict[str, Optional[float]]:
    """Every per-layer metric from the traced pass (see ``bench.layers``)."""
    from bench.layers import COMPONENTS, LAYER_METRICS, unavailable_metrics

    counts = trace.replay.counts
    # The replay's steps run between the operations: they are brought to the
    # reference machine speed by the pass's mean factor, not segment by segment.
    factor = traced.reference_factor
    seconds = defaultdict(float, {name: factor * spent for name, spent in trace.replay.seconds.items()})
    # Latency percentiles per operation kind use the samples of both passes
    # (a span costs about a microsecond; the operations, a millisecond or more).
    samples = {
        kind: plain.latencies(kind) + traced.latencies(kind) for kind in ("edit", "view", "save", "open")
    }
    operations = len(traced.calibrated)
    total = traced.busy

    def per_op_ms(seconds_spent: float) -> float:
        return 1e3 * seconds_spent / operations

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    layers = {layer: sum(seconds[name] for name in names) for layer, names in COMPONENTS.items()}
    covered = sum(layers.values())
    layers["api"] += max(0.0, total - covered)  # the session's own, unspanned work
    whole = sum(layers.values())
    caches = trace.caches
    skipped, read = counts["storage.blocks_skipped"], counts["storage.blocks_read"]
    values: dict[str, Optional[float]] = {
        "physical.tuples_per_result": ratio(counts["physical.tuples_total"], counts["physical.result_rows"]),
        "parallel.coordinator_ms": per_op_ms(seconds["parallel.operators"] - seconds["parallel.worker"]),
        "parallel.partition_skew": ratio(counts["parallel.skew_sum"], counts["parallel.skew_samples"]),
        "storage.skip_ratio": ratio(skipped, skipped + read),
        "storage.bytes_written": trace.bytes_written,
        "storage.bytes_per_tuple": ratio(session.saved_bytes, session.model.tuple_count()),
        "storage.save_ms_p50": _ms(samples["save"], 0.5),
        "storage.open_first_query_ms_p50": _ms(samples["open"], 0.5),
        "views.read_ms_p50": _ms(samples["view"], 0.5),
        "views.deltas_applied": sum(trace.view_deltas.values()) + trace.deltas_before_rebuilds,
        "views.rebuilds": trace.rebuilds,
        "api.edit_ms_p50": _ms(samples["edit"], 0.5),
        "api.edit_ms_p90": _ms(samples["edit"], 0.9),
        "api.plan_cache_hit_ratio": ratio(caches["hits"], caches["hits"] + caches["misses"]),
        "api.result_cache_hit_ratio": ratio(caches["result_hits"], caches["result_hits"] + caches["result_misses"]),
        "api.plan_invalidations": caches["invalidations"],
        "api.session_overhead_ms": per_op_ms(total - covered),
        "trace.overhead_ratio": ratio(total, plain.busy),
        "trace.layer_coverage": min(1.0, ratio(covered, total)),
    }
    for layer, spent in layers.items():
        values[f"share.{layer}"] = ratio(spent, whole)
    values["parallel.worker_s"] = factor * counts["parallel.worker_s"]
    for metric in LAYER_METRICS:
        if metric.name in values:
            continue
        if metric.unit == "ms":  # ``<step>_ms`` is the replay step ``<step>``, per operation
            values[metric.name] = per_op_ms(seconds[metric.name.removesuffix("_ms")])
        else:  # a plain counter
            values[metric.name] = counts[metric.name]
    if trace.replay.broken:
        values = {name: None if name.split(".")[0] != "trace" else value for name, value in values.items()}
    for name in unavailable_metrics():
        values[name] = None
    return {metric.name: values[metric.name] for metric in LAYER_METRICS}


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def environment() -> dict[str, Any]:
    from bench.layers import resolve

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    active_kernel = resolve("repro.physical:active_kernel")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "bitset_kernel": active_kernel().name if active_kernel is not None else None,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full", out: Path = OUT) -> dict[str, Any]:
    """Set up, measure and check one workload; returns the contract's object
    plus a ``details`` entry (sample counts, environment) for the report."""
    from bench.layers import LAYER_METRICS, Replay
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS, stop_workers

    workload = WORKLOADS[name]
    workroot = out / f"tmp-{name}-{os.getpid()}"
    checks = PassResult()  # warm-up operations: checked, not timed
    session = None
    try:
        raw: dict[str, float] = {}
        if not trace:
            session, setup = set_up(workload, seed, scale, workroot / "setup", checks)
            outcome = PassResult()
            run_pass(session, outcome, seconds=seconds)
            raw = end_to_end_metrics(outcome, setup.measured, session.cycle, raw=True)
            values: dict[str, Optional[float]] = dict(end_to_end_metrics(outcome, setup.at_reference, session.cycle))
            units = dict(END_TO_END)
            passes = [outcome]
        else:
            session, _ = set_up(workload, seed, scale, workroot / "plain", checks)
            cycles = math.ceil(workload.trace_ops_per_second * seconds / session.cycle)
            plain = PassResult()
            run_pass(session, plain, count=cycles * session.cycle)
            session.close()
            session, _ = set_up(workload, seed, scale, workroot / "traced", checks)
            tracer = Tracer()
            state = TraceState(tracer, Replay(tracer))
            outcome = PassResult()
            run_pass(session, outcome, count=cycles * session.cycle, trace=state)
            values = layer_metrics(session, plain, outcome, state)
            units = {metric.name: metric.unit for metric in LAYER_METRICS}
            tracer.write(out / f"trace-{name}.json")
            passes = [plain, outcome]
    finally:
        if session is not None:
            session.close()
        stop_workers()  # also when a set-up failed before it returned its session
        shutil.rmtree(workroot, ignore_errors=True)
    attempted = checks.attempted + sum(result.attempted for result in passes)
    failed = checks.failed + sum(result.failed for result in passes)
    samples: Counter = Counter()  # behind each percentile; a traced run pools both passes
    for result in passes:
        samples.update(result.samples)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": UNAVAILABLE if value is None else value, "unit": units[name]}
            for name, value in values.items()
        },
        "details": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "scale": scale,
            "samples": dict(samples),
            "null_metrics": sorted(name for name, value in values.items() if value is None),
            # The end-to-end metrics as measured, before calibration.
            "raw_metrics": raw,
            "reference_factors": [result.reference_factor for result in passes],
            "environment": environment(),
        },
    }


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _report_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh subprocess."""
    from bench.workloads import WORKLOADS

    failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale,
            ]  # fmt: skip
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stderr.write(completed.stderr)
            if completed.returncode != 0:
                print(f"{name} trace={trace}: exited with code {completed.returncode}")
                failed += 1
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            details = json.loads((OUT / f"result-{name}-trace{trace}.json").read_text())["details"]
            if trace == 0:
                print(f"\n== {name}  (seed {args.seed}, {args.seconds:g} s, environment {details['environment']})")
            samples = ", ".join(f"{kind}: {count}" for kind, count in sorted(details["samples"].items()))
            print(
                f"-- {'per-layer (traced run)' if trace else 'end-to-end (untraced run)'}: "
                f"{result['attempted']} operations, {result['failed']} failed; samples {samples}"
            )
            for metric, entry in result["metrics"].items():
                shown = "null" if metric in details["null_metrics"] else f"{entry['value']:.6g}"
                print(f"{metric:36s} {shown:>14s} {entry['unit']}")
            failed += not result["correct"]
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to report all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if "PYTHONHASHSEED" not in os.environ:
        # Scan order is frozenset iteration order and partition routing is
        # hash(key) % K: with string keys both change from process to
        # process unless the hash seed is pinned.
        os.execve(sys.executable, [sys.executable, "-m", "bench", *argv], {**os.environ, "PYTHONHASHSEED": "0"})

    from bench.workloads import WORKLOADS

    if args.workload is None:
        return _report_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    # Everything temporary (spill directories included) stays in the checkout.
    OUT.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = os.environ["TMPDIR"] = str(OUT)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    details = result.pop("details")
    print(f"bench: {details['workload']} samples {details['samples']} {details['environment']}", file=sys.stderr)
    print(json.dumps(result))
    return 0
