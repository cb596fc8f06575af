"""Guard the division microbenchmarks against performance regressions.

Reruns ``benchmarks/test_bench_division_algorithms.py`` with
``--benchmark-json`` and compares each scenario's best (min) time against
the committed baseline (``BENCH_division.json``).  Because the baseline was
recorded on different hardware than CI runners, raw ratios are normalized
by the **median** ratio across all scenarios first — uniform speed
differences cancel out (and a few genuine speedups cannot skew the
normalizer), so only *relative* regressions of individual scenarios (one
algorithm suddenly slower than its peers) trip the gate.

Exit code 1 when any scenario regresses more than ``--threshold`` (default
25%) beyond the normalized baseline.

``--parallel N`` switches to the serial-vs-parallel comparison instead: it
runs ``benchmarks/test_bench_parallel_division.py`` (the ≥100k-tuple
scenarios) once with ``--workers N`` and compares the partitioned timings
against the serial ones *from the same run* — same machine, same process,
so no cross-machine normalization and no jitter floor is needed.
``workers=1`` partitioning must not cost more than ~15% over serial, and
at ``workers=N`` the arm the session's planner picks (recorded by the
benchmark beside the timings) may be at most ``PARALLEL_PICK_BOUND`` times
slower than the faster of the two.

``--storage`` switches to the persistent-store comparison: it runs
``benchmarks/test_bench_storage.py`` once and gates the same-run ratios —
zone-map block skipping must beat the full stored scan by ≥5× on the
selective clustered scenario, and ``ANALYZE`` of a cold-opened store (a
metadata read) must beat the full statistics scan by ≥5×.

``--ivm`` switches to the view-maintenance comparison: it runs
``benchmarks/test_bench_ivm.py`` once and gates the same-run churn
timings — a delta-maintained quotient view under 1000 single-row edits
(read after every edit) must beat recompute-per-edit by ≥10×.  The two
arms time different edit counts (the recompute arm replays only a
prefix of the stream — full recomputes per edit take minutes), so the
comparison normalizes each timing by its arm's edit count first; the
counts are mirrored from the benchmark file and printed with the
ratios so the subsampling is never silent.  The same run's edit-cost
scenarios gate the write path: a single-row edit against a 200k-tuple
dividend may cost at most 2× one against 20k (an edit records a delta;
it must not depend on the table's size), and so may the rewrite of the
re-query right after such an edit (the laws' preconditions are read off
the carried dictionaries, not off a projection of the table).

``--faults`` switches to the reliability-overhead comparison: it runs
``benchmarks/test_bench_faults.py`` once and gates the same-run ratios —
the checksummed storage format (a CRC32 per block) may cost at most ~5%
over the same layout written with ``checksums=False`` on both the read and
the write path, with an absolute jitter floor so a microsecond of
scheduler noise cannot trip the gate.  The disarmed fault-point check
itself is a module-level ``None`` test; its query scenario is recorded
for drift tracking rather than gated against a pair.

Usage::

    python scripts/bench_compare.py [--baseline BENCH_division.json]
                                    [--threshold 0.25] [--json out.json]
    python scripts/bench_compare.py --parallel 2
    python scripts/bench_compare.py --storage
    python scripts/bench_compare.py --ivm
    python scripts/bench_compare.py --faults
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = "benchmarks/test_bench_division_algorithms.py"
PARALLEL_BENCH_FILE = "benchmarks/test_bench_parallel_division.py"
STORAGE_BENCH_FILE = "benchmarks/test_bench_storage.py"
IVM_BENCH_FILE = "benchmarks/test_bench_ivm.py"
FAULTS_BENCH_FILE = "benchmarks/test_bench_faults.py"

#: workers=1 partitioned execution may cost at most this much over serial.
PARALLEL_FALLBACK_OVERHEAD = 0.15
#: At workers>1 the planner's pick (serial or partitioned) may be at most
#: this many times slower than the faster arm of the same run.
PARALLEL_PICK_BOUND = 1.2
#: Zone-map block skipping must beat the full stored scan by this factor
#: on the selective clustered scenario.
STORAGE_SKIP_SPEEDUP_BOUND = 5.0
#: ANALYZE from save-time metadata must beat the full statistics scan by
#: this factor on a cold-opened store.
STORAGE_ANALYZE_SPEEDUP_BOUND = 5.0
#: A delta-maintained view under churn must beat recompute-per-edit by
#: this factor, per edit.
IVM_SPEEDUP_BOUND = 10.0
#: Edits per timed churn pass — mirrors MAINTAINED_EDITS / RECOMPUTE_EDITS
#: in benchmarks/test_bench_ivm.py.  The maintained arm replays the full
#: stream; the recompute arm only a prefix (a full recompute of the
#: ≥100k-tuple dividend per edit takes minutes), so timings are divided
#: by these counts before the gate is applied.
IVM_EDITS = {"maintained": 1000, "recompute": 20}
#: A single-row edit at the large edit-cost size may take at most this
#: many times one at the small size — mirrors EDIT_COST_RATIO_BOUND.
IVM_EDIT_COST_BOUND = 2.0
IVM_EDIT_COST_SIZES = ("20k", "200k")
#: The size-independence gates of the run: benchmark name → what it times
#: (a pass of edits; the rewrite of the re-query right after an edit —
#: mirrors REWRITE_COST_RATIO_BOUND).
IVM_FLAT_COSTS = {"test_edit_cost": "edit", "test_rewrite_cost": "rewrite"}
#: Checksummed table files may cost at most this much over the same layout
#: without block CRCs (``checksums=False``), read path and write path alike.
FAULTS_OVERHEAD_BOUND = 0.05
#: Absolute jitter floor for the faults gate: an overhead below this many
#: seconds never fails, whatever the ratio says (the paired scenarios run
#: tens of milliseconds; scheduler noise is well under this).
FAULTS_FLOOR_SECONDS = 0.002


def load_times(payload: dict) -> dict[str, float]:
    """Benchmark name → best (min) time in seconds."""
    return {bench["name"]: bench["stats"]["min"] for bench in payload["benchmarks"]}


def compare(
    baseline: dict, current: dict, threshold: float, floor_seconds: float = 0.0005
) -> tuple[list[str], list[str]]:
    """Compare two benchmark payloads; returns (report lines, failures).

    Ratios are normalized by their **median** so a uniformly faster or
    slower machine never trips the gate — only scenarios that regressed
    *relative to the rest of the suite* by more than ``threshold`` do.  The
    median (unlike a geometric mean) is also robust against a few genuine
    large speedups: one scenario getting 10× faster must not flag the
    unchanged majority as regressions.  ``floor_seconds`` additionally
    shields sub-millisecond scenarios from scheduler jitter: a regression
    only counts when the absolute excess over the normalized expectation
    exceeds the floor.

    A scenario present in the current run but absent from the baseline is
    a hard failure listing the missing names: a silently-dropped scenario
    would run ungated forever, and the fix (``make bench-record``) is
    one command away.
    """
    old = load_times(baseline)
    new = load_times(current)
    missing = sorted(set(new) - set(old))
    if missing:
        lines = [
            f"FAIL: {len(missing)} scenario(s) in the current run have no committed "
            "baseline entry:",
            *(f"  - {name}" for name in missing),
            "Refresh the baseline with `make bench-record` (on a quiet machine) and "
            "commit the updated JSON so these scenarios are gated too.",
        ]
        return lines, [f"missing baseline entry for {name}" for name in missing]
    shared = sorted(set(old) & set(new))
    if not shared:
        return ["no overlapping benchmarks between baseline and current run"], ["no overlap"]
    ratios = {name: new[name] / old[name] for name in shared}
    machine_factor = statistics.median(ratios.values())
    lines = [
        f"{len(shared)} scenarios; machine-speed factor (median ratio) = {machine_factor:.2f}x",
        f"{'scenario':55s} {'old ms':>9s} {'new ms':>9s} {'rel':>7s}",
    ]
    failures: list[str] = []
    improvements = 0
    for name in shared:
        relative = ratios[name] / machine_factor
        excess = new[name] - old[name] * machine_factor
        marker = ""
        if relative > 1.0 + threshold and excess > floor_seconds:
            marker = "  << REGRESSION"
            failures.append(f"{name}: {relative:.2f}x relative to suite baseline")
        elif relative < 1.0 - threshold and -excess > floor_seconds:
            marker = "  (improved)"
            improvements += 1
        lines.append(
            f"{name:55s} {old[name] * 1000:9.3f} {new[name] * 1000:9.3f} {relative:6.2f}x{marker}"
        )
    if improvements:
        lines.append(
            f"note: {improvements} scenario(s) improved >{threshold:.0%}; consider refreshing "
            "the baseline with `make bench-record` so future comparisons stay sharp."
        )
    if machine_factor > 1.0 + threshold:
        # Normalization makes a uniform slowdown look clean by design (the
        # baseline machine differs from CI runners) — surface it so a
        # genuine suite-wide regression is not mistaken for slow hardware.
        lines.append(
            f"warning: the whole suite runs {machine_factor:.2f}x slower than the baseline. "
            "On the baseline machine this would be a suite-wide regression; on different "
            "hardware it is expected. Verify locally with `make bench-record` + re-compare."
        )
    return lines, failures


def compare_parallel(payload: dict, workers: int) -> tuple[list[str], list[str]]:
    """Gate the planner's serial-vs-partitioned decision on one benchmark run.

    Both arms of a scenario (``test_serial_X`` / ``test_partitioned_X[N]``)
    come from one process, so the ratios need no normalization; the
    partitioned benchmark records the arm a ``workers=N`` session's planner
    picks as ``extra_info["planner_pick"]``.
    """
    times = load_times(payload)
    picks = {b["name"]: b.get("extra_info", {}).get("planner_pick") for b in payload["benchmarks"]}
    lines = [f"nproc = {os.cpu_count() or 1}"]
    failures: list[str] = []
    for name in sorted(n for n in times if n.startswith("test_partitioned_")):
        scenario, count = name.removeprefix("test_partitioned_").rstrip("]").split("[")
        serial = times.get(f"test_serial_{scenario}")
        if serial is None:
            return [f"no serial baseline for the {scenario} scenario"], ["missing baseline"]
        ratio = times[name] / serial
        line = (
            f"{scenario} workers={count}: serial {serial * 1000:.3f} ms, partitioned "
            f"{times[name] * 1000:.3f} ms ({1.0 / ratio:.2f}x vs serial)"
        )
        if count == "1":
            if ratio > 1.0 + PARALLEL_FALLBACK_OVERHEAD:
                failures.append(
                    f"{scenario}: workers=1 partitioned costs {ratio:.2f}x serial "
                    f"(allowed {1.0 + PARALLEL_FALLBACK_OVERHEAD:.2f}x)"
                )
        else:  # a run that recorded no pick fails as infinitely slow
            picked = {"serial": serial, "partitioned": times[name]}.get(picks[name], float("inf"))
            slower = picked / min(serial, times[name])
            line += f"; planner picks {picks[name]} ({slower:.2f}x the faster arm)"
            if slower > PARALLEL_PICK_BOUND:
                failures.append(
                    f"{scenario}: at workers={count} the planner picks the {picks[name]} "
                    f"plan, {slower:.2f}x the faster arm (allowed {PARALLEL_PICK_BOUND:.2f}x)"
                )
        lines.append(line)
    if workers > 1 and not any(f"workers={workers}:" in line for line in lines):
        failures.append(f"no partitioned scenario ran with workers={workers}")
    return lines, failures


def _mode_pairs(times: dict[str, float], prefix: str) -> dict[str, dict[str, float]]:
    """``scenario → {mode → time}`` for ``prefix[scenario-mode]`` benchmarks."""
    pairs: dict[str, dict[str, float]] = {}
    for name, value in times.items():
        if not name.startswith(prefix + "["):
            continue
        scenario, _, mode = name.split("[", 1)[1].rstrip("]").rpartition("-")
        pairs.setdefault(scenario, {})[mode] = value
    return pairs


def compare_storage(payload: dict) -> tuple[list[str], list[str]]:
    """Compare stored-table timings from one storage benchmark run.

    Same process, same machine — ratios are directly meaningful.  Gates:
    the zone-map-skipping scan beats the full stored scan by
    ≥``STORAGE_SKIP_SPEEDUP_BOUND`` on the selective clustered scenario,
    and ``ANALYZE`` of a cold-opened store (save-time metadata) beats the
    full statistics scan by ≥``STORAGE_ANALYZE_SPEEDUP_BOUND``.
    """
    times = load_times(payload)
    scans = _mode_pairs(times, "test_selective_scan")
    analyzes = _mode_pairs(times, "test_cold_analyze")
    if not scans and not analyzes:
        return ["no storage scenarios in the benchmark run"], ["missing scenarios"]
    lines: list[str] = []
    failures: list[str] = []
    for scenario in sorted(scans):
        modes = scans[scenario]
        if "full" not in modes or "skipping" not in modes:
            failures.append(f"scan scenario {scenario} is missing a mode")
            continue
        speedup = modes["full"] / modes["skipping"]
        lines.append(
            f"scan {scenario}: full {modes['full'] * 1000:9.3f} ms, "
            f"skipping {modes['skipping'] * 1000:9.3f} ms ({speedup:.2f}x)"
        )
        if speedup < STORAGE_SKIP_SPEEDUP_BOUND:
            failures.append(
                f"scan scenario {scenario}: zone-map skipping is only {speedup:.2f}x "
                f"faster than the full scan (need {STORAGE_SKIP_SPEEDUP_BOUND}x)"
            )
    for scenario in sorted(analyzes):
        modes = analyzes[scenario]
        if "metadata" not in modes or "fullscan" not in modes:
            failures.append(f"analyze scenario {scenario} is missing a mode")
            continue
        speedup = modes["fullscan"] / modes["metadata"]
        lines.append(
            f"analyze {scenario}: full scan {modes['fullscan'] * 1000:9.3f} ms, "
            f"metadata {modes['metadata'] * 1000:9.3f} ms ({speedup:.2f}x)"
        )
        if speedup < STORAGE_ANALYZE_SPEEDUP_BOUND:
            failures.append(
                f"analyze scenario {scenario}: metadata ANALYZE is only {speedup:.2f}x "
                f"faster than the statistics scan (need {STORAGE_ANALYZE_SPEEDUP_BOUND}x)"
            )
    return lines, failures


def compare_ivm(payload: dict) -> tuple[list[str], list[str]]:
    """Compare maintained-view vs recompute churn timings from one run.

    Same process, same machine — but the two arms time **different edit
    counts** (see ``IVM_EDITS``), so each timing is normalized to
    milliseconds per edit before the ratio is taken.  Gate: the
    delta-maintained view beats recompute-per-edit by
    ≥``IVM_SPEEDUP_BOUND`` on every churn scenario, and the edit-cost
    and rewrite-cost passes (equal counts) stay within
    ``IVM_EDIT_COST_BOUND`` of each other across table sizes.
    """
    times = load_times(payload)
    churn = _mode_pairs(times, "test_churn")
    if not churn:
        return ["no churn scenarios in the benchmark run"], ["missing scenarios"]
    lines: list[str] = []
    failures: list[str] = []
    for scenario in sorted(churn):
        modes = churn[scenario]
        if "maintained" not in modes or "recompute" not in modes:
            failures.append(f"churn scenario {scenario} is missing a mode")
            continue
        per_edit = {mode: modes[mode] / IVM_EDITS[mode] for mode in IVM_EDITS}
        speedup = per_edit["recompute"] / per_edit["maintained"]
        lines.append(
            f"churn {scenario}: maintained {per_edit['maintained'] * 1000:9.3f} ms/edit "
            f"({IVM_EDITS['maintained']} edits), recompute "
            f"{per_edit['recompute'] * 1000:9.3f} ms/edit "
            f"({IVM_EDITS['recompute']}-edit subsample) ({speedup:.2f}x)"
        )
        if speedup < IVM_SPEEDUP_BOUND:
            failures.append(
                f"churn scenario {scenario}: the maintained view is only "
                f"{speedup:.2f}x faster per edit than recompute "
                f"(need {IVM_SPEEDUP_BOUND}x)"
            )
    small, large = IVM_EDIT_COST_SIZES
    for benchmark, what in IVM_FLAT_COSTS.items():
        scenarios = _mode_pairs(times, benchmark)
        if not scenarios:
            failures.append(f"no {what}-cost scenarios in the benchmark run")
        for scenario, sizes in sorted(scenarios.items()):
            if small not in sizes or large not in sizes:
                failures.append(f"{what}-cost scenario {scenario} is missing a size")
                continue
            ratio = sizes[large] / sizes[small]
            lines.append(
                f"{what} cost {scenario}: {small} {sizes[small] * 1000:9.3f} ms/pass, "
                f"{large} {sizes[large] * 1000:9.3f} ms/pass ({ratio:.2f}x)"
            )
            if ratio > IVM_EDIT_COST_BOUND:
                failures.append(
                    f"{what}-cost scenario {scenario}: one {what} at {large} tuples costs "
                    f"{ratio:.2f}x one at {small} (at most {IVM_EDIT_COST_BOUND}x)"
                )
    return lines, failures


def compare_faults(payload: dict) -> tuple[list[str], list[str]]:
    """Compare checksum-free vs checksummed storage timings from one run.

    Same process, same machine — the ``plain``/``guarded`` arms write and
    read the identical table in the one file layout, differing only in
    ``checksums=False`` vs the default per-block CRC32s.  Gate: ``guarded``
    costs at most ``FAULTS_OVERHEAD_BOUND`` over ``plain`` on each paired
    scenario, with ``FAULTS_FLOOR_SECONDS`` shielding scheduler jitter.
    The unpaired query scenario is reported for drift tracking only.
    """
    times = load_times(payload)
    lines: list[str] = []
    failures: list[str] = []
    paired = 0
    for prefix, label in (
        ("test_stored_read", "read (full block decode)"),
        ("test_table_write", "write (full table save)"),
    ):
        plain = times.get(f"{prefix}[plain]")
        guarded = times.get(f"{prefix}[guarded]")
        if plain is None or guarded is None:
            failures.append(f"scenario {prefix} is missing an arm (plain/guarded)")
            continue
        paired += 1
        overhead = guarded / plain - 1.0
        lines.append(
            f"{label}: plain {plain * 1000:9.3f} ms, guarded {guarded * 1000:9.3f} ms "
            f"({overhead:+.1%} checksummed overhead)"
        )
        if overhead > FAULTS_OVERHEAD_BOUND and (guarded - plain) > FAULTS_FLOOR_SECONDS:
            failures.append(
                f"{label}: block checksums cost {overhead:+.1%} over checksums=False "
                f"(allowed {FAULTS_OVERHEAD_BOUND:+.0%})"
            )
    if not paired:
        return ["no faults scenarios in the benchmark run"], ["missing scenarios"]
    disarmed = times.get("test_query_fault_points_disarmed")
    if disarmed is not None:
        lines.append(
            f"disarmed query path: {disarmed * 1000:9.3f} ms (informational — "
            "tracked for drift, no paired gate)"
        )
    return lines, failures


def run_benchmarks(json_path: Path, bench_file: str = BENCH_FILE, extra: list[str] | None = None) -> None:
    """Run one benchmark file, recording stats to ``json_path``."""
    environment = dict(os.environ)
    src = str(REPO_ROOT / "src")
    environment["PYTHONPATH"] = (
        src + os.pathsep + environment["PYTHONPATH"]
        if environment.get("PYTHONPATH")
        else src
    )
    subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            bench_file,
            "-q",
            f"--benchmark-json={json_path}",
            *(extra or []),
        ],
        cwd=REPO_ROOT,
        env=environment,
        check=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_division.json",
        help="committed baseline JSON (default: BENCH_division.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed relative regression per scenario (default: 0.25 = 25%%)",
    )
    parser.add_argument(
        "--floor-ms",
        type=float,
        default=0.5,
        help="absolute regression floor in milliseconds — jitter smaller than "
        "this never fails a scenario (default: 0.5)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="reuse an existing benchmark JSON instead of rerunning pytest",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="time serial vs partitioned execution on the large scenarios "
        "(runs the parallel benchmarks once with --workers N) and gate the "
        "planner's pick between them instead of the committed baseline",
    )
    parser.add_argument(
        "--storage",
        action="store_true",
        help="compare full-scan vs zone-map-skipping and fullscan-ANALYZE vs "
        f"metadata-ANALYZE on stored tables (same-run timings from "
        f"{STORAGE_BENCH_FILE}) instead of comparing against the committed "
        "baseline",
    )
    parser.add_argument(
        "--ivm",
        action="store_true",
        help="compare delta-maintained views vs recompute-per-edit on the "
        f"churn scenarios (same-run per-edit timings from {IVM_BENCH_FILE}) "
        "instead of comparing against the committed baseline",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="compare table files written with checksums=False vs the "
        f"checksummed default (same-run timings from {FAULTS_BENCH_FILE}) "
        "instead of comparing against the committed baseline",
    )
    args = parser.parse_args(argv)

    def payload(bench_file: str, extra: list[str] | None = None) -> dict:
        """The run to judge: ``--json`` when given, else a fresh run of ``bench_file``."""
        if args.json is not None:
            return json.loads(args.json.read_text())
        with tempfile.TemporaryDirectory() as tmp:
            json_path = Path(tmp) / "bench.json"
            run_benchmarks(json_path, bench_file, extra=extra)
            return json.loads(json_path.read_text())

    def report(outcome: tuple[list[str], list[str]], failed: str, passed: str) -> int:
        lines, failures = outcome
        print("\n".join(lines))
        if failures:
            print(f"\nFAIL: {len(failures)} {failed}:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"\nOK: {passed}")
        return 0

    if args.faults:
        return report(
            compare_faults(payload(FAULTS_BENCH_FILE)),
            "reliability-overhead check(s) failed",
            f"checksummed storage within {FAULTS_OVERHEAD_BOUND:.0%} of the "
            "checksum-free format.",
        )
    if args.ivm:
        return report(
            compare_ivm(payload(IVM_BENCH_FILE)),
            "view-maintenance check(s) failed",
            "maintained views within bounds vs recompute-per-edit.",
        )
    if args.storage:
        return report(
            compare_storage(payload(STORAGE_BENCH_FILE)),
            "storage check(s) failed",
            "stored tables within bounds (block skipping + metadata ANALYZE).",
        )
    if args.parallel is not None:
        run = payload(PARALLEL_BENCH_FILE, extra=["--workers", str(args.parallel)])
        return report(
            compare_parallel(run, args.parallel),
            "parallel-execution check(s) failed",
            "the planner picks the faster arm; workers=1 partitioning is near-free.",
        )

    baseline = json.loads(args.baseline.read_text())
    baseline_cpus = baseline.get("machine_info", {}).get("cpu", {}).get("count")
    if baseline_cpus is not None and baseline_cpus != (os.cpu_count() or 1):
        # The median normalization absorbs uniform speed differences, but a
        # different core count can shift scenarios non-uniformly — surface
        # the mismatch so a stale baseline is not mistaken for a regression.
        print(
            f"warning: baseline {args.baseline.name} was recorded on "
            f"{baseline_cpus} CPU(s); this machine has {os.cpu_count() or 1}. "
            "Normalized ratios may shift non-uniformly — consider refreshing "
            "the baseline with `make bench-record` on this machine."
        )
    outcome = compare(
        baseline, payload(BENCH_FILE), args.threshold, floor_seconds=args.floor_ms / 1000.0
    )
    return report(
        outcome,
        f"scenario(s) regressed more than {args.threshold:.0%} vs {args.baseline.name}",
        f"no scenario regressed more than {args.threshold:.0%}.",
    )


if __name__ == "__main__":
    raise SystemExit(main())
