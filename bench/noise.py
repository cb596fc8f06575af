"""Noise record: run every workload several times and write ``bench/NOISE.md``.

``python3 -m bench.noise`` does what the driver does before it accepts the
benchmark: two series of ten untraced runs per workload, every run with
another seed, in a fresh process and as long as the driver's (``run_seconds``
of ``BENCHMARK.json``), plus three traced runs per workload between the
series.  Per metric and workload it records the median, the quartiles and the
spread -- the distance between the first and third quartile as a share of the
median -- of both series, and by how much the second median is worse than the
first; these are the statistics the bounds in ``BENCHMARK.json`` are checked
against.  End-to-end rows give the spread of the reported (calibrated) values
and, beside it, of the same runs' raw values.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
TRACED_RUNS = 3

Series = dict[str, list[float]]  # metric -> one value per run


def _run(workload: str, seed: int, trace: int) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """One run; returns (reported metrics, raw end-to-end metrics, samples)."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]  # fmt: skip
    print(f"{workload} trace={trace} seed={seed}", file=sys.stderr)
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    details = json.loads((ROOT / "bench" / "out" / f"result-{workload}-trace{trace}.json").read_text())["details"]
    reported = {name: entry["value"] for name, entry in result["metrics"].items()}
    return reported, details["raw_metrics"], details["samples"]


def _series(workload: str, seeds: range, trace: int) -> tuple[Series, Series, str]:
    """Runs with ``seeds``; returns (reported, raw, sample counts as text)."""
    reported: Series = defaultdict(list)
    raw: Series = defaultdict(list)
    samples: dict[str, list[int]] = defaultdict(list)
    for seed in seeds:
        values, measured, counts = _run(workload, seed, trace)
        for name, value in values.items():
            reported[name].append(value)
        for name, value in measured.items():
            raw[name].append(value)
        for op, count in counts.items():
            samples[op].append(count)
    counted = ", ".join(f"{op} {min(counts)}-{max(counts)}" for op, counts in sorted(samples.items()))
    return reported, raw, counted


def _spread(values: list[float]) -> str:
    first, median, third = statistics.quantiles(values, n=4)
    return f"{(third - first) / abs(median):.1%}" if median else ""


def _quartiles(values: list[float]) -> str:
    """``median | Q1 | Q3 | spread`` as table cells."""
    first, median, third = statistics.quantiles(values, n=4)
    return f"{median:.6g} | {first:.6g} | {third:.6g} | {_spread(values)}" if median else "0 | | | "


def main() -> int:
    from bench.workloads import WORKLOADS

    better = {metric["name"]: metric["better"] for metric in SPEC["end_to_end"]}
    first = {name: _series(name, range(1, RUNS + 1), trace=0) for name in WORKLOADS}
    traced = {name: _series(name, range(1, TRACED_RUNS + 1), trace=1) for name in WORKLOADS}
    second = {name: _series(name, range(RUNS + 1, 2 * RUNS + 1), trace=0) for name in WORKLOADS}
    lines = [
        "# Noise record",
        "",
        f"`python3 -m bench.noise`: two series of {RUNS} untraced runs of {SPEC['run_seconds']} s per workload (seeds",
        f"1-{RUNS}, then {RUNS + 1}-{2 * RUNS}, all workloads in turn) and {TRACED_RUNS} traced runs between them, one fresh",
        "process per run.  Spread = (Q3 - Q1) / median with `statistics.quantiles(values, n=4)`;",
        "`raw spread` is that of the same runs before calibration; `worse by` is how far the",
        "second series' median is on the worse side of the first's.  `samples` are the",
        "operations behind the percentiles of one run, lowest and highest of the series.",
    ]
    for name in WORKLOADS:
        (reported, raw, counted), (again, raw_again, counted_again) = first[name], second[name]
        lines += [
            "",
            f"## {name}: end-to-end",
            "",
            f"samples: {counted}; second series: {counted_again}",
            "",
            "| metric | median | Q1 | Q3 | spread | raw spread | second median | Q1 | Q3 | spread | raw spread | worse by |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for metric, values in reported.items():
            shift = statistics.median(again[metric]) / statistics.median(values) - 1
            worse = shift if better[metric] == "lower" else -shift
            lines.append(
                f"| `{metric}` | {_quartiles(values)} | {_spread(raw[metric])} "
                f"| {_quartiles(again[metric])} | {_spread(raw_again[metric])} | {worse:+.1%} |"
            )
        layers, _, counted = traced[name]
        lines += ["", f"## {name}: per-layer", "", f"samples: {counted}", "", "| metric | median | Q1 | Q3 | spread |", "|---|---|---|---|---|"]
        lines += [f"| `{metric}` | {_quartiles(values)} |" for metric, values in layers.items()]
    (ROOT / "bench" / "NOISE.md").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
