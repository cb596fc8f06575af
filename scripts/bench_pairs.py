#!/usr/bin/env python3
"""Alternating parent/change runs of one ``python3 -m bench`` workload.

A speed claim on a noisy machine needs pairs: each pair runs the same
workload and seed on the parent revision and on the change, in alternating
order, so a slow spell hits both sides.  The claim holds (the house rule)
when the change is better on at least nine pairs in ten, its median is
further from the parent's than the distance between the parent's quartiles,
and no more of its operations fail than the parent's.

    python3 scripts/bench_pairs.py --workload divide_mem --parent HEAD~1
    make bench-pairs WORKLOAD=divide_mem PARENT=HEAD~1

With ``--bounds`` it checks a workload the change does not claim instead:
for every end-to-end metric it prints how the change's median compares
with the parent's and whether that stays inside the metric's ``bound`` in
``BENCHMARK.json``, or is unresolved because the parent's own spread is
wider than the bound (``make bench-guard WORKLOAD=view_churn PAIRS=3``).

The parent is extracted with ``git archive`` into a temporary directory;
the change is this checkout as it stands (uncommitted edits included).  A
first pair on one more seed is run and not counted: it warms the file
cache and the interpreter's bytecode on both sides.  Every run lasts
``BENCHMARK.json``'s ``run_seconds``; the seeds are ``FIRST_SEED`` (the
unused pair) and the ones after it.  Nothing here needs the network, and
nothing under ``bench/`` is written except its ``out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FIRST_SEED = 30


@dataclass(frozen=True)
class Verdict:
    """The house rule over the pairs of one metric."""

    pairs: int
    wins: int
    parent_median: float
    change_median: float
    parent_iqr: float
    higher_is_better: bool
    failed: tuple[int, int]  # failed operations over every run, parent's first
    separated: bool  # every run of the change reads better than every run of the parent

    @property
    def holds(self) -> bool:
        """Better on at least nine pairs in ten, the change's median better
        than the parent's by more than the parent's inter-quartile distance,
        and no more of the change's operations failed."""
        sign = 1 if self.higher_is_better else -1
        gain = sign * (self.change_median - self.parent_median)
        return (
            self.pairs > 0
            and 10 * self.wins >= 9 * self.pairs
            and gain > self.parent_iqr
            and self.failed[1] <= self.failed[0]
        )

    @property
    def relative(self) -> float:
        """The change's median over the parent's, minus 1.  The metrics are
        never negative, so from a parent's 0 any rise is an infinite one."""
        if self.parent_median:
            return self.change_median / self.parent_median - 1
        return 0.0 if self.change_median == 0 else math.inf

    def against(self, bound: float) -> str:
        """The no-regression rule for a metric the change does not claim:
        "inside" when the change's median is worse than the parent's by no
        more than ``bound`` (a fraction of the parent's median), else
        "OUTSIDE"; "unresolved" when the parent's inter-quartile distance is
        wider than the bound, unless every run of the change reads better."""
        if self.parent_iqr > bound * self.parent_median and not self.separated:
            return "unresolved"
        worse = -self.relative if self.higher_is_better else self.relative
        return "inside" if worse <= bound else "OUTSIDE"


def verdict(
    parent: list[float],
    change: list[float],
    higher_is_better: bool,
    failed: tuple[int, int],
) -> Verdict:
    """Pair ``i`` is ``(parent[i], change[i])``; a tie is no win.
    ``failed`` is each side's failed operations over its runs, the
    parent's first."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one or more pairs, each with a parent and a change value")
    sign = 1 if higher_is_better else -1
    wins = sum(1 for old, new in zip(parent, change) if sign * (new - old) > 0)
    low, _, high = (
        statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
    )
    best, worst = (max, min) if higher_is_better else (min, max)
    return Verdict(
        len(parent),
        wins,
        statistics.median(parent),
        statistics.median(change),
        high - low,
        higher_is_better,
        failed,
        sign * (worst(change) - best(parent)) > 0,
    )


def extract(rev: str, into: Path) -> Path:
    """The tree of ``rev`` written under ``into`` (``git archive``)."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_bench(root: Path, workload: str, seed: int) -> dict:
    """One ``python3 -m bench`` run in ``root``, as long as the driver's: its
    JSON line."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=root, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def higher_is_better(metric: str) -> bool:
    """The metric's direction, as ``BENCHMARK.json`` declares it."""
    for entry in SPEC["end_to_end"]:
        if entry["name"] == metric:
            return entry["better"] == "higher"
    raise SystemExit(f"{metric!r} is not an end-to-end metric of BENCHMARK.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument(
        "--metric", action="append", help="an end-to-end metric (repeatable; ops_per_s if none)"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--bounds", action="store_true", help="check every end-to-end metric against its bound"
    )
    args = parser.parse_args(argv)
    if args.bounds:
        names = [entry["name"] for entry in SPEC["end_to_end"]]
    else:
        names = args.metric or ["ops_per_s"]
    metrics = {metric: higher_is_better(metric) for metric in names}

    values: dict[str, dict[str, list[float]]] = {
        metric: {"parent": [], "change": []} for metric in metrics
    }
    failed: Counter[str] = Counter()  # over every run, the unused pair's too
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        parent_root = extract(args.parent, Path(scratch))
        for index in range(args.pairs + 1):
            seed = FIRST_SEED + index
            sides = [("parent", parent_root), ("change", ROOT)]
            if index % 2:
                sides.reverse()  # alternate which side runs first
            results = {name: run_bench(root, args.workload, seed) for name, root in sides}
            seed_failed = {name: result["failed"] for name, result in results.items()}
            failed.update(seed_failed)
            if any(seed_failed.values()):
                print(f"seed {seed}: failed operations {seed_failed}")
            unused = " (unused)" if index == 0 else ""
            for metric in metrics:
                pair = {name: run["metrics"][metric]["value"] for name, run in results.items()}
                print(
                    f"seed {seed} {metric}: parent {pair['parent']:.4g}  "
                    f"change {pair['change']:.4g}{unused}"
                )
                if index:
                    for name, value in pair.items():
                        values[metric][name].append(value)
            sys.stdout.flush()

    bounds = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
    for metric, higher in metrics.items():
        result = verdict(
            values[metric]["parent"],
            values[metric]["change"],
            higher,
            (failed["parent"], failed["change"]),
        )
        head = (
            f"{args.workload} {metric} ({'higher' if higher else 'lower'} is better): "
            f"median parent {result.parent_median:.4g} → change {result.change_median:.4g} "
            f"({result.relative:+.1%}), parent IQR {result.parent_iqr:.4g}"
        )
        if args.bounds:
            bound = bounds[metric]
            print(f"{head}, bound {bound:.0%}: {result.against(bound)}")
            continue
        print(
            f"{head}, wins {result.wins}/{result.pairs}, "
            f"failed operations {failed['parent']} → {failed['change']}; "
            f"verdict: the claim {'holds' if result.holds else 'does not hold'}"
        )
    if args.bounds:
        print(f"failed operations {failed['parent']} → {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
