"""Every same-run benchmark gate: one table, checked by one function.

A gate times two plans of the same answer in one process — a law's
left-hand side against its right-hand side, one algorithm against another,
a path against its control arm — and bounds their ratio.  Both timings
come from the same machine in the same run, so a gate needs no committed
baseline and holds on any hardware.  (Absolute speed is measured end to
end by ``python3 -m bench``.)

Every row of :data:`GATES` reads ``arm ≤ bound × reference + floor``.  The
``floor`` (seconds) shields millisecond scenarios from scheduler jitter.

:func:`check_gate` owns the timing: each arm is a *run*, a callable that
prepares one repetition off the clock and returns the callable that is
timed.  The runs alternate for :data:`REPEATS` rounds, so a noisy spell
hits every arm, and the best time of each counts.  Under
``--benchmark-disable`` (the CI smoke job on shared runners) it returns
before timing anything; the calling test's parity assertions still run.
Each measured gate is listed in the terminal summary (``conftest.py``).
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

import pytest

#: Timed rounds per gate; the best round of each arm counts.
REPEATS = 5

#: One repetition of an arm: prepare off the clock, return what is timed.
Run = Callable[[], Callable[[], Any]]

#: The measured lines :func:`check_gate` hands to the terminal summary.
MEASURED = pytest.StashKey[list]()


@dataclass(frozen=True)
class Gate:
    """``arm ≤ bound × reference + floor``, both arms timed in one run."""

    name: str
    arm: str
    reference: str
    bound: float
    floor: float = 0.0

    def limit(self, reference_seconds: float) -> float:
        return self.bound * reference_seconds + self.floor

    def failure(self, arm_seconds: float, reference_seconds: float) -> str | None:
        """The failure message, or ``None`` when the timings hold the bound."""
        limit = self.limit(reference_seconds)
        if arm_seconds <= limit:
            return None
        return (
            f"gate {self.name!r}: {self.arm} took {arm_seconds * 1e3:.3f} ms, over the bound "
            f"{self.bound:.3g} × {self.reference} ({reference_seconds * 1e3:.3f} ms) "
            f"+ {self.floor * 1e3:g} ms = {limit * 1e3:.3f} ms"
        )


GATES = {
    gate.name: gate
    for gate in (
        Gate("metadata-analyze", "ANALYZE from save-time metadata", "a full statistics scan", 0.2),
        Gate(
            "zone-map-skip",
            "the zone-map-skipping stored scan",
            "the full stored scan",
            1.0,
            floor=0.001,
        ),
        Gate(
            "view-per-edit",
            "a maintained view read after each edit",
            "recompute after each edit",
            0.1,
        ),
        Gate("edit-cost-flat", "single-row edits at 200k tuples", "the same at 20k", 2.0),
        Gate(
            "rewrite-cost-flat",
            "the rewrite after an edit at 200k tuples",
            "the same at 20k",
            2.0,
        ),
        Gate("numpy-kernel", "the numpy bitset kernel", "the python kernel", 1 / 1.3),
        Gate(
            "planner-choice",
            "the cost-chosen division algorithm",
            "the best forced algorithm",
            1.5,
            floor=0.003,
        ),
        Gate(
            "workers1-overhead",
            "workers=1 partitioned division",
            "the serial hash division",
            1.10,
            floor=0.005,
        ),
        Gate(
            "parallel-pick-division",
            "the planner's pick for the division",
            "the faster of serial and partitioned",
            1.2,
        ),
        Gate(
            "parallel-pick-join",
            "the planner's pick for the join",
            "the faster of serial and partitioned",
            1.2,
        ),
        Gate(
            "checksum-read",
            "reading checksummed blocks",
            "reading with checksums=False",
            1.05,
            floor=0.002,
        ),
        Gate(
            "checksum-write",
            "writing checksummed blocks",
            "writing with checksums=False",
            1.05,
            floor=0.002,
        ),
    )
}


def _best_times(runs: list[Run]) -> dict[Run, float]:
    """Best time of each run, the cyclic collector off while one is timed
    (as ``timeit`` does): a collection's cost is the size of the whole
    session's heap, which a worker process's arm never pays."""
    best = dict.fromkeys(runs, float("inf"))
    for _round in range(REPEATS):
        for run in runs:
            timed = run()
            gc.disable()
            try:
                start = time.perf_counter()
                timed()
                best[run] = min(best[run], time.perf_counter() - start)
            finally:
                gc.enable()
    return best


def check_gate(request, name: str, arm: Run, reference: Run | Mapping[str, Run]) -> None:
    """Time ``arm`` against ``reference`` and assert row ``name`` of :data:`GATES`.

    ``reference`` is one run, or runs by label whose fastest is the
    reference (the best forced algorithm, the faster of two plans); ``arm``
    may be one of them, and is then timed once.
    """
    gate = GATES[name]
    if request.config.getoption("--benchmark-disable"):
        return
    references = reference if isinstance(reference, Mapping) else {gate.reference: reference}
    best = _best_times(list(dict.fromkeys([arm, *references.values()])))
    arm_seconds = best[arm]
    reference_seconds = min(best[run] for run in references.values())
    failure = gate.failure(arm_seconds, reference_seconds)
    timings = ", ".join(f"{label} {best[run] * 1e3:.3f} ms" for label, run in references.items())
    request.config.stash.setdefault(MEASURED, []).append(
        f"{request.node.name}: {gate.name} {arm_seconds / reference_seconds:.3f}× "
        f"(arm {arm_seconds * 1e3:.3f} ms; {timings}; bound {gate.bound:.3g}× "
        f"+ {gate.floor * 1e3:g} ms){' FAILED' if failure else ''}"
    )
    assert failure is None, f"{failure} [{timings}]"
