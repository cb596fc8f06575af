"""The fault-point registry: arming plans and firing decisions.

The engine's failure surfaces each declare one **fault point** — a stable
dotted name listed in :data:`FAULT_POINTS` — and consult this module at
that location.  With no plan installed every consultation is a cheap
``None``-check, so production paths pay one attribute load; with a plan
armed (``connect(faults=...)`` or ``REPRO_FAULTS``), the matching specs
decide deterministically whether to raise, sleep or corrupt a payload.

Call sites consult :func:`fire`, which applies the effect in place:
``payload = fire("spill.write", payload)`` raises/sleeps here and returns
a (possibly corrupted) payload.  :func:`draw` is the decision alone: it
returns the firing spec (already counted) and lets the caller act.

Injection counts are kept per point and surfaced through
``explain(analyze=True)`` — the executor snapshots
:func:`injection_counters` around each run and reports the delta.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import InjectedFaultError
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "FAULT_POINTS",
    "active_plan",
    "clear_plan",
    "draw",
    "fire",
    "injection_counters",
    "install_plan",
    "reset_counters",
]

#: Every fault point the engine declares.  A plan naming anything else is
#: flagged by the RP704 verifier check (the registry itself stays lenient
#: so the typo is *reportable* rather than silently inert).
FAULT_POINTS = frozenset(
    {
        "storage.block_read",  # TableReader, before a block payload / summary section is checked
        "storage.manifest_load",  # load_store, before the manifest is parsed
        "storage.table_write",  # save_database, before each table file commit
        "storage.manifest_write",  # save_database, before the manifest replace
        "spill.write",  # SpillWriter.append, around the payload write
        "spill.read",  # SpilledPartition.iter_blocks, per block payload
    }
)

#: Environment variable holding a :meth:`FaultPlan.parse` plan string.
ENV_FAULTS = "REPRO_FAULTS"


@dataclass
class _ArmedSpec:
    """One spec plus its mutable firing state (rng stream, budget left)."""

    spec: FaultSpec
    rng: random.Random
    remaining: Optional[int]


_lock = threading.Lock()
_plan: Optional[FaultPlan] = None
_armed: dict[str, list[_ArmedSpec]] = {}
_counters: dict[str, int] = {}


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-wide (replacing any previous plan).

    ``None`` (or an empty plan) disarms injection entirely.  Counters
    are preserved across installs so an executor's before/after snapshot
    stays monotone.
    """
    global _plan, _armed
    if plan is not None and not isinstance(plan, FaultPlan):
        raise TypeError(f"expected a FaultPlan or None, got {plan!r}")
    with _lock:
        if plan is None or not plan.specs:
            _plan = None
            _armed = {}
            return
        armed: dict[str, list[_ArmedSpec]] = {}
        for spec in plan.specs:
            # One rng stream per (seed, point, action): decisions at one
            # point never depend on what other points drew.
            rng = random.Random(f"{plan.seed}:{spec.point}:{spec.action}")
            armed.setdefault(spec.point, []).append(
                _ArmedSpec(spec=spec, rng=rng, remaining=spec.limit)
            )
        _plan = plan
        _armed = armed


def clear_plan() -> None:
    """Disarm injection (equivalent to ``install_plan(None)``)."""
    install_plan(None)


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or ``None``."""
    return _plan


def injection_counters() -> dict[str, int]:
    """A snapshot of cumulative injections per point (this process)."""
    with _lock:
        return dict(_counters)


def reset_counters() -> None:
    """Zero the injection counters (tests)."""
    with _lock:
        _counters.clear()


def draw(point: str) -> Optional[FaultSpec]:
    """Decide whether ``point`` fires now; count and return the spec.

    Returns ``None`` with no plan armed or when every matching spec
    declines (probability miss or exhausted limit).
    """
    if _plan is None:
        return None
    with _lock:
        for armed in _armed.get(point, ()):
            if armed.remaining is not None and armed.remaining <= 0:
                continue
            if armed.spec.probability < 1.0 and armed.rng.random() >= armed.spec.probability:
                continue
            if armed.remaining is not None:
                armed.remaining -= 1
            _counters[point] = _counters.get(point, 0) + 1
            return armed.spec
    return None


def fire(point: str, payload: Any = None) -> Any:
    """Consult ``point`` and apply the effect in place.

    * no firing → ``payload`` unchanged;
    * ``delay`` → sleep, then ``payload`` unchanged;
    * ``corrupt`` with a ``bytes`` payload → the payload with one byte
      flipped (so downstream checksums must catch it);
    * anything else (``raise``, ``crash``, ``corrupt`` without a
      payload) → :class:`InjectedFaultError`.
    """
    spec = draw(point)
    if spec is None:
        return payload
    if spec.action == "delay":
        time.sleep(spec.delay_seconds)
        return payload
    if spec.action == "corrupt" and isinstance(payload, (bytes, bytearray)) and payload:
        # Flip one bit mid-payload — position chosen from the payload
        # alone so the corruption reproduces across processes and runs.
        corrupted = bytearray(payload)
        corrupted[len(corrupted) // 2] ^= 0x01
        return bytes(corrupted)
    raise InjectedFaultError(f"injected fault at {point}", point=point)


def plan_from_environment() -> Optional[FaultPlan]:
    """The plan described by ``REPRO_FAULTS``, or ``None`` when unset."""
    text = os.environ.get(ENV_FAULTS, "").strip()
    if not text:
        return None
    return FaultPlan.parse(text)


# Arm the environment plan at import time, mirroring REPRO_VERIFY: setting
# REPRO_FAULTS makes *every* run in the process subject to the plan without
# touching call sites.  connect(faults=...) overrides it per install.
_environment_plan = plan_from_environment()
if _environment_plan is not None:
    install_plan(_environment_plan)
