"""Deterministic fault injection for the storage and spill layers.

Public surface::

    from repro.faults import FaultPlan, FaultSpec

    db = repro.connect(catalog, faults=FaultPlan([
        FaultSpec("storage.block_read", "corrupt", limit=1),
    ]))

or, without touching code, ``REPRO_FAULTS="spill.write:raise:0.5"``.
See :mod:`repro.faults.plan` for the plan/spec value types and
:mod:`repro.faults.registry` for the armed-plan machinery and the list
of registered fault points.
"""

from repro.faults.plan import ACTIONS, FaultPlan, FaultSpec
from repro.faults.registry import (
    FAULT_POINTS,
    active_plan,
    clear_plan,
    draw,
    fire,
    injection_counters,
    install_plan,
    reset_counters,
)

__all__ = [
    "ACTIONS",
    "FAULT_POINTS",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "clear_plan",
    "draw",
    "fire",
    "injection_counters",
    "install_plan",
    "reset_counters",
]
