"""Execution driver: run a physical plan and collect statistics.

The driver consumes the plan's chunk stream directly
(:meth:`~repro.physical.base.PhysicalOperator.execute` pulls
``_produce_chunks()`` through the counting ``chunks()`` wrapper) into a
:class:`~repro.relation.relation.Relation` that holds the tuple block;
``Row`` objects are built only when someone asks for them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import VerificationError
from repro.faults import registry as fault_registry
from repro.physical.base import PhysicalOperator, PlanStatistics, collect_statistics
from repro.relation.relation import Relation
from repro.relation.row import Row

__all__ = ["ExecutionResult", "execute_plan", "set_debug_verify"]

#: Process-wide debug switch: when True every execute_plan() call verifies
#: its plan first.  Seeded from the REPRO_VERIFY environment variable so
#: test runs and CI can switch the hook on without touching call sites.
_DEBUG_VERIFY = os.environ.get("REPRO_VERIFY", "").strip().lower() in {"1", "true", "on", "yes"}


def set_debug_verify(enabled: bool) -> bool:
    """Toggle the pre-execution verification hook; returns the old value."""
    global _DEBUG_VERIFY
    previous = _DEBUG_VERIFY
    _DEBUG_VERIFY = bool(enabled)
    return previous


def _verify_before_execution(plan: PhysicalOperator) -> None:
    # Imported lazily: the analysis package pulls in most of the physical
    # layer, and the hook is off on the production path.
    from repro.analysis.check import verify_plan

    report = verify_plan(plan)
    if not report.ok:
        raise VerificationError(
            "plan failed pre-execution verification:\n" + report.render(), report=report
        )


@dataclass(frozen=True)
class ExecutionResult:
    """The materialized result of a plan plus its runtime statistics."""

    relation: Relation
    statistics: PlanStatistics

    @property
    def max_intermediate(self) -> int:
        """Largest intermediate result produced while executing the plan."""
        return self.statistics.max_intermediate

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds the plan execution took."""
        return self.statistics.elapsed_seconds

    def rows(self) -> Iterator[Row]:
        """Iterate over the rows of the (already materialized) result."""
        return iter(self.relation)

    def __len__(self) -> int:
        return len(self.relation)


def execute_plan(
    plan: PhysicalOperator,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    verify: Optional[bool] = None,
    memory_budget_mb: Optional[float] = None,
) -> ExecutionResult:
    """Execute ``plan`` from a cold start and return result + statistics.

    ``batch_size`` (when given) sets the chunk size for the whole plan
    before execution; ``memory_budget_mb`` (when given) makes the plan's
    exchange operators spill buffered partitions to disk once they
    outgrow the budget.  The produced relation and per-operator tuple
    counts are independent of both.  ``workers`` is accepted and has no
    effect: ``bench/`` passes it; the [benchmark] PR (ROADMAP item 1)
    deletes it.

    ``verify=True`` (or the process-wide debug switch, ``REPRO_VERIFY=1``
    in the environment or :func:`set_debug_verify`) statically verifies the
    plan first and raises :class:`~repro.errors.VerificationError` on any
    severity-``error`` finding; ``verify=False`` skips the hook even when
    the debug switch is on.
    """
    if batch_size is not None:
        plan.set_batch_size(batch_size)
    if memory_budget_mb is not None:
        plan.set_memory_budget(memory_budget_mb)
    plan.reset_counters()
    plan.assign_labels()
    should_verify = _DEBUG_VERIFY if verify is None else verify
    if should_verify:
        _verify_before_execution(plan)
    faults_before = (
        fault_registry.injection_counters() if fault_registry.active_plan() else {}
    )
    start = time.perf_counter()
    relation = plan.execute()
    elapsed = time.perf_counter() - start
    statistics = collect_statistics(plan)
    statistics.elapsed_seconds = elapsed
    if fault_registry.active_plan():
        statistics.faults_injected = {
            point: count - faults_before.get(point, 0)
            for point, count in fault_registry.injection_counters().items()
            if count - faults_before.get(point, 0) > 0
        }
    return ExecutionResult(relation=relation, statistics=statistics)
