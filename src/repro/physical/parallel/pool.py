"""Worker-pool execution of partition sub-plans, under supervision.

A partition task is a small, pickle-friendly description of one serial
sub-plan: the algorithm's *registry name* (not a class object), the inputs
as ``(attribute names, partition)`` pairs — a
:class:`~repro.physical.parallel.exchange.Partition` is dictionaries plus
int32 code buffers, so the payload is integers and each
distinct value once, O(partition) — and any extra operator options.
Workers rebuild the sub-plan over
:class:`~repro.physical.parallel.exchange.PartitionSource` leaves, run it to
completion and ship back the output block, the sub-plan's per-operator
tuple counters (so the parent can aggregate intermediate-result statistics
across partitions) and where its key columns came from.  Tasks that run
inline — one worker, or degraded after retries — are the same values run by
the same :func:`execute_task`, minus the pickling.

Execution strategy, in order of preference:

* ``workers > 1`` and the tasks pickle cleanly → a shared
  :class:`~concurrent.futures.ProcessPoolExecutor`.  The pool is created
  once per process, reused across queries (grown on demand), and handed
  out through a **lease**: growth or :func:`shutdown_pool` while another
  query holds a lease retires the old executor without tearing it down
  under that query's in-flight futures.
* otherwise — one worker requested, a single task, options that cannot
  cross a process boundary (e.g. lambda aggregate functions) — the tasks
  run inline, in order, in the parent process.

Pooled dispatch is **supervised**: each task gets bounded retries with
exponential backoff and jitter (:class:`RetryPolicy`), an optional
per-task timeout, and on a dead pool (:class:`BrokenProcessPool`) the
pool is rebuilt and only the *unfinished* tasks are resubmitted — results
already shipped back are kept.  A task that exhausts its retries degrades
to inline execution; only if that fails too does a structured
:class:`~repro.errors.WorkerError` (carrying task kind, algorithm and
partition index) reach the caller.  Retry/degradation counts are recorded
on the optional :class:`SupervisionReport` and surfaced through
``explain(analyze=True)``.

The ``pool.dispatch`` and ``pool.worker`` fault points
(:mod:`repro.faults`) hook wave dispatch and per-task execution; worker
faults are decided in the coordinator (keeping injection deterministic)
and shipped to the subprocess as a plain picklable effect.
"""

from __future__ import annotations

import os
import pickle
import random
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Optional

from repro.errors import ExecutionError, InjectedFaultError, TaskTimeoutError, WorkerError
from repro.faults import registry as fault_registry
from repro.physical.aggregate import HashAggregate
from repro.physical.base import PhysicalOperator
from repro.physical.division.great_divide_ops import GREAT_DIVIDE_ALGORITHMS
from repro.physical.division.small_divide_ops import SMALL_DIVIDE_ALGORITHMS
from repro.physical.joins import JOIN_ALGORITHMS
from repro.physical.parallel.exchange import Partition, PartitionSource

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "PartitionTask",
    "RetryPolicy",
    "SupervisionReport",
    "build_subplan",
    "execute_task",
    "run_tasks",
    "shutdown_pool",
]

#: One input of a partition task: attribute names plus the partition
#: (code columns; tuple lists for uncoded chunks; a picklable,
#: block-streaming :class:`~repro.storage.spill.SpilledPartition` handle
#: when the exchange ran under a memory budget, which workers re-stream
#: from disk).
InputBlock = tuple[tuple[str, ...], Partition]

#: Output block, per-operator counters and the sub-plan root's
#: ``(key_source, kernel_name)`` (None for operators without key columns).
TaskResult = tuple[list[tuple[Any, ...]], dict[str, int], Optional[tuple[str, str]]]


@dataclass(frozen=True)
class PartitionTask:
    """A serial sub-plan over one partition, described by value.

    ``kind`` selects the operator family (``small_divide``, ``great_divide``,
    ``natural_join``, ``aggregate``); ``algorithm`` is the registry name
    within that family; ``options`` are extra keyword arguments for the
    operator constructor, as items so the dataclass stays hashable-free and
    picklable.
    """

    kind: str
    algorithm: str
    inputs: tuple[InputBlock, ...]
    options: tuple[tuple[str, Any], ...] = field(default=())


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats a failing partition task.

    A task is attempted ``1 + max_retries`` times through the pool; the
    delay before attempt *n*'s resubmission is ``backoff_seconds *
    backoff_multiplier**(n-1)``, stretched by up to ``jitter`` (a
    fraction, drawn from a ``seed``-determined stream so runs reproduce).
    ``timeout_seconds`` bounds one attempt's wall clock (``None`` — the
    default — disables the bound; a timed-out attempt also discards the
    pool, since its worker may be wedged).
    """

    max_retries: int = 2
    backoff_seconds: float = 0.01
    backoff_multiplier: float = 2.0
    jitter: float = 0.1
    timeout_seconds: Optional[float] = None
    seed: int = 0


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class SupervisionReport:
    """Mutable tally the supervisor fills in during one ``run_tasks``."""

    #: Task resubmissions after a transient failure (per retry, not per task).
    tasks_retried: int = 0
    #: Tasks that fell back to inline execution after the pool path gave up.
    tasks_degraded: int = 0


def build_subplan(task: PartitionTask) -> PhysicalOperator:
    """Reconstruct the serial sub-plan a :class:`PartitionTask` describes."""
    sources = tuple(PartitionSource(names, partition) for names, partition in task.inputs)
    options = dict(task.options)
    if task.kind == "small_divide":
        return SMALL_DIVIDE_ALGORITHMS[task.algorithm](*sources, **options)
    if task.kind == "great_divide":
        return GREAT_DIVIDE_ALGORITHMS[task.algorithm](*sources, **options)
    if task.kind == "natural_join":
        return JOIN_ALGORITHMS[task.algorithm](*sources, **options)
    if task.kind == "aggregate":
        (child,) = sources
        specs = options.get("specs")
        if specs is not None:
            # Declarative aggregate specs ship across process boundaries
            # (the built (label, fn) closures do not); rebuild them here.
            aggregations = {spec.output: spec.build() for spec in specs}
        else:
            aggregations = options["aggregations"]
        return HashAggregate(child, options["grouping"], aggregations)
    raise ExecutionError(f"unknown partition task kind {task.kind!r}")


def execute_task(task: PartitionTask) -> TaskResult:
    """Run one partition sub-plan to completion.

    Returns the output as a block of tuples aligned with the sub-plan's
    schema, the sub-plan's per-operator tuple counters keyed in the same
    ``"NN:name"`` walk-position format
    :func:`~repro.physical.base.collect_statistics` uses, and what a
    division root recorded about its key columns.
    """
    plan = build_subplan(task)
    tuples = plan.drain()
    counters = {
        f"{index:02d}:{operator.name}": operator.tuples_out
        for index, operator in enumerate(plan.walk())
    }
    key_source = getattr(plan, "key_source", None)
    keys = None if key_source is None else (key_source, plan.kernel_name)
    return tuples, counters, keys


def _execute_task_with_fault(task: PartitionTask, effect: tuple[str, float]) -> TaskResult:
    """Worker-side wrapper applying a shipped ``pool.worker`` fault effect.

    The coordinator draws the injection decision (keeping the random
    stream in one process) and ships ``(action, delay_seconds)``; only
    here, inside an actual pool subprocess, may ``crash`` hard-kill.
    """
    action, delay_seconds = effect
    if action == "crash":
        os._exit(3)
    if action == "delay":
        time.sleep(delay_seconds)
    else:  # "raise" (and "corrupt", which degrades: there is no payload)
        raise InjectedFaultError("injected fault at pool.worker", point="pool.worker")
    return execute_task(task)


# ----------------------------------------------------------------------
# the shared process pool (leased)
# ----------------------------------------------------------------------
@dataclass
class _PoolHandle:
    """One shared executor plus its lease bookkeeping."""

    executor: ProcessPoolExecutor
    workers: int
    leases: int = 0
    retired: bool = False


_pool_lock = Lock()
_handle: Optional[_PoolHandle] = None


def _lease_pool(workers: int) -> _PoolHandle:
    """Borrow the shared pool, grown to at least ``workers`` slots.

    Growth (or a concurrent :func:`shutdown_pool`) never tears down an
    executor that other leases are still using: the old handle is marked
    retired and shut down by its last lease holder, while new leases get
    a fresh executor — the fix for the shutdown-vs-in-flight race.
    """
    global _handle
    with _pool_lock:
        if _handle is None or _handle.retired or _handle.workers < workers:
            if _handle is not None and not _handle.retired:
                _handle.retired = True
                if _handle.leases == 0:
                    _handle.executor.shutdown(wait=True)
            _handle = _PoolHandle(ProcessPoolExecutor(max_workers=workers), workers)
        _handle.leases += 1
        return _handle


def _release_pool(handle: _PoolHandle, discard: bool = False) -> None:
    """Return a lease; ``discard`` retires the executor (broken/wedged)."""
    global _handle
    with _pool_lock:
        handle.leases -= 1
        if discard:
            handle.retired = True
            if _handle is handle:
                _handle = None
        if handle.retired and handle.leases == 0:
            # Last one out turns off the lights.  wait=False: a discarded
            # pool may hold a wedged worker we must not block on.
            handle.executor.shutdown(wait=not discard)


def shutdown_pool() -> None:
    """Tear down the shared pool (tests; a fresh one is built on demand).

    With leases outstanding the executor is only *retired* — the leasing
    queries finish (or retry) on it and the last release shuts it down.
    """
    global _handle
    with _pool_lock:
        if _handle is not None:
            _handle.retired = True
            if _handle.leases == 0:
                _handle.executor.shutdown(wait=True)
            _handle = None


def _ships_cleanly(tasks: list[PartitionTask]) -> bool:
    """Whether the tasks' *options* survive a process boundary.

    The input partitions are code buffers and relation values and almost
    always pickle; the options can carry arbitrary callables (aggregate
    functions), which is where pickling realistically fails.  Checking just
    the options keeps the pre-flight cheap — a partition that still fails to
    pickle is caught at dispatch time and falls back to inline execution.
    """
    try:
        pickle.dumps([task.options for task in tasks])
        return True
    except Exception:
        return False


# ----------------------------------------------------------------------
# supervised execution
# ----------------------------------------------------------------------
#: Exception types that no amount of retrying will fix: the payload
#: cannot cross the process boundary.  These degrade inline immediately.
_NON_RETRYABLE = (pickle.PicklingError, AttributeError, TypeError)

#: Transient failures worth resubmitting: a dead pool, an injected fault,
#: a timed-out attempt, or an I/O hiccup (spill re-reads in the worker).
_RETRYABLE = (BrokenProcessPool, InjectedFaultError, TaskTimeoutError, OSError, EOFError)


class _WaveFailure(Exception):
    """Internal: one dispatch wave ended with failures.

    ``completed`` maps wave-local task index → result; ``failures`` maps
    index → the exception; ``cancelled`` holds indices whose futures were
    cancelled before running (they resubmit without consuming retry
    budget); ``rebuild`` asks the supervisor to discard the pool.
    """

    def __init__(
        self,
        completed: dict[int, TaskResult],
        failures: dict[int, BaseException],
        cancelled: set[int],
        rebuild: bool,
    ) -> None:
        super().__init__(f"{len(failures)} partition task(s) failed")
        self.completed = completed
        self.failures = failures
        self.cancelled = cancelled
        self.rebuild = rebuild


#: Per-attempt timeout for the wave currently in flight.  ``run_tasks``
#: sets it around each :func:`_bounded_map` call (the function signature
#: is pinned by callers that wrap/monkeypatch it).
_task_timeout_seconds: Optional[float] = None


def _backoff_sleep(policy: RetryPolicy, attempt: int, rng: random.Random) -> None:
    """Sleep before resubmitting a task on its ``attempt``-th retry."""
    if policy.backoff_seconds <= 0:
        return
    delay = policy.backoff_seconds * policy.backoff_multiplier ** max(attempt - 1, 0)
    time.sleep(delay * (1.0 + policy.jitter * rng.random()))


def _worker_fault_effect() -> Optional[tuple[str, float]]:
    """Draw the ``pool.worker`` fault point; picklable effect or None."""
    spec = fault_registry.draw("pool.worker")
    if spec is None:
        return None
    return (spec.action, spec.delay_seconds)


def _execute_supervised_inline(
    task: PartitionTask, partition: int, policy: RetryPolicy, report: SupervisionReport
) -> TaskResult:
    """Inline execution with the same fault surface and retry budget.

    Applies ``pool.worker`` injections (``crash`` degrades to ``raise``:
    the coordinator process is never killed) so a chaos plan exercises
    the inline path too; genuine task errors propagate untouched — they
    are deterministic and retrying cannot help.
    """
    rng = random.Random(f"{policy.seed}:inline:{partition}")
    attempts = 0
    while True:
        attempts += 1
        try:
            effect = _worker_fault_effect()
            if effect is not None:
                action, delay_seconds = effect
                if action == "delay":
                    time.sleep(delay_seconds)
                else:
                    raise InjectedFaultError(
                        "injected fault at pool.worker", point="pool.worker"
                    )
            return execute_task(task)
        except InjectedFaultError as error:
            if attempts > policy.max_retries:
                raise WorkerError(
                    f"partition task failed after {attempts} attempt(s): {error}",
                    kind=task.kind,
                    algorithm=task.algorithm,
                    partition=partition,
                    attempts=attempts,
                ) from error
            report.tasks_retried += 1
            _backoff_sleep(policy, attempts, rng)


def run_tasks(
    tasks: list[PartitionTask],
    workers: int,
    policy: Optional[RetryPolicy] = None,
    report: Optional[SupervisionReport] = None,
) -> list[TaskResult]:
    """Execute partition tasks, returning (output block, counters) per task.

    Results arrive in task order.  Parallel dispatch is used only when it
    can help (more than one task, more than one worker) and the tasks ship
    cleanly; the pooled path is supervised per ``policy`` (retries with
    backoff, optional per-attempt timeout, pool rebuild on death) and a
    task that exhausts its budget degrades to inline execution, which is
    always correct because tasks are self-contained values.
    """
    global _task_timeout_seconds
    policy = policy or DEFAULT_RETRY_POLICY
    report = report if report is not None else SupervisionReport()
    if not (workers > 1 and len(tasks) > 1 and _ships_cleanly(tasks)):
        return [
            _execute_supervised_inline(task, index, policy, report)
            for index, task in enumerate(tasks)
        ]

    rng = random.Random(f"{policy.seed}:supervisor")
    results: dict[int, TaskResult] = {}
    attempts: dict[int, int] = {index: 0 for index in range(len(tasks))}
    pending: list[int] = list(range(len(tasks)))
    degraded: list[int] = []

    def drain_degraded() -> None:
        for index in degraded:
            report.tasks_degraded += 1
            results[index] = _execute_supervised_inline(tasks[index], index, policy, report)
        degraded.clear()

    wave = 0
    while pending:
        wave += 1
        dispatch_spec = fault_registry.draw("pool.dispatch")
        if dispatch_spec is not None and dispatch_spec.action == "delay":
            time.sleep(dispatch_spec.delay_seconds)
            dispatch_spec = None
        if dispatch_spec is not None:
            # The whole wave fails to dispatch: charge every pending task
            # one attempt (so an unbounded plan still terminates in
            # degradation) and retry or degrade them together.
            still_pending: list[int] = []
            for index in pending:
                attempts[index] += 1
                if attempts[index] > policy.max_retries:
                    degraded.append(index)
                else:
                    report.tasks_retried += 1
                    still_pending.append(index)
            pending = still_pending
            drain_degraded()
            if pending:
                _backoff_sleep(policy, max(attempts[i] for i in pending), rng)
            continue

        handle = _lease_pool(workers)
        discard = False
        try:
            wave_tasks = [tasks[index] for index in pending]
            _task_timeout_seconds = policy.timeout_seconds
            try:
                wave_results = _bounded_map(handle.executor, wave_tasks, workers)
            except _WaveFailure as failure:
                discard = failure.rebuild
                for local, result in failure.completed.items():
                    results[pending[local]] = result
                still_pending = []
                propagate: Optional[BaseException] = None
                for local in range(len(wave_tasks)):
                    index = pending[local]
                    if local in failure.completed:
                        continue
                    error = failure.failures.get(local)
                    if error is None:
                        # Cancelled before it ran: resubmit for free.
                        still_pending.append(index)
                    elif isinstance(error, _NON_RETRYABLE):
                        degraded.append(index)
                    elif isinstance(error, _RETRYABLE):
                        attempts[index] += 1
                        if attempts[index] > policy.max_retries:
                            degraded.append(index)
                        else:
                            report.tasks_retried += 1
                            still_pending.append(index)
                    else:
                        # A deterministic task failure: retrying cannot
                        # change it — surface the original error.
                        propagate = error
                if propagate is not None:
                    raise propagate
                pending = still_pending
                if pending:
                    _backoff_sleep(policy, max(attempts[i] for i in pending), rng)
            else:
                for local, result in enumerate(wave_results):
                    results[pending[local]] = result
                pending = []
            finally:
                _task_timeout_seconds = None
        finally:
            _release_pool(handle, discard=discard)

        drain_degraded()

    return [results[index] for index in range(len(tasks))]


def _bounded_map(
    pool: ProcessPoolExecutor, tasks: list[PartitionTask], limit: int
) -> list[TaskResult]:
    """``pool.map`` with at most ``limit`` tasks in flight, in task order.

    The shared pool only ever *grows* (cheap reuse across queries), so a
    run that asks for fewer workers than the pool holds must be throttled
    here — otherwise ``execute_plan(plan, workers=2)`` after a 4-worker
    query would still fan out 4-wide and defeat the resource cap.

    Failure never abandons futures: the first failure stops new
    submissions, cancels what has not started, drains what is running
    (collecting late results and late failures alike) and raises a
    :class:`_WaveFailure` carrying every outcome — except on a per-task
    timeout, where draining could block on a wedged worker; there the
    remaining futures are cancelled-or-abandoned and the pool is flagged
    for rebuild, which tears the wedged workers down.
    """
    timeout = _task_timeout_seconds
    completed: dict[int, TaskResult] = {}
    failures: dict[int, BaseException] = {}
    cancelled: set[int] = set()
    rebuild = False
    abort = False
    in_flight: deque[tuple[int, Future]] = deque()
    total = len(tasks)
    next_index = 0

    while next_index < total or in_flight:
        while not abort and next_index < total and len(in_flight) < limit:
            index = next_index
            next_index += 1
            effect = _worker_fault_effect()
            try:
                if effect is None:
                    future = pool.submit(execute_task, tasks[index])
                else:
                    future = pool.submit(_execute_task_with_fault, tasks[index], effect)
            except BaseException as error:  # pool shut down / broken at submit
                failures[index] = error
                rebuild = True
                abort = True
                break
            in_flight.append((index, future))
        if not in_flight:
            break
        index, future = in_flight.popleft()
        if abort and future.cancel():
            cancelled.add(index)
            continue
        try:
            completed[index] = future.result(timeout)
        except FuturesTimeoutError:
            task = tasks[index]
            failures[index] = TaskTimeoutError(
                f"partition task exceeded {timeout}s "
                f"({task.kind}/{task.algorithm}, partition {index})",
                kind=task.kind,
                algorithm=task.algorithm,
                partition=index,
                attempts=1,
            )
            rebuild = True
            # The worker may be wedged: do not drain, cancel what we can
            # and abandon the rest — the supervisor discards the pool.
            while in_flight:
                other, remaining = in_flight.popleft()
                if remaining.cancel() or not remaining.done():
                    cancelled.add(other)
                elif remaining.exception() is None:
                    completed[other] = remaining.result()
                else:
                    failures[other] = remaining.exception()  # type: ignore[assignment]
            break
        except BrokenProcessPool as error:
            failures[index] = error
            rebuild = True
            abort = True
        except BaseException as error:
            failures[index] = error
            abort = True

    cancelled.update(range(next_index, total))
    if failures:
        raise _WaveFailure(completed, failures, cancelled, rebuild)
    return [completed[index] for index in range(total)]
