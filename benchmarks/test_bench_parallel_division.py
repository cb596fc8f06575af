"""Benchmarks for partition-parallel execution on ≥100k-tuple inputs.

The acceptance contract of the parallel subsystem:

* ``workers=1`` partitioned execution (one partition, no hash pass, no
  pool) stays within ~10% of the plain serial operator;
* at ``workers=N > 1`` the **planner's decision** is right: the serial plan
  and the hand-built partitioned plan are timed in the same run, the
  session's planner is asked which of the two it picks, and
  ``scripts/bench_compare.py --parallel N`` fails when its pick is more
  than ``PARALLEL_PICK_BOUND`` times slower than the faster arm.  Two
  scenarios, one on each side of the exchange's price: the hash division
  on dictionary codes (3.3 ms serial against 8 ms partitioned at
  ``workers=2`` — the exchange costs more per tuple than the division)
  and a tuple-at-a-time hash join whose inputs take the tuple route.

There is no speed-up bound: the 2-vCPU box every number of this project is
measured on gives two busy processes 1.0–1.7× the throughput of one, so it
cannot show one.  The gate holds on any machine because it compares the
planner's pick with what that machine measures.

Wall-clock assertions use best-of-N timings and are skipped entirely under
``--benchmark-disable`` (CI smoke on shared runners); the result-equality
assertions always run.  ``--workers N`` (see ``benchmarks/conftest.py``)
pins the parametrized worker counts, which is how the CI perf-smoke job
runs the suite once with ``--workers 2``.
"""

import time

import pytest

from repro.algebra import builders as B
from repro.api import connect
from repro.physical import (
    HashDivision,
    HashJoin,
    PartitionedDivision,
    PartitionedHashJoin,
    ProjectOp,
    RelationScan,
    execute_plan,
)
from repro.relation import Relation

DIVIDE_SQL = "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b"

#: workers=1 partitioned must stay within this factor of plain serial.
SERIAL_OVERHEAD_BOUND = 1.10
REPEATS = 5


def _planner_pick(tables, query, workers) -> str:
    """Which arm a ``workers=N`` session's planner picks for ``query`` (SQL
    text, or a function from the session's catalog to an expression)."""
    db = connect(tables, workers=workers)
    (decision,) = db.execute(query(db.catalog) if callable(query) else query).decisions
    return "partitioned" if decision.chosen.workers > 1 else "serial"


def _serial_plan(workload):
    return HashDivision(RelationScan(workload.dividend), RelationScan(workload.divisor))


def _partitioned_plan(workload, workers, partitions=None):
    return PartitionedDivision(
        RelationScan(workload.dividend),
        RelationScan(workload.divisor),
        algorithm="hash",
        partitions=partitions if partitions is not None else workers,
        workers=workers,
    )


def _best_time(plan_factory) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        plan = plan_factory()
        start = time.perf_counter()
        execute_plan(plan)
        best = min(best, time.perf_counter() - start)
    return best


def test_serial_division(benchmark, huge_divide_workload):
    """Baseline: the plain serial hash division on the 100k dividend."""
    result = benchmark(lambda: execute_plan(_serial_plan(huge_divide_workload)))
    assert len(result.relation) == huge_divide_workload.expected_quotient_size


def test_partitioned_division(benchmark, huge_divide_workload, exchange_workers):
    """Partitioned execution at each benchmarked worker count."""
    result = benchmark(
        lambda: execute_plan(_partitioned_plan(huge_divide_workload, exchange_workers))
    )
    assert len(result.relation) == huge_divide_workload.expected_quotient_size
    serial = execute_plan(_serial_plan(huge_divide_workload))
    assert result.relation == serial.relation
    tables = {"r1": huge_divide_workload.dividend, "r2": huge_divide_workload.divisor}
    benchmark.extra_info["planner_pick"] = _planner_pick(tables, DIVIDE_SQL, exchange_workers)


def test_workers1_partitioned_is_near_serial(benchmark, huge_divide_workload):
    """The zero-overhead fallback: K=1 skips the hash pass and the pool."""
    partitioned_time = benchmark(
        lambda: _best_time(lambda: _partitioned_plan(huge_divide_workload, workers=1))
    )
    if not benchmark.enabled:
        # --benchmark-disable (CI smoke): plan shape + equality only.
        result = execute_plan(_partitioned_plan(huge_divide_workload, workers=1))
        assert len(result.relation) == huge_divide_workload.expected_quotient_size
        return
    serial_time = _best_time(lambda: _serial_plan(huge_divide_workload))
    assert partitioned_time <= serial_time * SERIAL_OVERHEAD_BOUND + 0.005, (
        f"workers=1 partitioned {partitioned_time * 1000:.1f} ms vs "
        f"serial {serial_time * 1000:.1f} ms"
    )


@pytest.fixture(scope="module")
def join_tables(huge_divide_workload):
    """``l(a, b, x)`` with the 104k dividend tuples and one ``r(a, c, y)``
    tuple per quotient candidate; the join projects ``x`` and ``y`` away
    first, so both of its inputs arrive as value tuples."""
    pairs = huge_divide_workload.dividend.aligned_tuples()
    keys = sorted({a for a, _b in pairs})
    return {
        "l": Relation(["a", "b", "x"], [(a, b, 0) for a, b in pairs]),
        "r": Relation(["a", "c", "y"], [(a, index % 7, 0) for index, a in enumerate(keys)]),
    }


def _join_query(catalog):
    left, right = B.project(catalog.ref("l"), ["a", "b"]), B.project(catalog.ref("r"), ["a", "c"])
    return B.natural_join(left, right)


def _join_inputs(tables):
    return (
        ProjectOp(RelationScan(tables["l"]), ["a", "b"]),
        ProjectOp(RelationScan(tables["r"]), ["a", "c"]),
    )


def test_serial_join(benchmark, join_tables):
    """Baseline: the plain serial hash join over tuple inputs."""
    result = benchmark(lambda: execute_plan(HashJoin(*_join_inputs(join_tables))))
    assert len(result.relation) == len(join_tables["l"])


def test_partitioned_join(benchmark, join_tables, exchange_workers):
    """The same join behind a tuple-route exchange."""
    if exchange_workers == 1:
        pytest.skip("the inline fallback is gated on the division scenario")

    def partitioned():
        return PartitionedHashJoin(
            *_join_inputs(join_tables), partitions=exchange_workers, workers=exchange_workers
        )

    benchmark(lambda: execute_plan(partitioned()))
    plan = partitioned()
    assert plan.execute() == HashJoin(*_join_inputs(join_tables)).execute()
    assert plan.exchange_input == "tuples"
    benchmark.extra_info["planner_pick"] = _planner_pick(join_tables, _join_query, exchange_workers)
