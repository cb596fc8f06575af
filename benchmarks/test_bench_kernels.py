"""Benchmarks for the bitset-division kernel seam.

The numpy bitset kernel must measurably beat the reference python kernel on
the subset-scan-heavy great-divide scenario (the largest division workload
in the suite), measured **same-run** (same machine, same process — no
cross-machine normalization needed).

Wall-clock assertions use best-of-N timings and are skipped entirely under
``--benchmark-disable`` (CI smoke on shared runners); the result-equality
assertions always run.
"""

import time

import pytest

from repro.physical import (
    NestedLoopsGreatDivision,
    RelationScan,
    execute_plan,
    numpy_available,
    use_kernel,
)
from repro.workloads import make_great_division_workload

#: The numpy kernel must beat the python kernel by this factor on the
#: great-divide subset scans (measured ~4× locally; bound kept loose).
KERNEL_SPEEDUP_BOUND = 1.3
REPEATS = 5


def _best_time(plan_factory) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        plan = plan_factory()
        start = time.perf_counter()
        execute_plan(plan)
        best = min(best, time.perf_counter() - start)
    return best


def _timing_enabled(request) -> bool:
    """False under ``--benchmark-disable`` (CI smoke on shared runners)."""
    return not request.config.getoption("--benchmark-disable")


@pytest.fixture(scope="session")
def huge_great_divide_workload():
    """2500 dividend groups × 120 divisor groups → 300k subset scans."""
    return make_great_division_workload(
        dividend_groups=2500,
        dividend_group_size=14,
        divisor_groups=120,
        divisor_group_size=5,
        domain_size=60,
        seed=3,
    )


def _plan(workload):
    return NestedLoopsGreatDivision(RelationScan(workload.dividend), RelationScan(workload.divisor))


@pytest.mark.parametrize(
    "kernel",
    [
        "python",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(not numpy_available(), reason="numpy not installed"),
        ),
    ],
)
def test_bitset_kernel_great_divide(benchmark, huge_great_divide_workload, kernel):
    """The subset-scan-heavy great divide under each bitset kernel."""
    workload = huge_great_divide_workload

    def run():
        with use_kernel(kernel):
            return execute_plan(_plan(workload))

    result = benchmark(run)
    with use_kernel("python"):
        reference = execute_plan(_plan(workload))
    assert result.relation == reference.relation


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_numpy_kernel_speedup_on_great_divide(request, huge_great_divide_workload):
    """Same-run gate: the numpy kernel measurably beats the python kernel."""
    workload = huge_great_divide_workload
    with use_kernel("python"):
        reference = execute_plan(_plan(workload))
    with use_kernel("numpy"):
        vectorized = execute_plan(_plan(workload))
    assert vectorized.relation == reference.relation
    if not _timing_enabled(request):
        return
    with use_kernel("python"):
        python_time = _best_time(lambda: _plan(workload))
    with use_kernel("numpy"):
        numpy_time = _best_time(lambda: _plan(workload))
    speedup = python_time / numpy_time
    assert speedup >= KERNEL_SPEEDUP_BOUND, (
        f"numpy kernel {numpy_time * 1000:.1f} ms vs python "
        f"{python_time * 1000:.1f} ms — only {speedup:.2f}x "
        f"(need {KERNEL_SPEEDUP_BOUND}x)"
    )
