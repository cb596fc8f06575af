"""Benchmarks for the bitset-division kernel seam.

The numpy bitset kernel must measurably beat the reference python kernel on
the subset-scan-heavy great-divide scenario (the largest division workload
in the suite), measured **same-run** (same machine, same process — no
cross-machine normalization needed): the ``numpy-kernel`` row of
``gates.py``.  The result-equality assertions always run.
"""

from functools import partial

import pytest

from gates import check_gate
from repro.physical import (
    NestedLoopsGreatDivision,
    RelationScan,
    execute_plan,
    numpy_available,
    use_kernel,
)
from repro.workloads import make_great_division_workload

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

    def under(kernel):
        """Build the plan off the clock; time it under ``kernel``."""
        plan = _plan(workload)

        def run():
            with use_kernel(kernel):
                return execute_plan(plan)

        return run

    check_gate(request, "numpy-kernel", partial(under, "numpy"), partial(under, "python"))
