"""Shared workloads for the benchmark suite.

Sizes are chosen so the full suite runs in a few minutes on a laptop while
still showing the asymptotic effects the paper appeals to (quadratic
intermediate results, partitioning benefits, join-elimination savings).
The same-run gates live in ``gates.py``; the terminal summary lists every
gate the run measured.
"""

from __future__ import annotations

import os

import pytest

from gates import MEASURED
from repro.algebra.catalog import Catalog
from repro.workloads import (
    generate_catalog,
    make_division_workload,
    make_great_division_workload,
)

#: Worker counts the parallel benchmarks are parametrized over.
WORKER_COUNTS = [1, 2, 4] if (os.cpu_count() or 1) >= 4 else [1, 2]


def pytest_generate_tests(metafunc):
    if "exchange_workers" in metafunc.fixturenames:
        metafunc.parametrize("exchange_workers", WORKER_COUNTS)
    if "pool_workers" in metafunc.fixturenames:  # the counts that start a pool
        metafunc.parametrize("pool_workers", WORKER_COUNTS[1:])


def pytest_terminal_summary(terminalreporter, config):
    """Print every same-run gate the run measured (``gates.check_gate``)."""
    measured = config.stash.get(MEASURED, [])
    if measured:
        terminalreporter.section("same-run gates: arm / reference")
        for line in measured:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_divide_workload():
    """A medium small-divide workload: 400 groups, divisor of 8 values."""
    return make_division_workload(
        num_groups=400, divisor_size=8, containing_fraction=0.25, extra_values_per_group=6, seed=1
    )


@pytest.fixture(scope="session")
def large_divide_workload():
    """A larger workload used by the quadratic-intermediate benchmark."""
    return make_division_workload(
        num_groups=1200, divisor_size=10, containing_fraction=0.2, extra_values_per_group=6, seed=2
    )


@pytest.fixture(scope="session")
def huge_divide_workload():
    """A ≥100k-tuple dividend for the partition-parallel benchmarks."""
    workload = make_division_workload(
        num_groups=9000, divisor_size=10, containing_fraction=0.2, extra_values_per_group=6, seed=5
    )
    assert len(workload.dividend) >= 100_000
    return workload


@pytest.fixture(scope="session")
def great_divide_workload():
    """A great-divide workload: 200 dividend groups × 20 divisor groups."""
    return make_great_division_workload(
        dividend_groups=200,
        dividend_group_size=14,
        divisor_groups=20,
        divisor_group_size=5,
        domain_size=60,
        seed=3,
    )


@pytest.fixture(scope="session")
def division_catalog(small_divide_workload):
    """Catalog holding the small-divide workload under the names r1/r2."""
    catalog = Catalog()
    catalog.add_table("r1", small_divide_workload.dividend)
    catalog.add_table("r2", small_divide_workload.divisor)
    return catalog


@pytest.fixture(scope="session")
def suppliers_catalog():
    """A generated suppliers-and-parts database for the SQL benchmarks."""
    return generate_catalog(num_suppliers=120, num_parts=60, parts_per_supplier=18, seed=4)
