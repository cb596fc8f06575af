"""Satellite 3: spilled execution is bit-identical to in-memory execution.

The sweep crosses ``memory_budget_mb`` ∈ {tiny-forcing-spill, unlimited} ×
``partitions`` ∈ {1, 4} × all 8 division algorithms (5 small-divide, 3
great-divide) and asserts the quotient **and** the per-operator tuple
counts match the unbudgeted one-partition reference exactly: spilling a
partition to disk and streaming it back must be invisible to every
counter the paper's experiments report.

The scaled test at the bottom is the acceptance check in miniature: a
dividend far larger than the budget divides correctly over 4 partitions
with spilling *proven* via the exchange counters.  Set ``REPRO_SCALE_TEST``
to run the full 10M-tuple version.
"""

import os

import pytest
from hypothesis import given, settings

from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    PartitionedDivision,
    RelationScan,
    execute_plan,
)
from repro.relation import Relation
from tests.partitioning import PARTITION_COUNTS
from tests.strategies import dividends, divisors, great_divisors

#: Small enough that ``budget_tuples`` floors to 1 tuple, so any buffered
#: partition beyond a single tuple spills — every example exercises the
#: spill path, not just the large ones.
TINY_BUDGET_MB = 1e-6

#: The sweep grid (budget × partitions); the (None, 1) cell is the reference.
GRID = [(None, 1), (None, 4), (TINY_BUDGET_MB, 1), (TINY_BUDGET_MB, 4)]


def run(dividend, divisor, kind, algorithm, partitions, budget):
    operator = PartitionedDivision(
        RelationScan(dividend),
        RelationScan(divisor),
        algorithm=algorithm,
        kind=kind,
        partitions=partitions,
    )
    result = execute_plan(operator, memory_budget_mb=budget)
    return result, operator


def assert_grid_matches_reference(dividend, divisor, kind, algorithm):
    reference, _ = run(dividend, divisor, kind, algorithm, partitions=1, budget=None)
    for budget, partitions in GRID[1:]:
        result, operator = run(dividend, divisor, kind, algorithm, partitions, budget)
        label = f"{kind}/{algorithm} budget={budget} partitions={partitions}"
        assert result.relation == reference.relation, label
        assert (
            dict(result.statistics.tuples_by_operator)
            == dict(reference.statistics.tuples_by_operator)
        ), label
        if budget is not None and len(dividend) >= 2:
            # A 1-tuple budget over a >=2-tuple dividend must spill.
            assert operator.spill_statistics["spilled_tuples"] > 0, label


class TestSpillEquivalenceSweep:
    @pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
    @settings(max_examples=5, deadline=None)
    @given(dividend=dividends(), divisor=divisors())
    def test_small_divide_grid(self, algorithm, dividend, divisor):
        assert_grid_matches_reference(dividend, divisor, "small", algorithm)

    @pytest.mark.parametrize("algorithm", sorted(GREAT_DIVIDE_ALGORITHMS))
    @settings(max_examples=5, deadline=None)
    @given(dividend=dividends(), divisor=great_divisors())
    def test_great_divide_grid(self, algorithm, dividend, divisor):
        assert_grid_matches_reference(dividend, divisor, "great", algorithm)


def qualifying_groups(groups: int, divisor_values: int):
    """A dividend where every even group divides and every odd one misses."""
    tuples = []
    for group in range(groups):
        height = divisor_values if group % 2 == 0 else divisor_values - 1
        tuples.extend((group, value) for value in range(height))
    return tuples


@pytest.mark.parametrize("algorithm", ["hash", "merge_sort"])
def test_scaled_division_in_bounded_memory(tmp_path, algorithm):
    """~200k-tuple dividend, 4 partitions, budget far below the dataset."""
    groups, divisor_values = 50_000, 4
    dividend = Relation.from_aligned(("a", "b"), qualifying_groups(groups, divisor_values))
    divisor = Relation.from_aligned(("b",), [(value,) for value in range(divisor_values)])
    assert len(dividend) > 150_000

    operator = PartitionedDivision(
        RelationScan(dividend),
        RelationScan(divisor),
        algorithm=algorithm,
        partitions=4,
    )
    result = execute_plan(operator, memory_budget_mb=0.05)
    assert sorted(values[0] for values in result.relation.aligned_tuples()) == list(
        range(0, groups, 2)
    )
    spill = operator.spill_statistics
    assert spill["spilled_blocks"] > 0
    assert spill["spilled_tuples"] > 0
    # The buffered high-water mark stays within one input chunk of the
    # budget: the flush loop runs after each chunk lands in its bucket.
    assert spill["peak_buffered_tuples"] <= spill["budget_tuples"] + operator.batch_size
    # Bounded memory: the peak is a small fraction of the dividend.
    assert spill["peak_buffered_tuples"] < len(dividend) // 10


@pytest.mark.skipif(
    not os.environ.get("REPRO_SCALE_TEST"),
    reason="10M-tuple acceptance run; set REPRO_SCALE_TEST=1 to enable",
)
@pytest.mark.parametrize("partitions", PARTITION_COUNTS)
def test_ten_million_tuple_division_in_bounded_memory(partitions):
    """The 10M-tuple dividend divides in bounded memory over 1 or 4
    partitions."""
    groups, divisor_values = 2_500_000, 4
    dividend = Relation.from_aligned(("a", "b"), qualifying_groups(groups, divisor_values))
    divisor = Relation.from_aligned(("b",), [(value,) for value in range(divisor_values)])
    assert len(dividend) >= 8_750_000

    operator = PartitionedDivision(
        RelationScan(dividend),
        RelationScan(divisor),
        algorithm="hash",
        partitions=partitions,
    )
    result = execute_plan(operator, memory_budget_mb=8.0)
    assert len(result.relation) == groups // 2
    spill = operator.spill_statistics
    assert spill["spilled_tuples"] > 0
    assert spill["peak_buffered_tuples"] <= spill["budget_tuples"] + operator.batch_size
