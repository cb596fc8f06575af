"""Benchmarks for partitioned plans on ≥100k-tuple inputs.

A partitioned operator runs its partitions one after another in this
process, so the timed arms show what the exchange costs over the plain
serial operator: the partition pass, and one sub-plan per partition.
The result-equality assertions always run; ``--benchmark-disable`` skips
the timing.
"""

import pytest

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


def _serial_plan(workload):
    return HashDivision(RelationScan(workload.dividend), RelationScan(workload.divisor))


def _partitioned_plan(workload, partitions):
    return PartitionedDivision(
        RelationScan(workload.dividend),
        RelationScan(workload.divisor),
        algorithm="hash",
        partitions=partitions,
    )


def test_serial_division(benchmark, huge_divide_workload):
    """Baseline: the plain serial hash division on the 100k dividend."""
    result = benchmark(lambda: execute_plan(_serial_plan(huge_divide_workload)))
    assert len(result.relation) == huge_divide_workload.expected_quotient_size


def test_partitioned_division(benchmark, huge_divide_workload, exchange_partitions):
    """The same division behind an exchange of each benchmarked width."""
    result = benchmark(
        lambda: execute_plan(_partitioned_plan(huge_divide_workload, exchange_partitions))
    )
    assert len(result.relation) == huge_divide_workload.expected_quotient_size
    serial = execute_plan(_serial_plan(huge_divide_workload))
    assert result.relation == serial.relation


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


def _join_inputs(tables):
    return (
        ProjectOp(RelationScan(tables["l"]), ["a", "b"]),
        ProjectOp(RelationScan(tables["r"]), ["a", "c"]),
    )


def _serial_join(tables):
    return HashJoin(*_join_inputs(tables))


def _partitioned_join(tables, partitions):
    return PartitionedHashJoin(*_join_inputs(tables), partitions=partitions)


def test_serial_join(benchmark, join_tables):
    """Baseline: the plain serial hash join over tuple inputs."""
    result = benchmark(lambda: execute_plan(_serial_join(join_tables)))
    assert len(result.relation) == len(join_tables["l"])


def test_partitioned_join(benchmark, join_tables, exchange_partitions):
    """The same join behind a tuple-route exchange."""
    benchmark(lambda: execute_plan(_partitioned_join(join_tables, exchange_partitions)))
    plan = _partitioned_join(join_tables, exchange_partitions)
    assert plan.execute() == _serial_join(join_tables).execute()
    assert plan.exchange_input == "tuples"
