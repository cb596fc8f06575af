"""Batched execution invariants.

Every physical operator streams via ``_produce_batches()``; the batch size
is an execution detail that must never change the produced relation or the
per-operator tuple counts.  These tests sweep batch sizes 1, 2 and 1024 over
randomized division workloads and over a composite plan of the basic
operators.
"""

import random

import pytest

from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    DuplicateElimination,
    Filter,
    HashAggregate,
    HashJoin,
    ProjectOp,
    RelationScan,
    UnionOp,
    execute_plan,
)
from repro.relation import Relation, aggregates

BATCH_SIZES = (1, 2, 1024)


def _random_small_workload(seed):
    rng = random.Random(seed)
    dividend = Relation(
        ["a", "b"],
        [(rng.randrange(12), rng.randrange(6)) for _ in range(rng.randrange(1, 120))],
    )
    divisor = Relation(["b"], [(value,) for value in rng.sample(range(6), rng.randrange(1, 5))])
    return dividend, divisor


def _random_great_workload(seed):
    rng = random.Random(seed)
    dividend = Relation(
        ["a", "b"],
        [(rng.randrange(10), rng.randrange(6)) for _ in range(rng.randrange(1, 100))],
    )
    divisor = Relation(
        ["b", "c"],
        [(rng.randrange(6), rng.randrange(4)) for _ in range(rng.randrange(1, 30))],
    )
    return dividend, divisor


@pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
@pytest.mark.parametrize("seed", range(6))
def test_small_divide_identical_across_batch_sizes(algorithm, seed):
    dividend, divisor = _random_small_workload(seed)
    operator_class = SMALL_DIVIDE_ALGORITHMS[algorithm]
    outcomes = []
    for batch_size in BATCH_SIZES:
        plan = operator_class(RelationScan(dividend), RelationScan(divisor))
        plan.set_batch_size(batch_size)
        outcomes.append(execute_plan(plan))
    reference = outcomes[0]
    for outcome in outcomes[1:]:
        assert outcome.relation == reference.relation
        assert outcome.statistics.tuples_by_operator == reference.statistics.tuples_by_operator


@pytest.mark.parametrize("algorithm", sorted(GREAT_DIVIDE_ALGORITHMS))
@pytest.mark.parametrize("seed", range(6))
def test_great_divide_identical_across_batch_sizes(algorithm, seed):
    dividend, divisor = _random_great_workload(seed)
    operator_class = GREAT_DIVIDE_ALGORITHMS[algorithm]
    outcomes = []
    for batch_size in BATCH_SIZES:
        plan = operator_class(RelationScan(dividend), RelationScan(divisor))
        plan.set_batch_size(batch_size)
        outcomes.append(execute_plan(plan))
    reference = outcomes[0]
    for outcome in outcomes[1:]:
        assert outcome.relation == reference.relation
        assert outcome.statistics.tuples_by_operator == reference.statistics.tuples_by_operator


@pytest.mark.parametrize("seed", range(4))
def test_composite_plan_identical_across_batch_sizes(seed):
    """Filter → project → join → union → distinct → aggregate pipeline."""
    rng = random.Random(seed)
    left = Relation(
        ["a", "b"], [(rng.randrange(8), rng.randrange(5)) for _ in range(rng.randrange(1, 80))]
    )
    right = Relation(
        ["b", "c"], [(rng.randrange(5), rng.randrange(4)) for _ in range(rng.randrange(1, 40))]
    )

    def build():
        joined = HashJoin(RelationScan(left), RelationScan(right))
        filtered = Filter(joined, lambda row: row["a"] % 2 == 0)
        union = UnionOp(ProjectOp(filtered, ["a", "b"]), RelationScan(left))
        return HashAggregate(
            DuplicateElimination(union), ["a"], {"n": aggregates.count("b")}
        )

    outcomes = []
    for batch_size in BATCH_SIZES:
        plan = build()
        plan.set_batch_size(batch_size)
        outcomes.append(execute_plan(plan))
    reference = outcomes[0]
    for outcome in outcomes[1:]:
        assert outcome.relation == reference.relation
        assert outcome.statistics.tuples_by_operator == reference.statistics.tuples_by_operator


def test_small_divide_matches_logical_reference():
    """Physical algorithms agree with the logical small divide on randomized input."""
    from repro.division import small_divide

    for seed in range(5):
        dividend, divisor = _random_small_workload(100 + seed)
        expected = small_divide(dividend, divisor)
        for name, operator_class in SMALL_DIVIDE_ALGORITHMS.items():
            plan = operator_class(RelationScan(dividend), RelationScan(divisor))
            plan.set_batch_size(2)
            assert plan.execute() == expected, name


def test_keyless_semijoin_probe_does_not_inflate_counts():
    """The emptiness probe of the degenerate (no shared attribute) semi-join
    must charge inner operators row-at-a-time counts, not a whole batch."""
    from repro.physical import Filter, HashSemiJoin

    big = Relation(["b"], [(i,) for i in range(5000)])
    left = Relation(["a"], [(1,), (2,)])
    plan = HashSemiJoin(RelationScan(left), Filter(RelationScan(big), lambda row: True))
    configured = [operator.batch_size for operator in plan.walk()]
    outcome = execute_plan(plan)
    counts = outcome.statistics.tuples_by_operator
    assert counts["02:filter"] == 1
    assert counts["03:relation_scan"] == 1
    assert outcome.max_intermediate == 2
    # the probe must restore the configured batch sizes afterwards (a scan's
    # own is "the whole block", not the plan's)
    assert [operator.batch_size for operator in plan.walk()] == configured


def test_set_batch_size_rejects_nonpositive():
    from repro.errors import ExecutionError

    plan = RelationScan(Relation(["a"], [(1,)]))
    with pytest.raises(ExecutionError):
        plan.set_batch_size(0)


def test_wall_clock_timing_reported():
    dividend, divisor = _random_small_workload(7)
    plan = SMALL_DIVIDE_ALGORITHMS["hash"](RelationScan(dividend), RelationScan(divisor))
    outcome = execute_plan(plan)
    assert outcome.elapsed_seconds >= 0.0
    assert outcome.statistics.elapsed_seconds == outcome.elapsed_seconds


def test_labels_are_unique_within_a_plan():
    dividend, divisor = _random_small_workload(8)
    plan = SMALL_DIVIDE_ALGORITHMS["algebra_simulation"](
        RelationScan(dividend), RelationScan(divisor)
    )
    # The algebra-simulation plan shares its dividend scan between two
    # branches, so dedupe by operator identity: distinct operators must
    # never share a label (the old id()-hash scheme could collide).
    distinct = {id(operator): operator for operator in plan.walk()}
    labels = [operator.label for operator in distinct.values()]
    assert len(labels) == len(set(labels))
    plan.assign_labels()
    labels = [operator.label for operator in distinct.values()]
    assert len(labels) == len(set(labels))
    assert plan.label.endswith("#0000")
