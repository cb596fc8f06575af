"""The memory budget is the one reason a plan is partitioned.

A division, natural join or grouped aggregation whose partitioned input is
estimated above the session's budget is planned behind an exchange, with
as many partitions as it takes for each to fit the budget (at least 2, at
most ``MAX_PLANNED_PARTITIONS``).  Without a budget, or below it, nothing
is partitioned, however large the input; the algorithm and its price are
what they were.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import builders as B
from repro.algebra.catalog import Catalog
from repro.algebra.expressions import AggregateSpec
from repro.optimizer import PhysicalPlanner, PlannerOptions
from repro.optimizer.statistics import StatisticsCatalog, TableStatistics
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    HashAggregate,
    HashDivision,
    HashJoin,
    HashPartitionExchange,
    PartitionedAggregate,
    PartitionedDivision,
    PartitionedHashJoin,
)
from repro.physical.parallel.exchange import MAX_PLANNED_PARTITIONS
from repro.relation import Relation
from repro.workloads import make_division_workload, make_great_divisor


def catalog_for(dividend, divisor) -> Catalog:
    catalog = Catalog()
    catalog.add_table("r1", dividend)
    catalog.add_table("r2", divisor)
    return catalog


def large_statistics(cardinality=100_000) -> StatisticsCatalog:
    """Fabricated statistics of a big dividend (plans stay cheap to build)."""
    return StatisticsCatalog(
        {
            "r1": TableStatistics(
                cardinality=cardinality,
                distinct_values={"a": max(1, cardinality // 12), "b": 60},
                maxima={"a": 10**6, "b": 60},
            ),
            "r2": TableStatistics(cardinality=10, distinct_values={"b": 10}),
        }
    )


@pytest.fixture(scope="module")
def small_catalog():
    workload = make_division_workload(
        num_groups=400, divisor_size=8, containing_fraction=0.25, extra_values_per_group=6, seed=1
    )
    return catalog_for(workload.dividend, workload.divisor)


def divide(catalog):
    return B.divide(catalog.ref("r1"), catalog.ref("r2"))


def budget_tuples(budget_mb, maxima):
    """The budget in tuples, as the planner converts it."""
    return HashPartitionExchange.budget_in_tuples(budget_mb, [tuple(maxima)])


class TestDivision:
    def test_input_above_the_budget_is_planned_behind_an_exchange(self, small_catalog):
        planner = PhysicalPlanner(small_catalog, memory_budget_mb=0.05)
        plan = planner.plan(divide(small_catalog))
        assert isinstance(plan, PartitionedDivision)
        assert plan.partitions >= 2
        assert plan.memory_budget_mb == 0.05  # a static explain shows why
        # the algorithm is still the serial plan's
        assert plan.algorithm == "hash" and plan.operator_class is HashDivision

    def test_input_below_the_budget_stays_serial(self, small_catalog):
        planner = PhysicalPlanner(small_catalog, memory_budget_mb=64.0)
        assert isinstance(planner.plan(divide(small_catalog)), HashDivision)

    def test_no_budget_no_exchange_however_large_the_input(self, small_catalog):
        planner = PhysicalPlanner(small_catalog, statistics=large_statistics(10**7))
        assert not any(op.parallel for op in planner.plan(divide(small_catalog)).walk())

    def test_partition_count_is_the_fewest_that_fit_the_budget(self, small_catalog):
        planner = PhysicalPlanner(
            small_catalog, statistics=large_statistics(100_000), memory_budget_mb=1.0
        )
        plan = planner.plan(divide(small_catalog))
        budget = budget_tuples(1.0, (10**6, 60))
        assert plan.partitions == math.ceil(100_000 / budget)
        assert math.ceil(100_000 / plan.partitions) <= budget
        assert math.ceil(100_000 / (plan.partitions - 1)) > budget

    def test_partition_count_is_capped(self, small_catalog):
        planner = PhysicalPlanner(
            small_catalog, statistics=large_statistics(10**7), memory_budget_mb=1e-6
        )
        assert planner.plan(divide(small_catalog)).partitions == MAX_PLANNED_PARTITIONS

    @settings(max_examples=25, deadline=None)
    @given(
        cardinality=st.integers(1, 10**6),
        budget_mb=st.floats(min_value=1e-4, max_value=16.0, allow_nan=False),
    )
    def test_partitions_follow_the_estimate(self, small_catalog, cardinality, budget_mb):
        planner = PhysicalPlanner(
            small_catalog, statistics=large_statistics(cardinality), memory_budget_mb=budget_mb
        )
        plan = planner.plan(divide(small_catalog))
        budget = budget_tuples(budget_mb, (10**6, 60))
        if cardinality <= budget:
            assert not plan.parallel
        else:
            expected = min(max(2, math.ceil(cardinality / budget)), MAX_PLANNED_PARTITIONS)
            assert plan.partitions == expected


#: Every division algorithm, forced through ``PlannerOptions``.
FORCED = [("small", name) for name in sorted(SMALL_DIVIDE_ALGORITHMS)] + [
    ("great", name) for name in sorted(GREAT_DIVIDE_ALGORITHMS)
]


class TestForcedAlgorithm:
    """The budget decides *whether* a division is partitioned, never *which*
    algorithm runs: a forced algorithm is kept on either side of the budget,
    and its partitioned quotient is its serial one."""

    @pytest.fixture(scope="class")
    def catalogs(self, small_catalog):
        great = catalog_for(
            small_catalog["r1"], make_great_divisor(num_groups=3, group_size=4, domain_size=8)
        )
        return {"small": small_catalog, "great": great}

    @pytest.mark.parametrize("budget_mb", [0.05, 64.0], ids=["over", "under"])
    @pytest.mark.parametrize("kind,algorithm", FORCED)
    def test_forced_algorithm_survives_the_budget(self, catalogs, kind, algorithm, budget_mb):
        catalog = catalogs[kind]
        build = B.divide if kind == "small" else B.great_divide
        query = build(catalog.ref("r1"), catalog.ref("r2"))
        options = PlannerOptions(**{f"{kind}_divide_algorithm": algorithm})
        serial = PhysicalPlanner(catalog, options).plan(query)
        planner = PhysicalPlanner(catalog, options, memory_budget_mb=budget_mb)
        plan = planner.plan(query)
        registry = SMALL_DIVIDE_ALGORITHMS if kind == "small" else GREAT_DIVIDE_ALGORITHMS
        if budget_mb < 1:
            assert isinstance(plan, PartitionedDivision)
            assert (plan.algorithm, plan.kind) == (algorithm, kind)
            assert plan.operator_class is registry[algorithm]
            assert plan.partitions >= 2
        else:
            assert type(plan) is type(serial) is registry[algorithm] and not plan.parallel
        assert plan.execute() == serial.execute()


class TestJoinAndAggregate:
    def _catalog(self):
        catalog = Catalog()
        catalog.add_table("l", Relation(["a", "b"], [(i, i % 7) for i in range(24)]))
        catalog.add_table("r", Relation(["b", "c"], [(i % 7, i) for i in range(24)]))
        return catalog

    def _statistics(self, cardinality=120_000):
        unique = {"cardinality": cardinality}
        return StatisticsCatalog(
            {
                "l": TableStatistics(distinct_values={"a": cardinality, "b": cardinality}, **unique),
                "r": TableStatistics(distinct_values={"b": cardinality, "c": cardinality}, **unique),
            }
        )

    def test_join_over_the_budget_is_partitioned(self):
        catalog = self._catalog()
        join = B.natural_join(catalog.ref("l"), catalog.ref("r"))
        budgeted = PhysicalPlanner(catalog, statistics=self._statistics(), memory_budget_mb=1.0)
        plan = budgeted.plan(join)
        assert isinstance(plan, PartitionedHashJoin)
        assert plan.algorithm == "hash" and plan.operator_class is HashJoin
        assert isinstance(PhysicalPlanner(catalog, memory_budget_mb=1.0).plan(join), HashJoin)

    def test_cross_product_is_never_partitioned(self):
        catalog = Catalog()
        catalog.add_table("l", Relation(["a"], [(1,)]))
        catalog.add_table("r", Relation(["c"], [(2,)]))
        statistics = StatisticsCatalog(
            {
                "l": TableStatistics(cardinality=100_000, distinct_values={"a": 100_000}),
                "r": TableStatistics(cardinality=100_000, distinct_values={"c": 100_000}),
            }
        )
        planner = PhysicalPlanner(catalog, statistics=statistics, memory_budget_mb=0.01)
        plan = planner.plan(B.natural_join(catalog.ref("l"), catalog.ref("r")))
        assert not plan.parallel

    def test_group_by_over_the_budget_is_partitioned(self):
        catalog = Catalog()
        catalog.add_table("t", Relation(["g", "v"], [(i % 6, i) for i in range(30)]))
        statistics = StatisticsCatalog(
            {"t": TableStatistics(cardinality=200_000, distinct_values={"g": 10_000, "v": 200_000})}
        )
        grouped = B.group_by(catalog.ref("t"), ["g"], [AggregateSpec("sum", "v", "total")])
        planner = PhysicalPlanner(catalog, statistics=statistics, memory_budget_mb=1.0)
        assert isinstance(planner.plan(grouped), PartitionedAggregate)
        assert isinstance(PhysicalPlanner(catalog, statistics=statistics).plan(grouped), HashAggregate)
        total = B.group_by(catalog.ref("t"), [], [AggregateSpec("count", None, "n")])
        # a grand total is one global group: it cannot be partitioned
        assert isinstance(planner.plan(total), HashAggregate)


class TestTopFrequencies:
    def test_from_relation_records_top_frequencies(self):
        relation = Relation(["a", "b"], [(1, 1), (1, 2), (1, 3), (2, 1)])
        statistics = TableStatistics.from_relation(relation)
        assert statistics.top_frequency("a") == 3
        assert statistics.top_frequency("b") == 2
        assert statistics.top_frequency("missing") == 0

    def test_empty_relation_has_no_top_frequency(self):
        statistics = TableStatistics.from_relation(Relation(["a"], []))
        assert statistics.top_frequency("a") == 0
