"""Tests for the planner's one-operator-per-kind mapping and the plan price.

With no :class:`PlannerOptions` the planner builds hash division for a
small divide, nested-loops great division for a great divide and hash join
for a natural join, whatever the shapes and the statistics say; a forced
algorithm builds that algorithm.  :meth:`PhysicalCostModel.plan_cost`
prices each operator once, a division over its quotient candidates and
divisor groups.
"""

import pytest
from hypothesis import given, settings

import repro.algebra.predicates as P
from repro.algebra import builders as B
from repro.algebra.catalog import Catalog
from repro.api import connect
from repro.optimizer import Optimizer, PhysicalPlanner, PlannerOptions
from repro.optimizer.physical_cost import PhysicalCostModel
from repro.optimizer.statistics import StatisticsCatalog
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    JOIN_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    HashDivision,
    HashJoin,
    NestedLoopsGreatDivision,
)
from repro.physical.parallel import PartitionedDivision
from repro.relation import Relation
from repro.workloads import make_division_workload, make_great_division_workload
from tests.strategies import dividends, divisors


def catalog_for(dividend, divisor) -> Catalog:
    catalog = Catalog()
    catalog.add_table("r1", dividend)
    catalog.add_table("r2", divisor)
    return catalog


@pytest.fixture(scope="module")
def benchmark_workload():
    """The committed division-benchmark scenario shape."""
    return make_division_workload(
        num_groups=400, divisor_size=8, containing_fraction=0.25, extra_values_per_group=6, seed=1
    )


def small_scenarios(workload):
    """Dividends of several sizes and scan orders, with their divisors."""
    composite = Relation(
        ["a1", "a2", "b"],
        [(g1, g2, v) for g1 in range(12) for g2 in range(12) for v in range(4)],
    )
    return {
        "big": (workload.dividend, workload.divisor),
        "tiny": (
            Relation(["a", "b"], [(1, 1), (1, 2), (2, 1), (3, 2)]),
            Relation(["b"], [(1,), (2,)]),
        ),
        "clustered": (workload.dividend.clustered(["a"]), workload.divisor),
        "composite-clustered": (
            composite.clustered(["a1", "a2"]),
            Relation(["b"], [(v,) for v in range(4)]),
        ),
    }


@pytest.fixture(scope="module")
def great_workload():
    return make_great_division_workload(
        dividend_groups=200,
        dividend_group_size=14,
        divisor_groups=20,
        divisor_group_size=5,
        domain_size=60,
        seed=3,
    )


class TestDefaultMapping:
    @pytest.mark.parametrize("scenario", ["big", "tiny", "clustered", "composite-clustered"])
    def test_a_small_divide_is_hash_division(self, benchmark_workload, scenario):
        catalog = catalog_for(*small_scenarios(benchmark_workload)[scenario])
        plan = PhysicalPlanner(catalog).plan(B.divide(catalog.ref("r1"), catalog.ref("r2")))
        assert type(plan) is HashDivision

    def test_a_selected_dividend_is_hash_division_too(self, benchmark_workload):
        catalog = catalog_for(benchmark_workload.dividend.clustered(["a"]), benchmark_workload.divisor)
        selected = B.select(catalog.ref("r1"), P.not_equals(P.attr("b"), -1))
        plan = PhysicalPlanner(catalog).plan(B.divide(selected, catalog.ref("r2")))
        assert type(plan) is HashDivision

    @pytest.mark.parametrize("shape", ["workload", "tiny"])
    def test_a_great_divide_is_nested_loops_great_division(self, great_workload, shape):
        if shape == "workload":
            catalog = catalog_for(great_workload.dividend, great_workload.divisor)
        else:
            catalog = catalog_for(
                Relation(["a", "b"], [(1, 1), (1, 2), (2, 1)]),
                Relation(["b", "c"], [(1, 0), (2, 0), (1, 1)]),
            )
        plan = PhysicalPlanner(catalog).plan(B.great_divide(catalog.ref("r1"), catalog.ref("r2")))
        assert type(plan) is NestedLoopsGreatDivision

    @pytest.mark.parametrize("size", ["tiny", "big", "cross-product"])
    def test_a_natural_join_is_hash_join(self, size):
        catalog = Catalog()
        if size == "tiny":
            catalog.add_table("l", Relation(["a", "b"], [(1, 1), (2, 2)]))
            catalog.add_table("r", Relation(["b", "c"], [(1, 10), (2, 20)]))
        elif size == "big":
            catalog.add_table("l", Relation(["a", "b"], [(i, i % 50) for i in range(400)]))
            catalog.add_table("r", Relation(["b", "c"], [(i, i) for i in range(50)]))
        else:
            catalog.add_table("l", Relation(["a"], [(1,), (2,)]))
            catalog.add_table("r", Relation(["c"], [(3,)]))
        join = B.natural_join(catalog.ref("l"), catalog.ref("r"))
        plan = PhysicalPlanner(catalog).plan(join)
        assert type(plan) is HashJoin
        assert plan.execute() == catalog["l"].natural_join(catalog["r"])

    def test_planning_prices_nothing(self, benchmark_workload, monkeypatch):
        """No code path prices an alternative: the planner never asks the
        cost model for a price."""
        calls = []
        price = PhysicalCostModel._price
        monkeypatch.setattr(
            PhysicalCostModel, "_price", lambda self, *args: calls.append(args) or price(self, *args)
        )
        catalog = catalog_for(benchmark_workload.dividend, benchmark_workload.divisor)
        optimizer = Optimizer(catalog)
        query = B.natural_join(B.divide(catalog.ref("r1"), catalog.ref("r2")), catalog.ref("r1"))
        optimizer.plan(query)
        assert calls == [] and optimizer.planner_decisions == ()

    def test_law_1_rewrite_runs_two_hash_divisions(self):
        """ROADMAP's Law 1 fixture: the rewrite splits the divisor union
        into two divisions, and the default session runs both as hash
        division, whatever the outer one's input is estimated at (17
        tuples, against 24 008)."""
        workload = make_division_workload(num_groups=3000, divisor_size=20, seed=4)
        values = sorted(workload.divisor.to_set("b"))
        half = set(values[: len(values) // 2])
        db = connect(
            {
                "r1": workload.dividend,
                "r2a": workload.divisor.select(lambda row: row["b"] in half),
                "r2b": workload.divisor.select(lambda row: row["b"] not in half),
            }
        )
        query = db.table("r1").divide(db.table("r2a").union(db.table("r2b")))
        report = db.optimizer.rewrite(query.expression.canonical())
        assert [step.rule for step in report.applied] == ["law_01_divisor_union_split"]
        names = [operator.name for operator in db.optimizer.plan(report.result).walk()]
        assert names.count("hash_division") == 2
        assert "nested_loops_division" not in names


#: Every algorithm of every operator kind, forced through ``PlannerOptions``.
FORCED = (
    [("small_divide", name) for name in sorted(SMALL_DIVIDE_ALGORITHMS)]
    + [("great_divide", name) for name in sorted(GREAT_DIVIDE_ALGORITHMS)]
    + [("join", name) for name in sorted(JOIN_ALGORITHMS)]
)


class TestForcedAlgorithm:
    @pytest.mark.parametrize("kind,algorithm", FORCED)
    def test_a_forced_algorithm_builds_that_operator(self, benchmark_workload, kind, algorithm):
        catalog = catalog_for(benchmark_workload.dividend, benchmark_workload.divisor)
        r1, r2 = catalog.ref("r1"), catalog.ref("r2")
        query, registry = {
            "small_divide": (B.divide(r1, r2), SMALL_DIVIDE_ALGORITHMS),
            "great_divide": (
                B.great_divide(r1, B.product(r2, B.literal(Relation(["c"], [(0,), (1,)])))),
                GREAT_DIVIDE_ALGORITHMS,
            ),
            "join": (B.natural_join(r1, r2), JOIN_ALGORITHMS),
        }[kind]
        options = PlannerOptions(**{f"{kind}_algorithm": algorithm})
        plan = PhysicalPlanner(catalog, options).plan(query)
        assert type(plan) is registry[algorithm]
        assert plan.execute() == PhysicalPlanner(catalog).plan(query).execute()

    @settings(max_examples=25, deadline=None)
    @given(dividend=dividends(), divisor=divisors())
    def test_forced_and_default_plans_return_identical_quotients(self, dividend, divisor):
        catalog = catalog_for(dividend, divisor)
        query = B.divide(catalog.ref("r1"), catalog.ref("r2"))
        default = PhysicalPlanner(catalog).plan(query).execute()
        for algorithm in SMALL_DIVIDE_ALGORITHMS:
            options = PlannerOptions(small_divide_algorithm=algorithm)
            forced = PhysicalPlanner(catalog, options).plan(query).execute()
            assert forced == default, algorithm


class TestPlanPrice:
    def test_a_division_is_priced_once_over_its_quantities(self, benchmark_workload):
        """Its descriptor over the dividend and divisor sizes, the quotient
        candidates (distinct ``a``) and the estimated quotient."""
        catalog = catalog_for(benchmark_workload.dividend, benchmark_workload.divisor)
        statistics = StatisticsCatalog.from_database(catalog)
        model = PhysicalCostModel(statistics)
        r1, r2 = catalog.ref("r1"), catalog.ref("r2")
        query = B.divide(r1, r2)
        plan = PhysicalPlanner(catalog, statistics=statistics).plan(query)
        left, right = len(catalog["r1"]), len(catalog["r2"])
        quantities = {
            "left": left,
            "right": right,
            "candidates": statistics.table("r1").distinct("a"),
            "divisor_groups": 1.0,
        }
        own = model._price(HashDivision, quantities, model.estimator.cardinality(query))
        scans = model.plan_cost(plan.inputs[0], r1) + model.plan_cost(plan.inputs[1], r2)
        assert model.plan_cost(plan, query) == pytest.approx(own + scans)

    def test_scan_order_does_not_move_the_price(self, benchmark_workload):
        prices = []
        for dividend in (benchmark_workload.dividend, benchmark_workload.dividend.clustered(["a"])):
            catalog = catalog_for(dividend, benchmark_workload.divisor)
            prices.append(Optimizer(catalog).cost(B.divide(catalog.ref("r1"), catalog.ref("r2"))))
        assert prices[0] == prices[1]

    def test_a_partitioned_division_is_priced_as_its_algorithm(self, benchmark_workload):
        """The budget decides where an exchange goes, not what the plan
        costs: the partitioned plan is priced as the serial one."""
        catalog = catalog_for(benchmark_workload.dividend, benchmark_workload.divisor)
        query = B.divide(catalog.ref("r1"), catalog.ref("r2"))
        budgeted = Optimizer(catalog, memory_budget_mb=0.05)
        plan = budgeted.plan(query)
        assert isinstance(plan, PartitionedDivision) and plan.operator_class is HashDivision
        assert budgeted.cost(query, plan) == pytest.approx(Optimizer(catalog).cost(query))


class TestStandalonePlannerStatistics:
    def test_catalog_mutation_is_seen_by_the_next_plan(self, benchmark_workload):
        """A standalone planner (no injected statistics) re-snapshots the
        database per plan() call, so a table that grew past the memory
        budget is planned behind an exchange the next time."""
        catalog = catalog_for(
            Relation(["a", "b"], [(1, 1), (1, 2), (2, 1), (3, 2)]),
            Relation(["b"], [(1,), (2,)]),
        )
        planner = PhysicalPlanner(catalog, memory_budget_mb=0.05)
        tiny_plan = planner.plan(B.divide(catalog.ref("r1"), catalog.ref("r2")))
        assert isinstance(tiny_plan, HashDivision)
        catalog.replace_table("r1", benchmark_workload.dividend)
        catalog.replace_table("r2", benchmark_workload.divisor)
        big_plan = planner.plan(B.divide(catalog.ref("r1"), catalog.ref("r2")))
        assert isinstance(big_plan, PartitionedDivision)
