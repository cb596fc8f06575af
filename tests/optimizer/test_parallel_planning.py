"""Cost-based parallel planning: the exchange is priced at what it costs.

Pins the measured truth of the parallel subsystem, not a set of constants:

* a division on dictionary codes stays **serial** at any worker count and
  any CPU count — moving a tuple to another process costs more than
  dividing it;
* operators whose serial work per tuple is above the exchange's (a forced
  quadratic division, a tuple-at-a-time hash join, a ``GROUP BY``) still
  get their ``Partitioned*`` operator where there are CPUs to run it on;
* the effective DOP is ``min(workers, partitions, CPUs, 1 / skew)``;
* a memory budget the input outgrows keeps the exchange whatever it costs.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import builders as B
from repro.algebra.catalog import Catalog
from repro.algebra.expressions import AggregateSpec
from repro.errors import PlanningError
from repro.optimizer import PhysicalPlanner, PlannerOptions
from repro.optimizer.physical_cost import PhysicalCostModel, decision_for
from repro.optimizer.statistics import StatisticsCatalog, TableStatistics
from repro.physical import (
    HashAggregate,
    HashDivision,
    HashJoin,
    PartitionedAggregate,
    PartitionedDivision,
    PartitionedHashJoin,
)
from repro.relation import Relation
from repro.workloads import make_division_workload


def catalog_for(dividend, divisor) -> Catalog:
    catalog = Catalog()
    catalog.add_table("r1", dividend)
    catalog.add_table("r2", divisor)
    return catalog


def large_statistics(cardinality=100_000, top_frequency=None, distinct=None) -> StatisticsCatalog:
    """Fabricated statistics of a big dividend (plans stay cheap to build)."""
    top = {"a": top_frequency} if top_frequency else {}
    return StatisticsCatalog(
        {
            "r1": TableStatistics(
                cardinality=cardinality,
                distinct_values={"a": distinct or max(1, cardinality // 12), "b": 60},
                top_frequencies=top,
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


class TestDivisionParallelChoice:
    def test_committed_small_scenarios_stay_serial(self, small_catalog, cpus):
        cpus(4)
        planner = PhysicalPlanner(small_catalog, PlannerOptions(workers=4))
        plan = planner.plan(divide(small_catalog))
        assert isinstance(plan, HashDivision)
        decision = planner.decisions[0]
        assert decision.chosen.workers == 1
        # the parallel variants were considered and lost
        assert any(alt.workers > 1 for alt in decision.alternatives)

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("cpu_count", [2, 4, 16])
    @pytest.mark.parametrize("cardinality", [100_000, 10_000_000])
    def test_large_coded_division_stays_serial(
        self, small_catalog, cpus, workers, cpu_count, cardinality
    ):
        """The exchange costs more per tuple than the coded hash division
        spends on it, so no input size and no CPU count makes it pay."""
        cpus(cpu_count)
        planner = PhysicalPlanner(
            small_catalog,
            PlannerOptions(workers=workers),
            statistics=large_statistics(cardinality),
        )
        plan = planner.plan(divide(small_catalog))
        assert isinstance(plan, HashDivision)
        chosen = planner.decisions[0].chosen
        assert (chosen.name, chosen.workers) == ("hash", 1)

    def test_quadratic_division_is_partitioned_where_there_are_cpus(self, small_catalog, cpus):
        options = PlannerOptions(workers=4, small_divide_algorithm="nested_loops")
        cpus(4)
        planner = PhysicalPlanner(small_catalog, options, statistics=large_statistics())
        plan = planner.plan(divide(small_catalog))
        assert isinstance(plan, PartitionedDivision)
        assert plan.algorithm == "nested_loops"
        decision = planner.decisions[0]
        assert decision.forced and decision.chosen.workers == 4
        assert decision.chosen.partitions == 4
        assert "dop=4, partitions=4: exchange=" in decision.describe()
        cpus(1)
        planner = PhysicalPlanner(small_catalog, options, statistics=large_statistics())
        assert not isinstance(planner.plan(divide(small_catalog)), PartitionedDivision)
        assert planner.decisions[0].chosen.workers == 1

    def test_partitions_option_overrides_partition_count(self, small_catalog, cpus):
        cpus(4)
        planner = PhysicalPlanner(
            small_catalog,
            PlannerOptions(workers=4, partitions=16, small_divide_algorithm="nested_loops"),
            statistics=large_statistics(),
        )
        plan = planner.plan(divide(small_catalog))
        assert isinstance(plan, PartitionedDivision)
        assert plan.partitions == 16
        assert plan.workers == 4

    def test_skewed_quotient_key_stays_serial(self, small_catalog, cpus):
        """90% of rows under one quotient key caps the speedup at ~1.1×,
        which never pays for the exchange — parallelism is priced out."""
        cpus(4)
        skewed = large_statistics(top_frequency=90_000, distinct=50)
        options = PlannerOptions(workers=4, small_divide_algorithm="nested_loops")
        planner = PhysicalPlanner(small_catalog, options, statistics=skewed)
        planner.plan(divide(small_catalog))
        assert planner.decisions[0].chosen.workers == 1

    def test_skew_discount_survives_select_project_and_rename(self, small_catalog, cpus):
        """The skew lookup traverses the streaming wrappers a base table
        sits under, mapping renamed key attributes back to the base names."""
        import repro.algebra.predicates as P

        cpus(4)
        options = PlannerOptions(workers=4, small_divide_algorithm="nested_loops")
        dividend = small_catalog.ref("r1")
        wrapped = B.project(
            B.rename(
                B.select(dividend, P.not_equals(P.attr("b"), -1)), {"a": "quotient_key"}
            ),
            ["quotient_key", "b"],
        )
        divisor = small_catalog.ref("r2")
        # every row under one key: no speedup at all, whatever the plan costs
        skewed = large_statistics(top_frequency=100_000, distinct=50)
        planner = PhysicalPlanner(small_catalog, options, statistics=skewed)
        planner.plan(B.divide(wrapped, divisor))
        assert planner.decisions[0].chosen.workers == 1
        # the same shape without skew parallelizes — the wrappers are not
        # what is keeping the plan serial
        planner = PhysicalPlanner(
            small_catalog, options, statistics=large_statistics(distinct=50)
        )
        planner.plan(B.divide(wrapped, divisor))
        assert planner.decisions[0].chosen.workers == 4

    def test_serial_default_prices_no_parallel_variants(self, small_catalog):
        planner = PhysicalPlanner(small_catalog)
        planner.plan(divide(small_catalog))
        assert all(alt.workers == 1 for alt in planner.decisions[0].alternatives)

    def test_invalid_workers_rejected_at_prepare_time(self, small_catalog):
        planner = PhysicalPlanner(small_catalog, PlannerOptions(workers=0))
        with pytest.raises(PlanningError, match="workers"):
            planner.plan(divide(small_catalog))
        planner = PhysicalPlanner(small_catalog, PlannerOptions(workers=2, partitions=0))
        with pytest.raises(PlanningError, match="partitions"):
            planner.plan(divide(small_catalog))


class TestMemoryBudget:
    """Only an exchange honours the budget, so the price must not decide."""

    def test_input_above_the_budget_keeps_the_exchange(self, small_catalog, cpus):
        cpus(2)
        planner = PhysicalPlanner(
            small_catalog, PlannerOptions(workers=2), memory_budget_mb=0.05
        )
        plan = planner.plan(divide(small_catalog))
        assert isinstance(plan, PartitionedDivision)
        decision = planner.decisions[0]
        assert all(alt.workers == 2 for alt in decision.alternatives)
        assert decision.describe().endswith("; serial: over memory budget")

    def test_input_below_the_budget_is_priced_as_usual(self, small_catalog, cpus):
        cpus(2)
        planner = PhysicalPlanner(
            small_catalog, PlannerOptions(workers=2), memory_budget_mb=64.0
        )
        assert isinstance(planner.plan(divide(small_catalog)), HashDivision)
        decision = planner.decisions[0]
        assert "over memory budget" not in decision.describe()
        # a budgeted exchange takes the tuple route, and is priced for it
        unbudgeted = PhysicalPlanner(small_catalog, PlannerOptions(workers=2))
        unbudgeted.plan(divide(small_catalog))
        exchange = lambda d: next(a.exchange for a in d.alternatives if a.workers > 1)  # noqa: E731
        assert exchange(decision) > 10 * exchange(unbudgeted.decisions[0])

    def test_serial_session_ignores_the_budget(self, small_catalog):
        planner = PhysicalPlanner(small_catalog, memory_budget_mb=0.05)
        assert isinstance(planner.plan(divide(small_catalog)), HashDivision)


class TestJoinAndAggregateParallelChoice:
    def _join_catalog(self):
        catalog = Catalog()
        catalog.add_table("l", Relation(["a", "b"], [(i, i % 7) for i in range(24)]))
        catalog.add_table("r", Relation(["b", "c"], [(i % 7, i) for i in range(24)]))
        catalog.add_table("s", Relation(["c", "d"], [(i, i) for i in range(24)]))
        return catalog

    def _join_statistics(self, cardinality=120_000):
        unique = {"cardinality": cardinality}
        return StatisticsCatalog(
            {
                "l": TableStatistics(distinct_values={"a": cardinality, "b": cardinality}, **unique),
                "r": TableStatistics(distinct_values={"b": cardinality, "c": cardinality}, **unique),
                "s": TableStatistics(distinct_values={"c": cardinality, "d": cardinality}, **unique),
            }
        )

    def test_large_tuple_route_join_is_partitioned_small_join_is_not(self, cpus):
        """``(l ⋈ r) ⋈ s``: the outer join's left input is a join's output,
        value tuples, so its exchange takes the tuple route — and a
        tuple-at-a-time hash join still costs more per tuple than that."""
        catalog = self._join_catalog()
        inner = B.natural_join(catalog.ref("l"), catalog.ref("r"))
        join = B.natural_join(inner, catalog.ref("s"))
        cpus(4)
        small = PhysicalPlanner(catalog, PlannerOptions(workers=4))
        assert isinstance(small.plan(join), HashJoin)
        large = PhysicalPlanner(
            catalog, PlannerOptions(workers=4), statistics=self._join_statistics()
        )
        plan = large.plan(join)
        assert isinstance(plan, PartitionedHashJoin)
        outer = plan.decision
        assert outer.chosen.workers == 4
        # priced for value tuples on the left, codes on the right
        model = large.cost_model
        costs = PartitionedHashJoin.properties
        assert not model._ships_codes(inner) and model._ships_codes(catalog.ref("s"))
        assert outer.chosen.exchange == pytest.approx(
            120_000 * costs.per_output_cost + 120_000 * costs.per_input_cost
        )
        cpus(1)
        one_cpu = PhysicalPlanner(
            catalog, PlannerOptions(workers=4), statistics=self._join_statistics()
        )
        assert isinstance(one_cpu.plan(join), HashJoin)

    def test_cross_product_join_never_parallelizes(self, cpus):
        cpus(4)
        catalog = Catalog()
        catalog.add_table("l", Relation(["a"], [(1,)]))
        catalog.add_table("r", Relation(["c"], [(2,)]))
        statistics = StatisticsCatalog(
            {
                "l": TableStatistics(cardinality=100_000, distinct_values={"a": 100_000}),
                "r": TableStatistics(cardinality=100_000, distinct_values={"c": 100_000}),
            }
        )
        planner = PhysicalPlanner(catalog, PlannerOptions(workers=4), statistics=statistics)
        planner.plan(B.natural_join(catalog.ref("l"), catalog.ref("r")))
        assert all(alt.workers == 1 for alt in planner.decisions[0].alternatives)

    def test_large_group_by_is_partitioned(self, cpus):
        catalog = Catalog()
        catalog.add_table("t", Relation(["g", "v"], [(i % 6, i) for i in range(30)]))
        statistics = StatisticsCatalog(
            {
                "t": TableStatistics(
                    cardinality=200_000, distinct_values={"g": 10_000, "v": 200_000}
                )
            }
        )
        grouped = B.group_by(
            catalog.ref("t"), ["g"], [AggregateSpec("sum", "v", "total")]
        )
        cpus(4)
        planner = PhysicalPlanner(catalog, PlannerOptions(workers=4), statistics=statistics)
        plan = planner.plan(grouped)
        assert isinstance(plan, PartitionedAggregate)
        assert planner.decisions[0].kind == "aggregate"
        serial = PhysicalPlanner(catalog, PlannerOptions(workers=4))
        serial_plan = serial.plan(grouped)
        assert isinstance(serial_plan, HashAggregate)
        # the decision is recorded (and attached) even when serial wins, so
        # explain output has the same rationale shape either way
        assert serial.decisions[0].kind == "aggregate"
        assert serial.decisions[0].chosen.workers == 1
        assert serial_plan.decision is serial.decisions[0]
        cpus(1)
        one_cpu = PhysicalPlanner(catalog, PlannerOptions(workers=4), statistics=statistics)
        assert isinstance(one_cpu.plan(grouped), HashAggregate)

    def test_grand_total_group_by_stays_serial(self, cpus):
        cpus(4)
        catalog = Catalog()
        catalog.add_table("t", Relation(["g", "v"], [(i % 6, i) for i in range(30)]))
        statistics = StatisticsCatalog(
            {"t": TableStatistics(cardinality=200_000, distinct_values={"v": 200_000})}
        )
        grouped = B.group_by(catalog.ref("t"), [], [AggregateSpec("count", None, "n")])
        planner = PhysicalPlanner(catalog, PlannerOptions(workers=4), statistics=statistics)
        assert isinstance(planner.plan(grouped), HashAggregate)


class TestCostModelParallelTerm:
    def test_effective_dop_respects_workers_partitions_cpus_and_skew(self, cpus):
        cpus(16)
        model = PhysicalCostModel(StatisticsCatalog(), workers=4, partitions=8)
        assert model.effective_dop(skew=0.0) == 4.0
        assert model.effective_dop(skew=0.5) == 2.0
        assert model.effective_dop(skew=1.0) == 1.0
        narrow = PhysicalCostModel(StatisticsCatalog(), workers=8, partitions=2)
        assert narrow.effective_dop(skew=0.0) == 2.0
        cpus(3)
        assert model.effective_dop(skew=0.0) == 3.0
        assert model.effective_dop(skew=0.5) == 2.0
        cpus(1)
        assert model.effective_dop(skew=0.0) == 1.0

    def test_cpu_count_falls_back_where_there_is_no_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        model = PhysicalCostModel(StatisticsCatalog(), workers=8)
        assert model.effective_dop(skew=0.0) == 3.0

    def test_parallel_price_is_the_three_charges(self, small_catalog, cpus):
        cpus(4)
        statistics = large_statistics()
        model = PhysicalCostModel(statistics, workers=4)
        alternatives = model.small_divide_alternatives(divide(small_catalog))
        serial = {alt.name: alt for alt in alternatives if alt.workers == 1}
        parallel = {alt.name: alt for alt in alternatives if alt.workers > 1}
        assert set(parallel) == set(serial)
        costs = PartitionedDivision.properties
        output = model.estimator.cardinality(divide(small_catalog))
        for name, alt in parallel.items():
            # dividend once, the broadcast divisor once per partition — as codes
            assert alt.exchange == pytest.approx(costs.per_input_cost * (100_000 + 4 * 10))
            assert alt.tasks == 4 * costs.startup_cost
            sub_plan = serial[name].cost / 4 + costs.per_output_cost * output
            assert alt.cost == pytest.approx(alt.exchange + alt.tasks + sub_plan)
            assert alt.charges() == (
                f"exchange={alt.exchange:.0f} tasks={alt.tasks:.0f} sub-plan={sub_plan:.0f}"
            )
        # per tuple the exchange alone costs more than the coded hash division
        assert parallel["hash"].exchange > serial["hash"].cost
        # while a quadratic algorithm is worth distributing
        assert parallel["nested_loops"].cost < serial["nested_loops"].cost

    def test_decision_for_forced_picks_cheapest_variant_of_the_name(self, small_catalog, cpus):
        cpus(4)
        model = PhysicalCostModel(large_statistics(), workers=4)
        alternatives = model.small_divide_alternatives(divide(small_catalog))
        decision = decision_for("small divide", alternatives, "hash")
        assert decision.forced
        assert (decision.chosen.name, decision.chosen.workers) == ("hash", 1)
        decision = decision_for("small divide", alternatives, "nested_loops")
        assert decision.chosen.workers == 4  # the parallel variant is cheaper here


class TestChoiceIsNeverAMispricedExchange:
    @settings(max_examples=150, deadline=None)
    @given(
        tuples=st.integers(min_value=1, max_value=5_000_000),
        keys=st.integers(min_value=1, max_value=500_000),
        workers=st.integers(min_value=2, max_value=16),
        cpu_count=st.integers(min_value=1, max_value=32),
        skew=st.floats(min_value=0.0, max_value=1.0),
        algorithm=st.sampled_from([None, "hash", "nested_loops", "merge_sort"]),
    )
    def test_chosen_parallel_plan_saves_more_than_it_charges(
        self, small_catalog, tuples, keys, workers, cpu_count, skew, algorithm
    ):
        """Whatever the shape: a parallel alternative is chosen only when
        the modelled saving ``serial · (1 − 1/dop)`` is above what the
        exchange, the tasks and shipping the output back charge."""
        keys = min(keys, tuples)
        statistics = large_statistics(
            tuples, top_frequency=max(1, int(skew * tuples)), distinct=keys
        )
        expression = divide(small_catalog)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpu_count)), raising=False)
            model = PhysicalCostModel(statistics, workers=workers)
            decision = decision_for(
                "small divide", model.small_divide_alternatives(expression), algorithm
            )
            dop = model.effective_dop(statistics.table("r1").partition_skew("a"))
        chosen = decision.chosen
        if chosen.workers == 1:
            return
        serial = next(
            alt for alt in decision.alternatives if alt.workers == 1 and alt.name == chosen.name
        )
        assert serial.cost * (1 - 1 / dop) > chosen.exchange + chosen.tasks


class TestSkewStatistics:
    def test_from_relation_records_top_frequencies(self):
        relation = Relation(["a", "b"], [(1, 1), (1, 2), (1, 3), (2, 1)])
        statistics = TableStatistics.from_relation(relation)
        assert statistics.top_frequency("a") == 3
        assert statistics.top_frequency("b") == 2
        assert statistics.partition_skew("a") == pytest.approx(0.75)
        assert statistics.partition_skew("missing") == 0.0

    def test_empty_relation_has_zero_skew(self):
        statistics = TableStatistics.from_relation(Relation(["a"], []))
        assert statistics.partition_skew("a") == 0.0
