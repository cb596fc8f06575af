"""Tests for the rewriter and the price of a plan."""

import pytest

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.algebra.catalog import Catalog
from repro.laws import RewriteContext, get_rule, pushdown_rules
from repro.optimizer import Optimizer, PhysicalCostModel, PlannerOptions, Rewriter
from repro.physical import SMALL_DIVIDE_ALGORITHMS
from repro.relation import Relation
from repro.workloads import make_division_workload


@pytest.fixture
def catalog():
    workload = make_division_workload(num_groups=60, divisor_size=6, containing_fraction=0.3, seed=9)
    cat = Catalog()
    cat.add_table("r1", workload.dividend)
    cat.add_table("r2", workload.divisor)
    cat.add_table("interesting", Relation(["a"], [(0,), (1,), (2,)]))
    return cat


@pytest.fixture
def optimizer(catalog):
    return Optimizer(catalog)


class TestPlanPrice:
    """``Optimizer.cost``: the physical cost model's price of a whole plan."""

    def test_price_is_positive_and_monotone_in_tree_size(self, catalog, optimizer):
        r1 = catalog.ref("r1")
        small = optimizer.cost(r1)
        bigger = optimizer.cost(B.project(r1, ["a"]))
        assert 0 < small < bigger

    def test_selection_pushdown_is_cheaper(self, catalog, optimizer):
        """Law 3's direction at a selective predicate: dividing the
        filtered dividend costs less than filtering the quotient."""
        r1, r2 = catalog.ref("r1"), catalog.ref("r2")
        predicate = P.equals(P.attr("a"), 1)
        outside = B.select(B.divide(r1, r2), predicate)
        inside = B.divide(B.select(r1, predicate), r2)
        assert optimizer.cost(inside) < optimizer.cost(outside)

    def test_law7_short_circuit_is_cheaper(self, catalog, optimizer):
        r1, r2 = catalog.ref("r1"), catalog.ref("r2")
        low = B.select(r1, P.less_than(P.attr("a"), 10))
        high = B.select(r1, P.greater_equal(P.attr("a"), 10))
        both = B.difference(B.divide(low, r2), B.divide(high, r2))
        only_first = B.divide(low, r2)
        assert optimizer.cost(only_first) < optimizer.cost(both)

    def test_the_default_price_is_hash_division_over_its_inputs(self, catalog, optimizer):
        r1, r2 = catalog.ref("r1"), catalog.ref("r2")
        price = optimizer.cost(B.divide(r1, r2))
        hashed = Optimizer(catalog, planner_options=PlannerOptions(small_divide_algorithm="hash"))
        assert price == hashed.cost(B.divide(r1, r2))
        assert price > optimizer.cost(r1) + optimizer.cost(r2)

    def test_a_built_plan_is_priced_without_planning_again(self, catalog, optimizer):
        query = B.divide(catalog.ref("r1"), catalog.ref("r2"))
        plan = optimizer.plan(query)
        optimizer.plan(catalog.ref("r1"))  # the planner's last plan is another
        price = optimizer.cost(query, plan)
        assert price == optimizer.cost(query)

    @pytest.mark.parametrize(
        "algorithm", ["hash", "nested_loops", "merge_sort", "merge_count", "algebra_simulation"]
    )
    def test_a_forced_algorithm_is_priced_as_itself(self, catalog, algorithm):
        """Forcing an algorithm prices the plan that runs it, its own
        descriptor over the division's quantities; the composite algebra
        simulation is priced over its inputs, not its sub-plan."""
        query = B.divide(catalog.ref("r1"), catalog.ref("r2"))
        forced = Optimizer(catalog, planner_options=PlannerOptions(small_divide_algorithm=algorithm))
        price = forced.cost(query)
        model = PhysicalCostModel(forced.statistics)
        quantities = {
            "left": len(catalog["r1"]),
            "right": len(catalog["r2"]),
            "candidates": forced.statistics.table("r1").distinct("a"),
            "divisor_groups": 1.0,
        }
        own = model._price(
            SMALL_DIVIDE_ALGORITHMS[algorithm], quantities, model.estimator.cardinality(query)
        )
        inputs = forced.cost(catalog.ref("r1")) + forced.cost(catalog.ref("r2"))
        assert price == pytest.approx(own + inputs)


class TestRewriter:
    def test_pushes_selection_below_divide(self, catalog):
        rewriter = Rewriter(context=RewriteContext.from_catalog(catalog))
        r1, r2 = catalog.ref("r1"), catalog.ref("r2")
        query = B.select(B.divide(r1, r2), P.equals(P.attr("a"), 1))
        report = rewriter.rewrite(query)
        assert "law_03_selection_pushdown" in report.rules_fired
        assert report.result.evaluate(catalog) == query.evaluate(catalog)

    def test_semijoin_pushdown_via_law_10(self, catalog):
        rewriter = Rewriter(context=RewriteContext.from_catalog(catalog))
        r1, r2 = catalog.ref("r1"), catalog.ref("r2")
        query = B.semijoin(B.divide(r1, r2), catalog.ref("interesting"))
        report = rewriter.rewrite(query)
        assert "law_10_semijoin_commute" in report.rules_fired
        assert report.result.evaluate(catalog) == query.evaluate(catalog)

    def test_fixpoint_terminates_with_all_rules(self, catalog):
        rewriter = Rewriter(context=RewriteContext.from_catalog(catalog))
        r1, r2 = catalog.ref("r1"), catalog.ref("r2")
        predicate = P.less_than(P.attr("b"), 3)
        query = B.divide(r1, B.select(r2, predicate))
        report = rewriter.rewrite(query)
        assert report.result.evaluate(catalog) == query.evaluate(catalog)
        # The rewriter must not have exploded the expression.
        assert report.result.size() < 30

    def test_no_rules_no_changes(self, catalog):
        rewriter = Rewriter(rules=[], context=RewriteContext.from_catalog(catalog))
        query = B.divide(catalog.ref("r1"), catalog.ref("r2"))
        report = rewriter.rewrite(query)
        assert report.result == query
        assert len(report) == 0

    def test_static_rule_set_never_needs_data(self, catalog):
        rewriter = Rewriter(
            rules=pushdown_rules(), context=RewriteContext()
        )
        r1, r2 = catalog.ref("r1"), catalog.ref("r2")
        query = B.select(B.divide(r1, r2), P.equals(P.attr("a"), 1))
        report = rewriter.rewrite(query)
        assert report.result.evaluate(catalog) == query.evaluate(catalog)
        assert "law_03_selection_pushdown" in report.rules_fired


class TestLaw11RewriteThroughOptimizerRules:
    def test_grouped_dividend_rule_via_rewriter(self, figure10_relations):
        catalog = Catalog()
        catalog.add_table("r0", figure10_relations["r0"])
        catalog.add_table("r2", figure10_relations["r2"])
        rewriter = Rewriter(
            rules=[get_rule("law_11_grouped_dividend")],
            context=RewriteContext.from_catalog(catalog),
        )
        grouped = B.group_by(catalog.ref("r0"), ["a"], [B.aggregate("sum", "x", "b")])
        query = B.divide(grouped, catalog.ref("r2"))
        report = rewriter.rewrite(query)
        assert report.rules_fired == ["law_11_grouped_dividend"]
        assert report.result.evaluate(catalog) == figure10_relations["quotient"]
