"""Property and example tests for Laws 13–17 and Example 4 (great divide)."""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.division import great_divide
from repro.laws.conditions import projections_disjoint
from repro.laws.great_divide import (
    Example4JoinPushdown,
    Law13DivisorPartitioning,
    Law14QuotientSelectionPushdown,
    Law15GroupSelectionPushdown,
    Law16SharedSelectionReplication,
    Law17ProductFactorOut,
)
from repro.relation import Relation
from tests.laws.helpers import assert_rewrite_preserves_semantics, assert_sides_equal, context_for, lit
from tests.strategies import dividends, great_divisors, relations

A_PREDICATES = st.sampled_from(
    [P.equals(P.attr("a"), 1), P.greater_than(P.attr("a"), 1), P.not_equals(P.attr("a"), 2)]
)
B_PREDICATES = st.sampled_from(
    [P.less_than(P.attr("b"), 2), P.greater_equal(P.attr("b"), 1), P.equals(P.attr("b"), 3)]
)
C_PREDICATES = st.sampled_from(
    [P.equals(P.attr("c"), 0), P.greater_than(P.attr("c"), 1), P.not_equals(P.attr("c"), 3)]
)


class TestLaw13:
    @given(dividends(), great_divisors(), great_divisors())
    def test_equivalence_for_disjoint_group_ids(self, dividend, part_a, part_b):
        assume(projections_disjoint(part_a, part_b, ["c"]))
        lhs, rhs = Law13DivisorPartitioning.sides(lit(dividend), lit(part_a), lit(part_b))
        assert_sides_equal(lhs, rhs)

    @given(dividends(), great_divisors(min_rows=1))
    def test_equivalence_for_hash_partitioning(self, dividend, divisor):
        """The distribution scheme the paper proposes: hash the groups on C."""
        part_a = divisor.select(lambda row: row["c"] % 2 == 0)
        part_b = divisor.select(lambda row: row["c"] % 2 == 1)
        lhs, rhs = Law13DivisorPartitioning.sides(lit(dividend), lit(part_a), lit(part_b))
        assert_sides_equal(lhs, rhs)
        assert lhs.evaluate({}) == great_divide(dividend, divisor)

    def test_overlapping_group_ids_break_the_equivalence(self, figure1_dividend):
        """Splitting one group across partitions changes its containment test."""
        part_a = Relation(["b", "c"], [(1, 1), (2, 1)])
        part_b = Relation(["b", "c"], [(4, 1)])
        divisor = part_a.union(part_b)
        lhs, rhs = Law13DivisorPartitioning.sides(lit(figure1_dividend), lit(part_a), lit(part_b))
        assert lhs.evaluate({}) == great_divide(figure1_dividend, divisor)
        assert lhs.evaluate({}) != rhs.evaluate({})

    def test_rule_application(self, figure1_dividend, figure2_divisor):
        rule = Law13DivisorPartitioning()
        part_a = figure2_divisor.select(lambda row: row["c"] == 1)
        part_b = figure2_divisor.select(lambda row: row["c"] == 2)
        expr = B.great_divide(lit(figure1_dividend), B.union(lit(part_a), lit(part_b)))
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().startswith("union")

    def test_rule_rejects_overlapping_partitions(self, figure1_dividend, figure2_divisor):
        rule = Law13DivisorPartitioning()
        expr = B.great_divide(
            lit(figure1_dividend), B.union(lit(figure2_divisor), lit(figure2_divisor))
        )
        assert not rule.matches(expr, context_for())


class TestLaw14:
    @given(dividends(), great_divisors(), A_PREDICATES)
    def test_equivalence_on_random_relations(self, dividend, divisor, predicate):
        lhs, rhs = Law14QuotientSelectionPushdown.sides(lit(dividend), lit(divisor), predicate)
        assert_sides_equal(lhs, rhs)

    def test_rule_application(self, figure1_dividend, figure2_divisor):
        rule = Law14QuotientSelectionPushdown()
        expr = B.select(
            B.great_divide(lit(figure1_dividend), lit(figure2_divisor)),
            P.equals(P.attr("a"), 2),
        )
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().startswith("great_divide")

    def test_rule_rejects_predicate_on_group_attributes(self, figure1_dividend, figure2_divisor):
        rule = Law14QuotientSelectionPushdown()
        expr = B.select(
            B.great_divide(lit(figure1_dividend), lit(figure2_divisor)),
            P.equals(P.attr("c"), 1),
        )
        assert not rule.matches(expr)


class TestLaw15:
    @given(dividends(), great_divisors(), C_PREDICATES)
    def test_equivalence_on_random_relations(self, dividend, divisor, predicate):
        lhs, rhs = Law15GroupSelectionPushdown.sides(lit(dividend), lit(divisor), predicate)
        assert_sides_equal(lhs, rhs)

    def test_rule_application(self, figure1_dividend, figure2_divisor):
        rule = Law15GroupSelectionPushdown()
        expr = B.select(
            B.great_divide(lit(figure1_dividend), lit(figure2_divisor)),
            P.equals(P.attr("c"), 2),
        )
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().startswith("great_divide")
        assert rewritten.evaluate({}).to_set("c") == {2}

    def test_rule_rejects_predicate_on_quotient_attributes(self, figure1_dividend, figure2_divisor):
        rule = Law15GroupSelectionPushdown()
        expr = B.select(
            B.great_divide(lit(figure1_dividend), lit(figure2_divisor)),
            P.equals(P.attr("a"), 2),
        )
        assert not rule.matches(expr)

    def test_law14_and_law15_partition_mixed_predicates(self, figure1_dividend, figure2_divisor):
        """A predicate over both A and C matches neither push-down rule."""
        expr = B.select(
            B.great_divide(lit(figure1_dividend), lit(figure2_divisor)),
            P.And(P.equals(P.attr("a"), 2), P.equals(P.attr("c"), 1)),
        )
        assert not Law14QuotientSelectionPushdown().matches(expr)
        assert not Law15GroupSelectionPushdown().matches(expr)


class TestLaw16:
    @given(dividends(), great_divisors(), B_PREDICATES)
    def test_equivalence_on_random_relations(self, dividend, divisor, predicate):
        lhs, rhs = Law16SharedSelectionReplication.sides(lit(dividend), lit(divisor), predicate)
        assert_sides_equal(lhs, rhs)

    @given(dividends(), great_divisors(), B_PREDICATES)
    def test_holds_even_for_empty_selected_divisor(self, dividend, divisor, predicate):
        """Unlike Law 4 the great-divide variant needs no nonemptiness check."""
        empty_selection = divisor.select(predicate).is_empty()
        lhs, rhs = Law16SharedSelectionReplication.sides(lit(dividend), lit(divisor), predicate)
        assert_sides_equal(lhs, rhs)
        if empty_selection:
            assert lhs.evaluate({}).is_empty()

    def test_rule_application(self, figure1_dividend, figure2_divisor):
        rule = Law16SharedSelectionReplication()
        predicate = P.less_than(P.attr("b"), 4)
        expr = B.great_divide(lit(figure1_dividend), B.select(lit(figure2_divisor), predicate))
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().count("select") == 2


class TestLaw17:
    @given(relations(("a1",), max_rows=4), relations(("a2", "b"), max_rows=10), great_divisors())
    def test_equivalence_on_random_relations(self, factor, dividend_part, divisor):
        lhs, rhs = Law17ProductFactorOut.sides(lit(factor), lit(dividend_part), lit(divisor))
        assert_sides_equal(lhs, rhs)

    def test_rule_application(self, figure1_dividend, figure2_divisor):
        rule = Law17ProductFactorOut()
        factor = Relation(["k"], [(1,), (2,)])
        expr = B.great_divide(B.product(lit(factor), lit(figure1_dividend)), lit(figure2_divisor))
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().startswith("product")

    def test_rule_rejects_shared_attributes_in_left_factor(self, figure1_dividend, figure2_divisor):
        rule = Law17ProductFactorOut()
        expr = B.great_divide(
            B.product(B.ref("x", ["k", "b"]), B.ref("y", ["a"])), B.ref("r2", ["b", "c"])
        )
        assert not rule.matches(expr)


class TestExample4:
    @given(
        relations(("a1",), max_rows=4),
        relations(("a2", "b"), max_rows=10),
        great_divisors(),
    )
    def test_equivalence_on_random_relations(self, outer, dividend, divisor):
        predicate = P.equals(P.attr("a1"), P.attr("a2"))
        lhs, rhs = Example4JoinPushdown.sides(lit(outer), lit(dividend), lit(divisor), predicate)
        assert_sides_equal(lhs, rhs)

    def test_rule_application(self, figure1_dividend, figure2_divisor):
        rule = Example4JoinPushdown()
        outer = Relation(["a1"], [(2,), (3,)])
        dividend = figure1_dividend.rename({"a": "a2"})
        predicate = P.equals(P.attr("a1"), P.attr("a2"))
        expr = B.theta_join(lit(outer), B.great_divide(lit(dividend), lit(figure2_divisor)), predicate)
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().startswith("great_divide")

    def test_rule_rejects_predicate_on_group_attributes(self, figure1_dividend, figure2_divisor):
        rule = Example4JoinPushdown()
        outer = Relation(["a1"], [(2,)])
        dividend = figure1_dividend.rename({"a": "a2"})
        predicate = P.equals(P.attr("a1"), P.attr("c"))
        expr = B.theta_join(lit(outer), B.great_divide(lit(dividend), lit(figure2_divisor)), predicate)
        assert not rule.matches(expr)

    def test_rule_rejects_an_outer_side_holding_a_divisor_attribute(self):
        """``r1*`` with a ``B`` attribute joins the quotient, which lacks
        it; pushed below the divide it would share it with the dividend."""
        rule = Example4JoinPushdown()
        outer = B.rename(B.ref("r1", ["a", "b"]), {"a": "a_"})
        divide = B.great_divide(B.ref("r1", ["a", "b"]), B.ref("r3", ["b", "c"]))
        expr = B.theta_join(outer, divide, P.equals(P.attr("a_"), P.attr("a")))
        assert expr.schema.names == ("a_", "b", "a", "c")
        assert not rule.matches(expr)
