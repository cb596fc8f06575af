"""Property and example tests for Laws 5, 6 and 7 (intersection and difference)."""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.laws.conditions import projections_disjoint
from repro.laws.small_divide import (
    Law5IntersectionPushdown,
    Law6DifferencePushdown,
    Law7DisjointDifferenceElimination,
    predicate_implies,
)
from repro.relation import Relation
from tests.laws.helpers import assert_rewrite_preserves_semantics, assert_sides_equal, context_for, lit
from tests.strategies import dividends, divisors, nonempty_divisors

#: Predicate pairs (outer, inner) over the quotient attribute a with inner ⇒ outer.
A_PREDICATE_PAIRS = st.sampled_from(
    [
        (P.greater_than(P.attr("a"), 0), P.greater_than(P.attr("a"), 1)),
        (P.greater_equal(P.attr("a"), 1), P.And(P.greater_equal(P.attr("a"), 1), P.less_than(P.attr("a"), 3))),
        (P.less_equal(P.attr("a"), 3), P.equals(P.attr("a"), 2)),
        (P.TRUE, P.equals(P.attr("a"), 1)),
    ]
)


class TestLaw5:
    @given(dividends(), dividends(), nonempty_divisors())
    def test_equivalence_for_nonempty_divisor(self, part1, part2, divisor):
        lhs, rhs = Law5IntersectionPushdown.sides(lit(part1), lit(part2), lit(divisor))
        assert_sides_equal(lhs, rhs)

    def test_empty_divisor_breaks_the_equivalence(self):
        """Documents the nonemptiness requirement recorded in the rule docstring."""
        part1 = Relation(["a", "b"], [(1, 1)])
        part2 = Relation(["a", "b"], [(1, 2)])
        divisor = Relation.empty(["b"])
        lhs, rhs = Law5IntersectionPushdown.sides(lit(part1), lit(part2), lit(divisor))
        assert lhs.evaluate({}).is_empty()
        assert rhs.evaluate({}).to_set("a") == {1}

    def test_rule_application(self, figure1_dividend, figure1_divisor):
        rule = Law5IntersectionPushdown()
        part1 = figure1_dividend.select(lambda row: row["a"] != 1)
        expr = B.divide(B.intersection(lit(figure1_dividend), lit(part1)), lit(figure1_divisor))
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().startswith("intersect")

    def test_rule_is_conservative_without_data(self, figure1_dividend, figure1_divisor):
        rule = Law5IntersectionPushdown()
        expr = B.divide(
            B.intersection(lit(figure1_dividend), lit(figure1_dividend)), lit(figure1_divisor)
        )
        assert not rule.matches(expr)
        assert rule.matches(expr, context_for())


class TestLaw6:
    @given(dividends(), divisors(), A_PREDICATE_PAIRS)
    def test_equivalence_for_a_restrictions(self, dividend, divisor, predicates):
        outer, inner = predicates
        lhs, rhs = Law6DifferencePushdown.sides(lit(dividend), outer, inner, lit(divisor))
        assert_sides_equal(lhs, rhs)

    def test_plain_containment_is_not_enough(self):
        """The law needs A-restrictions of the same relation, not just r1' ⊇ r1''."""
        part_outer = Relation(["a", "b"], [(1, 1), (1, 2)])
        part_inner = Relation(["a", "b"], [(1, 1)])  # subset, but not an A-restriction
        divisor = Relation(["b"], [(1,), (2,)])
        lhs = B.divide(B.difference(lit(part_outer), lit(part_inner)), lit(divisor))
        rhs = B.difference(
            B.divide(lit(part_outer), lit(divisor)),
            B.divide(lit(part_inner), lit(divisor)),
        )
        assert lhs.evaluate({}).is_empty()
        assert rhs.evaluate({}).to_set("a") == {1}

    def test_predicate_implies_helper(self):
        p = P.greater_than(P.attr("a"), 0)
        q = P.And(p, P.less_than(P.attr("a"), 5))
        assert predicate_implies(q, p)
        assert predicate_implies(p, p)
        assert not predicate_implies(p, q)

    def test_rule_application_with_syntactic_implication(self, figure4_dividend, figure1_divisor):
        rule = Law6DifferencePushdown()
        outer = P.greater_than(P.attr("a"), 0)
        inner = P.And(P.greater_than(P.attr("a"), 0), P.greater_than(P.attr("a"), 2))
        dividend = lit(figure4_dividend)
        expr = B.divide(
            B.difference(B.select(dividend, outer), B.select(dividend, inner)),
            lit(figure1_divisor),
        )
        assert rule.matches(expr)  # static match, no data needed
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().startswith("difference")

    def test_rule_uses_data_when_implication_is_not_syntactic(self, figure4_dividend, figure1_divisor):
        rule = Law6DifferencePushdown()
        outer = P.less_than(P.attr("a"), 10)     # keeps everything
        inner = P.greater_than(P.attr("a"), 2)   # subset, but not syntactically implied
        dividend = lit(figure4_dividend)
        expr = B.divide(
            B.difference(B.select(dividend, outer), B.select(dividend, inner)),
            lit(figure1_divisor),
        )
        assert not rule.matches(expr)  # cannot be established statically
        assert rule.matches(expr, context_for())

    def test_rule_rejects_predicates_on_divisor_attributes(self, figure4_dividend, figure1_divisor):
        rule = Law6DifferencePushdown()
        outer = P.greater_than(P.attr("b"), 0)
        inner = P.And(P.greater_than(P.attr("b"), 0), P.greater_than(P.attr("b"), 2))
        dividend = lit(figure4_dividend)
        expr = B.divide(
            B.difference(B.select(dividend, outer), B.select(dividend, inner)),
            lit(figure1_divisor),
        )
        assert not rule.matches(expr, context_for())


class TestLaw7:
    @given(dividends(), dividends(), divisors())
    def test_equivalence_for_disjoint_candidates(self, part1, part2, divisor):
        assume(projections_disjoint(part1, part2, ["a"]))
        lhs, rhs = Law7DisjointDifferenceElimination.sides(lit(part1), lit(part2), lit(divisor))
        assert_sides_equal(lhs, rhs)

    @given(dividends(min_rows=1), divisors())
    def test_equivalence_after_range_partitioning(self, dividend, divisor):
        from repro.workloads import split_dividend_by_quotient

        low, high = split_dividend_by_quotient(dividend, "a")
        lhs, rhs = Law7DisjointDifferenceElimination.sides(lit(low), lit(high), lit(divisor))
        assert_sides_equal(lhs, rhs)

    def test_rule_application_saves_the_second_divide(self, figure4_dividend, figure1_divisor):
        rule = Law7DisjointDifferenceElimination()
        low = figure4_dividend.select(lambda row: row["a"] <= 2)
        high = figure4_dividend.select(lambda row: row["a"] > 2)
        expr = B.difference(
            B.divide(lit(low), lit(figure1_divisor)),
            B.divide(lit(high), lit(figure1_divisor)),
        )
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().count("divide") == 1

    def test_rule_rejects_overlapping_candidates(self, figure4_dividend, figure1_divisor):
        rule = Law7DisjointDifferenceElimination()
        expr = B.difference(
            B.divide(lit(figure4_dividend), lit(figure1_divisor)),
            B.divide(lit(figure4_dividend), lit(figure1_divisor)),
        )
        assert not rule.matches(expr, context_for())

    def test_rule_rejects_different_divisors(self, figure4_dividend):
        rule = Law7DisjointDifferenceElimination()
        low = figure4_dividend.select(lambda row: row["a"] <= 2)
        high = figure4_dividend.select(lambda row: row["a"] > 2)
        expr = B.difference(
            B.divide(lit(low), lit(Relation(["b"], [(1,)]))),
            B.divide(lit(high), lit(Relation(["b"], [(2,)]))),
        )
        assert not rule.matches(expr, context_for())
