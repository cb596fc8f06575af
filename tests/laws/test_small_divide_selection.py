"""Property and example tests for Laws 3, 4 and Example 1 (divide vs selection)."""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.laws.small_divide import (
    Example1DividendRestriction,
    Law3SelectionPushdown,
    Law4ReplicateSelection,
)
from repro.relation import Relation
from tests.laws.helpers import assert_rewrite_preserves_semantics, assert_sides_equal, context_for, lit
from tests.strategies import VALUES, dividends, divisors

#: Predicates over the quotient attribute a.
A_PREDICATES = st.sampled_from(
    [
        P.equals(P.attr("a"), 1),
        P.less_than(P.attr("a"), 2),
        P.greater_equal(P.attr("a"), 2),
        P.not_equals(P.attr("a"), 0),
    ]
)

#: Predicates over the divisor attribute b.
B_PREDICATES = st.sampled_from(
    [
        P.less_than(P.attr("b"), 3),
        P.less_than(P.attr("b"), 2),
        P.equals(P.attr("b"), 1),
        P.greater_than(P.attr("b"), 0),
    ]
)


class TestLaw3:
    @given(dividends(), divisors(), A_PREDICATES)
    def test_equivalence_on_random_relations(self, dividend, divisor, predicate):
        lhs, rhs = Law3SelectionPushdown.sides(lit(dividend), lit(divisor), predicate)
        assert_sides_equal(lhs, rhs)

    def test_rule_application(self, figure1_dividend, figure1_divisor):
        rule = Law3SelectionPushdown()
        expr = B.select(
            B.divide(lit(figure1_dividend), lit(figure1_divisor)), P.equals(P.attr("a"), 2)
        )
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        # After the rewrite the selection sits below the divide.
        assert rewritten.to_text().startswith("divide")
        assert rewritten.evaluate({}).to_set("a") == {2}

    def test_rule_rejects_predicate_on_divisor_attributes(self, figure1_dividend, figure1_divisor):
        rule = Law3SelectionPushdown()
        # The predicate references b, which is not a quotient attribute —
        # such an expression is not even well-typed, so the rule must not
        # claim to match it (schema inference rejects it first).
        expr = B.select(
            B.divide(lit(figure1_dividend), lit(figure1_divisor)), P.equals(P.attr("a"), 1)
        )
        assert rule.matches(expr)
        other = B.select(B.divide(lit(figure1_dividend), lit(figure1_divisor)), P.TRUE)
        assert rule.matches(other)  # TRUE references no attributes at all

    def test_rule_ignores_selection_over_non_divide(self, figure1_dividend):
        rule = Law3SelectionPushdown()
        expr = B.select(lit(figure1_dividend), P.equals(P.attr("a"), 1))
        assert not rule.matches(expr)


class TestLaw4:
    @given(dividends(), divisors(), B_PREDICATES)
    def test_equivalence_when_selected_divisor_nonempty(self, dividend, divisor, predicate):
        assume(not divisor.select(predicate).is_empty())
        lhs, rhs = Law4ReplicateSelection.sides(lit(dividend), lit(divisor), predicate)
        assert_sides_equal(lhs, rhs)

    def test_empty_selected_divisor_breaks_the_equivalence(self):
        """Documents why the rule checks σ_p(r2) ≠ ∅ (see the docstring)."""
        dividend = Relation(["a", "b"], [(1, 5)])
        divisor = Relation(["b"], [(5,)])
        predicate = P.less_than(P.attr("b"), 3)  # selects nothing from the divisor
        lhs, rhs = Law4ReplicateSelection.sides(lit(dividend), lit(divisor), predicate)
        assert lhs.evaluate({}).to_set("a") == {1}  # divide by ∅ keeps all candidates
        assert rhs.evaluate({}).is_empty()

    def test_rule_application(self, figure1_dividend, figure1_divisor):
        rule = Law4ReplicateSelection()
        predicate = P.less_than(P.attr("b"), 3)
        expr = B.divide(lit(figure1_dividend), B.select(lit(figure1_divisor), predicate))
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().count("select") == 2

    def test_rule_is_conservative_without_data(self, figure1_dividend, figure1_divisor):
        rule = Law4ReplicateSelection()
        predicate = P.less_than(P.attr("b"), 3)
        expr = B.divide(lit(figure1_dividend), B.select(lit(figure1_divisor), predicate))
        assert not rule.matches(expr)  # no database available
        assert rule.matches(expr, context_for())

    def test_rule_rejects_empty_selected_divisor(self, figure1_dividend, figure1_divisor):
        rule = Law4ReplicateSelection()
        predicate = P.greater_than(P.attr("b"), 100)
        expr = B.divide(lit(figure1_dividend), B.select(lit(figure1_divisor), predicate))
        assert not rule.matches(expr, context_for())


class TestExample1:
    @given(dividends(), divisors(), B_PREDICATES)
    def test_equivalence_on_random_relations(self, dividend, divisor, predicate):
        lhs, rhs = Example1DividendRestriction.sides(lit(dividend), lit(divisor), predicate)
        assert_sides_equal(lhs, rhs)

    def test_figure_6_worked_example(self, figure4_dividend):
        """Figure 6: σ_{b<3}(r1) ÷ r2 is empty because σ_{b≥3}(r2) is nonempty."""
        divisor = Relation(["b"], [(1,), (3,), (4,)])
        predicate = P.less_than(P.attr("b"), 3)
        lhs, rhs = Example1DividendRestriction.sides(lit(figure4_dividend), lit(divisor), predicate)

        restricted_dividend = figure4_dividend.select(predicate)
        assert len(restricted_dividend) == 5  # Figure 6 (b)
        restricted_divisor = divisor.select(predicate)
        assert restricted_divisor.to_set("b") == {1}  # Figure 6 (d)
        from repro.division import small_divide

        assert small_divide(restricted_dividend, restricted_divisor).to_set("a") == {1, 2, 3, 4}  # (f)
        assert lhs.evaluate({}).is_empty()  # Figure 6 (e)
        assert rhs.evaluate({}).is_empty()  # Figure 6 (i)

    def test_rule_application(self, figure4_dividend):
        rule = Example1DividendRestriction()
        divisor = Relation(["b"], [(1,), (3,), (4,)])
        predicate = P.less_than(P.attr("b"), 3)
        expr = B.divide(B.select(lit(figure4_dividend), predicate), lit(divisor))
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context_for())
        assert rewritten.to_text().startswith("difference")

    def test_rule_rejects_predicate_on_quotient_attributes(self, figure1_dividend, figure1_divisor):
        rule = Example1DividendRestriction()
        expr = B.divide(
            B.select(lit(figure1_dividend), P.equals(P.attr("a"), 1)), lit(figure1_divisor)
        )
        assert not rule.matches(expr)
