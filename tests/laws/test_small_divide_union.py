"""Property and example tests for Laws 1 and 2 (divide versus union)."""

from hypothesis import assume, given

import repro.laws.small_divide.union as union_laws
from repro.algebra import builders as B
from repro.division import small_divide
from repro.laws.conditions import condition_c1, condition_c2
from repro.laws.small_divide import Law1DivisorUnionSplit, Law2DividendUnionSplit
from repro.relation import Relation
from repro.workloads import split_dividend_by_quotient
from tests.laws.helpers import assert_rewrite_preserves_semantics, assert_sides_equal, context_for, lit
from tests.strategies import dividends, divisors


class TestLaw1:
    @given(dividends(), divisors(), divisors())
    def test_equivalence_on_random_relations(self, dividend, divisor_a, divisor_b):
        lhs, rhs = Law1DivisorUnionSplit.sides(lit(dividend), lit(divisor_a), lit(divisor_b))
        assert_sides_equal(lhs, rhs)

    @given(dividends(), divisors(min_rows=1))
    def test_equivalence_with_overlapping_partitions(self, dividend, divisor):
        """The paper stresses that Law 1 also holds for overlapping partitions."""
        rows = sorted(divisor.rows, key=repr)
        part_a = Relation(divisor.schema, rows[: len(rows) // 2 + 1])
        part_b = Relation(divisor.schema, rows[len(rows) // 2 :])
        assume(part_a.union(part_b) == divisor)
        lhs, rhs = Law1DivisorUnionSplit.sides(lit(dividend), lit(part_a), lit(part_b))
        assert_sides_equal(lhs, rhs)
        assert lhs.evaluate({}) == small_divide(dividend, divisor)

    def test_figure_4_worked_example(self, figure4_dividend):
        """Figure 4: dividing by {1,3} ∪ {3,4} in two stages gives {2, 3}."""
        part_a = Relation(["b"], [(1,), (3,)])
        part_b = Relation(["b"], [(3,), (4,)])
        lhs, rhs = Law1DivisorUnionSplit.sides(lit(figure4_dividend), lit(part_a), lit(part_b))
        intermediate = small_divide(figure4_dividend, part_a)
        assert intermediate.to_set("a") == {2, 3, 4}  # Figure 4 (e)
        semi = figure4_dividend.semijoin(intermediate)
        assert len(semi) == 9  # Figure 4 (f)
        assert lhs.evaluate({}).to_set("a") == {2, 3}  # Figure 4 (g)
        assert_sides_equal(lhs, rhs)

    def test_rule_application(self, figure4_dividend):
        rule = Law1DivisorUnionSplit()
        part_a = Relation(["b"], [(1,), (3,)])
        part_b = Relation(["b"], [(3,), (4,)])
        expr = B.divide(lit(figure4_dividend), B.union(lit(part_a), lit(part_b)))
        context = context_for()
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context)
        assert "semijoin" in rewritten.to_text()

    def test_rule_does_not_match_plain_divisor(self, figure1_dividend, figure1_divisor):
        rule = Law1DivisorUnionSplit()
        expr = B.divide(lit(figure1_dividend), lit(figure1_divisor))
        assert not rule.matches(expr)


class TestLaw2:
    @given(dividends(), dividends(), divisors())
    def test_equivalence_under_condition_c1(self, part1, part2, divisor):
        assume(condition_c1(part1, part2, divisor))
        lhs, rhs = Law2DividendUnionSplit.sides(lit(part1), lit(part2), lit(divisor))
        assert_sides_equal(lhs, rhs)

    @given(dividends(min_rows=2), divisors())
    def test_equivalence_for_quotient_partitioning(self, dividend, divisor):
        """Splitting the dividend by a range predicate on A satisfies c2."""
        low, high = split_dividend_by_quotient(dividend, "a")
        assert condition_c2(low, high, ["a"])
        lhs, rhs = Law2DividendUnionSplit.sides(lit(low), lit(high), lit(divisor))
        assert_sides_equal(lhs, rhs)
        assert lhs.evaluate({}) == small_divide(dividend, divisor)

    def test_figure_5_counterexample(self):
        """Figure 5: without c1 the law really is violated."""
        part1 = Relation(["a", "b"], [(1, 1), (1, 2), (1, 3)])
        part2 = Relation(["a", "b"], [(1, 2), (1, 4)])
        divisor = Relation(["b"], [(1,), (4,)])
        assert not condition_c1(part1, part2, divisor)
        lhs, rhs = Law2DividendUnionSplit.sides(lit(part1), lit(part2), lit(divisor))
        assert lhs.evaluate({}).to_set("a") == {1}
        assert rhs.evaluate({}).is_empty()

    def test_rule_requires_data_to_check_c1(self, figure1_dividend, figure1_divisor):
        rule = Law2DividendUnionSplit()
        low, high = split_dividend_by_quotient(figure1_dividend, "a")
        expr = B.divide(B.union(lit(low), lit(high)), lit(figure1_divisor))
        assert not rule.matches(expr)  # no database in context
        context = context_for()
        rewritten = assert_rewrite_preserves_semantics(rule, expr, context)
        assert rewritten.to_text().startswith("union")

    def test_rule_rejects_figure_5(self):
        rule = Law2DividendUnionSplit()
        part1 = Relation(["a", "b"], [(1, 1), (1, 2), (1, 3)])
        part2 = Relation(["a", "b"], [(1, 2), (1, 4)])
        divisor = Relation(["b"], [(1,), (4,)])
        expr = B.divide(B.union(lit(part1), lit(part2)), lit(divisor))
        assert not rule.matches(expr, context_for())

    def test_c1_runs_only_when_c2_fails(self, monkeypatch):
        calls = []

        def counting_c1(*args):
            calls.append(args)
            return condition_c1(*args)

        monkeypatch.setattr(union_laws, "condition_c1", counting_c1)
        rule = Law2DividendUnionSplit()
        divisor = Relation(["b"], [(1,), (4,)])
        # Disjoint quotient candidates: c2 holds and c1 never runs.
        low = Relation(["a", "b"], [(1, 1), (1, 4)])
        high = Relation(["a", "b"], [(2, 1)])
        assert rule.matches(B.divide(B.union(lit(low), lit(high)), lit(divisor)), context_for())
        assert calls == []
        # Satisfies c1 (part1 contains the divisor for the shared candidate)
        # but not c2 (the candidate appears in both parts): c1 decides.
        part2 = Relation(["a", "b"], [(1, 2)])
        expr = B.divide(B.union(lit(low), lit(part2)), lit(divisor))
        assert rule.matches(expr, context_for())
        assert len(calls) == 1
