"""The delta equations at the counter level.

The paper's union/difference laws read as maintenance rules: ``(r1 ∪ Δ) ÷
r2`` from ``r1 ÷ r2`` by a per-group mask OR, and so on.  Each property test
applies one counter update and compares against the from-scratch division
of the mutated inputs.
"""

from hypothesis import given, settings

from repro.division import great_divide, small_divide
from repro.views.counters import CounterTable
from tests.strategies import VALUES, dividends, divisors, great_divisors


def build_small(dividend, divisor):
    counters = CounterTable("small", 1)
    counters.rebuild(
        ((row.values_for(("a",)), row.values_for(("b",))) for row in dividend),
        ((row.values_for(("b",)), ()) for row in divisor),
    )
    return counters


def build_great(dividend, divisor):
    counters = CounterTable("great", 1, 1)
    counters.rebuild(
        ((row.values_for(("a",)), row.values_for(("b",))) for row in dividend),
        ((row.values_for(("b",)), row.values_for(("c",))) for row in divisor),
    )
    return counters


def small_quotient(dividend, divisor):
    return {t for t in small_divide(dividend, divisor).aligned_tuples()}


class TestSmallDivideDeltaEquations:
    @settings(max_examples=25, deadline=None)
    @given(dividend=dividends(), divisor=divisors(), a=VALUES, b=VALUES)
    def test_dividend_insert_equation(self, dividend, divisor, a, b):
        counters = build_small(dividend, divisor)
        if ((a,), (b,)) not in set(
            (row.values_for(("a",)), row.values_for(("b",))) for row in dividend
        ):
            counters.insert_dividend((a,), (b,))
        mutated = dividend.union(type(dividend)(["a", "b"], [(a, b)]))
        assert {t + () for t in counters.quotient_tuples()} == small_quotient(
            mutated, divisor
        )

    @settings(max_examples=25, deadline=None)
    @given(dividend=dividends(min_rows=1), divisor=divisors())
    def test_dividend_delete_equation(self, dividend, divisor):
        victim = sorted(dividend.aligned_tuples())[0]
        counters = build_small(dividend, divisor)
        counters.delete_dividend((victim[0],), (victim[1],))
        mutated = dividend.difference(type(dividend)(["a", "b"], [victim]))
        assert {t for t in counters.quotient_tuples()} == small_quotient(
            mutated, divisor
        )

    @settings(max_examples=25, deadline=None)
    @given(dividend=dividends(), divisor=divisors(), b=VALUES)
    def test_divisor_insert_equation(self, dividend, divisor, b):
        counters = build_small(dividend, divisor)
        if (b,) not in set(row.values_for(("b",)) for row in divisor):
            counters.insert_divisor((b,))
        mutated = divisor.union(type(divisor)(["b"], [(b,)]))
        assert {t for t in counters.quotient_tuples()} == small_quotient(
            dividend, mutated
        )

    @settings(max_examples=25, deadline=None)
    @given(dividend=dividends(), divisor=divisors(min_rows=1))
    def test_divisor_delete_equation(self, dividend, divisor):
        victim = sorted(divisor.aligned_tuples())[0]
        counters = build_small(dividend, divisor)
        counters.delete_divisor((victim[0],))
        mutated = divisor.difference(type(divisor)(["b"], [victim]))
        assert {t for t in counters.quotient_tuples()} == small_quotient(
            dividend, mutated
        )


class TestGreatDivideDeltaEquations:
    @settings(max_examples=25, deadline=None)
    @given(dividend=dividends(), divisor=great_divisors(), b=VALUES, c=VALUES)
    def test_divisor_insert_equation(self, dividend, divisor, b, c):
        counters = build_great(dividend, divisor)
        if (b, c) not in set(divisor.aligned_tuples()):
            counters.insert_divisor((b,), (c,))
        mutated = divisor.union(type(divisor)(["b", "c"], [(b, c)]))
        expected = {t for t in great_divide(dividend, mutated).aligned_tuples()}
        assert counters.quotient_tuples() == expected

    @settings(max_examples=25, deadline=None)
    @given(dividend=dividends(), divisor=great_divisors(min_rows=1))
    def test_divisor_delete_equation(self, dividend, divisor):
        victim = sorted(divisor.aligned_tuples())[0]
        counters = build_great(dividend, divisor)
        counters.delete_divisor((victim[0],), (victim[1],))
        mutated = divisor.difference(type(divisor)(["b", "c"], [victim]))
        expected = {t for t in great_divide(dividend, mutated).aligned_tuples()}
        assert counters.quotient_tuples() == expected
