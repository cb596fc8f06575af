"""Law-level metamorphic tests for Laws 11 and 12, end to end.

The slice of ROADMAP 5(b) the traffic goes through: generate databases
that *satisfy* a law's conditions and require ``lhs ≡ rhs`` through
``db.sql(...).run()`` — the rewritten plan, the same text on a session
that may not inspect data (so the divide itself runs) and the reference
division all agree — and databases that *violate* one condition and
require that the rule does not fire (and the answer is still right).

Half of every dividend arrives through ``db.insert``, so the conditions
read dictionary codes carried over a fold, not only freshly built ones.
"""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.api import connect
from repro.division import small_divide
from repro.relation import Relation

DIVIDE = "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b"
LAW_11 = "law_11_grouped_dividend"
LAW_12 = "law_12_grouped_divisor_key"

VALUES = st.integers(min_value=0, max_value=5)
PAIRS = st.lists(st.tuples(VALUES, VALUES), max_size=10)
DIVISORS = st.lists(VALUES, max_size=4, unique=True)


def distinct_on(position):
    """Dividend tuples in which no value of column ``position`` repeats."""
    return PAIRS.map(lambda pairs: list({pair[position]: pair for pair in pairs}.values()))


def keyed_on_b_only():
    """Dividends of at least two tuples in which ``b`` is a key and ``a``
    is made to repeat (so Law 11 leaves the divide to Law 12)."""

    def repeat_a(pairs):
        a = pairs[0][0]
        return [(a, b) for _a, b in pairs[:2]] + pairs[2:]

    return distinct_on(1).filter(lambda pairs: len(pairs) >= 2).map(repeat_a)


def divisors_within(dividend, min_size=0):
    """Divisors drawn from the ``b`` values the dividend holds."""
    present = sorted({b for _a, b in dividend})
    return st.lists(st.sampled_from(present), min_size=min_size, unique=True)


def run_both_sides(dividend, divisor):
    """``(rules fired, quotient)`` of the division through the front door,
    after checking it against the unrewritten plan and the reference."""
    tables = {
        "r1": Relation(["a", "b"], dividend[::2]),
        "r2": Relation(["b"], [(b,) for b in divisor]),
    }
    db = connect(tables)
    db.sql(DIVIDE).run()  # statistics and a plan at version 0
    db.insert("r1", dividend[1::2])
    rewritten = db.sql(DIVIDE).run()
    static = connect(
        {"r1": Relation(["a", "b"], dividend), "r2": tables["r2"]}, allow_data_inspection=False
    )
    unrewritten = static.sql(DIVIDE).run()
    assert not unrewritten.rules_fired
    assert rewritten.relation == unrewritten.relation == small_divide(
        static.relation("r1"), static.relation("r2")
    )
    return rewritten.rules_fired, rewritten.relation


class TestLaw11:
    @given(distinct_on(0), DIVISORS)
    def test_a_is_a_key_so_the_rule_fires_and_both_sides_agree(self, dividend, divisor):
        fired, _quotient = run_both_sides(dividend, divisor)
        assert LAW_11 in fired

    @given(distinct_on(0), VALUES, DIVISORS)
    def test_a_repeated_a_value_and_the_rule_does_not_fire(self, dividend, extra, divisor):
        assume(dividend)
        a, b = dividend[0]
        assume(extra != b)
        fired, _quotient = run_both_sides(dividend + [(a, extra)], divisor)
        assert LAW_11 not in fired


class TestLaw12:
    @given(keyed_on_b_only(), st.data())
    def test_b_is_a_key_and_a_foreign_key_so_the_rule_fires(self, dividend, data):
        divisor = data.draw(divisors_within(dividend, min_size=1))
        fired, quotient = run_both_sides(dividend, divisor)
        assert LAW_12 in fired and LAW_11 not in fired
        assert len(quotient) <= 1

    @given(keyed_on_b_only(), st.data())
    def test_a_divisor_value_outside_the_dividend_and_the_rule_does_not_fire(self, dividend, data):
        divisor = data.draw(divisors_within(dividend)) + [99]
        fired, quotient = run_both_sides(dividend, divisor)
        assert LAW_12 not in fired and not len(quotient)

    @given(keyed_on_b_only(), VALUES, st.data())
    def test_a_repeated_b_value_and_the_rule_does_not_fire(self, dividend, extra, data):
        a, b = dividend[0]
        assume(extra != a)
        dividend = dividend + [(extra, b)]
        divisor = data.draw(divisors_within(dividend, min_size=1))
        fired, _quotient = run_both_sides(dividend, divisor)
        assert LAW_12 not in fired and LAW_11 not in fired
