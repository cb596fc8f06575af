"""Satellite 3: maintained views are bit-identical to recompute.

The sweep drives a random insert/delete sequence against the dividend and
divisor of a registered view and, after **every** edit, compares the
maintained answer against a from-scratch recompute of the same query,
column for column — crossed over all 8 division algorithms (5 small-divide,
3 great-divide) and 1 or 4 planned partitions, so the counter table must
agree with every physical implementation of division the engine has.  One
great-divide sweep selects the divisor's group keys before the quotient
keys, so the view's column order is swept too.

A second assertion digs below the quotient: the incrementally-updated
counter table must equal a counter table *rebuilt* from the final base
tables (compared as decoded value sets, so dictionary bit order — which
legitimately differs between the two construction orders — cannot mask
or cause a failure).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.optimizer import PlannerOptions
from repro.physical import GREAT_DIVIDE_ALGORITHMS, SMALL_DIVIDE_ALGORITHMS
from repro.relation import Relation
from tests.partitioning import PARTITION_COUNTS, planned_partitions
from tests.strategies import VALUES, dividends, great_divisors

SMALL_GRID = [
    (algorithm, partitions)
    for algorithm in sorted(SMALL_DIVIDE_ALGORITHMS)
    for partitions in PARTITION_COUNTS
]
GREAT_GRID = [
    (algorithm, partitions)
    for algorithm in sorted(GREAT_DIVIDE_ALGORITHMS)
    for partitions in PARTITION_COUNTS
]


@st.composite
def edit_sequences(draw, row_width, max_edits=8):
    """A list of (target, operation, row-tuple) single-row edits."""
    edit = st.tuples(
        st.sampled_from(["dividend", "divisor"]),
        st.sampled_from(["insert", "delete"]),
        st.tuples(*([VALUES] * row_width)),
    )
    return draw(st.lists(edit, min_size=1, max_size=max_edits))


def connect_pair(dividend, divisor, kind, algorithm):
    """(session with the view, expression factory for the recompute)."""
    options = (
        PlannerOptions(small_divide_algorithm=algorithm)
        if kind == "small"
        else PlannerOptions(great_divide_algorithm=algorithm)
    )
    db = connect(planner_options=options)
    db.add_table("r1", dividend)
    db.add_table("r2", divisor)
    if kind == "small":
        build = lambda: db.table("r1").divide(db.table("r2"), on=["b"])
    elif kind == "great":
        build = lambda: db.table("r1").great_divide(db.table("r2"))
    else:  # a great divide whose select list puts C before A
        build = lambda: db.sql("SELECT c, a FROM r1 AS s DIVIDE BY r2 AS t ON s.b = t.b")
    view = db.create_view("q", build())
    view.run()
    return db, view, build


def edit_rows(edit, kind):
    """Map one drawn edit onto (table, rows) for the session."""
    target, operation, row = edit
    if target == "dividend":
        return "r1", [row[:2]]
    # Divisor rows: b for small divide, (b, c) for great divide.
    return "r2", [row[:1] if kind == "small" else row[:2]]


def assert_maintained_matches_recompute(dividend, divisor, kind, algorithm, partitions, edits):
    with planned_partitions(partitions):
        db, view, build = connect_pair(dividend, divisor, kind, algorithm)
        assert view.maintained
        for step, edit in enumerate(edits):
            table, rows = edit_rows(edit, kind)
            _target, operation, _row = edit
            if operation == "insert":
                db.insert(table, rows)
            else:
                db.delete(table, rows)
            recomputed = build().run().relation
            label = f"{kind}/{algorithm} partitions={partitions} step={step} edit={edit}"
            maintained = view.relation()
            assert maintained == recomputed, label
            # column for column, not only as sets of named rows
            assert maintained.schema.names == recomputed.schema.names, label
            assert set(maintained.aligned_tuples()) == set(recomputed.aligned_tuples()), label

        # Below the quotient: incremental counters == rebuilt counters.
        db2, view2, _build2 = connect_pair(db.relation("r1"), db.relation("r2"), kind, algorithm)
    assert view.counters.dividend_sets() == view2.counters.dividend_sets()
    assert view.counters.divisor_sets() == view2.counters.divisor_sets()
    assert view.quotient_tuples() == view2.quotient_tuples()


class TestIVMEquivalenceSweep:
    @pytest.mark.parametrize("algorithm,partitions", SMALL_GRID)
    @settings(max_examples=5, deadline=None)
    @given(
        dividend=dividends(max_rows=10),
        divisor=st.lists(st.tuples(VALUES), max_size=3).map(
            lambda rows: Relation(("b",), rows)
        ),
        edits=edit_sequences(row_width=2),
    )
    def test_small_divide_sequences(self, algorithm, partitions, dividend, divisor, edits):
        assert_maintained_matches_recompute(
            dividend, divisor, "small", algorithm, partitions, edits
        )

    @pytest.mark.parametrize("algorithm,partitions", GREAT_GRID)
    @settings(max_examples=5, deadline=None)
    @given(
        dividend=dividends(max_rows=10),
        divisor=great_divisors(max_rows=6),
        edits=edit_sequences(row_width=2),
    )
    def test_great_divide_sequences(self, algorithm, partitions, dividend, divisor, edits):
        assert_maintained_matches_recompute(
            dividend, divisor, "great", algorithm, partitions, edits
        )

    @pytest.mark.parametrize("algorithm,partitions", GREAT_GRID)
    @settings(max_examples=5, deadline=None)
    @given(
        dividend=dividends(max_rows=10),
        divisor=great_divisors(max_rows=6),
        edits=edit_sequences(row_width=2),
    )
    def test_great_divide_c_before_a_sequences(
        self, algorithm, partitions, dividend, divisor, edits
    ):
        assert_maintained_matches_recompute(
            dividend, divisor, "great_c_first", algorithm, partitions, edits
        )


class TestDirectedSequences:
    """Deterministic corner sequences hypothesis may not always reach."""

    def test_empty_divisor_means_every_key_qualifies(self):
        db = connect()
        db.add_table("r1", Relation(["a", "b"], [(1, 1), (2, 2)]))
        db.add_table("r2", Relation(["b"], [(1,)]))
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        view.run()
        db.delete("r2", [(1,)])
        assert set(view.relation().aligned_tuples()) == {(1,), (2,)}

    def test_key_vanishes_and_returns(self):
        db = connect()
        db.add_table("r1", Relation(["a", "b"], [(1, 1), (1, 2)]))
        db.add_table("r2", Relation(["b"], [(1,), (2,)]))
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        view.run()
        db.delete("r1", [(1, 1), (1, 2)])
        assert set(view.relation().aligned_tuples()) == set()
        db.insert("r1", [(1, 1), (1, 2)])
        assert set(view.relation().aligned_tuples()) == {(1,)}

    def test_great_divide_group_lifecycle(self):
        db = connect()
        db.add_table("r1", Relation(["a", "b"], [(1, 1), (1, 2)]))
        db.add_table("r2", Relation(["b", "c"], [(1, 10), (2, 10)]))
        view = db.create_view("g", db.table("r1").great_divide(db.table("r2")))
        view.run()
        assert set(view.relation().aligned_tuples()) == {(1, 10)}
        db.insert("r2", [(3, 20)])  # a new group c=20 requiring b=3
        assert set(view.relation().aligned_tuples()) == {(1, 10)}
        db.insert("r1", [(1, 3)])
        assert set(view.relation().aligned_tuples()) == {(1, 10), (1, 20)}
        db.delete("r2", [(3, 20)])  # the group empties: it must disappear
        assert set(view.relation().aligned_tuples()) == {(1, 10)}
