"""The lexicographic-prefix statistic read off the codes equals the
tuple walk it replaced.

``reference_prefix_length`` is the walk ``TableStatistics.from_relation``
used to make over a relation's aligned tuples, with its step rule fixed: a
step is ordered only if ``previous < value`` or ``previous == value``.
:func:`~repro.relation.encoding.lexicographic_prefix` must give the same
answer from the dictionary codes alone, whatever the values: numbers of
mixed types that share a dictionary entry, strings, ``None`` beside
numbers, NaN, sets ordered by inclusion.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.relation.encoding as encoding_module
from repro.optimizer.statistics import TableStatistics, _ordered
from repro.relation import Relation
from repro.relation.encoding import lexicographic_prefix
from repro.relation.row import Row

NAN = math.nan


def reference_prefix_length(tuples, width):
    """Longest prefix length ``k`` with the scan lexicographically
    non-decreasing on the first ``k`` attributes, walking the tuples."""
    limit = width
    previous = None
    for values in tuples:
        if previous is not None and limit:
            for index in range(limit):
                a, b = previous[index], values[index]
                if a == b:
                    continue
                try:
                    ordered = a < b or a == b
                except TypeError:
                    ordered = False
                if not ordered:
                    limit = index
                # The first differing column decides the lexicographic order
                # of every longer prefix, so stop comparing here.
                break
        if limit == 0:
            break
        previous = values
    return limit


#: Value pools one relation draws from: one type, or several at once.
POOLS = [
    list(range(-2, 4)),
    ["a", "b", "c", "ab"],
    [0, 1, 1.0, True, 2, 2.5],
    [None, 0, 1, 2],
    [NAN, 0.5, 1.0, 2.0],
    [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})],
    [0, "a", None, NAN, frozenset({1})],
]


@st.composite
def relations(draw):
    """A two- or three-attribute relation over one pool per attribute, in
    a drawn scan order, a set's order or clustered on a drawn prefix."""
    width = draw(st.integers(2, 3))
    pools = [draw(st.sampled_from(POOLS)) for _ in range(width)]
    rows = draw(
        st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)), max_size=90, unique=True)
    )
    names = ["a", "b", "c"][:width]
    layout = draw(st.sampled_from(["drawn", "set", "clustered"]))
    if layout == "set":
        return Relation.from_aligned(names, rows)
    relation = Relation.from_aligned(names, draw(st.permutations(rows)))
    if layout == "drawn":
        return Relation._from_block(relation.schema, draw(st.permutations(rows)))
    return relation.clustered(names[: draw(st.integers(1, width))])


@settings(max_examples=400, deadline=None)
@given(relation=relations())
def test_the_codes_give_the_prefix_the_tuple_walk_gives(relation):
    width = len(relation.schema)
    expected = reference_prefix_length(relation.aligned_tuples(), width)
    assert lexicographic_prefix(relation.encoded_columns(), _ordered) == expected
    # the whole-column passes alone, without the steps walked one by one
    with mock.patch.object(encoding_module, "_PROBED_STEPS", 0):
        assert lexicographic_prefix(relation.encoded_columns(), _ordered) == expected
    statistics = TableStatistics.from_relation(relation)
    assert statistics.lexicographic_prefix == (relation.attributes[:expected] if len(relation) else ())


def test_sorted_tables_are_decided_past_the_probed_steps():
    """Long enough that the whole-column passes decide, not the first steps."""
    rows = [(a, b, c) for a in range(4) for b in ("x", "y") for c in range(20)]
    clustered = Relation(["a", "b", "c"], rows).clustered()
    assert lexicographic_prefix(clustered.encoded_columns(), _ordered) == 3
    late = Relation._from_block(clustered.schema, rows[:100] + [rows[-1]] + rows[100:-1])
    assert reference_prefix_length(late.aligned_tuples(), 3) == 0
    assert lexicographic_prefix(late.encoded_columns(), _ordered) == 0
    within = Relation._from_block(clustered.schema, rows[:100] + [rows[101], rows[100]] + rows[102:])
    assert reference_prefix_length(within.aligned_tuples(), 3) == 2
    assert lexicographic_prefix(within.encoded_columns(), _ordered) == 2


@settings(max_examples=150, deadline=None)
@given(
    relation=relations(),
    picks=st.lists(st.integers(0, 89), max_size=6),
    extra=st.lists(st.tuples(st.integers(10, 12), st.integers(10, 12)), max_size=4),
)
def test_a_folded_value_has_the_statistics_of_its_scan_block(relation, picks, extra):
    """Statistics of a table's folded value (code columns, tuples never
    built) equal those of a block built from its scan order."""
    relation.encoded_columns()
    order = relation.aligned_tuples()
    removed = list(dict.fromkeys(order[i] for i in picks if i < len(order)))
    width = len(relation.schema)
    added = [values + (10,) * (width - 2) for values in dict.fromkeys(extra)]
    added = [values for values in added if values not in set(order)]
    folded = relation.with_delta(
        [Row.from_schema(relation.schema, values) for values in added],
        [Row.from_schema(relation.schema, values) for values in removed],
    )
    assert folded.code_columns is not None and folded._block is None
    carried = TableStatistics.from_relation(folded)
    assert folded._block is None  # the statistics read no tuple
    rebuilt = TableStatistics.from_relation(
        Relation._from_block(folded.schema, list(folded.aligned_tuples()))
    )
    assert carried == rebuilt
