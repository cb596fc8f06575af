"""``Relation.with_delta``: a table's edits folded into a new value.

The carried scan block must be exactly what a fresh build over the same
scan order gives — ``encoded_columns()`` equal to ``encode_columns`` of
``aligned_tuples()``, dictionaries and codes alike — so nothing downstream
(scans, statistics, saves) can tell a folded value from a new one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relation import Relation
from repro.relation.encoding import CodeColumn, code_buffer, encode_columns, patch_code_columns
from repro.relation.row import Row

#: ``1`` / ``1.0`` / ``True`` share a dictionary entry; ``None`` is unorderable.
VALUES = st.sampled_from([0, 1, 1.0, True, 2, 3, None, "x"])
TUPLES = st.lists(st.tuples(VALUES, VALUES), max_size=14)


def rows_of(relation, tuples):
    return [Row.from_schema(relation.schema, values) for values in tuples]


def assert_fresh(relation):
    """The cached block is what a fresh encode of its own order builds."""
    tuples = relation.aligned_tuples()
    assert set(tuples) == {row.values_tuple for row in relation.rows}
    assert len(tuples) == len(relation)
    fresh = encode_columns(tuples, len(relation.schema))
    for position, (carried, built) in enumerate(zip(relation.encoded_columns(), fresh)):
        assert carried.dictionary == built.dictionary
        assert list(carried.codes) == list(built.codes)
        assert carried.values() == [values[position] for values in tuples]


@settings(max_examples=150, deadline=None)
@given(base=TUPLES, extra=TUPLES, picks=st.lists(st.integers(0, 13), max_size=8))
def test_folded_value_carries_a_fresh_scan_block(base, extra, picks):
    parent = Relation(["a", "b"], base)
    order = parent.aligned_tuples()
    parent.encoded_columns()
    removed = list(dict.fromkeys(order[i] for i in picks if i < len(order)))
    added = [values for values in dict.fromkeys(extra) if values not in parent.to_tuples()]
    snapshot = list(order), [(list(c.dictionary), list(c.codes)) for c in parent.encoded_columns()]

    child = parent.with_delta(rows_of(parent, added), rows_of(parent, removed))

    assert child.to_tuples() == (parent.to_tuples() - set(removed)) | set(added)
    # scan order: the parent's minus the removed tuples, then the added ones
    assert child._tuples == [v for v in order if v not in set(removed)] + added
    assert child._encoding is not None
    assert_fresh(child)
    # the parent value is untouched, dictionaries included
    assert snapshot == (
        parent.aligned_tuples(),
        [(c.dictionary, list(c.codes)) for c in parent.encoded_columns()],
    )


def test_equal_but_not_identical_values_find_their_tuple():
    parent = Relation(["a", "b"], [(1, "x"), (2, "y")])
    parent.encoded_columns()
    child = parent.with_delta([], rows_of(parent, [(1.0, "x")]))
    assert child.aligned_tuples() == [v for v in parent.aligned_tuples() if v != (1, "x")]
    assert_fresh(child)


def test_a_dictionary_that_grows_is_copied_and_one_that_does_not_is_shared():
    parent = Relation(["a", "b"], [(1, 10), (2, 20)])
    a, b = parent.encoded_columns()
    before = list(a.dictionary), list(b.dictionary)
    child = parent.with_delta(rows_of(parent, [(3, 10)]), [])
    grown, same = child.encoded_columns()
    assert grown.dictionary is not a.dictionary and grown.dictionary[-1] == 3
    assert same.dictionary is b.dictionary
    assert (a.dictionary, b.dictionary) == before


def test_without_a_cached_encoding_nothing_is_carried():
    parent = Relation(["a", "b"], [(1, 10), (2, 20)])
    parent.aligned_tuples()
    child = parent.with_delta(rows_of(parent, [(3, 30)]), rows_of(parent, [(1, 10)]))
    assert child._tuples is None and child._encoding is None
    assert child.to_tuples() == {(2, 20), (3, 30)}
    assert_fresh(child)


def test_a_clustered_order_survives_deletes():
    parent = Relation(["a", "b"], [(a, b) for a in range(6) for b in range(3)]).clustered(["a"])
    parent.encoded_columns()
    child = parent.with_delta([], rows_of(parent, [(0, 0), (0, 1), (0, 2), (3, 1)]))
    assert child.aligned_tuples() == sorted(child.aligned_tuples(), key=lambda v: v[0])
    assert_fresh(child)


def test_a_composite_past_int64_rebuilds_instead():
    try:
        import numpy  # noqa: F401
    except ImportError:  # the tuple-keyed twin has no composite to overflow
        return
    wide = 1 << 13  # five 8192-entry dictionaries: 2^65 combinations
    parent = Relation(list("abcde"), [(i,) * 5 for i in range(wide)])
    columns = parent.encoded_columns()
    assert patch_code_columns(columns, [(0,) * 5], []) is None
    assert patch_code_columns(columns, [], [(wide,) * 5]) is not None
    child = parent.with_delta([], rows_of(parent, [(0,) * 5]))
    assert child._tuples is None and child._encoding is None
    assert len(child) == wide - 1
    assert_fresh(child)


def test_no_attributes_no_positions():
    assert patch_code_columns((), [()], []) is None


@settings(max_examples=100, deadline=None)
@given(codes=st.lists(st.integers(0, 5), max_size=12))
def test_patched_columns_over_any_near_miss_dictionary_order(codes):
    """Dropping tuples re-establishes first-seen order whatever went: the
    first occurrence, the last one, or every tuple of a value."""
    values = "abcdef"
    tuples = [(values[code],) for code in codes]
    (column,) = encode_columns(tuples, 1)
    for gone in {t for t in tuples}:
        patched = patch_code_columns((column,), [gone], [])
        assert patched is not None
        dropped, (after,) = patched
        kept = [t for t in tuples if t != gone]
        (fresh,) = encode_columns(kept, 1)
        assert dropped == [i for i, t in enumerate(tuples) if t == gone]
        assert after.dictionary == fresh.dictionary
        assert list(after.codes) == list(fresh.codes)


def test_code_columns_are_not_mutated_in_place():
    column = CodeColumn(["a", "b"], code_buffer([0, 1, 0], 3))
    # ("a",) sits at two positions in this (multiset) block: both go.
    dropped, (after,) = patch_code_columns((column,), [("a",)], [("c",)])
    assert dropped == [0, 2]
    assert after.dictionary == ["b", "c"] and list(after.codes) == [0, 1]
    assert column.dictionary == ["a", "b"] and list(column.codes) == [0, 1, 0]
