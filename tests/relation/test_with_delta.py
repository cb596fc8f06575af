"""``Relation.with_delta``: a table's edits folded into a new value.

The carried scan block must be exactly what a fresh build over the same
scan order gives — ``encoded_columns()`` equal to ``encode_columns`` of
``aligned_tuples()``, dictionaries and codes alike — so nothing downstream
(scans, statistics, saves) can tell a folded value from a new one.
"""

import pickle
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.catalog import Catalog
from repro.errors import SchemaError
from repro.relation import Relation
from repro.relation.encoding import CodeColumn, code_buffer, encode_columns, fold_code_columns

#: ``1`` / ``1.0`` / ``True`` share a dictionary entry; ``None`` is unorderable.
VALUES = st.sampled_from([0, 1, 1.0, True, 2, 3, None, "x"])
TUPLES = st.lists(st.tuples(VALUES, VALUES), max_size=14)


def rows_of(relation, tuples):
    return [tuple(values) for values in tuples]


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
    assert child._tuples == [(2, 20), (3, 30)] and child._encoding is None
    assert child.to_tuples() == {(2, 20), (3, 30)}
    assert_fresh(child)


def test_a_clustered_order_survives_deletes():
    parent = Relation(["a", "b"], [(a, b) for a in range(6) for b in range(3)]).clustered(["a"])
    parent.encoded_columns()
    child = parent.with_delta([], rows_of(parent, [(0, 0), (0, 1), (0, 2), (3, 1)]))
    assert child.aligned_tuples() == sorted(child.aligned_tuples(), key=lambda v: v[0])
    assert_fresh(child)


def test_a_composite_past_int64_rebuilds_instead():
    wide = 1 << 13  # five 8192-entry dictionaries: 2^65 combinations
    parent = Relation(list("abcde"), [(i,) * 5 for i in range(wide)])
    columns = parent.encoded_columns()
    assert fold_code_columns(columns, [(0,) * 5], []) is None
    assert fold_code_columns(columns, [], [(wide,) * 5]) is not None
    child = parent.with_delta([], rows_of(parent, [(0,) * 5]))
    assert child._codes is None and child._encoding is None
    assert len(child) == wide - 1
    assert_fresh(child)


def test_no_attributes_no_positions():
    assert fold_code_columns((), [()], []) is None


@settings(max_examples=100, deadline=None)
@given(codes=st.lists(st.integers(0, 5), max_size=12))
def test_patched_columns_over_any_near_miss_dictionary_order(codes):
    """Dropping tuples re-establishes first-seen order whatever went: the
    first occurrence, the last one, or every tuple of a value."""
    values = "abcdef"
    tuples = [(values[code],) for code in codes]
    (column,) = encode_columns(tuples, 1)
    for gone in {t for t in tuples}:
        fold = fold_code_columns((column,), [gone], [])
        assert fold is not None
        dropped, (after,) = fold.dropped, fold.columns
        kept = [t for t in tuples if t != gone]
        (fresh,) = encode_columns(kept, 1)
        assert dropped == [i for i, t in enumerate(tuples) if t == gone]
        assert after.dictionary == fresh.dictionary
        assert list(after.codes) == list(fresh.codes)


def test_code_columns_are_not_mutated_in_place():
    column = CodeColumn(["a", "b"], code_buffer([0, 1, 0], 3))
    # ("a",) sits at two positions in this (multiset) block: both go.
    fold = fold_code_columns((column,), [("a",)], [("c",)])
    dropped, (after,) = fold.dropped, fold.columns
    assert dropped == [0, 2]
    assert after.dictionary == ["b", "c"] and list(after.codes) == [0, 1]
    assert column.dictionary == ["a", "b"] and list(column.codes) == [0, 1, 0]


@settings(max_examples=200, deadline=None)
@given(
    base=st.lists(st.tuples(st.integers(0, 5), VALUES), max_size=40, unique=True),
    steps=st.lists(
        st.tuples(
            st.lists(st.integers(0, 39), max_size=6),
            st.lists(st.tuples(st.integers(0, 7), VALUES), max_size=4),
        ),
        max_size=8,
    ),
)
def test_patches_chained_over_carried_columns_stay_fresh_encodings(base, steps):
    """Each patch reads what the one before carried on its columns (code
    tables, first positions): values leave, come back and move ahead."""
    tuples = list(dict.fromkeys(base))
    columns = encode_columns(tuples, 2)
    for picks, extra in steps:
        removed = list(dict.fromkeys(tuples[i] for i in picks if i < len(tuples)))
        added = [values for values in dict.fromkeys(extra) if values not in set(tuples)]
        fold = fold_code_columns(columns, removed, added)
        dropped, columns = fold.dropped, fold.columns
        assert dropped == [i for i, values in enumerate(tuples) if values in set(removed)]
        tuples = [values for values in tuples if values not in set(removed)] + added
        for carried, built in zip(columns, encode_columns(tuples, 2)):
            assert carried.dictionary == built.dictionary
            assert list(carried.codes) == list(built.codes)


# ----------------------------------------------------------------------
# A table under a sequence of edits and reads (the catalog's fold)
# ----------------------------------------------------------------------
ROW = st.tuples(st.integers(0, 4), st.sampled_from([0, 1, 1.0, True, "x"]))
BATCH = st.lists(ROW, max_size=4)
STEP = st.one_of(
    st.tuples(st.just("edit"), BATCH, BATCH),
    st.tuples(st.just("churn"), BATCH),  # each row deleted and re-inserted in one call
    st.tuples(st.just("read"), st.booleans()),
    st.tuples(st.just("ask")),  # the rows of the last value read, without a read
    st.tuples(st.just("replace"), st.lists(ROW, max_size=8)),
)


def effective(model, inserted, deleted):
    """The rows an edit really changes, under set semantics."""
    gone = list(dict.fromkeys(row for row in deleted if row in model))
    new = list(dict.fromkeys(row for row in inserted if row in gone or row not in model))
    return new, gone


def keys_unique(rows):
    return len({a for a, _b in rows}) == len(rows)


def assert_read(catalog, model, ask_rows):
    """A read of the folded value equals a fresh build of the same rows;
    its row set is asked for now or left for later."""
    relation = catalog["t"]
    tuples = relation.aligned_tuples()
    assert len(relation) == len(tuples) == len(model)
    assert set(tuples) == model
    fresh = encode_columns(tuples, 2)
    for carried, built in zip(relation.encoded_columns(), fresh):
        assert carried.dictionary == built.dictionary
        assert list(carried.codes) == list(built.codes)
    copy = pickle.loads(pickle.dumps(relation))
    assert copy.aligned_tuples() == tuples
    if ask_rows:  # the row set built on demand: the catalog's live set or the block
        assert relation.rows == Relation(["a", "b"], model).rows
        assert copy == relation == Relation(["a", "b"], model)
    return relation


@settings(max_examples=120, deadline=None)
@given(
    base=st.lists(ROW, max_size=10),
    keyed=st.booleans(),
    steps=st.lists(STEP, max_size=14),
)
# a folded value whose rows are first asked for after the table's next
# fold, and one whose rows are asked for while an edit of it is pending
@example(
    base=[(0, 0)],
    keyed=False,
    steps=[("edit", [(1, 0)], []), ("read", False), ("edit", [(2, 0)], []), ("read", False)],
)
@example(
    base=[(0, 0)],
    keyed=True,
    steps=[("edit", [(1, 0)], []), ("read", False), ("edit", [], [(0, 0)]), ("ask",)],
)
def test_a_table_under_edits_and_reads_stays_a_fresh_value(base, keyed, steps):
    catalog = Catalog()
    parent = Relation(["a", "b"], base)
    if keyed and not keys_unique(parent.to_tuples()):
        parent = Relation(["a", "b"], list({a: (a, b) for a, b in base}.values()))
    catalog.add_table("t", parent, key=["a"] if keyed else None)
    model = set(parent.to_tuples())
    unasked = [(assert_read(catalog, model, False), frozenset(model))]
    schema = catalog.schema("t")
    for step in steps:
        kind = step[0]
        if kind == "read":
            value = assert_read(catalog, model, step[1])
            unasked.extend([] if step[1] else [(value, frozenset(model))])
            continue
        if kind == "ask":
            for value, rows in unasked[-1:]:
                assert value.rows == Relation(["a", "b"], rows).rows
            continue
        if kind == "replace":
            replacement = Relation(["a", "b"], step[1])
            rows = replacement.to_tuples()
            if keyed and not keys_unique(rows):
                with pytest.raises(SchemaError):
                    catalog.replace_table("t", replacement)
            else:
                catalog.replace_table("t", replacement)
                model = set(rows)
            continue
        inserted, deleted = (step[1], step[2]) if kind == "edit" else (step[1], step[1])
        new, gone = effective(model, inserted, deleted)
        after = (model - set(gone)) | set(new)
        edit = partial(
            catalog.apply_delta,
            "t",
            [tuple(row) for row in inserted],
            [tuple(row) for row in deleted],
        )
        if keyed and not keys_unique(after):
            with pytest.raises(SchemaError):
                edit()
            continue
        added, removed = edit()
        assert added == new
        assert removed == gone
        model = after
    assert_read(catalog, model, True)
    # values read before later edits, replacements and folds: rows asked last
    for value, rows in unasked:
        assert value.rows == Relation(["a", "b"], rows).rows


def test_a_nullary_table_folds_through_its_block():
    """No attribute, no code column to count the tuples: a zero-attribute
    table with its encoding cached folds into a block (inserts) or a row
    set (deletes) and reads right at every step."""
    catalog = Catalog()
    catalog.add_table("t", Relation([], []))
    assert catalog["t"].encoded_columns() == ()
    empty = ()
    assert len(catalog["t"]) == 0
    assert catalog.apply_delta("t", [empty], []) == ([empty], [])
    inserted = catalog["t"]
    assert len(inserted) == 1 and inserted.aligned_tuples() == [()]
    assert inserted.encoded_columns() == () and inserted.to_tuples() == {()}
    assert catalog.apply_delta("t", [], [empty]) == ([], [empty])
    deleted = catalog["t"]
    assert len(deleted) == 0 and deleted.aligned_tuples() == [] and not deleted.rows
    assert len(inserted) == 1 and inserted.rows == Relation([], [()]).rows
