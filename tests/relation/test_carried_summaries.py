"""A fold's carried summaries: each one what a fresh build would give.

``Relation.with_delta`` hands a table's folded value the code counts and
value bounds of its encoding's columns and every containment bitmap its
parent held, each patched by the edit.  Nothing may tell them from a fresh
build: over the same scan order they are equal code for code and word for
word (``None`` past the size bound), and in value
terms they equal what a build over ``Relation.from_aligned`` of the folded
tuples finds.  A summary the patch cannot prove exact is left to that
build, which then gives the same.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.physical.compile.kernels as kernels_module
import repro.relation.encoding as encoding_module
from repro.algebra.catalog import Catalog
from repro.division import small_divide
from repro.errors import RelationError
from repro.optimizer.statistics import TableStatistics
from repro.physical.compile.kernels import use_kernel
from repro.physical.division.keys import _containment_bitmap
from repro.relation import Relation
from repro.relation.encoding import code_frequencies

KERNELS = ("numpy", "python")
NAN = float("nan")


def bitmap(relation, a, b):
    """The relation's ``("containment", a, b)`` summary, built if not held."""
    return relation._summary(("containment", a, b), lambda value: _containment_bitmap(a, b, value))


def fresh_bitmap(relation, a, b):
    return _containment_bitmap(a, b, relation)


def pairs(summary):
    """A bitmap as the set of ``(candidate, value)`` pairs it holds."""
    rows, candidates, values, _origin = summary
    rows = [int.from_bytes(row.tobytes(), "little") for row in rows]
    return {
        (candidates[bit], values[row])
        for row, mask in enumerate(rows)
        for bit in range(mask.bit_length())
        if mask >> bit & 1
    }


def assert_same_bitmap(carried, fresh):
    if fresh is None:
        assert carried is None
        return
    assert carried is not None
    rows, candidates, values, origin = carried
    assert rows.dtype == np.dtype("<u8") == fresh[0].dtype  # the one row form
    assert rows.shape == fresh[0].shape and np.array_equal(rows, fresh[0])
    assert candidates == fresh[1] and values == fresh[2]


def collect(relation):
    """Everything a session asks of a table: statistics and, over every
    ordered pair of columns, the bitmap."""
    statistics = TableStatistics.from_relation(relation)
    width = len(relation.schema)
    for a in range(width):
        for b in range(width):
            if a != b:
                bitmap(relation, a, b)
    return statistics


def family(values):
    return encoding_module._value_family(values)


def assert_carried_exactly(parent, child):
    """What ``child`` holds (carried, nothing asked yet) against a fresh
    build over its own scan order and over ``from_aligned`` of its tuples."""
    schema = child.schema
    tuples = list(child.aligned_tuples())
    same = Relation._from_block(schema, list(tuples))
    loose = Relation.from_aligned(schema.names, tuples)
    held = dict(child._summaries or {})
    columns = child.encoded_columns()
    for position, (column, parent_column) in enumerate(zip(columns, parent.encoded_columns())):
        built = same.encoded_columns()[position]
        assert column.dictionary == built.dictionary
        loose_column = loose.encoded_columns()[position]
        if parent_column._counts is not None:
            assert column._counts is not None, "counts the parent held are carried"
            assert np.array_equal(column._counts, code_frequencies(built))
            counted = dict(zip(column.dictionary, column._counts.tolist()))
            loose_counts = code_frequencies(loose_column).tolist()
            assert counted == dict(zip(loose_column.dictionary, loose_counts))
        if column._bounds is not None:
            assert column._bounds == encoding_module._bounds_of(built.dictionary)
            if column._bounds[1] is not None:  # one family: the bounds do not depend on order
                assert column._bounds[0] == encoding_module._bounds_of(loose_column.dictionary)[0]
        elif (
            parent_column._bounds is not None
            and parent_column._bounds[0] is not None
            and parent_column._bounds[1] is not None
        ):
            kept = {values[position] for values in set(parent.aligned_tuples()) & set(tuples)}
            departed = set(parent_column.dictionary) - kept
            fresh = set(column.dictionary) - kept
            low, high = parent_column._bounds[0]
            assert low in departed or high in departed or family(list(fresh)) != family(
                parent_column.dictionary
            ), "bounds the patch could prove were dropped"
    for key, summary in held.items():
        kind, a, b = key
        assert kind == "containment"
        assert_same_bitmap(summary, fresh_bitmap(same, a, b))
        loose_bitmap = fresh_bitmap(loose, a, b)
        assert (summary is None) == (loose_bitmap is None)
        if summary is not None:
            assert pairs(summary) == pairs(loose_bitmap)
            assert summary[3].startswith("patched by a ")
    if len(schema) == 2:  # a two-column pair is its tuple: every bitmap carries
        for key, summary in (parent._summaries or {}).items():
            if key[0] != "containment":
                continue
            over = fresh_bitmap(same, key[1], key[2]) is None
            assert (key in held) == (summary is not None or over)
    statistics = TableStatistics.from_relation(child)
    assert statistics == TableStatistics.from_relation(same)
    loose_statistics = TableStatistics.from_relation(loose)
    assert statistics.cardinality == loose_statistics.cardinality
    assert statistics.distinct_values == loose_statistics.distinct_values
    assert statistics.top_frequencies == loose_statistics.top_frequencies
    for name, column in zip(schema.names, columns):
        if family(column.dictionary) is not None:
            assert statistics.minima.get(name) == loose_statistics.minima.get(name)
            assert statistics.maxima.get(name) == loose_statistics.maxima.get(name)


def fold(relation, added, removed):
    rows = lambda tuples: [tuple(values) for values in tuples]
    return relation.with_delta(rows(added), rows(removed))


# ----------------------------------------------------------------------
# edit sequences
# ----------------------------------------------------------------------
POOLS = {
    "int": list(range(200)),
    "str": [f"v{index:03d}" for index in range(200)],
    "mixed": [index if index % 3 else f"v{index}" for index in range(200)],
    "nan": [NAN] + [index / 2 for index in range(199)],
}


@st.composite
def edit_sequences(draw):
    width = draw(st.sampled_from([2, 3]))
    kinds = [draw(st.sampled_from(sorted(POOLS))) for _ in range(width)]
    spans = [draw(st.sampled_from([3, 8, 60, 70, 130])) for _ in range(width)]
    size = draw(st.integers(0, 120))
    seed = draw(st.integers(0, 2**16))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["first", "last", "any", "emptied"]),  # which tuples go
                st.integers(0, 12),  # how many go
                st.integers(0, 12),  # how many come
                st.sampled_from([0, 4, 70, 140]),  # how far new values reach past the span
            ),
            min_size=1,
            max_size=5,
        )
    )
    return width, kinds, spans, size, seed, steps


def value(kind, index):
    pool = POOLS[kind]
    return pool[index % len(pool)]


@settings(max_examples=120, deadline=None)
@given(edit_sequences())
def test_every_fold_carries_what_a_fresh_build_gives(sequence):
    width, kinds, spans, size, seed, steps = sequence
    rng = random.Random(seed)
    names = ["a", "b", "c"][:width]
    draw_tuple = lambda reach: tuple(
        value(kinds[p], rng.randrange(spans[p] + reach)) for p in range(width)
    )
    relation = Relation._from_block(
        Relation(names).schema, list(dict.fromkeys(draw_tuple(0) for _ in range(size)))
    )
    collect(relation)
    for lose, going, coming, reach in steps:
        order = relation.aligned_tuples()
        removed: list[tuple] = []
        if order:
            position = rng.randrange(width)
            by_value: dict = {}
            for values in order:
                by_value.setdefault(values[position], []).append(values)
            held = list(by_value.values())
            for _ in range(going):
                group = rng.choice(held)
                if lose == "first":
                    removed.append(group[0])
                elif lose == "last":
                    removed.append(group[-1])
                elif lose == "emptied":
                    removed.extend(group)
                else:
                    removed.append(rng.choice(order))
        removed = list(dict.fromkeys(removed))
        present = set(order)
        drawn = dict.fromkeys(draw_tuple(reach) for _ in range(coming))
        added = [values for values in drawn if values not in present]
        child = fold(relation, added, removed)
        assert_carried_exactly(relation, child)
        collect(child)
        relation = child


# ----------------------------------------------------------------------
# the cases one by one
# ----------------------------------------------------------------------
def carried(parent, added, removed):
    collect(parent)
    child = fold(parent, added, removed)
    assert_carried_exactly(parent, child)
    return child


@pytest.mark.parametrize("end", ["first", "last"])
@pytest.mark.parametrize("width", [2, 3])
def test_a_value_losing_its_first_or_last_tuple(end, width):
    tuples = [(a, b, *([a % 2] if width == 3 else [])) for b in range(3) for a in range(9)]
    parent = Relation._from_block(Relation(["a", "b", "c"][:width]).schema, tuples)
    group = [values for values in parent.aligned_tuples() if values[0] == 4]
    child = carried(parent, [], [group[0] if end == "first" else group[-1]])
    if end == "first":  # value 4 is first seen later now: the candidates renumber
        assert child.encoded_columns()[0].dictionary != parent.encoded_columns()[0].dictionary


def test_new_candidates_cross_a_word():
    parent = Relation(["a", "b"], [(a, a % 5) for a in range(60)] + [(a, 0) for a in range(60)])
    child = carried(parent, [(a, 1) for a in range(60, 130)], [])
    rows = child._summaries[("containment", 0, 1)][0]
    assert rows.shape == (5, 3)  # 130 candidates: a third word
    grandchild = carried(child, [], [(a, 1) for a in range(60, 130)] + [(a, 0) for a in range(40)])
    assert grandchild._summaries[("containment", 0, 1)][0].shape == (5, 1)


def test_the_size_bound_crossed_both_ways():
    """One tuple per candidate over as many values is past the bound (two
    words a row against eight bytes a tuple): ``None``.  Tuples enough for
    the codes to outweigh the rows bring it under, where the fold leaves the
    bitmap to a fresh build; deleting them takes it past again."""
    sparse = Relation(["a", "b"], [(a, a) for a in range(100)])
    collect(sparse)
    assert sparse._summaries[("containment", 0, 1)] is None
    dense = fold(sparse, [(a, b) for a in range(100) for b in range(3) if a != b], [])
    assert_carried_exactly(sparse, dense)
    assert ("containment", 0, 1) not in (dense._summaries or {})
    collect(dense)
    assert dense._summaries[("containment", 0, 1)] is not None
    thinned = fold(dense, [], [(a, b) for a in range(100) for b in range(3) if a != b])
    assert_carried_exactly(dense, thinned)
    assert thinned._summaries[("containment", 0, 1)] is None


@pytest.mark.parametrize(
    "values",
    [
        [NAN, 1.0, 2.5, 0.5],  # NaN: min and max depend on the order
        [1, "x", 2, "y"],  # mixed: they do not compare
        [frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset()],  # a partial order
    ],
    ids=["nan", "mixed", "sets"],
)
def test_unordered_columns_from_add_table_fall_back(values):
    table = Relation(["a", "b"], [(value, b) for value in values for b in range(4)])
    catalog = Catalog()  # a catalog's own add_table lets a NaN through
    catalog.add_table("t", table)
    db = repro.connect(catalog, result_cache_size=0)
    db.sql("SELECT a FROM t AS x DIVIDE BY (SELECT b FROM t WHERE b < 2) AS y ON x.b = y.b").run()
    parent = db.relation("t")
    (doomed,) = [row for row in parent.aligned_tuples() if row[1] == 0][:1]
    assert db.delete("t", [doomed]).changed
    child = db.relation("t")
    assert child is not parent
    assert child.encoded_columns()[0]._bounds is None  # left to a fresh collection
    assert_carried_exactly(parent, child)


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_three_column_pair_clears_only_what_no_tuple_keeps(kernel):
    tuples = [(a, b, c) for a in range(12) for b in range(4) for c in range(2)]
    parent = Relation._from_block(Relation(["a", "b", "c"]).schema, tuples)
    with use_kernel(kernel):
        collect(parent)
    # (0, 0) keeps one tuple, (1, 1) loses both: a bit stays, a bit clears
    child = fold(parent, [], [(0, 0, 0), (1, 1, 0), (1, 1, 1)])
    assert_carried_exactly(parent, child)
    held = pairs(child._summaries[("containment", 0, 1)])
    assert (0, 0) in held and (1, 1) not in held


# ----------------------------------------------------------------------
# the counting trap: a re-query after edits builds nothing from the table
# ----------------------------------------------------------------------
COLOUR = (
    "SELECT s_no FROM supplies AS s DIVIDE BY (SELECT p_no FROM parts WHERE color = 'blue') AS p "
    "ON s.p_no = p.p_no"
)


def supplies_session(rng):
    blue = range(0, 60, 10)
    held = {s: set(rng.sample(range(60), 10)) | set(blue if s % 3 == 0 else ()) for s in range(900)}
    supplies = [(f"s{s:04d}", f"p{p:03d}") for s, parts in held.items() for p in sorted(parts)]
    parts = [(f"p{p:03d}", "blue" if p in blue else "red") for p in range(60)]
    tables = {
        "supplies": Relation(["s_no", "p_no"], supplies),
        "parts": Relation(["p_no", "color"], parts),
    }
    return tables, repro.connect(tables, result_cache_size=0)


def test_a_requery_after_edits_sweeps_nothing(monkeypatch):
    rng = random.Random(41)
    tables, db = supplies_session(rng)
    before = db.sql(COLOUR).run()
    assert before.relation  # the bitmap, counts and bounds are held from here on
    live = sorted(tables["supplies"].to_tuples())
    for step in range(6):
        doomed = rng.sample(live, 3) + [min(t for t in live if t[0] == f"s{step:04d}")]
        assert db.delete("supplies", doomed).changed
        fresh = [(f"s{rng.randrange(950):04d}", f"p{rng.randrange(64):03d}") for _ in range(4)]
        db.insert("supplies", fresh)
        live = sorted(set(live) - set(doomed) | set(fresh))
        counted = {"gather_sweep": 0, "code_frequencies": 0, "bounds": 0}

        def counting(name, function):
            def counted_call(*args, **kwargs):
                counted[name] += 1
                return function(*args, **kwargs)

            return counted_call

        with monkeypatch.context() as patch:
            for kernel in (kernels_module.PythonBitsetKernel, kernels_module.NumpyBitsetKernel):
                patch.setattr(
                    kernel, "gather_sweep", counting("gather_sweep", kernel.gather_sweep)
                )
            patch.setattr(
                encoding_module,
                "code_frequencies",
                counting("code_frequencies", encoding_module.code_frequencies),
            )
            bounds_of = encoding_module._bounds_of
            patch.setattr(encoding_module, "_bounds_of", counting("bounds", bounds_of))
            result = db.sql(COLOUR).run()
        assert counted == {"gather_sweep": 0, "code_frequencies": 0, "bounds": 0}
        edited = Relation(["s_no", "p_no"], live)
        assert db.relation("supplies").to_tuples() == set(live)
        rebuilt = repro.connect({"supplies": edited, "parts": tables["parts"]}, result_cache_size=0)
        expected = rebuilt.sql(COLOUR).run()
        assert result.relation == expected.relation
        assert result.statistics.tuples_by_operator == expected.statistics.tuples_by_operator
        blue = db.relation("parts").select(lambda row: row["color"] == "blue").project(["p_no"])
        assert result.relation == small_divide(edited, blue)
    explained = db.sql(COLOUR).explain(analyze=True)
    assert "· bitmap: s_no → p_no, " in explained and "-row edit" in explained


# ----------------------------------------------------------------------
# NaN stays out of a table's edits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nan", [NAN, np.float64("nan")])
def test_insert_refuses_nan_and_records_nothing(nan):
    db = repro.connect({"t": Relation(["a", "b"], [(1, 1.5)])})
    with pytest.raises(RelationError, match="^insert: 'b' holds a NaN"):
        db.insert("t", [(2, 2.5), (3, nan)])
    assert db.table_version("t") == 0 and not db.catalog._pending
    assert db.relation("t").to_tuples() == {(1, 1.5)}
    assert db.insert("t", [(2, 2.5)]).version == 1


@pytest.mark.parametrize("nan", [NAN, np.float64("nan")])
@pytest.mark.parametrize("method", ["add_table", "replace_table"])
def test_a_table_holding_nan_is_refused_and_changes_nothing(method, nan):
    """A whole table is held to the rule an insert is held to, its
    dictionaries checked, and the message names the method refusing it."""
    db = repro.connect({"t": Relation(["a", "b"], [(1, 1.5)])})
    name = "u" if method == "add_table" else "t"
    with pytest.raises(RelationError, match=f"^{method}: 'b' holds a NaN"):
        getattr(db, method)(name, Relation(["a", "b"], [(2, 2.5), (3, nan)]))
    assert db.tables == ("t",) and db.table_version("t") == 0
    assert db.relation("t").to_tuples() == {(1, 1.5)}


@pytest.mark.parametrize("nan", [NAN, np.float64("nan")])
@pytest.mark.parametrize("source", ["mapping", "generator of a mapping", "generator of a catalog"])
def test_connect_refuses_a_table_holding_nan(source, nan):
    """``connect`` holds a mapping's or a generator's tables to the rule
    ``add_table`` holds one to, reading the dictionaries the statistics
    refresh reads next: one encode per table, no other pass."""
    table = Relation.from_aligned(["a", "b"], [(3, 1.5), (4, nan)])
    tables = {"ok": Relation(["a"], [(1,)]), "t": table}

    def catalog():
        made = Catalog()
        for name, relation in tables.items():
            made.add_table(name, relation)
        return made

    given = {
        "mapping": tables,
        "generator of a mapping": lambda: tables,
        "generator of a catalog": catalog,
    }[source]
    with pytest.raises(RelationError, match="^connect: 'b' holds a NaN"):
        repro.connect(given)
    assert table.cached_encoding is not None and table._set is None
    clean = Relation.from_aligned(["a", "b"], [(3, 1.5), (4, 2.5)])
    db = repro.connect({"t": clean})
    assert db.relation("t").cached_encoding is clean.cached_encoding is not None
