"""Tests for the law preconditions (conditions c1, c2, disjointness, keys).

The projection conditions read a relation's dictionary codes; the tuple
definitions they replaced are kept here (``reference_*``) as the oracle of
the ``coded ≡ tuple definition`` properties at the bottom.
"""

import itertools
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.laws.conditions import (
    attribute_is_key,
    condition_c1,
    condition_c2,
    inclusion_holds,
    is_superset_of,
    projections_disjoint,
)
from repro.relation import Relation
from repro.relation.schema import as_schema
from repro.storage.format import TableReader, column_blocks, write_table_file
from repro.storage.store import StoredRelation
from tests.storage.tables import table_columns
from tests.strategies import dividends, divisors


# ----------------------------------------------------------------------
# the tuple definitions: one Row per tuple, Python sets of value tuples
# ----------------------------------------------------------------------
def reference_projection(relation, attributes):
    schema = as_schema(attributes)
    return {row.values_for(schema) for row in relation}


def reference_projections_disjoint(left, right, attributes):
    return reference_projection(left, attributes).isdisjoint(reference_projection(right, attributes))


def reference_inclusion_holds(source, target, attributes):
    return reference_projection(source, attributes) <= reference_projection(target, attributes)


def reference_attribute_is_key(relation, attributes):
    return len(relation.project(as_schema(attributes))) == len(relation)


class TestConditionC1:
    def test_figure_5_violates_c1(self):
        """Figure 5: the quotient candidate a=1 is dispersed over both parts."""
        part1 = Relation(["a", "b"], [(1, 1), (1, 2), (1, 3)])
        part2 = Relation(["a", "b"], [(1, 2), (1, 4)])
        divisor = Relation(["b"], [(1,), (4,)])
        assert not condition_c1(part1, part2, divisor)

    def test_satisfied_when_one_part_contains_divisor(self):
        part1 = Relation(["a", "b"], [(1, 1), (1, 4)])
        part2 = Relation(["a", "b"], [(1, 2)])
        divisor = Relation(["b"], [(1,), (4,)])
        assert condition_c1(part1, part2, divisor)

    def test_satisfied_when_union_misses_divisor(self):
        part1 = Relation(["a", "b"], [(1, 1)])
        part2 = Relation(["a", "b"], [(1, 2)])
        divisor = Relation(["b"], [(1,), (9,)])
        assert condition_c1(part1, part2, divisor)

    def test_trivially_satisfied_without_shared_candidates(self):
        part1 = Relation(["a", "b"], [(1, 1)])
        part2 = Relation(["a", "b"], [(2, 2)])
        divisor = Relation(["b"], [(1,), (2,)])
        assert condition_c1(part1, part2, divisor)

    @given(dividends(), dividends(), divisors())
    def test_c2_implies_c1(self, part1, part2, divisor):
        """The paper: condition c2 is stricter than c1."""
        if condition_c2(part1, part2, ["a"]):
            assert condition_c1(part1, part2, divisor)


class TestConditionC2:
    def test_disjoint_candidates(self):
        part1 = Relation(["a", "b"], [(1, 1)])
        part2 = Relation(["a", "b"], [(2, 1)])
        assert condition_c2(part1, part2, ["a"])

    def test_shared_candidates(self):
        part1 = Relation(["a", "b"], [(1, 1)])
        part2 = Relation(["a", "b"], [(1, 2)])
        assert not condition_c2(part1, part2, ["a"])


class TestOtherConditions:
    def test_projections_disjoint(self):
        left = Relation(["b", "c"], [(1, 1)])
        right = Relation(["b", "c"], [(1, 2)])
        assert projections_disjoint(left, right, ["c"])
        assert not projections_disjoint(left, right, ["b"])

    def test_is_superset_of(self):
        big = Relation(["a"], [(1,), (2,)])
        small = Relation(["a"], [(1,)])
        assert is_superset_of(big, small)
        assert not is_superset_of(small, big)
        assert not is_superset_of(big, Relation(["z"], [(1,)]))

    def test_inclusion_holds(self):
        source = Relation(["b", "c"], [(1, 1), (2, 1)])
        target = Relation(["b"], [(1,), (2,), (3,)])
        assert inclusion_holds(source, target, ["b"])
        assert not inclusion_holds(target, source, ["b"])

    def test_attribute_is_key(self, figure10_relations):
        assert attribute_is_key(figure10_relations["r1"], ["a"])
        assert not attribute_is_key(figure10_relations["r0"], ["a"])


# ----------------------------------------------------------------------
# coded ≡ tuple definition
# ----------------------------------------------------------------------
NAMES = ("a", "b", "c")
#: ``1`` / ``1.0`` / ``True`` share a dictionary entry; ``None``, a string
#: and a tuple make the domain unorderable.
MIXED = st.sampled_from([0, 1, 1.0, True, 2, None, "x", (1, 2)])
TUPLES = st.lists(st.tuples(MIXED, MIXED, MIXED), max_size=8)
#: Zero, one or several attributes, in any order.
ATTRIBUTES = st.lists(st.sampled_from(NAMES), unique=True)


#: Where stored operands are written (removed when the interpreter exits).
_STORED = tempfile.TemporaryDirectory(prefix="conditions-")
_stored_names = itertools.count()


def stored(names, tuples, spare=False):
    """``tuples`` as a bare stored table of two-tuple blocks; ``spare``
    gives every dictionary an entry no tuple holds, as a foreign writer's
    may."""
    pages, columns = table_columns(names, tuples)
    if spare:
        pages = [page + [("spare", position)] for position, page in enumerate(pages)]
    path = Path(_STORED.name) / f"t{next(_stored_names)}.rpb"
    write_table_file(path, "t", names, pages, column_blocks(columns, 2), block_size=2)
    return StoredRelation(TableReader(path))


@st.composite
def operands(draw):
    """A relation over a permutation of ``NAMES`` in one of the states a
    condition meets: no cached encoding, a fresh one, one carried over
    ``with_delta`` edits (which empty dictionary entries and bring them
    back), or a bare stored table (its dictionaries with or without entries
    no tuple holds)."""
    names = draw(st.permutations(NAMES))
    tuples = draw(TUPLES)
    relation = Relation(names, tuples)
    state = draw(st.sampled_from(["plain", "encoded", "edited", "stored", "stored-spare"]))
    if state == "plain":
        return relation
    if state.startswith("stored"):
        return stored(names, tuples, spare=state == "stored-spare")
    relation.encoded_columns()
    if state == "edited":
        for _ in range(draw(st.integers(1, 3))):
            held = sorted(relation.aligned_tuples(), key=repr)
            removed = draw(st.lists(st.sampled_from(held), unique=True)) if held else []
            added = Relation(names, draw(TUPLES)).difference(relation)
            relation = relation.with_delta(added.aligned_tuples(), removed)
            assert relation.cached_encoding is not None
    return relation


class TestCodedConditionsEqualTheTupleDefinitions:
    @given(operands(), ATTRIBUTES)
    def test_attribute_is_key(self, relation, attributes):
        assert attribute_is_key(relation, attributes) == reference_attribute_is_key(
            relation, attributes
        )

    @given(operands(), operands(), ATTRIBUTES)
    def test_inclusion_holds(self, source, target, attributes):
        assert inclusion_holds(source, target, attributes) == reference_inclusion_holds(
            source, target, attributes
        )

    @given(operands(), operands(), ATTRIBUTES)
    def test_projections_disjoint_and_c2(self, left, right, attributes):
        expected = reference_projections_disjoint(left, right, attributes)
        assert projections_disjoint(left, right, attributes) == expected
        assert condition_c2(left, right, attributes) == expected

    @given(operands(), operands())
    def test_is_superset_of_over_any_column_order(self, left, right):
        """Both operands span ``NAMES`` in independently drawn orders."""
        assert is_superset_of(left, right) == (set(right.rows) <= set(left.rows))
        assert is_superset_of(left, left.intersection(right))

    def test_a_dictionary_entry_emptied_and_brought_back(self):
        """The one invariant the coded path leans on: every entry of a
        relation's own dictionary occurs, also after the fold of an edit."""
        base = Relation(["a", "b"], [(1, 10), (2, 20), (3, 30)])
        base.encoded_columns()
        gone = next(row for row in base if row["a"] == 2)
        emptied = base.with_delta([], [gone.values_tuple])
        assert sorted(emptied.cached_encoding[0].dictionary) == [1, 3]
        assert attribute_is_key(emptied, ["a"])
        assert not inclusion_holds(Relation(["a"], [(2,)]), emptied, ["a"])
        assert projections_disjoint(Relation(["a"], [(2,)]), emptied, ["a"])
        back = emptied.with_delta([(2, 21), (3, 31)], [])
        assert sorted(back.cached_encoding[0].dictionary) == [1, 2, 3]
        assert not attribute_is_key(back, ["a"]) and attribute_is_key(back, ["b"])
        assert attribute_is_key(back, ["b", "a"])
        assert inclusion_holds(Relation(["a"], [(2,)]), back, ["a"])

    def test_empty_relations_and_zero_attributes(self):
        empty, one, two = (Relation(["a"], [(v,) for v in range(n)]) for n in (0, 1, 2))
        for relation in (empty, one, two):
            relation.encoded_columns()
        assert attribute_is_key(empty, ["a"]) and attribute_is_key(empty, [])
        assert attribute_is_key(one, []) and not attribute_is_key(two, [])
        assert inclusion_holds(empty, two, ["a"]) and not inclusion_holds(two, empty, ["a"])
        assert projections_disjoint(empty, empty, []) and not projections_disjoint(one, two, [])

    def test_equal_values_of_different_types_are_one_value(self):
        relation = Relation(["a", "b"], [(1, "x"), (1.0, "y"), (True, "z")])
        relation.encoded_columns()
        assert not attribute_is_key(relation, ["a"]) and attribute_is_key(relation, ["b"])
        assert inclusion_holds(Relation(["a"], [(True,)]), relation, ["a"])

    def test_a_stored_table_answers_from_its_frequencies(self):
        """One attribute of a bare stored table: the entries some tuple
        holds, from the pages' code frequencies — a dictionary entry no
        tuple holds is no value, and no tuple is loaded."""
        table = stored(("a", "b"), [(1, "x"), (2, "x"), (1, "y")], spare=True)
        assert not attribute_is_key(table, ["a"]) and not attribute_is_key(table, ["b"])
        assert not inclusion_holds(Relation(["a"], [(("spare", 0),)]), table, ["a"])
        assert inclusion_holds(Relation(["a"], [(2,)]), table, ["a"])
        assert projections_disjoint(Relation(["b"], [("z",)]), table, ["b"])
        assert not table.is_loaded


def test_a_small_divide_over_a_stored_dividend_loads_no_tuple(tmp_path):
    """The grouping law checks ``s_no`` as a key of the bare stored
    dividend on a σ-divisor's first rewrite: answered from the table's
    code frequencies, the dividend's tuples are never loaded."""
    supplies = Relation(
        ("s_no", "p_no"),
        [(f"s{i}", f"p{j}") for i in range(40) for j in range(8 if i % 5 == 0 else 4)],
    )
    parts = Relation(("p_no", "color"), [(f"p{j}", "blue" if j % 2 else "red") for j in range(8)])
    repro.connect({"supplies": supplies, "parts": parts}).save(tmp_path)
    db = repro.connect(tmp_path)
    result = db.sql(
        "SELECT s_no FROM supplies AS s DIVIDE BY "
        "(SELECT p_no FROM parts WHERE color = 'blue') AS p ON s.p_no = p.p_no"
    ).run()
    assert result.relation == Relation(("s_no",), [(f"s{i}",) for i in range(0, 40, 5)])
    assert not db.catalog["supplies"].is_loaded
