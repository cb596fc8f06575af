"""Tests for the law preconditions (conditions c1, c2, disjointness, keys).

The projection conditions read a relation's dictionary codes; the tuple
definitions they replaced are kept here (``reference_*``) as the oracle of
the ``coded ≡ tuple definition`` properties at the bottom.
"""

from hypothesis import given
from hypothesis import strategies as st

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


@st.composite
def operands(draw):
    """A relation over a permutation of ``NAMES`` in one of the three
    states a condition meets: no cached encoding, a fresh one, or one
    carried over ``with_delta`` edits (which empty dictionary entries and
    bring them back)."""
    names = draw(st.permutations(NAMES))
    relation = Relation(names, draw(TUPLES))
    state = draw(st.sampled_from(["plain", "encoded", "edited"]))
    if state == "plain":
        return relation
    relation.encoded_columns()
    if state == "edited":
        for _ in range(draw(st.integers(1, 3))):
            held = sorted(relation.rows, key=repr)
            removed = draw(st.lists(st.sampled_from(held), unique=True)) if held else []
            added = Relation(names, draw(TUPLES)).difference(relation)
            relation = relation.with_delta(added.rows, removed)
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
        emptied = base.with_delta([], [gone])
        assert sorted(emptied.cached_encoding[0].dictionary) == [1, 3]
        assert attribute_is_key(emptied, ["a"])
        assert not inclusion_holds(Relation(["a"], [(2,)]), emptied, ["a"])
        assert projections_disjoint(Relation(["a"], [(2,)]), emptied, ["a"])
        back = emptied.with_delta(Relation(["a", "b"], [(2, 21), (3, 31)]).rows, [])
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
