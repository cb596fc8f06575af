"""A relation built from rows or aligned tuples starts as its block.

``Relation(attributes, rows)`` and ``Relation.from_aligned`` de-duplicate in
first-seen order into a list the relation owns and build no ``Row`` until
something asks for rows, exactly as a plan's result does: the scan order,
and with it every dictionary, is the order given.
"""

import pytest

from repro.errors import RelationError
from repro.relation import Relation, Row

TUPLES = [(2, "x"), (1, "y"), (2, "x"), (3, "x"), (1, "y"), (0, "z")]
FIRST_SEEN = [(2, "x"), (1, "y"), (3, "x"), (0, "z")]


@pytest.fixture
def built(monkeypatch):
    """Every ``Row`` a ``Row.block`` or ``Row.from_schema`` call builds."""
    block, from_schema = Row.block.__func__, Row.from_schema.__func__
    rows = []

    def counted_block(cls, schema, tuples):
        made = block(cls, schema, tuples)
        rows.extend(made)
        return made

    def counted_from_schema(cls, schema, values):
        rows.append(values)
        return from_schema(cls, schema, values)

    monkeypatch.setattr(Row, "block", classmethod(counted_block))
    monkeypatch.setattr(Row, "from_schema", classmethod(counted_from_schema))
    return rows


CONSTRUCTORS = {
    "from_aligned": lambda tuples: Relation.from_aligned(["a", "b"], tuples),
    "constructor": lambda tuples: Relation(["a", "b"], tuples),
    "mappings": lambda tuples: Relation(["a", "b"], [{"b": b, "a": a} for a, b in tuples]),
}


@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_a_new_relation_is_its_block_in_first_seen_order(make, built):
    relation = make(TUPLES)
    assert relation._set is None and relation._block == FIRST_SEEN
    assert len(relation) == 4 and relation.aligned_tuples() == FIRST_SEEN
    assert [column.dictionary for column in relation.encoded_columns()] == [
        [2, 1, 3, 0],
        ["x", "y", "z"],
    ]
    assert relation.to_tuples() == set(FIRST_SEEN) and relation.to_set("b") == {"x", "y", "z"}
    assert not built, f"{len(built)} Rows were built before anything asked for rows"
    assert {row.values_tuple for row in relation} == set(FIRST_SEEN)
    assert len(built) == 4  # asked for, the rows are built once, from the block
    assert relation.rows is relation.rows and len(built) == 4


def test_rows_given_in_another_attribute_order_are_realigned(built):
    rows = [Row({"b": "x", "a": 2}), Row({"a": 1, "b": "y"}), Row({"b": "x", "a": 2})]
    built.clear()
    relation = Relation(["a", "b"], rows)
    assert relation._block == [(2, "x"), (1, "y")] and not built
    assert relation == Relation.from_aligned(["a", "b"], [(1, "y"), (2, "x")])


def test_from_aligned_refuses_a_tuple_of_another_width():
    with pytest.raises(RelationError, match=r"\(3, 4, 5\)"):
        Relation.from_aligned(["a", "b"], [(1, 2), (3, 4, 5)])
    with pytest.raises(RelationError, match=r"\(1,\)"):
        Relation.from_aligned(["a", "b"], [(1,), (1, 2)])
    with pytest.raises(RelationError, match="7"):
        Relation.from_aligned(["a"], [(1,), 7])


def test_from_aligned_owns_its_list():
    tuples = [(1, 2), (3, 4)]
    relation = Relation.from_aligned(["a", "b"], tuples)
    tuples.append((5, 6))
    tuples[0] = (7, 8)
    assert len(relation) == 2 and relation.to_tuples() == {(1, 2), (3, 4)}
    assert relation.aligned_tuples() == [(1, 2), (3, 4)]


def test_an_unhashable_value_is_refused_naming_the_tuple():
    with pytest.raises(RelationError, match=r"\[1\]"):
        Relation.from_aligned(["a", "b"], [(1, 2), ([1], 2)])
    with pytest.raises(RelationError, match=r"\[1\]"):
        Relation(["a", "b"], [(1, 2), ([1], 2)])


def test_clustered_is_a_sorted_block_without_rows(built):
    relation = Relation.from_aligned(["a", "b"], TUPLES).clustered(["a"])
    assert relation._set is None and not built
    assert relation.aligned_tuples() == sorted(FIRST_SEEN)
