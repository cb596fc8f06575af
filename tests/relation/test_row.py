"""Tests for repro.relation.row."""

import pytest

from repro.errors import RelationError
from repro.relation import Row


class TestRowBasics:
    def test_mapping_access(self):
        row = Row({"a": 1, "b": "x"})
        assert row["a"] == 1
        assert row["b"] == "x"
        assert len(row) == 2
        assert set(row) == {"a", "b"}

    def test_unknown_attribute_raises(self):
        with pytest.raises(RelationError, match="no attribute"):
            Row({"a": 1})["z"]

    def test_equality_and_hash_by_value(self):
        assert Row({"a": 1, "b": 2}) == Row({"b": 2, "a": 1})
        assert hash(Row({"a": 1})) == hash(Row({"a": 1}))

    def test_equality_with_plain_mapping(self):
        assert Row({"a": 1}) == {"a": 1}

    def test_unhashable_value_rejected(self):
        with pytest.raises(RelationError, match="hashable"):
            Row({"a": [1, 2]})

    def test_empty_attribute_name_rejected(self):
        with pytest.raises(RelationError):
            Row({"": 1})


class TestRowOperations:
    def test_project(self):
        assert Row({"a": 1, "b": 2}).project(["b"]) == Row({"b": 2})

    def test_rename(self):
        assert Row({"a": 1}).rename({"a": "x"}) == Row({"x": 1})

    def test_merge_disjoint(self):
        assert Row({"a": 1}).merge(Row({"b": 2})) == Row({"a": 1, "b": 2})

    def test_merge_agreeing_overlap(self):
        assert Row({"a": 1, "b": 2}).merge(Row({"b": 2, "c": 3})) == Row({"a": 1, "b": 2, "c": 3})

    def test_merge_conflicting_overlap_raises(self):
        with pytest.raises(RelationError, match="disagree"):
            Row({"a": 1}).merge(Row({"a": 2}))

    def test_values_for_order(self):
        assert Row({"a": 1, "b": 2}).values_for(["b", "a"]) == (2, 1)

    def test_with_values(self):
        assert Row({"a": 1}).with_values({"b": 2, "a": 5}) == Row({"a": 5, "b": 2})


class TestRowBlock:
    """``Row.block`` is the per-row constructor, a block at a time."""

    @pytest.mark.parametrize(
        "names",
        [("s_no", "color"), ("a", "b", "c"), ("x",)],
        ids=["permuted", "identity", "single attribute"],
    )
    def test_equals_the_per_row_constructor(self, names):
        from repro.relation.schema import Schema

        schema = Schema.interned(names)
        tuples = [tuple(f"{name}{i % 7}" for name in names) for i in range(40)] + [
            (1,) * len(names),
            (1.0,) * len(names),  # equal and hash-equal to the row before
            (None,) * len(names),
        ]
        block = Row.block(schema, tuples)
        rows = [Row.from_schema(schema, values) for values in tuples]
        assert block == rows  # same order
        assert [hash(row) for row in block] == [hash(row) for row in rows]
        assert all(row.schema is schema for row in block)
        assert [row.values_tuple for row in block] == tuples
        assert frozenset(block) == frozenset(rows) and len(frozenset(block)) == 9
        # ... and the mapping-built row over another attribute order
        assert block[0] == Row(dict(zip(reversed(names), reversed(tuples[0]))))
        assert hash(block[0]) == hash(Row(dict(zip(reversed(names), reversed(tuples[0])))))

    def test_empty_block_and_generator_input(self):
        from repro.relation.schema import Schema

        schema = Schema.interned(("b", "a"))
        assert Row.block(schema, []) == [] == Row.block(schema, iter(()))
        lazily = Row.block(schema, ((i, -i) for i in range(5)))
        assert lazily == [Row.from_schema(schema, (i, -i)) for i in range(5)]

    def test_unhashable_value_names_the_tuple(self):
        from repro.relation.schema import Schema

        schema = Schema.interned(("b", "a"))
        with pytest.raises(RelationError, match=r"row values must be hashable: \(2, \[3\]\)"):
            Row.block(schema, [(0, 1), (2, [3]), (4, [5])])
        with pytest.raises(RelationError) as raised:
            Row.from_schema(schema, (2, [3]))
        assert "row values must be hashable: (2, [3])" in str(raised.value)
