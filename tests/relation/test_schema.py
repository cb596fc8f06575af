"""Tests for repro.relation.schema."""

import pytest

from repro.errors import SchemaError
from repro.relation import Schema
from repro.relation.schema import as_schema


class TestConstruction:
    def test_preserves_declaration_order(self):
        assert Schema(["b", "a", "c"]).names == ("b", "a", "c")

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Schema([""])

    def test_rejects_non_string_name(self):
        with pytest.raises(SchemaError):
            Schema([1])

    def test_empty_schema_is_allowed(self):
        assert len(Schema(())) == 0

    def test_from_existing_schema(self):
        original = Schema(["a", "b"])
        assert Schema(original) == original


class TestSetSemantics:
    def test_equality_ignores_order(self):
        assert Schema(["a", "b"]) == Schema(["b", "a"])

    def test_hash_ignores_order(self):
        assert hash(Schema(["a", "b"])) == hash(Schema(["b", "a"]))

    def test_inequality_on_different_attributes(self):
        assert Schema(["a", "b"]) != Schema(["a", "c"])

    def test_union_keeps_left_order_first(self):
        assert (Schema(["a", "b"]) | Schema(["c", "b"])).names == ("a", "b", "c")

    def test_intersection(self):
        assert (Schema(["a", "b", "c"]) & Schema(["c", "b"])).names == ("b", "c")

    def test_difference(self):
        assert (Schema(["a", "b", "c"]) - Schema(["b"])).names == ("a", "c")

    def test_disjointness(self):
        assert Schema(["a"]).is_disjoint(Schema(["b"]))
        assert not Schema(["a", "b"]).is_disjoint(Schema(["b"]))

    def test_subset(self):
        assert Schema(["a"]).is_subset(Schema(["a", "b"]))
        assert not Schema(["a", "c"]).is_subset(Schema(["a", "b"]))


class TestHelpers:
    def test_require_passes_for_known_attributes(self):
        Schema(["a", "b"]).require(["a"])

    def test_require_raises_for_unknown_attributes(self):
        with pytest.raises(SchemaError, match="projection"):
            Schema(["a", "b"]).require(["z"], context="projection")

    def test_rename(self):
        assert Schema(["a", "b"]).rename({"a": "x"}).names == ("x", "b")

    def test_rename_unknown_attribute_raises(self):
        with pytest.raises(SchemaError):
            Schema(["a"]).rename({"z": "x"})

    def test_project_keeps_requested_order(self):
        assert Schema(["a", "b", "c"]).project(["c", "a"]).names == ("c", "a")

    def test_contains_and_iteration(self):
        schema = Schema(["a", "b"])
        assert "a" in schema and "z" not in schema
        assert list(schema) == ["a", "b"]
        assert schema[1] == "b"

    def test_as_schema_accepts_single_string(self):
        assert as_schema("a").names == ("a",)

    def test_as_schema_accepts_iterable(self):
        assert as_schema(iter(["a", "b"])).names == ("a", "b")
