"""Tests for the basic relational operators (Appendix A of the paper)."""

import pytest
from hypothesis import given

from repro.errors import RelationError, SchemaError
from repro.relation import NULL, Relation, aggregates
from tests.strategies import relations


class TestConstruction:
    def test_from_value_tuples(self):
        relation = Relation(["a", "b"], [(1, 2), (3, 4)])
        assert len(relation) == 2
        assert {"a": 1, "b": 2} in relation

    def test_from_mappings(self):
        relation = Relation(["a"], [{"a": 1}, {"a": 2}])
        assert relation.to_set("a") == {1, 2}

    def test_duplicates_removed(self):
        assert len(Relation(["a"], [(1,), (1,), (1,)])) == 1

    def test_wrong_arity_rejected(self):
        with pytest.raises(RelationError):
            Relation(["a", "b"], [(1,)])

    def test_wrong_attributes_rejected(self):
        with pytest.raises(RelationError):
            Relation(["a"], [{"b": 1}])

    def test_from_columns(self):
        relation = Relation.from_columns({"a": [1, 2], "b": [10, 20]})
        assert relation.to_tuples(["a", "b"]) == {(1, 10), (2, 20)}

    def test_from_columns_length_mismatch(self):
        with pytest.raises(RelationError):
            Relation.from_columns({"a": [1], "b": []})

    def test_singleton(self):
        assert len(Relation.singleton({"a": 1, "b": 2})) == 1

    def test_empty(self):
        relation = Relation.empty(["a"])
        assert relation.is_empty()
        assert not relation


class TestUnaryOperators:
    def test_project_removes_duplicates(self):
        relation = Relation(["a", "b"], [(1, 1), (1, 2)])
        assert relation.project(["a"]).to_set("a") == {1}

    def test_project_unknown_attribute(self):
        with pytest.raises(SchemaError):
            Relation(["a"], [(1,)]).project(["z"])

    def test_select(self):
        relation = Relation(["a"], [(1,), (2,), (3,)])
        assert relation.select(lambda row: row["a"] > 1).to_set("a") == {2, 3}

    def test_rename(self):
        relation = Relation(["a"], [(1,)]).rename({"a": "x"})
        assert relation.attributes == ("x",)
        assert relation.to_set("x") == {1}

    def test_prefix(self):
        relation = Relation(["a", "b"], [(1, 2)]).prefix("t")
        assert set(relation.attributes) == {"t.a", "t.b"}


class TestSetOperators:
    def test_union(self):
        left = Relation(["a"], [(1,), (2,)])
        right = Relation(["a"], [(2,), (3,)])
        assert (left | right).to_set("a") == {1, 2, 3}

    def test_intersection(self):
        left = Relation(["a"], [(1,), (2,)])
        right = Relation(["a"], [(2,), (3,)])
        assert (left & right).to_set("a") == {2}

    def test_difference(self):
        left = Relation(["a"], [(1,), (2,)])
        right = Relation(["a"], [(2,), (3,)])
        assert (left - right).to_set("a") == {1}

    def test_schema_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["a"], [(1,)]).union(Relation(["b"], [(1,)]))

    @given(relations(("a", "b")), relations(("a", "b")))
    def test_union_is_commutative(self, left, right):
        assert left.union(right) == right.union(left)

    @given(relations(("a", "b")), relations(("a", "b")))
    def test_difference_subset_of_left(self, left, right):
        assert set((left - right).rows) <= set(left.rows)

    @given(relations(("a", "b")), relations(("a", "b")))
    def test_intersection_via_difference(self, left, right):
        # r ∩ s = r − (r − s), a classic identity exercised as a sanity check
        assert left & right == left - (left - right)


class TestProductsAndJoins:
    def test_product(self):
        left = Relation(["a"], [(1,), (2,)])
        right = Relation(["b"], [(10,), (20,)])
        assert len(left * right) == 4

    def test_product_requires_disjoint_schemas(self):
        with pytest.raises(SchemaError):
            Relation(["a"], [(1,)]).product(Relation(["a"], [(2,)]))

    def test_theta_join(self):
        left = Relation(["a"], [(1,), (2,)])
        right = Relation(["b"], [(1,), (3,)])
        result = left.theta_join(right, lambda row: row["a"] < row["b"])
        assert result.to_tuples(["a", "b"]) == {(1, 3), (2, 3)}

    def test_natural_join_on_shared_attribute(self):
        left = Relation(["a", "b"], [(1, 10), (2, 20)])
        right = Relation(["b", "c"], [(10, "x"), (30, "y")])
        result = left.natural_join(right)
        assert result.to_tuples(["a", "b", "c"]) == {(1, 10, "x")}

    def test_natural_join_without_shared_attributes_is_product(self):
        left = Relation(["a"], [(1,)])
        right = Relation(["b"], [(2,)])
        assert left.natural_join(right) == left.product(right)

    def test_semijoin(self):
        left = Relation(["a", "b"], [(1, 10), (2, 20)])
        right = Relation(["b"], [(10,)])
        assert left.semijoin(right).to_tuples(["a", "b"]) == {(1, 10)}

    def test_semijoin_no_shared_attributes_nonempty_right(self):
        left = Relation(["a"], [(1,)])
        assert left.semijoin(Relation(["b"], [(9,)])) == left

    def test_semijoin_no_shared_attributes_empty_right(self):
        left = Relation(["a"], [(1,)])
        assert left.semijoin(Relation.empty(["b"])).is_empty()

    def test_antijoin(self):
        left = Relation(["a", "b"], [(1, 10), (2, 20)])
        right = Relation(["b"], [(10,)])
        assert left.antijoin(right).to_tuples(["a", "b"]) == {(2, 20)}

    def test_left_outer_join_pads_with_null(self):
        left = Relation(["a", "b"], [(1, 10), (2, 20)])
        right = Relation(["b", "c"], [(10, "x")])
        result = left.left_outer_join(right)
        padded = [row for row in result if row["a"] == 2]
        assert len(padded) == 1 and padded[0]["c"] is NULL

    @given(relations(("a", "b")), relations(("b",)))
    def test_semijoin_plus_antijoin_partition_left(self, left, right):
        semi = left.semijoin(right)
        anti = left.antijoin(right)
        assert semi.union(anti) == left
        assert semi.intersection(anti).is_empty()

    @given(relations(("a", "b"), max_rows=5), relations(("c",), max_rows=5))
    def test_product_cardinality(self, left, right):
        assert len(left * right) == len(left) * len(right)


class TestGrouping:
    def test_count_per_group(self):
        relation = Relation(["a", "b"], [(1, 10), (1, 20), (2, 30)])
        result = relation.group_by(["a"], {"c": aggregates.count("b")})
        assert result.to_tuples(["a", "c"]) == {(1, 2), (2, 1)}

    def test_sum_per_group_matches_figure_10(self):
        r0 = Relation(
            ["a", "x"],
            [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 3), (3, 4)],
        )
        result = r0.group_by(["a"], {"b": aggregates.sum_of("x")})
        assert result.to_tuples(["a", "b"]) == {(1, 6), (2, 4), (3, 8)}

    def test_global_aggregate_over_empty_relation(self):
        relation = Relation.empty(["a"])
        result = relation.group_by([], {"c": aggregates.count()})
        assert result.to_tuples(["c"]) == {(0,)}

    def test_min_max_avg(self):
        relation = Relation(["a", "x"], [(1, 2), (1, 4), (2, 6)])
        result = relation.group_by(
            ["a"],
            {
                "lo": aggregates.min_of("x"),
                "hi": aggregates.max_of("x"),
                "mean": aggregates.avg_of("x"),
            },
        )
        assert result.to_tuples(["a", "lo", "hi", "mean"]) == {(1, 2, 4, 3.0), (2, 6, 6, 6.0)}

    def test_collect_set(self):
        relation = Relation(["a", "b"], [(1, 10), (1, 20)])
        result = relation.group_by(["a"], {"s": aggregates.collect_set("b")})
        assert result.to_tuples(["a", "s"]) == {(1, frozenset({10, 20}))}

    def test_count_distinct(self):
        relation = Relation(["a", "b"], [(1, 10), (1, 10), (1, 20)])
        result = relation.group_by(["a"], {"c": aggregates.count_distinct("b")})
        assert result.to_tuples(["a", "c"]) == {(1, 2)}


class TestHelpers:
    def test_image_set(self, figure1_dividend):
        image = figure1_dividend.image_set({"a": 2}, ["b"])
        assert image.to_set("b") == {1, 2, 3, 4}

    def test_sorted_rows(self):
        relation = Relation(["a"], [(3,), (1,), (2,)])
        assert [row["a"] for row in relation.sorted_rows()] == [1, 2, 3]

    def test_equality_is_schema_and_rows(self):
        assert Relation(["a"], [(1,)]) == Relation(["a"], [(1,)])
        assert Relation(["a"], [(1,)]) != Relation(["a"], [(2,)])
        assert Relation(["a"], [(1,)]) != Relation(["b"], [(1,)])
