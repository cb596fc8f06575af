"""Tests for table statistics and cardinality estimation."""

import pytest

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.optimizer import CardinalityEstimator, StatisticsCatalog, TableStatistics
from repro.relation import Relation
from repro.workloads import make_division_workload


@pytest.fixture
def workload():
    return make_division_workload(num_groups=50, divisor_size=6, containing_fraction=0.4, seed=5)


@pytest.fixture
def statistics(workload):
    return StatisticsCatalog.from_database(
        {"r1": workload.dividend, "r2": workload.divisor}
    )


@pytest.fixture
def estimator(statistics):
    return CardinalityEstimator(statistics)


@pytest.fixture
def r1(workload):
    return B.ref("r1", workload.dividend.attributes)


@pytest.fixture
def r2(workload):
    return B.ref("r2", workload.divisor.attributes)


class TestTableStatistics:
    def test_from_relation(self, figure1_dividend):
        stats = TableStatistics.from_relation(figure1_dividend)
        assert stats.cardinality == 9
        assert stats.distinct_values["a"] == 3
        assert stats.distinct_values["b"] == 4

    def test_unknown_attribute_defaults_to_one(self, figure1_dividend):
        stats = TableStatistics.from_relation(figure1_dividend)
        assert stats.distinct("missing") == 1

    def test_catalog_lookup_and_default(self, statistics):
        assert "r1" in statistics
        assert "unknown" not in statistics
        assert statistics.table("unknown").cardinality == 1000


class TestCardinalityEstimation:
    def test_base_table(self, estimator, r1, workload):
        assert estimator.cardinality(r1) == len(workload.dividend)

    def test_projection_bounded_by_distinct_count(self, estimator, r1, workload):
        estimate = estimator.cardinality(B.project(r1, ["a"]))
        actual = len(workload.dividend.project(["a"]))
        assert estimate == pytest.approx(actual, rel=0.01)

    def test_equality_selection_uses_distinct_count(self, estimator, r1, workload):
        estimate = estimator.cardinality(B.select(r1, P.equals(P.attr("a"), 1)))
        expected = len(workload.dividend) / len(workload.dividend.project(["a"]))
        assert estimate == pytest.approx(expected, rel=0.01)

    def test_product_multiplies(self, estimator, workload):
        left = B.ref("r1", workload.dividend.attributes)
        right = B.literal(Relation(["z"], [(1,), (2,)]))
        assert estimator.cardinality(B.product(left, right)) == pytest.approx(
            2 * len(workload.dividend)
        )

    def test_union_adds(self, estimator, r2, workload):
        assert estimator.cardinality(B.union(r2, r2)) == pytest.approx(2 * len(workload.divisor))

    def test_small_divide_estimate_is_sane(self, estimator, r1, r2, workload):
        """The estimate must stay within [0, number of candidates]."""
        estimate = estimator.cardinality(B.divide(r1, r2))
        candidates = len(workload.dividend.project(["a"]))
        assert 0 <= estimate <= candidates

    def test_divide_estimate_decreases_with_divisor_size(self, statistics, workload):
        estimator = CardinalityEstimator(statistics)
        r1 = B.ref("r1", workload.dividend.attributes)
        small = estimator.cardinality(B.divide(r1, B.literal(Relation(["b"], [(0,)]))))
        large = estimator.cardinality(
            B.divide(r1, B.literal(Relation(["b"], [(0,), (1,), (2,), (3,), (4,)])))
        )
        assert large <= small

    def test_great_divide_estimate_is_sane(self, estimator, r1, workload):
        divisor = B.literal(Relation(["b", "c"], [(1, 1), (2, 1), (1, 2)]))
        estimate = estimator.cardinality(B.great_divide(r1, divisor))
        candidates = len(workload.dividend.project(["a"]))
        assert 0 <= estimate <= candidates * 2

    def test_semijoin_is_reducing(self, estimator, r1, workload):
        estimate = estimator.cardinality(B.semijoin(r1, B.literal(Relation(["a"], [(1,)]))))
        assert estimate <= len(workload.dividend)


class TestExtendedStatistics:
    def test_min_max_collected(self, figure1_dividend):
        stats = TableStatistics.from_relation(figure1_dividend)
        column = figure1_dividend.to_set("b")
        assert stats.minimum("b") == min(column)
        assert stats.maximum("b") == max(column)
        assert stats.minimum("missing") is None

    def test_sortedness_reflects_scan_order(self):
        clustered = Relation(
            ["a", "b"], [(g, v) for g in range(40) for v in range(3)]
        ).clustered(["a"])
        stats = TableStatistics.from_relation(clustered)
        assert stats.is_sorted("a")
        assert stats.sorted_attributes <= {"a", "b"}

    def test_single_row_and_empty_relations(self):
        one = TableStatistics.from_relation(Relation(["a"], [(7,)]))
        assert one.is_sorted("a") and one.minimum("a") == 7
        empty = TableStatistics.from_relation(Relation.empty(["a"]))
        assert empty.cardinality == 0
        assert empty.distinct_values == {"a": 0}
        assert not empty.is_sorted("a")

    def test_mixed_incomparable_types_are_not_sorted(self):
        mixed = Relation(["a"], [(1,), ("x",), (2,)])
        stats = TableStatistics.from_relation(mixed)
        assert not stats.is_sorted("a")
        assert stats.minimum("a") is None

    def test_bounds_are_all_or_nothing(self):
        """A value type whose ``<`` works but whose ``>`` raises used to
        leave a minimum without a maximum."""

        class OnlyLess:
            def __init__(self, rank):
                self.rank = rank

            def __hash__(self):
                return hash(self.rank)

            def __eq__(self, other):
                return self.rank == other.rank

            def __lt__(self, other):
                return self.rank < other.rank

            def __gt__(self, other):
                raise TypeError("no > for OnlyLess")

        stats = TableStatistics.from_relation(Relation(["a"], [(OnlyLess(1),), (OnlyLess(2),)]))
        assert stats.minimum("a") is None and stats.maximum("a") is None
        assert stats.distinct("a") == 2

    def test_statistics_come_from_the_cached_encoding(self):
        """One pass, not two: collecting statistics builds the relation's
        encoding, and the scan that follows reuses it."""
        relation = Relation(["a", "b"], [(i % 3, f"v{i % 8}") for i in range(24)])
        stats = TableStatistics.from_relation(relation)
        encoding = relation._encoding
        assert encoding is not None and relation.encoded_columns() is encoding
        assert stats.distinct_values == {"a": 3, "b": 8}
        assert stats.top_frequency("a") == 8 and stats.top_frequency("b") == 3
        assert (stats.minimum("b"), stats.maximum("b")) == ("v0", "v7")

    def test_equal_values_of_different_types_count_once(self):
        stats = TableStatistics.from_relation(Relation(["a", "b"], [(1, 0), (1.0, 1), (True, 2)]))
        assert stats.distinct("a") == 1 and stats.top_frequency("a") == 3

    def test_one_pass_matches_per_attribute_projection(self, workload):
        """The columnar one-pass collection computes the same distinct
        counts as the old one-Relation-per-attribute implementation."""
        relation = workload.dividend
        stats = TableStatistics.from_relation(relation)
        for attribute in relation.attributes:
            assert stats.distinct_values[attribute] == len(relation.project([attribute]))

    def test_catalog_analyze_updates_in_place(self, workload):
        catalog = StatisticsCatalog()
        gathered = catalog.analyze({"r1": workload.dividend})
        assert set(gathered) == {"r1"}
        assert catalog.table("r1").cardinality == len(workload.dividend)
        assert "r1" in catalog.tables()

    def test_literal_statistics_cache_is_bounded(self):
        from repro.optimizer import CardinalityEstimator

        estimator = CardinalityEstimator(StatisticsCatalog())
        limit = CardinalityEstimator.LITERAL_CACHE_SIZE
        relations = [Relation(["a"], [(i,)]) for i in range(limit + 10)]
        for relation in relations:
            estimator.literal_statistics(relation)
        assert len(estimator._literal_statistics) <= limit
        # evicted entries are recomputed correctly on reuse
        assert estimator.literal_statistics(relations[0]).cardinality == 1

    def test_catalog_analyze_unknown_table_raises_schema_error(self, workload):
        from repro.errors import SchemaError

        catalog = StatisticsCatalog()
        with pytest.raises(SchemaError) as excinfo:
            catalog.analyze({"r1": workload.dividend}, ["typo"])
        assert "typo" in str(excinfo.value) and "r1" in str(excinfo.value)
