"""Tests for the synthetic workload generators."""

import pytest

from repro.division import great_divide, small_divide
from repro.errors import WorkloadError
from repro.laws.conditions import condition_c2
from repro.workloads import (
    generate_catalog,
    make_dividend,
    make_division_workload,
    make_divisor,
    make_great_division_workload,
    make_great_divisor,
    split_dividend_by_quotient,
    split_horizontal,
    textbook_catalog,
)


class TestSmallDivideWorkloads:
    def test_divisor_size_and_schema(self):
        divisor = make_divisor(5)
        assert len(divisor) == 5
        assert divisor.schema.names == ("b",)

    def test_divisor_from_domain(self):
        divisor = make_divisor(3, domain=range(100, 110), seed=1)
        assert divisor.to_set("b") <= set(range(100, 110))

    def test_divisor_domain_too_small(self):
        with pytest.raises(WorkloadError):
            make_divisor(5, domain=range(3))

    def test_workload_has_expected_quotient_size(self):
        workload = make_division_workload(num_groups=50, divisor_size=6, containing_fraction=0.3, seed=3)
        quotient = small_divide(workload.dividend, workload.divisor)
        assert len(quotient) == workload.expected_quotient_size == 15

    def test_containing_fraction_extremes(self):
        full = make_division_workload(num_groups=20, containing_fraction=1.0, seed=1)
        none = make_division_workload(num_groups=20, containing_fraction=0.0, seed=1)
        assert len(small_divide(full.dividend, full.divisor)) == 20
        assert len(small_divide(none.dividend, none.divisor)) == 0

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            make_dividend(-1, make_divisor(2))
        with pytest.raises(WorkloadError):
            make_dividend(5, make_divisor(2), containing_fraction=1.5)

    def test_determinism(self):
        a = make_division_workload(seed=42)
        b = make_division_workload(seed=42)
        assert a.dividend == b.dividend and a.divisor == b.divisor


class TestGreatDivideWorkloads:
    def test_divisor_group_structure(self):
        divisor = make_great_divisor(num_groups=4, group_size=3, domain_size=20, seed=0)
        assert divisor.project(["c"]).to_set("c") == {0, 1, 2, 3}
        for group in range(4):
            assert len(divisor.select(lambda row, g=group: row["c"] == g)) == 3

    def test_group_size_validation(self):
        with pytest.raises(WorkloadError):
            make_great_divisor(num_groups=1, group_size=10, domain_size=5)

    def test_workload_expected_quotient_size(self):
        workload = make_great_division_workload(seed=21)
        quotient = great_divide(workload.dividend, workload.divisor)
        assert len(quotient) == workload.expected_quotient_size


class TestPartitioning:
    def test_split_horizontal_partitions_rows(self, figure1_dividend):
        left, right = split_horizontal(figure1_dividend, fraction=0.4, seed=1)
        assert left.union(right) == figure1_dividend
        assert left.intersection(right).is_empty()

    def test_split_horizontal_validation(self, figure1_dividend):
        with pytest.raises(WorkloadError):
            split_horizontal(figure1_dividend, fraction=2.0)

    def test_split_by_quotient_satisfies_c2(self, figure1_dividend):
        low, high = split_dividend_by_quotient(figure1_dividend, "a")
        assert condition_c2(low, high, ["a"])
        assert low.union(high) == figure1_dividend


class TestSuppliersParts:
    def test_textbook_catalog_contents(self):
        catalog = textbook_catalog()
        assert set(catalog) == {"parts", "supplies"}
        catalog.validate()

    def test_generated_catalog_respects_parameters(self):
        catalog = generate_catalog(num_suppliers=10, num_parts=8, parts_per_supplier=4, seed=0)
        assert len(catalog["supplies"].project(["s_no"])) == 10
        assert len(catalog["parts"]) == 8
        catalog.validate()

    def test_generated_catalog_validation(self):
        with pytest.raises(WorkloadError):
            generate_catalog(num_parts=3, parts_per_supplier=5)
