"""RP5xx storage invariants: registry entries and triggered findings.

Each test corrupts one piece of stored-table metadata (the header is a
plain dict on the reader, so tampering is direct) and pins the exact
finding code the physical verification pass reports.  All checks are
metadata reads — none of them decodes a block.
"""

import pytest

from repro.algebra import predicates as P
from repro.analysis import verify_physical
from repro.analysis.findings import FINDING_CODES, Severity
from repro.physical import Filter, HashDivision, HashJoin, PartitionedDivision, RelationScan
from repro.relation import Relation
from repro.storage.scan import StoredScan
from repro.storage.store import load_catalog, save_database


@pytest.fixture
def scan(tmp_path):
    from repro.algebra.catalog import Catalog

    relation = Relation.from_aligned(
        ("k", "g"), [(i, i % 5) for i in range(100)]
    ).clustered(["k"])
    catalog = Catalog()
    catalog.add_table("t", relation, key=["k"])
    save_database(tmp_path / "db", catalog, block_size=25)
    return StoredScan(load_catalog(tmp_path / "db")["t"], "t")


def codes(plan):
    findings, _checked = verify_physical(plan)
    return [f.code for f in findings]


class TestRegistry:
    @pytest.mark.parametrize("code", ["RP501", "RP502", "RP503", "RP504", "RP505", "RP506"])
    def test_storage_codes_are_registered_errors(self, code):
        severity, _description = FINDING_CODES[code]
        assert severity is Severity.ERROR


class TestStoredScanFindings:
    def test_clean_scan(self, scan):
        assert codes(scan) == []

    def test_clean_scan_with_skip_predicate(self, scan):
        scan.set_skip_predicate(P.less_than(P.attr("k"), 10))
        assert codes(scan) == []

    def test_header_schema_mismatch_is_rp501(self, scan):
        scan.relation.reader._header["attributes"] = ("k", "other")
        assert codes(scan) == ["RP501"]

    def test_inverted_zone_map_is_rp502(self, scan):
        scan.relation.reader.blocks[0]["zones"]["k"] = (5, 1)
        assert codes(scan) == ["RP502"]

    def test_unknown_zone_attribute_is_rp502(self, scan):
        scan.relation.reader.blocks[1]["zones"]["ghost"] = (0, 9)
        assert codes(scan) == ["RP502"]

    def test_unpackable_zone_bounds_are_rp502(self, scan):
        scan.relation.reader.blocks[2]["zones"]["k"] = 7
        assert codes(scan) == ["RP502"]

    def test_skip_predicate_outside_schema_is_rp503(self, scan):
        # ``set_skip_predicate`` rejects this up front; the verifier guards
        # against a plan assembled around that check.
        scan.skip_predicate = P.equals(P.attr("ghost"), 1)
        assert codes(scan) == ["RP503"]

    def test_block_count_drift_is_rp504(self, scan):
        scan.relation.reader.blocks[0]["count"] += 1
        assert codes(scan) == ["RP504"]

    def test_findings_carry_the_storage_origin(self, scan):
        scan.relation.reader.blocks[0]["zones"]["k"] = (5, 1)
        findings, _ = verify_physical(scan)
        assert [f.origin for f in findings] == ["storage"]


class TestOneBlockScanFinding:
    """RP506: a scan set to hand up one block feeds a division's dividend,
    directly or under one filter whose predicate is the scan's skip
    predicate; put anywhere else, the verifier says so."""

    DIVISOR = Relation(["g"], [(1,), (2,)])

    def test_a_dividend_is_clean(self, scan):
        scan.set_one_block()
        assert codes(HashDivision(scan, RelationScan(self.DIVISOR))) == []

    def test_a_dividend_under_its_filter_is_clean(self, scan):
        predicate = P.less_than(P.attr("k"), 30)
        scan.set_skip_predicate(predicate)
        scan.set_one_block()
        assert codes(HashDivision(Filter(scan, predicate), RelationScan(self.DIVISOR))) == []

    def test_under_a_join_is_rp506(self, scan):
        scan.set_one_block()
        assert codes(HashJoin(scan, RelationScan(self.DIVISOR))) == ["RP506"]

    def test_a_divisor_is_rp506(self, scan):
        scan.set_one_block()
        dividend = RelationScan(Relation(["x", "k", "g"], [(1, 1, 1)]))
        assert codes(HashDivision(dividend, scan)) == ["RP506"]

    def test_another_skip_predicate_is_rp506(self, scan):
        """Blocks skipped on a predicate the filter does not test may hold
        tuples it passes: the one block would claim them."""
        scan.set_skip_predicate(P.less_than(P.attr("k"), 10))
        scan.set_one_block()
        plan = HashDivision(Filter(scan, P.less_than(P.attr("k"), 30)), RelationScan(self.DIVISOR))
        assert codes(plan) == ["RP506"]

    def test_a_skip_predicate_without_its_filter_is_rp506(self, scan):
        scan.set_skip_predicate(P.less_than(P.attr("k"), 10))
        scan.set_one_block()
        assert codes(HashDivision(scan, RelationScan(self.DIVISOR))) == ["RP506"]


class TestExchangeBudgetFinding:
    def plan(self, budget):
        dividend = Relation(["a", "b"], [(1, 1), (1, 2), (2, 1)])
        divisor = Relation(["b"], [(1,), (2,)])
        operator = PartitionedDivision(
            RelationScan(dividend), RelationScan(divisor), partitions=2
        )
        operator.memory_budget_mb = budget
        return operator

    def test_positive_budget_is_clean(self):
        assert codes(self.plan(8.0)) == []

    def test_non_positive_budget_is_rp505(self):
        assert "RP505" in codes(self.plan(-1.0))
        assert "RP505" in codes(self.plan(0.0))
