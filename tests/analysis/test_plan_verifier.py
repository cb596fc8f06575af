"""Unit tests for the logical and physical verification passes.

The mutation-style corruption sweep lives in
``tests/tooling/test_verifier_mutations.py``; these tests pin the clean
paths and a couple of targeted checks with hand-built trees.
"""

import pytest

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.algebra.catalog import Catalog
from repro.analysis import verify_expression, verify_expression_tree, verify_physical, verify_plan
from repro.physical import (
    Filter,
    HashDivision,
    HashJoin,
    ProjectOp,
    RelationScan,
)
from repro.relation import Relation


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.add_table("r1", Relation(["a", "b"], [(1, 1), (1, 2), (2, 1)]))
    catalog.add_table("r2", Relation(["b"], [(1,), (2,)]))
    return catalog


class TestLogicalPass:
    def test_clean_division_query(self, catalog):
        expression = B.project(
            B.divide(B.ref("r1", ["a", "b"]), B.ref("r2", ["b"])), ["a"]
        )
        findings, checked = verify_expression(expression, catalog)
        assert findings == []
        assert checked == 4  # two refs, the divide, the projection

    def test_shared_subtrees_are_checked_once(self, catalog):
        r1 = B.ref("r1", ["a", "b"])
        expression = B.union(r1, r1)
        _findings, checked = verify_expression(expression)
        assert checked == 2  # the ref appears twice but is one node

    def test_catalog_mismatch_is_rp107(self, catalog):
        expression = B.ref("r1", ["a", "wrong"])
        findings, _ = verify_expression(expression, catalog)
        assert [f.code for f in findings] == ["RP107"]

    def test_unknown_relation_is_rp107(self, catalog):
        findings, _ = verify_expression(B.ref("r9", ["a"]), catalog)
        assert [f.code for f in findings] == ["RP107"]

    def test_without_catalog_refs_pass_on_their_word(self):
        findings, _ = verify_expression(B.ref("anything", ["x", "y"]))
        assert findings == []

    def test_report_wrapper_names_the_pass(self, catalog):
        report = verify_expression_tree(B.ref("r1", ["a", "b"]), catalog)
        assert report.ok
        assert report.passes == ("logical",)


class TestPhysicalPass:
    def test_clean_hand_built_plan(self):
        r1 = Relation(["a", "b"], [(1, 1), (2, 1), (2, 2)])
        r2 = Relation(["b"], [(1,), (2,)])
        plan = ProjectOp(
            HashDivision(RelationScan(r1, "r1"), RelationScan(r2, "r2")), ("a",)
        )
        findings, checked = verify_physical(plan)
        assert findings == []
        assert checked == 4

    def test_filter_predicate_attributes_are_resolved(self):
        scan = RelationScan(Relation(["a", "b"], [(1, 2)]), "r1")
        plan = Filter(scan, P.equals(P.attr("b"), 2))
        findings, _ = verify_physical(plan)
        assert findings == []

    def test_key_type_disagreement_warns_rp112(self):
        left = RelationScan(Relation(["a", "k"], [(1, 1), (2, 2)]), "left")
        right = RelationScan(Relation(["k", "c"], [("one", 5)]), "right")
        plan = HashJoin(left, right)
        findings, _ = verify_physical(plan)
        assert [f.code for f in findings] == ["RP112"]
        assert "'k'" in findings[0].message
        # a warning: the report still passes
        assert verify_plan(plan).ok

    def test_rp112_ignores_none_and_bool_int_mixes(self):
        left = RelationScan(Relation(["k"], [(True,), (None,)]), "left")
        right = RelationScan(Relation(["k", "c"], [(1, "x")]), "right")
        findings, _ = verify_physical(HashJoin(left, right))
        assert findings == []

    def test_verify_plan_runs_the_physical_pass(self):
        scan = RelationScan(Relation(["a"], [(1,)]), "r")
        report = verify_plan(scan)
        assert report.passes == ("physical",)
