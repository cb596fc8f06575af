"""Mutation harness for the static verifier.

Each test corrupts a *valid* plan (or expression, or view) the
way a buggy rewrite or planner would — in-place, after
construction-time validation already ran — and asserts the verifier flags
exactly that corruption with its stable RP code.  A final hypothesis sweep
asserts the other direction: whatever the real optimizer produces on random
databases verifies clean, so the mutations measure detection, not noise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import builders as B
from repro.algebra.catalog import Catalog
from repro.algebra.expressions import Product, Rename, SmallDivide, Union
from repro.analysis import (
    verify_expression,
    verify_physical,
    verify_plan,
    verify_prepared,
    verify_view,
)
from repro.optimizer import PhysicalPlanner, PlannerOptions
from repro.physical import (
    SMALL_DIVIDE_ALGORITHMS,
    HashDivision,
    HashJoin,
    PartitionedAggregate,
    PartitionedDivision,
    ProjectOp,
    RelationScan,
)
from repro.physical.base import PhysicalOperator
from repro.relation import Relation
from repro.relation.schema import Schema, as_schema
from tests.strategies import relations


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# fixtures: small valid inputs to corrupt
# ----------------------------------------------------------------------
R1 = Relation(["a", "b"], [(1, 1), (1, 2), (2, 1), (3, 1), (3, 2)])
R2 = Relation(["b"], [(1,), (2,)])


def division_plan():
    return HashDivision(RelationScan(R1, "r1"), RelationScan(R2, "r2"))


def partitioned_division():
    return PartitionedDivision(
        RelationScan(R1, "r1"), RelationScan(R2, "r2"), algorithm="hash", partitions=2
    )


# ======================================================================
# logical corruptions
# ======================================================================
class TestLogicalCorruptions:
    def test_projection_over_vanished_attribute_is_rp101(self):
        expression = B.project(B.ref("r1", ["a", "b"]), ["a"])
        assert expression.schema is not None  # cache before corrupting
        expression.attributes = as_schema(("vanished",))
        findings, _ = verify_expression(expression)
        assert codes(findings) == ["RP101"]

    def test_rename_collision_is_rp102(self):
        expression = Rename(B.ref("r1", ["a", "b"]), {"a": "b"})
        findings, _ = verify_expression(expression)
        assert codes(findings) == ["RP102"]

    def test_divisor_not_subset_of_dividend_is_rp103(self):
        expression = SmallDivide(B.ref("r1", ["a", "b"]), B.ref("r9", ["z"]))
        findings, _ = verify_expression(expression)
        assert codes(findings) == ["RP103"]

    def test_empty_quotient_schema_is_rp103(self):
        r1 = B.ref("r1", ["b"])
        findings, _ = verify_expression(SmallDivide(r1, B.ref("r2", ["b"])))
        assert codes(findings) == ["RP103"]

    def test_union_attribute_mismatch_is_rp104(self):
        findings, _ = verify_expression(Union(B.ref("r1", ["a", "b"]), B.ref("r2", ["b"])))
        assert codes(findings) == ["RP104"]

    def test_product_attribute_overlap_is_rp105(self):
        findings, _ = verify_expression(
            Product(B.ref("r1", ["a", "b"]), B.ref("r1b", ["a", "b"]))
        )
        assert codes(findings) == ["RP105"]

    def test_stale_cached_schema_is_rp106(self):
        expression = B.project(B.ref("r1", ["a", "b"]), ["a"])
        assert expression.schema.names == ("a",)
        expression._schema = Schema(("stale",))  # what a buggy rewrite leaves behind
        findings, _ = verify_expression(expression)
        assert codes(findings) == ["RP106"]

    def test_catalog_disagreement_is_rp107(self):
        catalog = Catalog()
        catalog.add_table("r1", Relation(["x", "y"], [(1, 2)]))
        findings, _ = verify_expression(B.ref("r1", ["a", "b"]), catalog)
        assert codes(findings) == ["RP107"]


# ======================================================================
# physical corruptions
# ======================================================================
class TestPhysicalCorruptions:
    def test_projection_schema_corruption_is_rp101(self):
        plan = ProjectOp(RelationScan(R1, "r1"), ("a",))
        plan._schema = Schema(("vanished",))
        assert "RP101" in codes(verify_physical(plan)[0])

    def test_division_over_disjoint_children_is_rp103(self):
        plan = division_plan()
        plan._children = (
            RelationScan(Relation(["a"], [(1,)]), "x"),
            RelationScan(Relation(["z"], [(1,)]), "y"),
        )
        assert "RP103" in codes(verify_physical(plan)[0])

    def test_operator_schema_drift_is_rp111(self):
        plan = division_plan()
        plan._schema = Schema(("a", "b"))  # quotient must be dividend - divisor
        assert "RP111" in codes(verify_physical(plan)[0])

    def test_key_typed_differently_per_side_is_rp112_warning(self):
        left = RelationScan(Relation(["a", "k"], [(1, 1)]), "left")
        right = RelationScan(Relation(["k"], [("one",)]), "right")
        findings, _ = verify_physical(HashJoin(left, right))
        assert codes(findings) == ["RP112"]
        assert all(f.severity.value == "warning" for f in findings)

    def test_operator_without_own_properties_is_rp201(self):
        class ForgotProperties(PhysicalOperator):
            name = "forgot_properties"

        plan = ForgotProperties(Schema(("a",)), (RelationScan(Relation(["a"], [(1,)]), "r"),))
        assert "RP201" in codes(verify_physical(plan)[0])

    def test_unsafe_wrapped_algorithm_is_rp202(self, monkeypatch):
        plan = partitioned_division()
        monkeypatch.setattr(HashDivision, "key_disjoint_safe", False)
        assert "RP202" in codes(verify_physical(plan)[0])

    def test_unregistered_wrapped_algorithm_is_rp202(self):
        plan = partitioned_division()
        plan.algorithm = "quantum"
        assert "RP202" in codes(verify_physical(plan)[0])

    def test_partition_key_not_covering_quotient_is_rp203(self):
        plan = partitioned_division()
        plan._key = as_schema(("b",))  # hashing on b splits a-groups across partitions
        assert "RP203" in codes(verify_physical(plan)[0])

    def test_aggregate_key_dropped_from_output_is_rp203(self):
        child = RelationScan(R1, "r1")
        plan = PartitionedAggregate(child, ("a",), {"n": len}, partitions=2)
        plan._key = as_schema(("z",))
        assert "RP203" in codes(verify_physical(plan)[0])

    def test_invalid_exchange_shape_is_rp206(self):
        plan = partitioned_division()
        plan.partitions = 0  # an exchange no constructor would admit
        assert "RP206" in codes(verify_physical(plan)[0])


# ======================================================================
# maintained-view corruptions (RP6xx)
# ======================================================================
def _view_database():
    from repro.api.database import connect

    database = connect()
    database.add_table("r1", Relation(["a", "b"], R1.aligned_tuples()))
    database.add_table("r2", Relation(["b"], R2.aligned_tuples()))
    view = database.create_view("q", database.table("r1").divide(database.table("r2"), on=["b"]))
    view.run()  # build the counter table
    return database, view


class TestViewCorruptions:
    def test_clean_view_verifies_clean(self):
        database, view = _view_database()
        database.insert("r1", [(9, 1), (9, 2)])
        database.delete("r2", [(2,)])
        report = database.verify_view("q")
        assert report.ok and report.findings == ()

    def test_counter_width_drift_is_rp601(self):
        _database, view = _view_database()
        view.counters.a_width = 7  # what a buggy rebuild would leave behind
        assert "RP601" in codes(verify_view(view).findings)

    def test_counter_kind_drift_is_rp601(self):
        _database, view = _view_database()
        view.counters.kind = "great"
        assert "RP601" in codes(verify_view(view).findings)

    def test_malformed_quotient_tuple_is_rp601(self):
        _database, view = _view_database()
        view.counters._quotient = view.counters._quotient | {(1, 2, 3)}
        assert "RP601" in codes(verify_view(view).findings)

    def test_schema_not_a_plus_c_is_rp601(self):
        _database, view = _view_database()
        view.schema_names = ("b", "a")
        assert "RP601" in codes(verify_view(view).findings)

    def test_shape_drifted_from_its_expression_is_rp602(self):
        from dataclasses import replace

        from repro.algebra import predicates as P

        _database, view = _view_database()
        # Deltas would be routed through a selection the query does not have.
        selected = replace(view.shape.dividend, predicate=P.Comparison(P.attr("a"), "<", 3))
        view.shape = replace(view.shape, dividend=selected)
        findings = verify_view(view).findings
        assert codes(findings) == ["RP602"]
        assert "analyzes to" in findings[0].message

    def test_maintained_view_over_an_unmaintainable_expression_is_rp602(self):
        database, view = _view_database()
        view.expression = database.table("r1").project(["a"]).expression
        findings = verify_view(view).findings
        assert codes(findings) == ["RP602"]
        assert "Project" in findings[0].message

    def test_view_ahead_of_table_is_rp603(self):
        _database, view = _view_database()
        view.applied_versions["r1"] = 99
        assert "RP603" in codes(verify_view(view).findings)

    def test_view_behind_table_is_rp603(self):
        database, view = _view_database()
        database.insert("r1", [(8, 1), (8, 2)])
        assert database.verify_view("q").ok  # deltas were routed
        view.applied_versions["r1"] = 0  # ... then the bookkeeping is lost
        assert "RP603" in codes(verify_view(view).findings)

    def test_unknown_table_in_versions_is_rp603(self):
        _database, view = _view_database()
        view.applied_versions["phantom"] = 1
        assert "RP603" in codes(verify_view(view).findings)

    def test_view_over_view_is_rp604(self):
        database, view = _view_database()
        # create_view refuses to shadow a table, so plant the alias the way
        # a buggy loader would: a registered view named like a base table.
        database._views["r2"] = view
        assert "RP604" in codes(verify_view(view, database).findings)

    def test_create_view_over_view_is_rejected_up_front(self):
        import pytest

        from repro.errors import ViewError

        database, _view = _view_database()
        with pytest.raises(ViewError, match="RP604"):
            database.create_view("q2", database.query(B.ref("q", ["a"])))


# ======================================================================
# the other direction: optimizer output on random databases is clean
# ======================================================================
@st.composite
def random_catalogs(draw):
    catalog = Catalog()
    catalog.add_table("r1", draw(relations(("a", "b"), max_rows=10)))
    catalog.add_table("r2", draw(relations(("b",), max_rows=4)))
    return catalog


class TestOptimizerPlansVerifyClean:
    """Detection without noise: real planner output never trips the verifier."""

    @settings(max_examples=40, deadline=None)
    @given(catalog=random_catalogs(), algorithm=st.sampled_from(sorted(SMALL_DIVIDE_ALGORITHMS)))
    def test_every_division_algorithm_plans_clean(self, catalog, algorithm):
        expression = B.project(
            B.divide(B.ref("r1", ["a", "b"]), B.ref("r2", ["b"])), ["a"]
        )
        planner = PhysicalPlanner(catalog, PlannerOptions(small_divide_algorithm=algorithm))
        plan = planner.plan(expression)
        logical_findings, _ = verify_expression(expression, catalog)
        assert logical_findings == []
        assert verify_plan(plan).ok

    @settings(max_examples=25, deadline=None)
    @given(
        catalog=random_catalogs(),
        memory_budget_mb=st.sampled_from([None, 1e-4]),
    )
    def test_prepared_plans_verify_clean_across_configurations(self, catalog, memory_budget_mb):
        from repro.api.database import connect

        database = connect(catalog, memory_budget_mb=memory_budget_mb)
        query = database.sql(
            "SELECT a FROM r1 AS s DIVIDE BY r2 AS p ON s.b = p.b"
        )
        prepared, _cached = database._prepare(query.expression)
        report = verify_prepared(prepared, database.catalog)
        assert report.errors() == ()
