"""Canonicalization (rename pull-up) and canonical fingerprints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.algebra.canonical import canonicalize, expression_fingerprint
from repro.algebra.catalog import Catalog
from repro.experiments.queries import Q1, Q2, Q2_NOT_EXISTS, Q3
from repro.sql import translate_sql
from repro.workloads import textbook_catalog
from tests.strategies import relations


@pytest.fixture(scope="module")
def catalog():
    return textbook_catalog()


class TestRenameSimplification:
    def test_identity_rename_is_dropped(self):
        r1 = B.ref("r1", ["a", "b"])
        assert canonicalize(B.rename(r1, {"a": "a"})) == r1

    def test_adjacent_renames_compose(self):
        r1 = B.ref("r1", ["a", "b"])
        twice = B.rename(B.rename(r1, {"a": "x"}), {"x": "y"})
        assert canonicalize(twice) == B.rename(r1, {"a": "y"})

    def test_roundtrip_rename_cancels(self):
        r1 = B.ref("r1", ["a", "b"])
        roundtrip = B.rename(B.rename(r1, {"a": "x", "b": "y"}), {"x": "a", "y": "b"})
        assert canonicalize(roundtrip) == r1

    def test_identity_projection_is_dropped(self):
        r1 = B.ref("r1", ["a", "b"])
        assert canonicalize(B.project(r1, ["b", "a"])) == r1

    def test_nested_projections_collapse(self):
        r1 = B.ref("r1", ["a", "b", "c"])
        nested = B.project(B.project(r1, ["a", "b"]), ["a"])
        assert canonicalize(nested) == B.project(r1, ["a"])

    def test_rename_hoists_above_selection(self):
        r1 = B.ref("r1", ["a", "b"])
        query = B.select(B.rename(r1, {"a": "x"}), P.equals(P.attr("x"), 1))
        expected = B.rename(B.select(r1, P.equals(P.attr("a"), 1)), {"a": "x"})
        assert canonicalize(query) == expected

    def test_rename_kept_when_not_removable(self):
        # A bare rename at the root has nothing to cancel against.
        r1 = B.ref("r1", ["a", "b"])
        renamed = B.rename(r1, {"a": "x"})
        assert canonicalize(renamed) == renamed


class TestSqlTreesCanonicalize:
    def test_q1_collapses_to_bare_great_divide(self, catalog):
        canonical = canonicalize(translate_sql(Q1, catalog))
        assert canonical.to_text() == "great_divide(supplies, parts)"

    def test_q2_collapses_to_clean_small_divide(self, catalog):
        canonical = canonicalize(translate_sql(Q2, catalog))
        assert canonical.to_text() == (
            "divide(supplies, project[p_no](select[color = 'blue'](parts)))"
        )

    def test_q1_and_q3_share_a_canonical_form(self, catalog):
        q1 = canonicalize(translate_sql(Q1, catalog))
        q3 = canonicalize(translate_sql(Q3, catalog))
        assert q1 == q3

    def test_canonical_form_evaluates_identically(self, catalog):
        for sql in (Q1, Q2, Q3, Q2_NOT_EXISTS):
            expression = translate_sql(sql, catalog)
            assert canonicalize(expression).evaluate(catalog) == expression.evaluate(catalog)


class TestFingerprints:
    def test_equivalent_formulations_fingerprint_identically(self, catalog):
        assert (
            translate_sql(Q1, catalog).fingerprint()
            == translate_sql(Q3, catalog).fingerprint()
        )
        assert (
            translate_sql(Q2, catalog).fingerprint()
            == translate_sql(Q2_NOT_EXISTS, catalog).fingerprint()
        )

    def test_fluent_tree_matches_sql_fingerprint(self, catalog):
        supplies, parts = catalog.ref("supplies"), catalog.ref("parts")
        fluent = B.project(
            B.divide(
                supplies,
                B.project(B.select(parts, P.equals(P.attr("color"), "blue")), ["p_no"]),
            ),
            ["s_no"],
        )
        assert fluent.fingerprint() == translate_sql(Q2, catalog).fingerprint()

    def test_different_queries_fingerprint_differently(self, catalog):
        assert (
            translate_sql(Q1, catalog).fingerprint()
            != translate_sql(Q2, catalog).fingerprint()
        )

    def test_literal_contents_change_the_fingerprint(self):
        from repro.relation import Relation

        one = B.literal(Relation(["b"], [(1,)]))
        two = B.literal(Relation(["b"], [(2,)]))
        dividend = B.ref("r1", ["a", "b"])
        assert B.divide(dividend, one).fingerprint() != B.divide(dividend, two).fingerprint()

    def test_fingerprint_is_stable_across_processes_shape(self, catalog):
        # Same expression, two independent translations: identical digests.
        first = translate_sql(Q1, catalog).fingerprint()
        second = translate_sql(Q1, textbook_catalog()).fingerprint()
        assert first == second


# ----------------------------------------------------------------------
# metamorphic property: canonicalization never changes results
# ----------------------------------------------------------------------
PREDICATES = st.sampled_from(
    [P.TRUE, P.equals(P.attr("a"), 1), P.less_than(P.attr("a"), 2)]
)


@st.composite
def renamed_trees(draw):
    """Expression trees salted with the renames canonicalization targets."""
    r1 = B.ref("r1", ["a", "b"])
    r2 = B.ref("r2", ["b"])

    dividend = r1
    if draw(st.booleans()):
        dividend = B.rename(B.rename(r1, {"a": "q.a", "b": "q.b"}), {"q.a": "a", "q.b": "b"})
    if draw(st.booleans()):
        dividend = B.select(dividend, draw(PREDICATES))

    divisor = r2
    if draw(st.booleans()):
        divisor = B.rename(B.rename(r2, {"b": "d.b"}), {"d.b": "b"})
    if draw(st.booleans()):
        divisor = B.union(divisor, B.ref("r2b", ["b"]))

    expression = draw(
        st.sampled_from(["divide", "join", "semijoin", "antijoin", "product_rename"])
    )
    if expression == "divide":
        tree = B.divide(dividend, divisor)
    elif expression == "join":
        tree = B.natural_join(dividend, divisor)
    elif expression == "semijoin":
        tree = B.semijoin(dividend, divisor)
    elif expression == "antijoin":
        tree = B.antijoin(dividend, divisor)
    else:
        tree = B.product(dividend, B.rename(divisor, {"b": "c"}))

    if draw(st.booleans()):
        mapping = {name: f"out.{name}" for name in tree.schema.names}
        tree = B.rename(tree, mapping)
    if draw(st.booleans()) and "a" in tree.schema.name_set:
        tree = B.project(tree, ["a"])
    return tree


@st.composite
def databases(draw):
    catalog = Catalog()
    catalog.add_table("r1", draw(relations(("a", "b"), max_rows=8)))
    catalog.add_table("r2", draw(relations(("b",), max_rows=4)))
    catalog.add_table("r2b", draw(relations(("b",), max_rows=3)))
    return catalog


class TestCanonicalizationIsSemanticsPreserving:
    @settings(max_examples=80, deadline=None)
    @given(expression=renamed_trees(), catalog=databases())
    def test_same_result_on_generated_databases(self, expression, catalog):
        canonical = canonicalize(expression)
        assert canonical.evaluate(catalog) == expression.evaluate(catalog)
        assert canonical.schema.name_set == expression.schema.name_set

    @settings(max_examples=40, deadline=None)
    @given(expression=renamed_trees())
    def test_canonicalization_is_idempotent(self, expression):
        canonical = canonicalize(expression)
        assert canonicalize(canonical) == canonical
