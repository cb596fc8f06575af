"""Tests for SQL → algebra translation, including queries Q1, Q2 and Q3."""

import pytest

from repro.algebra.expressions import GreatDivide, SmallDivide
from repro.errors import SQLTranslationError
from repro.sql import SQLTranslator, match_universal_quantification, parse, translate_sql
from repro.workloads import generate_catalog, textbook_catalog

Q1 = "SELECT s_no, color FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no"

Q2 = (
    "SELECT s_no FROM supplies AS s DIVIDE BY ("
    "SELECT p_no FROM parts WHERE color = 'blue') AS p ON s.p_no = p.p_no"
)

Q3 = """
    SELECT DISTINCT s_no, color
    FROM supplies AS s1, parts AS p1
    WHERE NOT EXISTS (
        SELECT * FROM parts AS p2
        WHERE p2.color = p1.color AND NOT EXISTS (
            SELECT * FROM supplies AS s2
            WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))
"""

Q2_NOT_EXISTS = """
    SELECT DISTINCT s_no
    FROM supplies AS s1
    WHERE NOT EXISTS (
        SELECT * FROM parts AS p2
        WHERE p2.color = 'blue' AND NOT EXISTS (
            SELECT * FROM supplies AS s2
            WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))
"""


@pytest.fixture
def catalog():
    return textbook_catalog()


class TestDivideBy:
    def test_q1_uses_a_great_divide(self, catalog):
        expression = translate_sql(Q1, catalog)
        assert any(isinstance(node, GreatDivide) for node in expression.walk())
        assert set(expression.schema.names) == {"s_no", "color"}

    def test_q1_result_on_textbook_catalog(self, catalog):
        result = translate_sql(Q1, catalog).evaluate(catalog)
        expected = {
            ("s1", "blue"), ("s2", "blue"),   # s1, s2 supply all blue parts
            ("s1", "red"),                     # only s1 supplies all red parts
            ("s2", "green"),                   # s2 supplies the only green part
        }
        assert result.to_tuples(["s_no", "color"]) == expected

    def test_q2_uses_a_small_divide(self, catalog):
        expression = translate_sql(Q2, catalog)
        assert any(isinstance(node, SmallDivide) for node in expression.walk())
        assert not any(isinstance(node, GreatDivide) for node in expression.walk())

    def test_q2_result_on_textbook_catalog(self, catalog):
        result = translate_sql(Q2, catalog).evaluate(catalog)
        assert result.to_set("s_no") == {"s1", "s2"}

    def test_multi_attribute_on_clause_gives_small_divide(self, catalog):
        query = (
            "SELECT s_no FROM supplies AS s DIVIDE BY ("
            "SELECT p_no, color FROM parts WHERE color = 'blue') AS p "
            "ON s.p_no = p.p_no AND s.color = p.color"
        )
        # supplies has no color column, so this must fail cleanly.
        with pytest.raises(Exception):
            translate_sql(query, catalog)

    def test_on_clause_with_literal_is_rejected(self, catalog):
        query = "SELECT s_no FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = 'p1'"
        with pytest.raises(SQLTranslationError):
            translate_sql(query, catalog)

    def test_on_clause_with_non_equality_is_rejected(self, catalog):
        query = "SELECT s_no FROM supplies AS s DIVIDE BY parts AS p ON s.p_no < p.p_no"
        with pytest.raises(SQLTranslationError, match="equalities"):
            translate_sql(query, catalog)

    def test_unknown_table_is_rejected(self, catalog):
        with pytest.raises(SQLTranslationError, match="unknown table"):
            translate_sql("SELECT a FROM missing", catalog)

    def test_unknown_column_is_rejected(self, catalog):
        with pytest.raises(SQLTranslationError, match="unknown column"):
            translate_sql("SELECT wrong FROM parts", catalog)


class TestPlainQueries:
    def test_select_project(self, catalog):
        result = translate_sql("SELECT p_no FROM parts WHERE color = 'blue'", catalog).evaluate(catalog)
        assert result.to_set("p_no") == {"p1", "p2"}

    def test_join_via_product_and_where(self, catalog):
        query = (
            "SELECT s_no, color FROM supplies AS s, parts AS p WHERE s.p_no = p.p_no"
        )
        result = translate_sql(query, catalog).evaluate(catalog)
        assert ("s1", "blue") in result.to_tuples(["s_no", "color"])

    def test_output_alias(self, catalog):
        result = translate_sql("SELECT p_no AS part FROM parts", catalog).evaluate(catalog)
        assert result.attributes == ("part",)

    def test_general_exists_is_not_supported(self, catalog):
        query = "SELECT s_no FROM supplies AS s WHERE NOT EXISTS (SELECT * FROM parts AS p WHERE p.p_no = s.p_no)"
        with pytest.raises(SQLTranslationError, match="universal-quantification"):
            translate_sql(query, catalog)

    def test_a_repeated_output_name_is_refused(self, catalog):
        query = "SELECT s_no AS x, p_no AS x FROM supplies"
        with pytest.raises(SQLTranslationError, match="duplicate output column name 'x'"):
            translate_sql(query, catalog)

    def test_a_star_subquery_with_repeated_names_is_refused_by_its_alias(self, catalog):
        query = "SELECT * FROM (SELECT * FROM supplies AS a, supplies AS b) AS q"
        with pytest.raises(SQLTranslationError, match="subquery q repeats column names"):
            translate_sql(query, catalog)


class TestUniversalQuantification:
    def test_q3_pattern_is_recognized(self):
        pattern = match_universal_quantification(parse(Q3))
        assert pattern is not None
        assert pattern.dividend_table == "supplies"
        assert pattern.divisor_table == "parts"
        assert pattern.b_pairs == (("p_no", "p_no"),)
        assert pattern.a_columns == ("s_no",)
        assert pattern.c_columns == ("color",)
        assert pattern.is_great_divide

    def test_q2_not_exists_pattern_is_recognized_as_small_divide(self):
        pattern = match_universal_quantification(parse(Q2_NOT_EXISTS))
        assert pattern is not None
        assert not pattern.is_great_divide
        assert pattern.divisor_filters == (("color", "=", "blue"),)

    def test_non_pattern_queries_are_not_matched(self):
        assert match_universal_quantification(parse("SELECT a FROM t WHERE a = 1")) is None
        assert match_universal_quantification(parse("SELECT a FROM t")) is None

    def test_q3_translates_to_great_divide(self, catalog):
        expression = translate_sql(Q3, catalog, recognize_division=True)
        assert any(isinstance(node, GreatDivide) for node in expression.walk())

    def test_q3_without_recognition_uses_basic_algebra_only(self, catalog):
        expression = translate_sql(Q3, catalog, recognize_division=False)
        assert not expression.contains_division()

    def test_q1_and_q3_are_equivalent(self, catalog):
        """The paper's central SQL claim: Q1 and Q3 denote the same result."""
        q1 = translate_sql(Q1, catalog).evaluate(catalog)
        q3_divide = translate_sql(Q3, catalog, recognize_division=True).evaluate(catalog)
        q3_basic = translate_sql(Q3, catalog, recognize_division=False).evaluate(catalog)
        assert q1 == q3_divide == q3_basic

    def test_q2_and_its_not_exists_form_are_equivalent(self, catalog):
        q2 = translate_sql(Q2, catalog).evaluate(catalog)
        q2_ne_divide = translate_sql(Q2_NOT_EXISTS, catalog, recognize_division=True).evaluate(catalog)
        q2_ne_basic = translate_sql(Q2_NOT_EXISTS, catalog, recognize_division=False).evaluate(catalog)
        assert q2 == q2_ne_divide == q2_ne_basic

    def test_equivalence_on_generated_catalogs(self):
        """Q1 ≡ Q3 on randomly generated suppliers-and-parts databases."""
        for seed in range(5):
            catalog = generate_catalog(num_suppliers=12, num_parts=10, parts_per_supplier=6, seed=seed)
            q1 = translate_sql(Q1, catalog).evaluate(catalog)
            q3 = translate_sql(Q3, catalog, recognize_division=True).evaluate(catalog)
            q3_basic = translate_sql(Q3, catalog, recognize_division=False).evaluate(catalog)
            assert q1 == q3 == q3_basic
