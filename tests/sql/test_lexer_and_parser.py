"""Tests for the SQL lexer and parser."""

import pytest

import repro
from repro.errors import SQLSyntaxError
from repro.relation import Relation
from repro.sql import ast, parse, tokenize
from repro.sql.lexer import TokenType


class TestLexer:
    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("select Distinct FROM")
        assert [t.type for t in tokens[:-1]] == [TokenType.KEYWORD] * 3
        assert [t.value for t in tokens[:-1]] == ["SELECT", "DISTINCT", "FROM"]

    def test_identifiers_may_contain_hash_and_underscore(self):
        tokens = tokenize("s# p_no")
        assert [t.value for t in tokens[:-1]] == ["s#", "p_no"]
        assert all(t.type is TokenType.IDENTIFIER for t in tokens[:-1])

    def test_string_and_number_literals(self):
        tokens = tokenize("'blue' 42 3.5")
        assert tokens[0].type is TokenType.STRING and tokens[0].value == "blue"
        assert tokens[1].type is TokenType.NUMBER and tokens[1].value == "42"
        assert tokens[2].type is TokenType.NUMBER and tokens[2].value == "3.5"

    def test_operators_and_punctuation(self):
        values = [t.value for t in tokenize("= <> <= >= < > ( ) , . *")[:-1]]
        assert values == ["=", "<>", "<=", ">=", "<", ">", "(", ")", ",", ".", "*"]

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError, match="unterminated"):
            tokenize("SELECT 'oops")

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT ;")

    def test_end_token_is_appended(self):
        assert tokenize("x")[-1].type is TokenType.END


class TestParserBasics:
    def test_simple_select(self):
        statement = parse("SELECT a, b FROM t")
        assert [item.column.name for item in statement.select_items] == ["a", "b"]
        assert statement.from_items == (ast.TableName(name="t", alias=None),)
        assert statement.where is None
        assert not statement.distinct

    def test_select_star_and_distinct(self):
        statement = parse("SELECT DISTINCT * FROM t AS x")
        assert statement.select_star
        assert statement.distinct
        assert statement.from_items[0].alias == "x"

    def test_qualified_columns_and_aliases(self):
        statement = parse("SELECT t.a AS x FROM t")
        item = statement.select_items[0]
        assert item.column == ast.ColumnRef(name="a", qualifier="t")
        assert item.output_name == "x"

    def test_where_condition_tree(self):
        statement = parse("SELECT a FROM t WHERE a = 1 AND NOT b < 2 OR c = 'x'")
        assert isinstance(statement.where, ast.BooleanOp)
        assert statement.where.operator == "OR"

    def test_implicit_alias_without_as(self):
        statement = parse("SELECT a FROM t u")
        assert statement.from_items[0].alias == "u"

    def test_missing_from_is_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a")

    def test_trailing_garbage_is_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM t extra garbage !")

    @pytest.mark.parametrize("number", ["1.2.3", "²", "1²", "7."])
    def test_a_malformed_number_is_a_syntax_error_at_its_token(self, number):
        text = f"SELECT a FROM r WHERE a = {number}"
        if number == "7.":  # float() reads it: not malformed
            assert parse(text).where.right.value == 7.0
            return
        with pytest.raises(SQLSyntaxError, match="malformed number") as raised:
            parse(text)
        assert raised.value.position == text.index(number)

    def test_a_malformed_number_is_typed_at_the_front_door(self):
        db = repro.connect({"r": Relation(["a"], [(1,)])})
        for text in ("SELECT a FROM r WHERE a = 1.2.3", "SELECT a FROM r WHERE a = ²"):
            with pytest.raises(SQLSyntaxError, match="malformed number"):
                db.sql(text).run()
        # Digits of other scripts are numbers ("٣" is 3).
        assert db.sql("SELECT a FROM r WHERE a < ٣").run().to_tuples() == {(1,)}


class TestDivideBySyntax:
    def test_q1_shape(self):
        statement = parse(
            "SELECT s_no, color FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no"
        )
        divide = statement.from_items[0]
        assert isinstance(divide, ast.DivideTable)
        assert divide.dividend == ast.TableName(name="supplies", alias="s")
        assert divide.divisor == ast.TableName(name="parts", alias="p")
        assert isinstance(divide.condition, ast.Comparison)

    def test_q2_shape_with_subquery_divisor(self):
        statement = parse(
            "SELECT s_no FROM supplies AS s DIVIDE BY ("
            "SELECT p_no FROM parts WHERE color = 'blue') AS p ON s.p_no = p.p_no"
        )
        divide = statement.from_items[0]
        assert isinstance(divide, ast.DivideTable)
        assert isinstance(divide.divisor, ast.SubqueryTable)
        assert divide.divisor.alias == "p"

    def test_multi_column_on_clause(self):
        statement = parse(
            "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b AND r1.c = r2.c"
        )
        divide = statement.from_items[0]
        assert isinstance(divide.condition, ast.BooleanOp)
        assert divide.condition.operator == "AND"

    def test_chained_divides(self):
        statement = parse(
            "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b DIVIDE BY r3 ON r1.c = r3.c"
        )
        outer = statement.from_items[0]
        assert isinstance(outer, ast.DivideTable)
        assert isinstance(outer.dividend, ast.DivideTable)

    def test_divide_requires_on_clause(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM r1 DIVIDE BY r2")


class TestNotExistsParsing:
    def test_q3_shape(self):
        statement = parse(
            """
            SELECT DISTINCT s_no, color
            FROM supplies AS s1, parts AS p1
            WHERE NOT EXISTS (
                SELECT * FROM parts AS p2
                WHERE p2.color = p1.color AND NOT EXISTS (
                    SELECT * FROM supplies AS s2
                    WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))
            """
        )
        assert statement.distinct
        assert isinstance(statement.where, ast.NotCondition)
        middle = statement.where.operand
        assert isinstance(middle, ast.ExistsCondition)
        assert middle.subquery.select_star
