"""Translation of parsed SQL into the logical algebra.

Two features matter for the paper:

* the ``DIVIDE BY … ON …`` table reference (query Q1/Q2) is translated to a
  :class:`~repro.algebra.expressions.SmallDivide` when every divisor
  attribute appears in the ON clause, and to a
  :class:`~repro.algebra.expressions.GreatDivide` otherwise — exactly the
  rule stated in Section 4 of the paper;
* the double-``NOT EXISTS`` formulation (query Q3) is detected by
  :mod:`repro.sql.universal` and translated either to a first-class divide
  (``recognize_division=True``, the divide-aware optimizer) or to the
  equivalent basic-algebra expression of Definitions 2/6
  (``recognize_division=False``, the divide-less baseline the benchmarks
  compare against).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional, Union

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.algebra.catalog import Catalog
from repro.algebra.expressions import Expression
from repro.errors import SQLTranslationError
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.universal import UniversalQuantificationPattern, match_universal_quantification

__all__ = ["SQLTranslator", "translate_sql"]


def _conjuncts(condition: ast.Condition) -> list[ast.Condition]:
    """Flatten a condition into its top-level AND conjuncts."""
    if isinstance(condition, ast.BooleanOp) and condition.operator == "AND":
        result: list[ast.Condition] = []
        for operand in condition.operands:
            result.extend(_conjuncts(operand))
        return result
    return [condition]


class SQLTranslator:
    """Translate SQL text or parsed statements into logical expressions."""

    def __init__(
        self,
        catalog: Mapping[str, Relation],
        recognize_division: bool = True,
    ) -> None:
        self.catalog = catalog
        self.recognize_division = recognize_division

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def translate(self, query: Union[str, ast.SelectStatement]) -> Expression:
        """Translate a query (text or AST) into a logical expression."""
        statement = parse(query) if isinstance(query, str) else query
        pattern = match_universal_quantification(statement)
        if pattern is not None:
            return self._translate_universal(statement, pattern)
        expression, scope = self._translate_statement(statement)
        return expression

    # ------------------------------------------------------------------
    # ordinary statements
    # ------------------------------------------------------------------
    def _translate_statement(self, statement: ast.SelectStatement) -> tuple[Expression, dict[str, str]]:
        """Translate a statement; returns the expression and its scope.

        The scope maps qualified attribute names (``alias.column``) to the
        attribute names used in the expression (identical strings here, kept
        as a mapping for clarity and future extension).
        """
        if statement.where is not None and self._contains_exists(statement.where):
            raise SQLTranslationError(
                "correlated EXISTS subqueries are only supported in the universal-quantification "
                "pattern of query Q3 (see repro.sql.universal)"
            )
        expression: Optional[Expression] = None
        scope: dict[str, str] = {}
        for item in statement.from_items:
            item_expression, item_scope = self._translate_table_reference(item)
            overlap = set(scope) & set(item_scope)
            if overlap:
                raise SQLTranslationError(f"duplicate correlation names for attributes {sorted(overlap)}")
            scope.update(item_scope)
            expression = item_expression if expression is None else B.product(expression, item_expression)
        if expression is None:
            raise SQLTranslationError("FROM clause must reference at least one table")
        if statement.where is not None:
            expression = B.select(expression, self._translate_condition(statement.where, scope))
        if statement.select_star:
            return expression, scope
        return self._apply_select_list(expression, statement, scope)

    def _apply_select_list(
        self,
        expression: Expression,
        statement: ast.SelectStatement,
        scope: dict[str, str],
    ) -> tuple[Expression, dict[str, str]]:
        resolved: list[str] = []
        outputs: list[str] = []
        for item in statement.select_items:
            attribute = self._resolve_column(item.column, scope)
            output = item.output_name
            if attribute in resolved:
                raise SQLTranslationError(f"column {item.column} selected twice")
            if output in outputs:
                raise SQLTranslationError(f"duplicate output column name {output!r}")
            resolved.append(attribute)
            outputs.append(output)
        projected = B.project(expression, resolved)
        renames = {attr: out for attr, out in zip(resolved, outputs) if attr != out}
        result: Expression = B.rename(projected, renames) if renames else projected
        return result, {out: out for out in outputs}

    # ------------------------------------------------------------------
    # table references
    # ------------------------------------------------------------------
    def _translate_table_reference(self, reference: ast.TableReference) -> tuple[Expression, dict[str, str]]:
        if isinstance(reference, ast.TableName):
            return self._translate_table_name(reference)
        if isinstance(reference, ast.SubqueryTable):
            inner, inner_scope = self._translate_statement(reference.query)
            return self._qualify(inner, reference.alias)
        if isinstance(reference, ast.DivideTable):
            return self._translate_divide(reference)
        raise SQLTranslationError(f"unsupported table reference {reference!r}")

    def _translate_table_name(self, table: ast.TableName) -> tuple[Expression, dict[str, str]]:
        expression: Expression = B.ref(table.name, self._table_schema(table.name))
        return self._qualify(expression, table.effective_name)

    @staticmethod
    def _qualify(expression: Expression, alias: str) -> tuple[Expression, dict[str, str]]:
        mapping = {name: f"{alias}.{name.split('.')[-1]}" for name in expression.schema.names}
        qualified = B.rename(expression, mapping)
        scope = {qualified_name: qualified_name for qualified_name in mapping.values()}
        return qualified, scope

    def _translate_divide(self, reference: ast.DivideTable) -> tuple[Expression, dict[str, str]]:
        dividend, dividend_scope = self._translate_table_reference(reference.dividend)
        divisor, divisor_scope = self._translate_table_reference(reference.divisor)
        pairs = self._equi_join_pairs(reference.condition, dividend_scope, divisor_scope)
        if not pairs:
            raise SQLTranslationError(
                "the ON clause of DIVIDE BY must be a conjunction of equalities between "
                "dividend and divisor columns"
            )
        # Rename the divisor's join attributes to the dividend's names so the
        # division operators see them as the shared attribute set B.
        renames = {divisor_attr: dividend_attr for dividend_attr, divisor_attr in pairs}
        renamed_divisor: Expression = B.rename(divisor, renames) if renames else divisor
        joined_divisor_attributes = {dividend_attr for dividend_attr, _ in pairs}
        divisor_only = [
            name for name in renamed_divisor.schema.names if name not in joined_divisor_attributes
        ]
        if divisor_only:
            expression: Expression = B.great_divide(dividend, renamed_divisor)
        else:
            expression = B.divide(dividend, renamed_divisor)
        scope = {name: name for name in expression.schema.names}
        return expression, scope

    def _equi_join_pairs(
        self,
        condition: ast.Condition,
        dividend_scope: dict[str, str],
        divisor_scope: dict[str, str],
    ) -> list[tuple[str, str]]:
        pairs: list[tuple[str, str]] = []
        for conjunct in _conjuncts(condition):
            if not isinstance(conjunct, ast.Comparison) or conjunct.operator != "=":
                raise SQLTranslationError(
                    "DIVIDE BY supports only conjunctions of column equalities in its ON clause; "
                    "the paper explicitly disallows more general conditions"
                )
            left, right = conjunct.left, conjunct.right
            if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
                raise SQLTranslationError("the ON clause must compare columns, not literals")
            left_attr = self._resolve_column(left, {**dividend_scope, **divisor_scope})
            right_attr = self._resolve_column(right, {**dividend_scope, **divisor_scope})
            if left_attr in dividend_scope and right_attr in divisor_scope:
                pairs.append((left_attr, right_attr))
            elif right_attr in dividend_scope and left_attr in divisor_scope:
                pairs.append((right_attr, left_attr))
            else:
                raise SQLTranslationError(
                    "each ON equality must relate one dividend column and one divisor column"
                )
        return pairs

    # ------------------------------------------------------------------
    # conditions and columns
    # ------------------------------------------------------------------
    def _contains_exists(self, condition: ast.Condition) -> bool:
        if isinstance(condition, ast.ExistsCondition):
            return True
        if isinstance(condition, ast.NotCondition):
            return self._contains_exists(condition.operand)
        if isinstance(condition, ast.BooleanOp):
            return any(self._contains_exists(operand) for operand in condition.operands)
        return False

    def _translate_condition(self, condition: ast.Condition, scope: dict[str, str]) -> P.Predicate:
        if isinstance(condition, ast.Comparison):
            return P.Comparison(
                self._translate_operand(condition.left, scope),
                condition.operator,
                self._translate_operand(condition.right, scope),
            )
        if isinstance(condition, ast.BooleanOp):
            operands = [self._translate_condition(op, scope) for op in condition.operands]
            return P.And(*operands) if condition.operator == "AND" else P.Or(*operands)
        if isinstance(condition, ast.NotCondition):
            return P.Not(self._translate_condition(condition.operand, scope))
        raise SQLTranslationError(f"unsupported condition {condition!r} in this context")

    def _translate_operand(self, operand: ast.Operand, scope: dict[str, str]):
        if isinstance(operand, ast.Literal):
            return P.lit(operand.value)
        return P.attr(self._resolve_column(operand, scope))

    @staticmethod
    def _resolve_column(column: ast.ColumnRef, scope: dict[str, str]) -> str:
        if column.qualifier is not None:
            qualified = f"{column.qualifier}.{column.name}"
            if qualified in scope:
                return scope[qualified]
            raise SQLTranslationError(f"unknown column {qualified!r}; in scope: {sorted(scope)}")
        matches = [attr for attr in scope if attr == column.name or attr.endswith(f".{column.name}")]
        if len(matches) == 1:
            return scope[matches[0]]
        if not matches:
            raise SQLTranslationError(f"unknown column {column.name!r}; in scope: {sorted(scope)}")
        raise SQLTranslationError(f"ambiguous column {column.name!r}: {sorted(matches)}")

    # ------------------------------------------------------------------
    # universal quantification (query Q3)
    # ------------------------------------------------------------------
    def _translate_universal(
        self, statement: ast.SelectStatement, pattern: UniversalQuantificationPattern
    ) -> Expression:
        dividend_schema = self._table_schema(pattern.dividend_table)
        divisor_schema = self._table_schema(pattern.divisor_table)

        dividend_b = [pair[0] for pair in pattern.b_pairs]
        divisor_b = [pair[1] for pair in pattern.b_pairs]
        dividend_a = [name for name in dividend_schema.names if name not in dividend_b]
        if sorted(pattern.a_columns) != sorted(dividend_a):
            raise SQLTranslationError(
                "the inner NOT EXISTS must correlate on every non-divisor attribute of the "
                f"dividend; expected {sorted(dividend_a)}, found {sorted(pattern.a_columns)}"
            )

        dividend: Expression = B.ref(pattern.dividend_table, dividend_schema)
        divisor: Expression = B.ref(pattern.divisor_table, divisor_schema)
        if pattern.divisor_filters:
            divisor = B.select(
                divisor,
                P.conjunction(
                    P.Comparison(P.attr(column), operator, P.lit(value))
                    for column, operator, value in pattern.divisor_filters
                ),
            )
        divisor = B.project(divisor, list(divisor_b) + list(pattern.c_columns))
        renames = {
            divisor_attr: dividend_attr
            for dividend_attr, divisor_attr in pattern.b_pairs
            if divisor_attr != dividend_attr
        }
        if renames:
            divisor = B.rename(divisor, renames)

        if self.recognize_division:
            divided: Expression = (
                B.great_divide(dividend, divisor)
                if pattern.is_great_divide
                else B.divide(dividend, divisor)
            )
        else:
            divided = self._simulate_division(dividend, divisor, dividend_a, pattern)

        scope = {name: name for name in divided.schema.names}
        return self._apply_select_list(divided, statement, scope)[0]

    def _simulate_division(
        self,
        dividend: Expression,
        divisor: Expression,
        dividend_a: list[str],
        pattern: UniversalQuantificationPattern,
    ) -> Expression:
        """The divide-less plan: Definition 2 (small) or Definition 6 (great)."""
        candidates_a = B.project(dividend, dividend_a)
        if not pattern.is_great_divide:
            missing = B.project(
                B.difference(B.product(candidates_a, divisor), B.project(dividend, Schema(tuple(dividend_a)).union(divisor.schema))),
                dividend_a,
            )
            return B.difference(candidates_a, missing)
        c_attributes = list(pattern.c_columns)
        candidates = B.product(candidates_a, B.project(divisor, c_attributes))
        all_attributes = list(dividend_a) + list(divisor.schema.names)
        left = B.product(candidates_a, divisor)
        joined = B.natural_join(dividend, divisor)
        missing = B.project(B.difference(left, B.project(joined, all_attributes)), dividend_a + c_attributes)
        return B.difference(candidates, missing)

    def _table_schema(self, name: str) -> Schema:
        """The schema of a catalog table.  Translation reads nothing else
        of it: a :class:`Catalog` answers without folding pending edits."""
        catalog = self.catalog
        if name not in catalog:
            raise SQLTranslationError(f"unknown table {name!r}")
        return catalog.schema(name) if isinstance(catalog, Catalog) else catalog[name].schema


def translate_sql(
    query: str,
    catalog: Mapping[str, Relation],
    recognize_division: bool = True,
) -> Expression:
    """Convenience wrapper: parse and translate ``query`` against ``catalog``."""
    return SQLTranslator(catalog, recognize_division=recognize_division).translate(query)
