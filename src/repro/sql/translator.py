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
from repro.algebra.expressions import Expression, Project
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

    def __init__(self, catalog: Mapping[str, Relation], recognize_division: bool = True) -> None:
        self.catalog = catalog
        self.recognize_division = recognize_division

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def translate(self, query: Union[str, ast.SelectStatement]) -> Expression:
        """Translate a query (text or AST) into a logical expression."""
        statement = parse(query) if isinstance(query, str) else query
        pattern = match_universal_quantification(statement)
        if pattern is None:
            expression, scope = self._translate_statement(statement)
        else:
            expression, scope = self._translate_universal(statement, pattern)
        attributes = list(scope.values())
        if list(expression.schema.names) != attributes:
            expression = B.project(expression, attributes)  # the select list's order
        # The one output rename: select-list names, or SELECT *'s alias.column.
        outputs = {attribute: name for name, attribute in scope.items() if attribute != name}
        return B.rename(expression, outputs) if outputs else expression

    # ------------------------------------------------------------------
    # ordinary statements
    # ------------------------------------------------------------------
    def _translate_statement(self, statement: ast.SelectStatement) -> tuple[Expression, dict[str, str]]:
        """Translate a statement; returns the expression and its scope.

        The scope maps each name the statement's text can use for a column
        (``alias.column`` in the FROM list, the output name after a select
        list) to the attribute the expression calls it.  That is the
        column's own name, unless an earlier FROM item already holds that
        name: then :func:`_apart` renames it to ``alias.column``.
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
            if expression is not None:
                _disjoint(scope, item_scope)
                expression, scope, item_expression, item_scope = _apart(expression, scope, item_expression, item_scope)
                item_expression = B.product(expression, item_expression)
            expression, scope = item_expression, {**scope, **item_scope}
        if expression is None:
            raise SQLTranslationError("FROM clause must reference at least one table")
        if statement.where is not None:
            expression = B.select(expression, self._translate_condition(statement.where, scope))
        if statement.select_star:
            return expression, scope
        return self._apply_select_list(expression, statement, scope)

    def _apply_select_list(
        self, expression: Expression, statement: ast.SelectStatement, scope: dict[str, str]
    ) -> tuple[Expression, dict[str, str]]:
        """Project on the selected attributes; the scope names them by
        their output names, in the select list's order (the rename to those
        names, and the order at the root, are the caller's)."""
        outputs: dict[str, str] = {}
        for item in statement.select_items:
            attribute = scope[self._resolve(item.column, scope)]
            output = item.output_name
            if attribute in outputs.values():
                raise SQLTranslationError(f"column {item.column} selected twice")
            if output in outputs:
                raise SQLTranslationError(f"duplicate output column name {output!r}")
            outputs[output] = attribute
        attributes = list(outputs.values())
        if isinstance(expression, Project) and all(name == attr for name, attr in scope.items()):
            # π_B(π_A(x)) = π_B(x), as the canonical form merges two
            # projections that no rename stands between.
            return B.project(expression.child, attributes), outputs
        if set(attributes) == expression.schema.name_set:
            # Every column kept: the tree keeps its order, as its canonical
            # form would, and the scope keeps the select list's.
            return expression, outputs
        return B.project(expression, attributes), outputs

    # ------------------------------------------------------------------
    # table references
    # ------------------------------------------------------------------
    def _translate_table_reference(self, reference: ast.TableReference) -> tuple[Expression, dict[str, str]]:
        if isinstance(reference, ast.TableName):
            schema = self._table_schema(reference.name)
            columns = {name: name for name in schema.names}
            return B.ref(reference.name, schema), _qualify(columns, reference.effective_name)
        if isinstance(reference, ast.SubqueryTable):
            inner, inner_scope = self._translate_statement(reference.query)
            return inner, _qualify(inner_scope, reference.alias)
        if isinstance(reference, ast.DivideTable):
            return self._translate_divide(reference)
        raise SQLTranslationError(f"unsupported table reference {reference!r}")

    def _translate_divide(self, reference: ast.DivideTable) -> tuple[Expression, dict[str, str]]:
        dividend, dividend_scope = self._translate_table_reference(reference.dividend)
        divisor, divisor_scope = self._translate_table_reference(reference.divisor)
        _disjoint(dividend_scope, divisor_scope)
        scope = {**dividend_scope, **divisor_scope}
        pairs = self._equi_join_pairs(reference.condition, dividend_scope, scope)
        if not pairs:
            raise SQLTranslationError(
                "the ON clause of DIVIDE BY must be a conjunction of equalities between "
                "dividend and divisor columns"
            )
        # The divisor's join attributes take the dividend's names, so the
        # division operators see them as the shared attribute set B; a
        # divisor-only attribute that the dividend also names is moved apart.
        joined = {divisor_attr: dividend_attr for dividend_attr, divisor_attr in pairs}
        divisor_only = {name: attr for name, attr in divisor_scope.items() if attr not in joined}
        dividend, dividend_scope, divisor, divisor_only = _apart(dividend, dividend_scope, divisor, divisor_only, joined)
        expression = (B.great_divide if divisor_only else B.divide)(dividend, divisor)
        kept = expression.schema.name_set
        scope = {**dividend_scope, **divisor_only}
        return expression, {name: attr for name, attr in scope.items() if attr in kept}

    def _equi_join_pairs(self, condition: ast.Condition, dividend_scope: dict, scope: dict) -> list[tuple[str, str]]:
        """(dividend attribute, divisor attribute) per ON equality; ``scope``
        holds both operands' names, the divisor's being the ones not in
        ``dividend_scope``."""
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
            left_name, right_name = self._resolve(left, scope), self._resolve(right, scope)
            if (left_name in dividend_scope) == (right_name in dividend_scope):
                raise SQLTranslationError(
                    "each ON equality must relate one dividend column and one divisor column"
                )
            if right_name in dividend_scope:
                left_name, right_name = right_name, left_name
            pairs.append((scope[left_name], scope[right_name]))
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
            left, right = (self._translate_operand(side, scope) for side in (condition.left, condition.right))
            return P.Comparison(left, condition.operator, right)
        if isinstance(condition, ast.BooleanOp):
            operands = [self._translate_condition(op, scope) for op in condition.operands]
            return P.And(*operands) if condition.operator == "AND" else P.Or(*operands)
        if isinstance(condition, ast.NotCondition):
            return P.Not(self._translate_condition(condition.operand, scope))
        raise SQLTranslationError(f"unsupported condition {condition!r} in this context")

    def _translate_operand(self, operand: ast.Operand, scope: dict[str, str]):
        if isinstance(operand, ast.Literal):
            return P.lit(operand.value)
        return P.attr(scope[self._resolve(operand, scope)])

    @staticmethod
    def _resolve(column: ast.ColumnRef, scope: dict[str, str]) -> str:
        """The name in ``scope`` that ``column`` refers to."""
        if column.qualifier is not None:
            qualified = f"{column.qualifier}.{column.name}"
            if qualified in scope:
                return qualified
            raise SQLTranslationError(f"unknown column {qualified!r}; in scope: {sorted(scope)}")
        matches = [name for name in scope if name == column.name or name.endswith(f".{column.name}")]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise SQLTranslationError(f"unknown column {column.name!r}; in scope: {sorted(scope)}")
        raise SQLTranslationError(f"ambiguous column {column.name!r}: {sorted(matches)}")

    # ------------------------------------------------------------------
    # universal quantification (query Q3)
    # ------------------------------------------------------------------
    def _translate_universal(
        self, statement: ast.SelectStatement, pattern: UniversalQuantificationPattern
    ) -> tuple[Expression, dict[str, str]]:
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
            filters = pattern.divisor_filters
            predicate = P.conjunction(P.Comparison(P.attr(c), op, P.lit(value)) for c, op, value in filters)
            divisor = B.select(divisor, predicate)
        divisor = B.project(divisor, list(divisor_b) + list(pattern.c_columns))
        renames = {divisor_attr: dividend_attr for dividend_attr, divisor_attr in pattern.b_pairs if divisor_attr != dividend_attr}
        if renames:
            divisor = B.rename(divisor, renames)

        if self.recognize_division:
            divided = (B.great_divide if pattern.is_great_divide else B.divide)(dividend, divisor)
        else:
            divided = self._simulate_division(dividend, divisor, dividend_a, pattern)

        scope = {name: name for name in divided.schema.names}
        return self._apply_select_list(divided, statement, scope)

    def _simulate_division(
        self, dividend: Expression, divisor: Expression, dividend_a: list[str], pattern: UniversalQuantificationPattern
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


def _qualify(scope: dict[str, str], alias: str) -> dict[str, str]:
    """``scope`` seen through a FROM item's ``alias``: ``alias.column`` names."""
    names = [f"{alias}.{name.split('.')[-1]}" for name in scope]
    qualified = dict(zip(names, scope.values()))
    if len(qualified) < len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise SQLTranslationError(f"subquery {alias} repeats column names {repeated}")
    return qualified


def _disjoint(scope: dict[str, str], item_scope: dict[str, str]) -> None:
    overlap = scope.keys() & item_scope.keys()
    if overlap:
        raise SQLTranslationError(f"duplicate correlation names for attributes {sorted(overlap)}")


def _apart(
    left: Expression, left_scope: dict[str, str], right: Expression, right_scope: dict[str, str], joined=None
) -> tuple[Expression, dict[str, str], Expression, dict[str, str]]:
    """Name ``right``'s attributes apart from ``left``'s.

    The attributes in ``joined`` (a divisor's ON attributes) take the
    ``left`` attribute it maps them to; ``right_scope`` names every other
    attribute of ``right``.  Each of those, in ``right``'s column order (its
    canonical form's: no projection that keeps every column is emitted
    below the root), keeps its own name if no ``left`` attribute or earlier
    choice holds it, else takes its ``alias.column`` name.  If both are
    held, both operands take their ``alias.column`` names throughout, which
    the text's distinct correlation names keep apart.  This is the choice,
    in the same order, that canonicalization makes when it hoists the
    operands' qualifying renames, and the tree it leaves when it cannot, so
    the translated tree is already canonical.

    Returns both operands and both scopes, renamed.
    """
    joined = joined or {}
    names = {attribute: name for name, attribute in right_scope.items()}
    mapping = dict(joined)
    taken = set(left.schema.names)
    for attribute in right.schema.names:
        if attribute in mapping:
            continue
        free = [name for name in (attribute, names[attribute]) if name not in taken]
        if not free:
            qualified = {attr: name for name, attr in left_scope.items()}
            mapping = {**names, **{old: qualified[new] for old, new in joined.items()}}
            left, left_scope = _renamed(left, left_scope, qualified)
            break
        mapping[attribute] = free[0]
        taken.add(free[0])
    right, right_scope = _renamed(right, right_scope, mapping)
    return left, left_scope, right, right_scope


def _renamed(expression: Expression, scope: dict[str, str], mapping: dict[str, str]) -> tuple[Expression, dict[str, str]]:
    """``expression`` and ``scope`` with attributes renamed per ``mapping``."""
    effective = {old: new for old, new in mapping.items() if old != new}
    if not effective:
        return expression, scope
    renamed = {name: mapping.get(attribute, attribute) for name, attribute in scope.items()}
    return B.rename(expression, effective), renamed


def translate_sql(
    query: str,
    catalog: Mapping[str, Relation],
    recognize_division: bool = True,
) -> Expression:
    """Convenience wrapper: parse and translate ``query`` against ``catalog``."""
    return SQLTranslator(catalog, recognize_division=recognize_division).translate(query)
