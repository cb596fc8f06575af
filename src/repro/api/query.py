"""Lazy query objects: SQL text or fluent algebra, one execution path.

A :class:`Query` is a thin immutable wrapper around a logical expression
(or SQL text translated on first use) bound to a
:class:`~repro.api.database.Database`.  Fluent combinators build new
queries; nothing touches data until :meth:`Query.run`.

The fluent ``divide``/``great_divide`` combinators follow exactly the rule
the SQL frontend applies to ``DIVIDE BY … ON …`` (Section 4 of the paper):
divisor join attributes are renamed to the dividend's names, and the
operator is a small divide when the ON pairs cover *every* divisor
attribute, a great divide otherwise.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.algebra.expressions import AggregateSpec, Expression, GreatDivide
from repro.errors import ExpressionError
from repro.relation.relation import Relation
from repro.relation.schema import AttributeNames

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.findings import VerificationReport
    from repro.api.database import Database
    from repro.api.result import QueryResult

__all__ = ["Query"]

#: Things accepted wherever a query operand is expected.
QueryLike = Union["Query", Expression, str]

#: Accepted spellings of the ``on`` argument of ``divide``: a single
#: attribute name, or a sequence whose items are names (same on both sides)
#: or ``(dividend_attr, divisor_attr)`` pairs.  A bare top-level tuple is a
#: sequence of *names*, exactly like a list — pairs must be nested
#: (``on=[("p_no", "part")]``) so that ``("a", "b")`` can never silently
#: mean one pair when two join attributes were intended.
OnClause = Union[str, Sequence[Union[str, tuple[str, str]]]]


class Query:
    """A lazy query bound to a database session."""

    __slots__ = ("_database", "_expression", "_sql", "_recognize_division")

    def __init__(
        self,
        database: "Database",
        expression: Optional[Expression] = None,
        sql: Optional[str] = None,
        recognize_division: bool = True,
    ) -> None:
        if (expression is None) == (sql is None):
            raise ExpressionError("Query needs exactly one of an expression or SQL text")
        self._database = database
        self._expression = expression
        self._sql = sql
        self._recognize_division = recognize_division

    # ------------------------------------------------------------------
    # lazy translation
    # ------------------------------------------------------------------
    @property
    def expression(self) -> Expression:
        """The logical expression (SQL is translated on first access)."""
        if self._expression is None:
            self._expression = self._database._translate(self._sql, self._recognize_division)
        return self._expression

    @property
    def sql(self) -> Optional[str]:
        """The SQL text this query came from, if any."""
        return self._sql

    @property
    def database(self) -> "Database":
        """The session this query is bound to."""
        return self._database

    @property
    def schema(self):
        """Output schema of the query."""
        return self.expression.schema

    def fingerprint(self) -> str:
        """Canonical fingerprint (identical for equivalent formulations)."""
        return self.expression.fingerprint()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> "QueryResult":
        """Optimize (or fetch the prepared plan) and execute — exactly once."""
        return self._database._run(self)

    def prepare(self) -> "Query":
        """Force rewrite + planning now and pin the plan in the cache."""
        self._database._prepare(self.expression)
        return self

    def explain(self, analyze: bool = False, verify: bool = False) -> str:
        """Before/after logical trees plus the physical plan.

        With ``analyze=True`` the plan is executed once and actual
        per-operator tuple counts are shown next to the estimates.  With
        ``verify=True`` the static verifier runs over the prepared plan and
        a ``verification`` status line (plus any findings) is included.
        """
        from repro.api.explain import render_explain

        return render_explain(self._database, self, analyze=analyze, verify=verify)

    def verify(self) -> "VerificationReport":
        """Statically verify this query's prepared plan.

        Runs the logical and physical passes over the canonical
        expression, the rewritten expression and the physical plan,
        returning a
        :class:`~repro.analysis.findings.VerificationReport`.  Nothing is
        executed.
        """
        from repro.analysis.check import verify_prepared

        prepared, _cached = self._database._prepare(self.expression)
        return verify_prepared(prepared, self._database.catalog)

    # ------------------------------------------------------------------
    # fluent combinators (each returns a new lazy Query)
    # ------------------------------------------------------------------
    def project(self, attributes: AttributeNames) -> "Query":
        """π_attributes — keep only the given attributes."""
        return self._derive(B.project(self.expression, attributes))

    def where(self, predicate: Optional[P.Predicate] = None, **equalities: Any) -> "Query":
        """σ_p — keep rows matching a predicate and/or keyword equalities.

        ``where(color="blue")`` is shorthand for
        ``where(P.equals(P.attr("color"), "blue"))``; both spellings compose
        with AND.
        """
        parts: list[P.Predicate] = []
        if predicate is not None:
            parts.append(predicate)
        parts.extend(P.equals(P.attr(name), value) for name, value in sorted(equalities.items()))
        if not parts:
            raise ExpressionError("where() needs a predicate or keyword equalities")
        return self._derive(B.select(self.expression, P.conjunction(parts)))

    def rename(self, mapping: Mapping[str, str]) -> "Query":
        """ρ — rename attributes."""
        return self._derive(B.rename(self.expression, mapping))

    def group_by(
        self,
        grouping: AttributeNames,
        aggregates: Optional[Sequence[AggregateSpec]] = None,
        **named: Union[AggregateSpec, tuple[str, Optional[str]]],
    ) -> "Query":
        """Gγ — group and aggregate.

        Aggregates are :class:`AggregateSpec` objects, or keyword shorthand
        ``output=(function, attribute)``, e.g. ``n_parts=("count", "p_no")``.
        """
        specs = list(aggregates or [])
        for output, spec in sorted(named.items()):
            if isinstance(spec, AggregateSpec):
                specs.append(AggregateSpec(spec.function, spec.attribute, output))
            else:
                function, attribute = spec
                specs.append(AggregateSpec(function, attribute, output))
        return self._derive(B.group_by(self.expression, grouping, specs))

    def union(self, other: QueryLike) -> "Query":
        """Set union."""
        return self._derive(B.union(self.expression, self._resolve(other)))

    def intersect(self, other: QueryLike) -> "Query":
        """Set intersection."""
        return self._derive(B.intersection(self.expression, self._resolve(other)))

    def difference(self, other: QueryLike) -> "Query":
        """Set difference."""
        return self._derive(B.difference(self.expression, self._resolve(other)))

    def product(self, other: QueryLike) -> "Query":
        """Cartesian product."""
        return self._derive(B.product(self.expression, self._resolve(other)))

    def join(self, other: QueryLike) -> "Query":
        """Natural join on the shared attributes."""
        return self._derive(B.natural_join(self.expression, self._resolve(other)))

    def theta_join(self, other: QueryLike, predicate: P.Predicate) -> "Query":
        """Theta-join over disjoint attribute sets."""
        return self._derive(B.theta_join(self.expression, self._resolve(other), predicate))

    def semijoin(self, other: QueryLike) -> "Query":
        """Left semi-join."""
        return self._derive(B.semijoin(self.expression, self._resolve(other)))

    def antijoin(self, other: QueryLike) -> "Query":
        """Left anti-semi-join."""
        return self._derive(B.antijoin(self.expression, self._resolve(other)))

    def outer_join(self, other: QueryLike) -> "Query":
        """Left outer join."""
        return self._derive(B.outer_join(self.expression, self._resolve(other)))

    def divide(self, divisor: QueryLike, on: Optional[OnClause] = None) -> "Query":
        """Relational division, with the paper's ``DIVIDE BY … ON`` semantics.

        ``on`` lists the join attributes as names (same on both sides) or
        nested ``(dividend_attr, divisor_attr)`` pairs, e.g.
        ``on="p_no"`` or ``on=[("p_no", "part")]``; omitted, it defaults to
        all shared attributes.  The result is a small divide when the pairs
        cover every divisor attribute, a great divide otherwise — the same
        rule the SQL frontend applies.
        """
        dividend = self.expression
        divisor_expression = self._resolve(divisor)
        pairs = self._on_pairs(dividend, divisor_expression, on)
        renames = {
            divisor_attr: dividend_attr
            for dividend_attr, divisor_attr in pairs
            if divisor_attr != dividend_attr
        }
        renamed: Expression = (
            B.rename(divisor_expression, renames) if renames else divisor_expression
        )
        covered = {dividend_attr for dividend_attr, _ in pairs}
        divisor_only = [name for name in renamed.schema.names if name not in covered]
        if divisor_only:
            return self._derive(B.great_divide(dividend, renamed))
        return self._derive(B.divide(dividend, renamed))

    def great_divide(self, divisor: QueryLike, on: Optional[OnClause] = None) -> "Query":
        """Force a great divide (``divide`` picks the operator automatically)."""
        query = self.divide(divisor, on=on)
        if not isinstance(query.expression, GreatDivide):
            raise ExpressionError(
                "the ON attributes cover the whole divisor; this is a small divide — "
                "use divide() or add a grouping attribute to the divisor"
            )
        return query

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _derive(self, expression: Expression) -> "Query":
        return Query(self._database, expression=expression)

    def _resolve(self, operand: QueryLike) -> Expression:
        if isinstance(operand, Query):
            return operand.expression
        if isinstance(operand, Expression):
            return operand
        if isinstance(operand, str):
            return self._database.table(operand).expression
        if isinstance(operand, Relation):
            return B.literal(operand)
        raise ExpressionError(f"cannot use {operand!r} as a query operand")

    @staticmethod
    def _on_pairs(
        dividend: Expression,
        divisor: Expression,
        on: Optional[OnClause],
    ) -> list[tuple[str, str]]:
        dividend_names = dividend.schema.name_set
        divisor_names = divisor.schema.name_set
        if on is None:
            shared = [name for name in divisor.schema.names if name in dividend_names]
            if not shared:
                raise ExpressionError(
                    "divide() found no shared attributes; pass on=[(dividend_attr, "
                    "divisor_attr), ...] to name the join attributes"
                )
            return [(name, name) for name in shared]
        items: Sequence[Union[str, tuple[str, str]]] = [on] if isinstance(on, str) else list(on)
        pairs: list[tuple[str, str]] = []
        for item in items:
            if isinstance(item, str):
                pair = (item, item)
            elif isinstance(item, (tuple, list)) and len(item) == 2:
                pair = (item[0], item[1])
            else:
                raise ExpressionError(
                    f"each ON item must be an attribute name or a (dividend_attr, "
                    f"divisor_attr) pair, got {item!r}"
                )
            dividend_attr, divisor_attr = pair
            if dividend_attr not in dividend_names:
                raise ExpressionError(f"ON attribute {dividend_attr!r} is not in the dividend")
            if divisor_attr not in divisor_names:
                raise ExpressionError(f"ON attribute {divisor_attr!r} is not in the divisor")
            pairs.append(pair)
        return pairs

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Compact rendering of the underlying logical expression."""
        return self.expression.to_text()

    def __repr__(self) -> str:
        if self._expression is None:
            return f"<Query sql={self._sql!r}>"
        return f"<Query {self._expression.to_text()}>"
