"""The SQL queries of Section 4 (Q1, Q2, Q3) as reusable experiment inputs.

:func:`run_query` is kept as a thin shim over the public session API
(:func:`repro.connect`): translation, rewriting and execution all happen in
one :class:`~repro.api.database.Database` pass, and the returned
:class:`QueryExperiment` now also carries the full
:class:`~repro.api.result.QueryResult` for statistics-aware callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.catalog import Catalog
from repro.algebra.expressions import Expression
from repro.api.database import Database
from repro.api.result import QueryResult
from repro.relation.relation import Relation

__all__ = ["Q1", "Q2", "Q3", "Q2_NOT_EXISTS", "QueryExperiment", "run_query", "q1_equals_q3"]

#: Query Q1: for each color, the suppliers that supply all parts of that color.
Q1 = "SELECT s_no, color FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no"

#: Query Q2: the suppliers that supply all blue parts.
Q2 = (
    "SELECT s_no FROM supplies AS s DIVIDE BY ("
    "SELECT p_no FROM parts WHERE color = 'blue') AS p ON s.p_no = p.p_no"
)

#: Query Q3: the double-NOT-EXISTS formulation equivalent to Q1.
Q3 = """
    SELECT DISTINCT s_no, color
    FROM supplies AS s1, parts AS p1
    WHERE NOT EXISTS (
        SELECT * FROM parts AS p2
        WHERE p2.color = p1.color AND NOT EXISTS (
            SELECT * FROM supplies AS s2
            WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))
"""

#: The NOT EXISTS formulation of Q2 (used by the recognizer experiments).
Q2_NOT_EXISTS = """
    SELECT DISTINCT s_no
    FROM supplies AS s1
    WHERE NOT EXISTS (
        SELECT * FROM parts AS p2
        WHERE p2.color = 'blue' AND NOT EXISTS (
            SELECT * FROM supplies AS s2
            WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))
"""


@dataclass(frozen=True)
class QueryExperiment:
    """One executed query: its translation and its result."""

    sql: str
    expression: Expression
    result: Relation
    #: Full execution details (rules fired, tuple counts, timing).
    details: QueryResult


def run_query(
    sql: str,
    catalog: Catalog,
    recognize_division: bool = True,
    database: Optional[Database] = None,
) -> QueryExperiment:
    """Translate and execute ``sql`` against ``catalog`` — one execution.

    A thin shim over the session API; pass an existing ``database`` (over
    the same catalog) to reuse its prepared-plan cache across queries.
    """
    db = database if database is not None else Database(catalog)
    outcome = db.sql(sql, recognize_division=recognize_division).run()
    return QueryExperiment(
        sql=sql, expression=outcome.expression, result=outcome.relation, details=outcome
    )


def q1_equals_q3(catalog: Catalog) -> bool:
    """The paper's claim that Q1 and Q3 denote the same result."""
    q1 = run_query(Q1, catalog).result
    q3 = run_query(Q3, catalog).result
    return q1 == q3
