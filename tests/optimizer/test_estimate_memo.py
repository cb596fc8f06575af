"""The estimate memo: each node once per call, and nothing outlives the call.

``PhysicalPlanner.plan`` and the top-level ``PhysicalCostModel.plan_cost``
memoize cardinality estimates by node for the length of the call.  The
plans, prices and ``explain()`` text must be those of the unmemoized
estimator, a statistics refresh between two calls must be seen, and the
memo must be gone after every call, however it ends.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.algebra import builders as B
from repro.algebra.expressions import Expression, SmallDivide
from repro.errors import PlanningError
from repro.optimizer.statistics import CardinalityEstimator
from repro.relation import Relation
from tests.strategies import TABLES, expressions


def tables():
    rows = [(a, b) for a in range(6) for b in range(4) if (a + b) % 3]
    return {
        "r1": Relation(TABLES["r1"], rows),
        "r2": Relation(TABLES["r2"], [(1,), (2,)]),
        "r3": Relation(TABLES["r3"], [(b, b % 2) for b in range(4)]),
    }


@contextmanager
def never_open(self):
    yield


def estimators(db):
    """The estimators of the query planner and of the operand planner."""
    optimizer = db.optimizer
    planners = (optimizer._planner, optimizer._rewriter.context._planner)
    return [planner.cost_model.estimator for planner in planners]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expressions())
def test_explain_is_byte_identical_without_the_memo(expression):
    memoized = repro.connect(tables()).query(expression).explain()
    with mock.patch.object(CardinalityEstimator, "_memoized", never_open):
        plain = repro.connect(tables()).query(expression).explain()
    assert memoized == plain


def test_an_insert_between_two_plans_moves_the_estimates():
    db = repro.connect(tables())
    query = db.table("r1").divide(db.table("r2"))
    before = db.optimizer.cost(query.expression)
    db.insert("r1", [(a, b) for a in range(10, 40) for b in range(4)])
    query.run()  # refreshes the statistics of the edited table
    after = db.optimizer.cost(query.expression)
    assert after > before
    fresh = repro.connect({name: db.relation(name) for name in TABLES})
    assert after == fresh.optimizer.cost(query.expression)
    fresh.query(query.expression).run()  # both plans cached: explain says "hit"
    assert db.query(query.expression).explain() == fresh.query(query.expression).explain()


def test_the_memo_is_dropped_after_plan_and_after_plan_cost():
    db = repro.connect(tables())
    expression = db.table("r1").divide(db.table("r2")).expression
    optimizer = db.optimizer
    plan = optimizer.plan(expression)
    assert all(estimator._memo is None for estimator in estimators(db))
    optimizer.cost(expression, plan)
    assert all(estimator._memo is None for estimator in estimators(db))
    db.sql("SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b").run()
    assert all(estimator._memo is None for estimator in estimators(db))


def test_the_memo_is_dropped_when_planning_fails():
    class Unplannable(Expression):
        children = ()

        def _signature(self):
            return ("unplannable",)

        def _infer_schema(self):
            return B.ref("r2", TABLES["r2"]).schema

    db = repro.connect(tables())
    with pytest.raises(PlanningError, match="no physical mapping"):
        db.optimizer.plan(SmallDivide(B.ref("r1", TABLES["r1"]), Unplannable()))
    assert all(estimator._memo is None for estimator in estimators(db))
