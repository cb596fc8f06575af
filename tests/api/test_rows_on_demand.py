"""Booby trap: a query result builds no ``Row`` until someone asks for one.

A σ-small and a σ-great divide over a 100k-tuple dividend run through
``db.sql(...).run()`` with warm plans and no result cache, and a maintained
view is read after an edit.  ``Row.block``, ``Row.from_schema`` and
``Row.__init__`` are trapped; none may run until ``result.rows()``, and
what the rows then say must be the reference quotient.  A cold σ-small
divide covers the rewrite too: the laws' preconditions run on the physical
engine, so the logical interpreter (every ``Expression.evaluate``) and
``Relation.select`` are trapped as well.  The same query also holds every
result to its code columns — no ``CodeColumn.values`` decode and no
``Relation._from_block`` set pass before the tuples are asked for — and the
rewrite to one plan per operand, the divisor none at all when Law 12 refuses
its dividend.  Its front end is held to computing each derived fact once:
every node's raw signature at most once in the whole query, and every
node's cardinality estimate at most once per ``plan()`` call.
"""

import random
from collections import Counter
from contextlib import contextmanager

import pytest

import repro
from repro.algebra.expressions import Expression
from repro.division import great_divide, small_divide
from repro.laws.small_divide.grouping import Law12GroupedDivisorKey
from repro.optimizer.physical_cost import PhysicalCostModel
from repro.optimizer.planner import PhysicalPlanner
from repro.optimizer.statistics import CardinalityEstimator
from repro.relation import Relation, Row
from repro.relation.encoding import CodeColumn

SELECTED = "(SELECT s_no, p_no FROM supplies WHERE s_no < 2000) AS s"
QUERIES = {
    "small": f"SELECT s_no FROM {SELECTED} DIVIDE BY "
    "(SELECT p_no FROM parts WHERE color = 'red') AS p ON s.p_no = p.p_no",
    "great": f"SELECT s_no, color FROM {SELECTED} DIVIDE BY parts AS p ON s.p_no = p.p_no",
}


@pytest.fixture(scope="module")
def tables():
    """~102k supplies: every fifth supplier holds all 60 parts, the rest ~60%."""
    rng = random.Random(7)
    supplies = {
        (s, p) for s in range(2500) for p in range(60) if s % 5 == 0 or rng.random() < 0.6
    }
    parts = [(p, ("red", "green", "blue")[p % 3]) for p in range(60)]
    return {
        "supplies": Relation(["s_no", "p_no"], supplies),
        "parts": Relation(["p_no", "color"], parts),
    }


def reference(kind, supplies, parts):
    dividend = supplies.select(lambda row: row["s_no"] < 2000)
    if kind == "great":
        return great_divide(dividend, parts)
    return small_divide(dividend, parts.select(lambda row: row["color"] == "red").project(["p_no"]))


def counted(calls, name, function):
    """``function``, counting its calls in ``calls[name]``."""

    def trapped(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return trapped


@contextmanager
def trapped_rows(monkeypatch):
    """Count every call of the three ways a ``Row`` comes to exist."""
    calls = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(Row, "block", classmethod(counted(calls, "block", Row.block.__func__)))
        patch.setattr(
            Row,
            "from_schema",
            classmethod(counted(calls, "from_schema", Row.from_schema.__func__)),
        )
        patch.setattr(Row, "__init__", counted(calls, "__init__", Row.__init__))
        yield calls


def defining(method):
    """Every ``Expression`` class that defines its own ``method``."""
    found, pending = [], [Expression]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if method in vars(cls):
            found.append(cls)
    return found


def per_node(counts, function, position):
    """``function``, counting its calls per ``args[position]`` in ``counts``
    (the node is pinned beside its count, so no id is recycled)."""

    def trapped(*args):
        node = args[position]
        pinned, count = counts.get(id(node), (node, 0))
        counts[id(node)] = (pinned, count + 1)
        return function(*args)

    return trapped


def test_a_cold_selected_division_interprets_nothing_and_builds_no_rows(tables, monkeypatch):
    """A first-seen text: the rewrite asks Laws 11 and 12 about both
    σ-operands, and the physical engine answers without a ``Row``."""
    db = repro.connect(tables, result_cache_size=0)
    with trapped_rows(monkeypatch) as calls, monkeypatch.context() as patch:
        for cls in defining("evaluate"):
            patch.setattr(cls, "evaluate", counted(calls, "evaluate", vars(cls)["evaluate"]))
        patch.setattr(Relation, "select", counted(calls, "select", Relation.select))
        result = db.sql(QUERIES["small"]).run()
        assert not result.cache_hit and not result.rules_fired
        assert len(result) > 0 and sum(calls.values()) == 0, dict(calls)
        rows = set(result.rows())
        assert calls["block"] == 1 and calls["evaluate"] == calls["select"] == 0
    expected = reference("small", tables["supplies"], tables["parts"])
    assert rows == set(expected.rows) and result.relation == expected
    # The operands were planned apart from the query: its explain() names
    # its one division only.
    explained = db.sql(QUERIES["small"]).explain().split("Physical plan")[1]
    assert explained.count("_division") == 1 and explained.split()[0] == "hash_division"


def test_a_cold_selected_division_decodes_nothing_and_runs_each_operand_once(tables, monkeypatch):
    """Every result of a first-seen σ-small divide — the operand a law asks
    about and the quotient — stays code columns until the tuples are asked
    for; the rewrite plans the σ-dividend once for Laws 11 and 12 together,
    and Law 12 refuses it (``p_no`` is no key) without planning the divisor."""
    db = repro.connect(tables, result_cache_size=0)
    planner = db.optimizer._rewriter.context._planner
    plan, planned, calls = planner.plan, [], Counter()
    with monkeypatch.context() as patch:
        patch.setattr(CodeColumn, "values", counted(calls, "values", CodeColumn.values))
        patch.setattr(
            Relation,
            "_from_block",
            classmethod(counted(calls, "_from_block", Relation._from_block.__func__)),
        )
        patch.setattr(
            Law12GroupedDivisorKey,
            "try_apply",
            counted(calls, "law 12", Law12GroupedDivisorKey.try_apply),
        )
        patch.setattr(planner, "plan", lambda operand: planned.append(operand) or plan(operand))
        result = db.sql(QUERIES["small"]).run()
        assert not result.cache_hit and not result.rules_fired and len(result) > 0
        assert calls.pop("law 12") > 0
        assert dict(calls) == {}
        assert planned and len(set(planned)) == len(planned)
        assert all(expression.relation_names() == {"supplies"} for expression in planned)
        tuples = result.to_tuples()
        assert calls["values"] > 0 and calls["_from_block"] == 0
    expected = reference("small", tables["supplies"], tables["parts"])
    assert set(tuples) == expected.to_tuples() and result.relation == expected


@pytest.mark.parametrize("kind", sorted(QUERIES))
def test_a_selected_division_builds_no_rows_until_asked(tables, monkeypatch, kind):
    db = repro.connect(tables, result_cache_size=0)
    db.sql(QUERIES[kind]).run()  # plans warm: the trap covers execution, not the rewrite
    with trapped_rows(monkeypatch) as calls:
        result = db.sql(QUERIES[kind]).run()
        assert result.cache_hit and not result.result_cache_hit
        assert len(result) > 0 and len(result.to_tuples()) == len(result)
        assert sum(calls.values()) == 0, dict(calls)
        rows = set(result.rows())
        assert calls["block"] == 1
    expected = reference(kind, tables["supplies"], tables["parts"])
    assert rows == set(expected.rows)
    assert result.relation == expected


def test_a_maintained_view_read_builds_no_rows_until_asked(tables, monkeypatch):
    db = repro.connect(tables, result_cache_size=0)
    view = db.create_view("colours", db.table("supplies").great_divide(db.table("parts")))
    assert view.maintained and (0, "red") in view.run().to_tuples(["s_no", "color"])
    db.delete("supplies", [(0, 0)])  # part 0 is red: supplier 0 leaves that group
    with trapped_rows(monkeypatch) as calls:
        result = view.run()
        assert sum(calls.values()) == 0, dict(calls)
        rows = set(result.rows())
        assert calls["block"] == 1
    expected = great_divide(db.relation("supplies"), db.relation("parts"))
    assert rows == set(expected.rows) and (0, "red") not in result.to_tuples(["s_no", "color"])
    recompute = "SELECT s_no, color FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no"
    assert result.relation == expected == db.sql(recompute).run().relation


def test_a_cold_selected_division_derives_each_fact_once(tables, monkeypatch):
    """A first-seen σ-small divide computes each node's raw signature once
    in the whole query, and each node's estimate at most once per
    ``plan_cost()`` call, however often the node is compared or hashed;
    planning without a budget estimates nothing."""
    db = repro.connect(tables, result_cache_size=0)
    signatures, estimates, per_plan, per_price = {}, {}, [], []

    def recorded(function, counts):
        def call(*args):
            estimates.clear()
            try:
                return function(*args)
            finally:
                counts.append(max((count for _, count in estimates.values()), default=0))

        return call

    with monkeypatch.context() as patch:
        for cls in defining("_signature"):
            patch.setattr(cls, "_signature", per_node(signatures, vars(cls)["_signature"], 0))
        patch.setattr(
            CardinalityEstimator,
            "_estimate",
            per_node(estimates, CardinalityEstimator._estimate, 1),
        )
        patch.setattr(PhysicalPlanner, "plan", recorded(PhysicalPlanner.plan, per_plan))
        patch.setattr(
            PhysicalCostModel, "plan_cost", recorded(PhysicalCostModel.plan_cost, per_price)
        )
        result = db.sql(QUERIES["small"]).run()
    assert not result.cache_hit and len(result) > 0
    assert signatures and max(count for _, count in signatures.values()) == 1
    assert per_plan and max(per_plan) == 0, per_plan
    # The query's plan is priced, so estimates ran; none twice.
    assert per_price and max(per_price) == 1, per_price
    expected = reference("small", tables["supplies"], tables["parts"])
    assert result.relation == expected
