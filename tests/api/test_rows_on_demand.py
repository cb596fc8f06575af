"""Booby trap: a query result builds no ``Row`` until someone asks for one.

A σ-small and a σ-great divide over a 100k-tuple dividend run through
``db.sql(...).run()`` with warm plans and no result cache, and a maintained
view is read after an edit.  ``Row.block``, ``Row.from_schema`` and
``Row.__init__`` are trapped; none may run until ``result.rows()``, and
what the rows then say must be the reference quotient.
"""

import random
from collections import Counter
from contextlib import contextmanager

import pytest

import repro
from repro.division import great_divide, small_divide
from repro.relation import Relation, Row

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


@contextmanager
def trapped_rows(monkeypatch):
    """Count every call of the three ways a ``Row`` comes to exist."""
    calls = Counter()

    def counted(name, function):
        def trapped(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return trapped

    with monkeypatch.context() as patch:
        patch.setattr(Row, "block", classmethod(counted("block", Row.block.__func__)))
        patch.setattr(
            Row, "from_schema", classmethod(counted("from_schema", Row.from_schema.__func__))
        )
        patch.setattr(Row, "__init__", counted("__init__", Row.__init__))
        yield calls


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
