"""Faults while a stored table builds its summaries: typed, and nothing kept.

A division over a stored dividend reads the table's pages once, through
``TableReader.iter_block_columns``, to build the containment bitmap (and a
filter's frequencies) it then keeps.  Under an injected ``raise`` or
``corrupt`` at ``storage.block_read`` that first division raises the typed
error and the ``StoredRelation`` keeps no summary, so nothing half-built is
ever read; disarmed, the same query returns the exact quotient.  A
``delay`` is absorbed: the exact quotient.
"""

import pytest

import repro
from repro.algebra.catalog import Catalog
from repro.division import great_divide
from repro.errors import InjectedFaultError, StorageCorruptionError
from repro.faults import (
    FaultPlan,
    FaultSpec,
    clear_plan,
    injection_counters,
    install_plan,
    reset_counters,
)
from repro.relation import Relation
from repro.storage.store import save_database

DIVIDEND = Relation(["a", "b"], [(a, b) for a in range(30) for b in range(6) if (a + b) % 4])
DIVISOR = Relation(["b", "c"], [(1, "x"), (2, "x"), (3, "y"), (5, "y")])
QUERIES = {
    "whole": "SELECT a, c FROM r AS x DIVIDE BY s AS y ON x.b = y.b",
    "filtered": (
        "SELECT a, c FROM (SELECT a, b FROM r WHERE a < 20) AS x DIVIDE BY s AS y ON x.b = y.b"
    ),
}
EXPECTED = {
    "whole": great_divide(DIVIDEND, DIVISOR),
    "filtered": great_divide(DIVIDEND.select(lambda row: row["a"] < 20), DIVISOR),
}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("summary-faults")
    catalog = Catalog()
    catalog.add_table("r", DIVIDEND)
    catalog.add_table("s", DIVISOR)
    save_database(path, catalog, block_size=16)
    return path


@pytest.fixture(autouse=True)
def disarmed():
    clear_plan()
    reset_counters()
    yield
    clear_plan()
    reset_counters()


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize(
    "action, error", [("raise", InjectedFaultError), ("corrupt", StorageCorruptionError)]
)
def test_a_failed_read_keeps_no_summary(store, query, action, error):
    db = repro.connect(store, result_cache_size=0)
    stored = db.relation("r")
    install_plan(FaultPlan((FaultSpec(point="storage.block_read", action=action),)))
    with pytest.raises(error):
        db.sql(QUERIES[query]).run()
    assert injection_counters().get("storage.block_read", 0) >= 1
    assert not stored._summaries
    assert not stored.is_loaded and stored._encoding is None
    clear_plan()
    assert db.sql(QUERIES[query]).run().relation == EXPECTED[query]
    assert stored._summaries  # built by the clean run, and kept


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_a_delayed_read_is_exact(store, query):
    db = repro.connect(store, result_cache_size=0)
    spec = FaultSpec(point="storage.block_read", action="delay", delay_seconds=0.001)
    install_plan(FaultPlan((spec,)))
    assert db.sql(QUERIES[query]).run().relation == EXPECTED[query]
    assert injection_counters().get("storage.block_read", 0) >= 1
    assert db.relation("r")._summaries
