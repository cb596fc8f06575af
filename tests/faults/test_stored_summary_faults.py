"""Faults while a stored table builds or reads its summaries: typed, and
nothing kept.

A division over a stored dividend reads the table's pages once, through
``TableReader.iter_block_columns``, to build the containment bitmap (and a
filter's frequencies) it then keeps — or, when a save wrote the bitmap into
the file's summary section, reads that section once instead.  Under an
injected ``raise`` or ``corrupt`` at ``storage.block_read`` that first
division raises the typed error and the ``StoredRelation`` keeps no
summary, so nothing half-built is ever read; disarmed, the same query
returns the exact quotient.  A ``delay`` is absorbed: the exact quotient.
A damaged section on disk fails the same way, naming the file, and a save
of a session holding bitmaps that is interrupted leaves the committed
store as it was.
"""

import shutil

import pytest

import repro
from repro.algebra.catalog import Catalog
from repro.division import great_divide
from repro.errors import InjectedFaultError, StorageCorruptionError, StorageError
from repro.faults import (
    FaultPlan,
    FaultSpec,
    clear_plan,
    injection_counters,
    install_plan,
    reset_counters,
)
from repro.relation import Relation
from repro.storage import store as store_module
from repro.storage.format import SUMMARY_MAGIC, TableReader
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


@pytest.fixture(scope="module")
def sectioned(store, tmp_path_factory):
    """The store re-saved by a session holding ``r``'s bitmap: its file
    carries a summary section."""
    path = tmp_path_factory.mktemp("summary-section")
    db = repro.connect(store, result_cache_size=0)
    db.sql(QUERIES["whole"]).run()
    db.save(path, block_size=16)
    return path


def damaged(sectioned, tmp_path, damage):
    """A copy of the sectioned store with ``damage(bytes, section start)``
    applied to ``r``'s file; returns the copy and that file."""
    target = tmp_path / "store"
    shutil.copytree(sectioned, target)
    victim = next(path for path in target.glob("*.rpb") if TableReader(path).table == "r")
    data = victim.read_bytes()
    start = data.rindex(SUMMARY_MAGIC)
    victim.write_bytes(damage(data, start))
    return target, victim


def assert_first_division_fails(target, error):
    db = repro.connect(target, result_cache_size=0)
    stored = db.relation("r")
    with pytest.raises(error) as raised:
        db.sql(QUERIES["whole"]).run()
    assert not stored._summaries and stored._section is None
    return raised.value


def flip(data, start):
    mutated = bytearray(data)
    mutated[(start + len(data)) // 2] ^= 0x04  # inside the section's words
    return bytes(mutated)


def test_a_flipped_bit_in_the_section_is_a_typed_error(sectioned, tmp_path):
    target, victim = damaged(sectioned, tmp_path, flip)
    error = assert_first_division_fails(target, StorageCorruptionError)
    assert error.file == str(victim) and "summary section checksum mismatch" in str(error)


@pytest.mark.parametrize("keep", [4, 30, -8], ids=["in-the-magic", "in-the-body", "last-word"])
def test_a_truncated_section_is_a_typed_error(sectioned, tmp_path, keep):
    def truncate(data, start):
        return data[: start + keep] if keep > 0 else data[:keep]

    target, victim = damaged(sectioned, tmp_path, truncate)
    error = assert_first_division_fails(target, StorageError)
    assert str(victim) in str(error) and "summary section incomplete" in str(error)


def test_bytes_that_are_no_section_are_a_typed_error(sectioned, tmp_path):
    def rename(data, start):
        return data[:start] + b"RPROXXX1" + data[start + len(SUMMARY_MAGIC) :]

    target, _victim = damaged(sectioned, tmp_path, rename)
    assert "no summary section" in str(assert_first_division_fails(target, StorageError))


@pytest.mark.parametrize(
    "action, error", [("raise", InjectedFaultError), ("corrupt", StorageCorruptionError)]
)
def test_a_failed_section_read_keeps_no_summary(sectioned, action, error):
    db = repro.connect(sectioned, result_cache_size=0)
    stored = db.relation("r")
    install_plan(FaultPlan((FaultSpec(point="storage.block_read", action=action),)))
    with pytest.raises(error):
        stored.reader.summary_section()
    reset_counters()
    with pytest.raises(error):
        db.sql(QUERIES["whole"]).run()
    assert injection_counters().get("storage.block_read", 0) >= 1
    assert not stored._summaries and stored._section is None
    clear_plan()
    assert db.sql(QUERIES["whole"]).run().relation == EXPECTED["whole"]
    assert list(stored._section) == [(0, 1)]  # read from the section, and kept
    assert stored._summaries[("containment", 0, 1)][-1] == "read from the store"


def test_an_interrupted_save_of_held_bitmaps_leaves_the_store_as_committed(
    sectioned, tmp_path, monkeypatch
):
    """The save into the committed store fails after ``r``'s new file —
    section and all — is written: every committed byte stays, no debris."""
    target = tmp_path / "store"
    shutil.copytree(sectioned, target)
    committed = {path.name: path.read_bytes() for path in target.iterdir()}
    db = repro.connect(target, result_cache_size=0)
    db.sql(QUERIES["filtered"]).run()
    assert db.relation("r")._summaries
    assemble = store_module.assemble_table_file

    def written_then_armed(*args, **kwargs):
        path = assemble(*args, **kwargs)
        install_plan(FaultPlan((FaultSpec(point="storage.table_write"),)))
        return path

    monkeypatch.setattr(store_module, "assemble_table_file", written_then_armed)
    with pytest.raises(InjectedFaultError):
        db.save(target, block_size=16)
    clear_plan()
    assert {path.name: path.read_bytes() for path in target.iterdir()} == committed
    fresh = repro.connect(target, result_cache_size=0)
    assert fresh.sql(QUERIES["whole"]).run().relation == EXPECTED["whole"]
    assert list(fresh.relation("r")._section) == [(0, 1)]


def test_a_resave_of_a_flipped_section_raises_and_writes_nothing(sectioned, tmp_path):
    """The section a save carries forward is checked as it is read: a
    damaged one raises instead of being copied."""
    target, victim = damaged(sectioned, tmp_path, flip)
    db = repro.connect(target, result_cache_size=0)
    with pytest.raises(StorageCorruptionError) as raised:
        db.save(tmp_path / "copy", block_size=16)
    assert raised.value.file == str(victim)
    assert list((tmp_path / "copy").iterdir()) == []
