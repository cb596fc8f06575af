"""Crash-safe saves: an interrupted save never damages the committed store.

Each test arms a fault plan that kills the save at a different stage
(source block read, table-file write, manifest write) and then proves the
invariant the manifest-boundary commit guarantees: the previously committed
store loads byte-identically, and the failed save leaves no debris behind.
"""

import pytest

import repro
from repro.errors import InjectedFaultError, StorageCorruptionError, StorageError
from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan, reset_counters
from repro.relation import Relation
from repro.storage.store import MANIFEST_NAME, load_store, save_database


@pytest.fixture(autouse=True)
def disarmed():
    clear_plan()
    reset_counters()
    yield
    clear_plan()
    reset_counters()


def catalog_v1():
    from repro.algebra.catalog import Catalog

    catalog = Catalog()
    catalog.add_table("r1", Relation(("a", "b"), [(1, 1), (1, 2), (2, 1)]))
    catalog.add_table("r2", Relation(("b",), [(1,), (2,)]))
    return catalog


def catalog_v2():
    from repro.algebra.catalog import Catalog

    catalog = Catalog()
    catalog.add_table("r1", Relation(("a", "b"), [(9, 9)]))
    catalog.add_table("r2", Relation(("b",), [(9,)]))
    return catalog


def stored_tuples(path):
    catalog, _versions, _views = load_store(path)
    return {name: sorted(catalog[name].aligned_tuples()) for name in sorted(catalog)}


def stored_tuples_of(catalog):
    return {name: sorted(catalog[name].aligned_tuples()) for name in sorted(catalog)}


def store_files(path):
    return sorted(p.name for p in path.iterdir())


@pytest.mark.parametrize("point", ["storage.table_write", "storage.manifest_write"])
def test_failed_resave_leaves_previous_store_intact(tmp_path, point):
    save_database(tmp_path, catalog_v1())
    before_tuples = stored_tuples(tmp_path)
    before_files = store_files(tmp_path)

    install_plan(FaultPlan((FaultSpec(point=point, limit=1),)))
    with pytest.raises(InjectedFaultError):
        save_database(tmp_path, catalog_v2())
    clear_plan()

    # The committed store is untouched: same files, same data.
    assert store_files(tmp_path) == before_files
    assert stored_tuples(tmp_path) == before_tuples


@pytest.mark.parametrize("point", ["storage.table_write", "storage.manifest_write"])
def test_failed_first_save_leaves_no_store(tmp_path, point):
    install_plan(FaultPlan((FaultSpec(point=point, limit=1),)))
    with pytest.raises(InjectedFaultError):
        save_database(tmp_path, catalog_v1())
    clear_plan()

    assert store_files(tmp_path) == []  # no debris, no half-store
    with pytest.raises(StorageError, match=MANIFEST_NAME):
        load_store(tmp_path)


def test_retry_after_failed_save_succeeds(tmp_path):
    save_database(tmp_path, catalog_v1())
    install_plan(FaultPlan((FaultSpec(point="storage.manifest_write", limit=1),)))
    with pytest.raises(InjectedFaultError):
        save_database(tmp_path, catalog_v2())
    clear_plan()

    save_database(tmp_path, catalog_v2())
    assert stored_tuples(tmp_path)["r1"] == [(9, 9)]
    # Generational filenames: the superseded v1 files were swept.
    manifest_tables = set()
    catalog, _versions, _views = load_store(tmp_path)
    for name in catalog:
        manifest_tables.add(name)
    block_files = [f for f in store_files(tmp_path) if f.endswith(".rpb")]
    assert len(block_files) == len(manifest_tables)


def test_orphan_sweep_removes_unreferenced_files(tmp_path):
    save_database(tmp_path, catalog_v1())
    orphan = tmp_path / "9999-stray.gdead.rpb"
    orphan.write_bytes(b"leftover from a crashed writer")
    staged = tmp_path / f"{MANIFEST_NAME}.gdead.tmp"
    staged.write_text("{}")

    save_database(tmp_path, catalog_v1())
    assert not orphan.exists()
    assert not staged.exists()


def test_session_save_is_atomic_end_to_end(tmp_path):
    """The same guarantee through the public Database.save API."""
    db = repro.connect({"supplies": Relation(("s", "p"), [(1, 1), (1, 2), (2, 1)])})
    db.save(tmp_path)
    before = stored_tuples(tmp_path)

    db2 = repro.connect({"supplies": Relation(("s", "p"), [(7, 7)])})
    install_plan(FaultPlan((FaultSpec(point="storage.table_write", limit=1),)))
    with pytest.raises(InjectedFaultError):
        db2.save(tmp_path)
    clear_plan()

    reopened = repro.connect(tmp_path)
    assert reopened.table("supplies").run().relation == Relation(
        ("s", "p"), [(1, 1), (1, 2), (2, 1)]
    )
    assert stored_tuples(tmp_path) == before


def store_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize(
    "action,error", [("raise", InjectedFaultError), ("corrupt", StorageCorruptionError)]
)
def test_a_failed_block_read_during_a_resave_keeps_the_store(tmp_path, action, error):
    """A re-save of an opened store reads and verifies every source block
    before writing its payload: a block read that fails (or hands back a
    flipped bit) stops the save, and the store it was reading stays as
    committed, with no debris beside it."""
    save_database(tmp_path, catalog_v1())
    before = store_bytes(tmp_path)
    catalog, _versions, _views = load_store(tmp_path)

    install_plan(FaultPlan((FaultSpec(point="storage.block_read", action=action, limit=1),)))
    with pytest.raises(error):
        save_database(tmp_path, catalog)
    clear_plan()

    assert store_bytes(tmp_path) == before
    assert stored_tuples(tmp_path) == stored_tuples_of(catalog_v1())


def test_a_flipped_bit_in_a_source_block_is_not_copied(tmp_path):
    """The source file itself damaged: its block fails its CRC on the
    re-save, which raises rather than write the block into a new store."""
    save_database(tmp_path / "source", catalog_v1())
    table = next((tmp_path / "source").glob("*-r1.*.rpb"))
    data = bytearray(table.read_bytes())
    data[-1] ^= 0x01  # the last byte of the last block's payload
    table.write_bytes(bytes(data))
    catalog, _versions, _views = load_store(tmp_path / "source")

    with pytest.raises(StorageCorruptionError, match="block 0 checksum mismatch"):
        save_database(tmp_path / "copy", catalog)
    assert store_files(tmp_path / "copy") == []
