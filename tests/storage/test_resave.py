"""Re-saving a stored table: verified payloads written as they are.

A save of a reopened store at the tables' own block size hands each block's
verified payload and index entry to the file assembly: no page is decoded
or encoded again and no zone map is taken again, yet the file is byte for
byte the one an encode writes.  Another block size joins the pages and
encodes them as an in-memory table is encoded.
"""

import pickle

import pytest

import repro.relation.encoding as encoding_module
import repro.storage.format as format_module
from repro.algebra.catalog import Catalog
from repro.optimizer.statistics import TableStatistics
from repro.relation import Relation
from repro.relation.encoding import code_width
from repro.storage.format import TableReader, column_blocks, write_table_file
from repro.storage.store import StoredRelation, load_catalog, save_database, statistics_payload

BLOCK_SIZE = 64


def source_catalog():
    """Three tables of several blocks each (one not full), one empty."""
    catalog = Catalog()
    supplies = [(f"s{i // 7}", f"p{(i * 5) % 31}") for i in range(1000)]
    supplies = Relation.from_aligned(("s_no", "p_no"), supplies).clustered(["s_no"])
    catalog.add_table("supplies", supplies)
    parts = [(f"p{j}", ("blue", "red", 3, 2.5)[j % 4]) for j in range(31)]
    catalog.add_table("parts", Relation.from_aligned(("p_no", "color"), parts))
    wanted = [(f"p{j}",) for j in range(0, 31, 3)]
    catalog.add_table("wanted", Relation.from_aligned(("p_no",), wanted))
    catalog.add_table("empty", Relation.empty(("x", "y")))
    return catalog


def table_files(store):
    """Table file contents by table index (names differ by generation tag)."""
    return {path.name.split(".")[0]: path.read_bytes() for path in sorted(store.glob("*.rpb"))}


@pytest.fixture
def opened(tmp_path):
    save_database(tmp_path / "source", source_catalog(), block_size=BLOCK_SIZE)
    return tmp_path / "source", load_catalog(tmp_path / "source")


def test_a_resave_writes_the_source_files_byte_for_byte(tmp_path, opened):
    source, catalog = opened
    save_database(tmp_path / "copy", catalog, block_size=BLOCK_SIZE)
    assert table_files(tmp_path / "copy") == table_files(source)
    assert len(table_files(source)) == 4
    assert not any(relation.is_loaded for relation in catalog.values())


def test_an_unchecksummed_source_resaves_as_a_fresh_checksummed_save(tmp_path):
    """The CRCs a source lacks are taken on the way: the re-save is the
    file a checksummed save of the same tuples writes."""
    relation = source_catalog()["supplies"]
    columns = relation.encoded_columns()
    plain = write_table_file(
        tmp_path / "plain.rpb",
        "supplies",
        relation.schema.names,
        [column.dictionary for column in columns],
        column_blocks([column.codes for column in columns], BLOCK_SIZE),
        block_size=BLOCK_SIZE,
        statistics=statistics_payload(TableStatistics.from_relation(relation)),
        checksums=False,
    )
    reader = TableReader(plain)
    assert not reader.checksummed and "crc" not in reader.blocks[0]
    resaved, fresh = Catalog(), Catalog()
    resaved.add_table("supplies", StoredRelation(reader))
    fresh.add_table("supplies", relation)
    save_database(tmp_path / "resaved", resaved, block_size=BLOCK_SIZE)
    save_database(tmp_path / "fresh", fresh, block_size=BLOCK_SIZE)
    assert table_files(tmp_path / "resaved") == table_files(tmp_path / "fresh")
    assert TableReader(next((tmp_path / "resaved").glob("*.rpb"))).checksummed


def test_renamed_and_recut_tables_read_back_the_same_tuples(tmp_path, opened):
    _source, catalog = opened
    renamed = Catalog()
    for name, relation in catalog.items():
        renamed.add_table(f"{name}_copy", relation)
    save_database(tmp_path / "renamed", renamed, block_size=BLOCK_SIZE)
    save_database(tmp_path / "recut", catalog, block_size=BLOCK_SIZE // 3)
    expected = source_catalog()
    for name in catalog:
        copy = load_catalog(tmp_path / "renamed")[f"{name}_copy"]
        assert copy.reader.table == f"{name}_copy"
        assert copy.aligned_tuples() == catalog[name].aligned_tuples()
        assert copy == expected[name]
        recut = load_catalog(tmp_path / "recut")[name]
        assert recut.reader.block_size == BLOCK_SIZE // 3
        assert recut.aligned_tuples() == catalog[name].aligned_tuples()


def test_a_resave_encodes_nothing_and_verifies_each_block_once(tmp_path, opened, monkeypatch):
    _source, catalog = opened
    calls = {"block_zones": 0, "narrow_codes": 0, "verified": []}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    verify = TableReader._columns

    def verified(reader, number, meta, payload):
        calls["verified"].append((reader.table, number))
        return verify(reader, number, meta, payload)

    for name in ("block_zones", "narrow_codes"):
        monkeypatch.setattr(format_module, name, counted(name, getattr(format_module, name)))
    monkeypatch.setattr(TableReader, "_columns", verified)
    save_database(tmp_path / "copy", catalog, block_size=BLOCK_SIZE)
    assert calls["block_zones"] == calls["narrow_codes"] == 0
    blocks = sorted(
        (relation.reader.table, number)
        for relation in catalog.values()
        for number in range(len(relation.reader.blocks))
    )
    assert sorted(calls["verified"]) == blocks and len(blocks) > len(catalog)

    # Another block size encodes: every new block's pages and zone maps.
    calls["verified"].clear()
    save_database(tmp_path / "recut", catalog, block_size=BLOCK_SIZE * 2)
    assert sorted(calls["verified"]) == blocks
    recut = sum(len(TableReader(path).blocks) for path in (tmp_path / "recut").glob("*.rpb"))
    assert calls["block_zones"] == recut


def header_and_widen_trap(monkeypatch):
    """Count header ``pickle.dumps`` calls (by table) and ``widen_codes``
    calls, and check that every code page a verification cuts stays at its
    narrow width."""
    calls = {"headers": [], "widen_codes": 0, "pages": 0}
    dumps, widen, verify = pickle.dumps, encoding_module.widen_codes, TableReader._columns

    def counted_dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and "blocks" in obj:
            calls["headers"].append(obj["table"])
        return dumps(obj, *args, **kwargs)

    def counted_widen(*args, **kwargs):
        calls["widen_codes"] += 1
        return widen(*args, **kwargs)

    def narrow(reader, number, meta, payload):
        columns = verify(reader, number, meta, payload)
        for column, page in zip(columns, reader.dictionary_pages):
            if page is not None:
                assert column.itemsize == code_width(len(page))
                calls["pages"] += 1
        return columns

    monkeypatch.setattr(pickle, "dumps", counted_dumps)
    monkeypatch.setattr(encoding_module, "widen_codes", counted_widen)
    monkeypatch.setattr(TableReader, "_columns", narrow)
    return calls


def test_an_unchanged_resave_writes_its_header_as_read(tmp_path, opened, monkeypatch):
    """Name, block size, checksums and statistics as the source's: the
    source's header bytes are written, not pickled again, and no verified
    page is widened."""
    source, catalog = opened
    calls = header_and_widen_trap(monkeypatch)
    save_database(tmp_path / "copy", catalog, block_size=BLOCK_SIZE)
    assert calls["headers"] == [] and calls["widen_codes"] == 0
    assert calls["pages"] > len(catalog)
    assert table_files(tmp_path / "copy") == table_files(source)


def test_a_changed_table_gets_a_fresh_header(tmp_path, opened, monkeypatch):
    """A renamed, a re-cut and an unchecksummed source pickle their header."""
    _source, catalog = opened
    calls = header_and_widen_trap(monkeypatch)
    renamed = Catalog()
    renamed.add_table("supplies_copy", catalog["supplies"])
    save_database(tmp_path / "renamed", renamed, block_size=BLOCK_SIZE)
    assert calls["headers"] == ["supplies_copy"]
    save_database(tmp_path / "recut", catalog, block_size=BLOCK_SIZE // 3)
    assert sorted(calls["headers"][1:]) == sorted(catalog)
    relation = source_catalog()["supplies"]
    columns = relation.encoded_columns()
    plain = write_table_file(
        tmp_path / "plain.rpb",
        "supplies",
        relation.schema.names,
        [column.dictionary for column in columns],
        column_blocks([column.codes for column in columns], BLOCK_SIZE),
        block_size=BLOCK_SIZE,
        statistics=statistics_payload(TableStatistics.from_relation(relation)),
        checksums=False,
    )
    unchecksummed = Catalog()
    unchecksummed.add_table("supplies", StoredRelation(TableReader(plain)))
    calls["headers"].clear()
    save_database(tmp_path / "checksummed", unchecksummed, block_size=BLOCK_SIZE)
    assert calls["headers"] == ["supplies"]
    assert calls["widen_codes"] == 0
    expected = source_catalog()["supplies"].aligned_tuples()
    stores = {"renamed": "supplies_copy", "recut": "supplies", "checksummed": "supplies"}
    for store, name in stores.items():
        assert load_catalog(tmp_path / store)[name].aligned_tuples() == expected
