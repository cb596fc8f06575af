"""Directory stores: save/load roundtrip, lazy relations, API wiring."""

import json

import pytest

import repro
import repro.storage.store as store_module
from repro.algebra.catalog import Catalog
from repro.division import small_divide
from repro.errors import StorageError
from repro.optimizer.statistics import TableStatistics
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.storage.store import (
    MANIFEST_NAME,
    StoredRelation,
    load_catalog,
    save_database,
    statistics_from_payload,
    statistics_payload,
)


def make_catalog() -> Catalog:
    parts = Relation.from_aligned(
        Schema.interned(("p_no", "color")),
        [(i, "red" if i % 2 else "blue") for i in range(200)],
    ).clustered(["p_no"])
    supply = Relation.from_aligned(
        Schema.interned(("s_no", "p_no")),
        [(s, p) for s in range(10) for p in range(0, 200, 10)],
    )
    catalog = Catalog()
    catalog.add_table("parts", parts, key=["p_no"])
    catalog.add_table("supply", supply, key=["s_no", "p_no"])
    catalog.declare_foreign_key("supply", ["p_no"], "parts", ["p_no"])
    return catalog


@pytest.fixture
def store_path(tmp_path):
    return save_database(tmp_path / "db", make_catalog(), block_size=64)


class TestRoundtrip:
    def test_tables_roundtrip(self, store_path):
        original = make_catalog()
        reopened = load_catalog(store_path)
        assert set(reopened) == set(original)
        for name in original:
            assert reopened[name] == original[name]

    def test_keys_and_foreign_keys_roundtrip(self, store_path):
        original = make_catalog()
        reopened = load_catalog(store_path)
        assert reopened.declared_keys == original.declared_keys
        assert [
            (fk.table, fk.attributes, fk.ref_table, fk.ref_attributes)
            for fk in reopened.foreign_keys
        ] == [
            (fk.table, fk.attributes, fk.ref_table, fk.ref_attributes)
            for fk in original.foreign_keys
        ]

    def test_scan_order_is_the_save_order(self, store_path):
        # ``parts`` was clustered on p_no before saving; the stored block
        # order must replay it so the zone maps stay disjoint.
        reopened = load_catalog(store_path)
        tuples = reopened["parts"].aligned_tuples()
        assert [values[0] for values in tuples] == list(range(200))


class TestNullaryTable:
    """A table file keeps its tuple count in its columns; a relation
    without attributes has none, so a save refuses it (typed, atomically)
    instead of writing its one tuple as none."""

    @pytest.mark.parametrize("rows", [[()], []], ids=["one tuple", "empty"])
    def test_save_refuses_it_and_keeps_the_previous_store(self, store_path, rows):
        before = sorted(path.name for path in store_path.iterdir())
        catalog = make_catalog()
        catalog.add_table("unit", Relation((), rows))
        with pytest.raises(StorageError, match="'unit' has no attributes"):
            save_database(store_path, catalog)
        assert sorted(path.name for path in store_path.iterdir()) == before
        assert load_catalog(store_path)["parts"] == make_catalog()["parts"]


class TestLaziness:
    def test_open_is_metadata_only(self, store_path):
        relation = load_catalog(store_path)["parts"]
        assert isinstance(relation, StoredRelation)
        assert not relation.is_loaded
        # Schema, length, truthiness, repr and statistics are header reads.
        assert relation.schema.names == ("p_no", "color")
        assert len(relation) == 200
        assert bool(relation)
        assert "on disk" in repr(relation)
        relation.stored_statistics()
        relation.sample_tuples(5)
        assert not relation.is_loaded

    def test_touching_rows_materializes(self, store_path):
        relation = load_catalog(store_path)["parts"]
        assert (0, "blue") in [tuple(values) for values in relation.aligned_tuples()]
        assert relation.is_loaded

    def test_sample_tuples_reads_leading_blocks(self, store_path):
        relation = load_catalog(store_path)["parts"]
        assert relation.sample_tuples(3) == [(0, "blue"), (1, "red"), (2, "blue")]


class TestEncodingCacheSlot:
    """``Relation`` grew an encoding cache slot; the stored subclass shadows
    the row/tuple slots with properties and must keep the new one inert."""

    def test_open_and_q1_read_one_block_per_scanned_table(self, tmp_path, monkeypatch):
        """Two block payloads — one per single-block table Q1 scans, none
        at ``connect`` — is what the pre-encoding engine read (its
        ``storage.blocks_read``); the encoding cache must not turn a stored
        scan into a table load.  And because the division reads the stored
        codes, no block is ever decoded into tuples."""
        from repro.experiments import Q1
        from repro.storage.format import TableReader
        from repro.workloads import textbook_catalog

        import repro.storage.format as format_module

        calls = {"_columns": 0, "decode_columns": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(TableReader, "_columns")
        counting(format_module, "decode_columns")
        repro.connect(textbook_catalog).save(tmp_path / "textbook")
        db = repro.connect(tmp_path / "textbook")
        assert calls == {"_columns": 0, "decode_columns": 0}
        assert len(db.sql(Q1).run().relation) == 4
        assert calls == {"_columns": 2, "decode_columns": 0}
        assert not any(db.relation(name).is_loaded for name in ("supplies", "parts"))

    def test_pickle_reopens_instead_of_loading(self, store_path):
        import pickle

        relation = load_catalog(store_path)["parts"]
        clone = pickle.loads(pickle.dumps(relation))
        assert not relation.is_loaded and not clone.is_loaded
        assert isinstance(clone, StoredRelation) and clone == relation

    def test_in_memory_relations_pickle_without_their_codes(self):
        import pickle

        relation = make_catalog()["parts"]
        # A populated getter cache (closures) must not travel with the schema.
        relation.schema.tuple_getter(("color",))
        size_before = len(pickle.dumps(relation))
        relation.encoded_columns()
        payload = pickle.dumps(relation)
        assert len(payload) == size_before
        clone = pickle.loads(payload)
        assert clone._encoding is None
        assert clone.aligned_tuples() == relation.aligned_tuples()  # the clustered order travels


class TestStoredStatistics:
    def test_matches_a_full_scan(self, store_path):
        relation = load_catalog(store_path)["parts"]
        stored = relation.stored_statistics()
        scanned = TableStatistics.from_relation(
            Relation.from_aligned(relation.schema, relation.aligned_tuples()).clustered(
                ["p_no"]
            )
        )
        assert stored.cardinality == scanned.cardinality
        assert dict(stored.distinct_values) == dict(scanned.distinct_values)
        assert dict(stored.minima) == dict(scanned.minima)
        assert dict(stored.maxima) == dict(scanned.maxima)
        assert dict(stored.top_frequencies) == dict(scanned.top_frequencies)

    def test_from_relation_dispatches_to_the_header(self, store_path):
        relation = load_catalog(store_path)["parts"]
        statistics = TableStatistics.from_relation(relation)
        assert statistics.cardinality == 200
        assert not relation.is_loaded

    def test_payload_roundtrip(self):
        statistics = TableStatistics.from_relation(
            Relation(["a", "b"], [(1, "x"), (2, "y"), (3, "x")])
        )
        rebuilt = statistics_from_payload(statistics_payload(statistics))
        assert rebuilt == statistics
        assert set(statistics_payload(statistics)) == {
            "cardinality", "distinct_values", "minima", "maxima", "top_frequencies"
        }

    def test_a_header_with_the_scan_order_keys_still_opens(self, tmp_path, monkeypatch):
        """A store written while the statistics kept the scan order carries
        ``sorted_attributes`` and ``lexicographic_prefix`` in each header:
        it opens, its statistics come from the header, and it divides as
        the tables it was saved from do."""
        from repro.workloads import make_division_workload

        workload = make_division_workload(num_groups=60, divisor_size=6, seed=4)
        tables = {"r1": workload.dividend.clustered(["a"]), "r2": workload.divisor}
        payload = store_module.statistics_payload

        def with_order_keys(statistics):
            order = {"sorted_attributes": ["a"], "lexicographic_prefix": ["a"]}
            return {**payload(statistics), **order}

        monkeypatch.setattr(store_module, "statistics_payload", with_order_keys)
        repro.connect(tables).save(tmp_path / "store")
        monkeypatch.undo()
        opened = repro.connect(tmp_path / "store")
        relation = opened.relation("r1")
        assert relation.reader.statistics_payload["lexicographic_prefix"] == ["a"]
        assert TableStatistics.from_relation(relation) == TableStatistics.from_relation(tables["r1"])
        assert not relation.is_loaded
        quotient = opened.table("r1").divide("r2").run().relation
        assert quotient == small_divide(tables["r1"], tables["r2"])

    def test_malformed_payload_raises(self):
        with pytest.raises(StorageError):
            statistics_from_payload({"cardinality": 3})


class TestLoadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_catalog(tmp_path)

    def test_unreadable_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StorageError):
            load_catalog(tmp_path)

    def test_unsupported_manifest_version(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": 99, "tables": {}}))
        with pytest.raises(StorageError):
            load_catalog(tmp_path)


class TestDatabaseApi:
    def test_save_and_connect_path(self, tmp_path, store_path):
        db = repro.connect(make_catalog())
        saved = db.save(tmp_path / "saved")
        reopened = repro.connect(saved)
        assert isinstance(reopened.catalog["parts"], StoredRelation)
        result = reopened.sql("SELECT p_no FROM parts WHERE p_no < 5").run()
        assert sorted(values[0] for values in result.relation.aligned_tuples()) == [
            0,
            1,
            2,
            3,
            4,
        ]

    def test_saving_a_reopened_store_loads_no_table(self, tmp_path, monkeypatch):
        """Regression: ``save`` used to call ``aligned_tuples()`` on every
        stored relation — all blocks decoded and every tuple pinned on the
        relation for the rest of the session, though no query asked for a
        row.  The pages go from file to file as code buffers."""
        import repro.storage.format as format_module
        from repro.experiments import Q1, Q2, Q3
        from repro.workloads import textbook_catalog

        repro.connect(textbook_catalog).save(tmp_path / "source")
        source = repro.connect(tmp_path / "source")

        def trap(*_args, **_kwargs):
            raise AssertionError("a save decoded a block into tuples")

        with monkeypatch.context() as patched:
            patched.setattr(format_module, "decode_columns", trap)
            patched.setattr(StoredRelation, "aligned_tuples", trap)
            source.save(tmp_path / "other")
        assert not any(relation.is_loaded for relation in source.catalog.values())

        other = repro.connect(tmp_path / "other")
        for name, relation in source.catalog.items():
            twin = other.catalog[name]
            assert twin.reader.statistics_payload == relation.reader.statistics_payload
            assert twin.stored_statistics() == relation.stored_statistics()
        for text in (Q1, Q2, Q3):
            assert other.sql(text).run().relation == source.sql(text).run().relation

    def test_analyze_is_metadata_only(self, store_path):
        db = repro.connect(str(store_path))
        report = db.analyze()
        assert report.tables["parts"].cardinality == 200
        assert not db.catalog["parts"].is_loaded

    def test_explain_analyze_reports_skips(self, store_path):
        db = repro.connect(str(store_path))
        text = db.sql("SELECT p_no FROM parts WHERE p_no < 10").explain(analyze=True)
        assert "stored" in text.lower()
        assert "skipped=" in text
        skipped = int(text.split("skipped=", 1)[1].split()[0].rstrip(","))
        assert skipped > 0
        # Pushdown is advisory: the query still runs through its Filter.
        assert not db.catalog["parts"].is_loaded

    def test_memory_budget_must_be_positive(self):
        with pytest.raises(Exception):
            repro.connect(make_catalog(), memory_budget_mb=0)
