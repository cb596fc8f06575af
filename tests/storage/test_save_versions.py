"""Satellite 2: versions and views survive ``Database.save`` — or fail loudly."""

import json

import pytest

from repro.api import connect
from repro.errors import StorageError, ViewError
from repro.relation import Relation
from repro.storage.store import MANIFEST_NAME, _manifest_digest, load_store, save_database


def mutated_session():
    db = connect()
    db.add_table("r1", Relation(["a", "b"], [(1, 1), (1, 2), (2, 1), (3, 1), (3, 2)]))
    db.add_table("r2", Relation(["b"], [(1,), (2,)]))
    db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
    db.view("q").run()
    db.insert("r1", [(4, 1), (4, 2)])
    db.delete("r2", [(2,)])
    return db


class TestRoundTrip:
    def test_versions_and_views_reload(self, tmp_path):
        db = mutated_session()
        store = tmp_path / "store"
        db.save(store)
        reopened = connect(store)
        assert reopened.versions == {"r1": 1, "r2": 1}
        assert reopened.views == ("q",)
        view = reopened.view("q")
        assert view.maintained
        assert view.relation() == db.view("q").relation()

    def test_reloaded_view_keeps_maintaining(self, tmp_path):
        db = mutated_session()
        store = tmp_path / "store"
        db.save(store)
        reopened = connect(store)
        reopened.view("q").run()
        reopened.insert("r1", [(9, 1)])
        assert (9,) in set(reopened.view("q").relation().aligned_tuples())
        assert reopened.view("q").deltas_applied >= 1
        assert reopened.table_version("r1") == 2

    def test_selection_predicates_round_trip(self, tmp_path):
        from repro.algebra import predicates as P

        db = connect()
        db.add_table("r1", Relation(["a", "b"], [(1, 1), (1, 2), (5, 1), (5, 2)]))
        db.add_table("r2", Relation(["b"], [(1,), (2,)]))
        query = db.table("r1").where(P.Comparison(P.attr("a"), "<", 3))
        db.create_view("q", query.divide(db.table("r2"), on=["b"]))
        store = tmp_path / "store"
        db.save(store)
        reopened = connect(store)
        assert set(reopened.view("q").relation().aligned_tuples()) == {(1,)}
        reopened.insert("r1", [(2, 1), (2, 2), (7, 1), (7, 2)])
        # a=7 fails the view's selection; a=2 passes.
        assert set(reopened.view("q").relation().aligned_tuples()) == {(1,), (2,)}

    def test_sql_alias_views_round_trip(self, tmp_path):
        """Peeled output renames are restored from the manifest payload."""
        db = connect()
        db.add_table("r1", Relation(["a", "b"], [(1, 1), (1, 2), (3, 1), (3, 2)]))
        db.add_table("r2", Relation(["b"], [(1,), (2,)]))
        db.create_view(
            "q", db.sql("SELECT a AS who FROM r1 AS s DIVIDE BY r2 AS p ON s.b = p.b")
        )
        assert db.view("q").maintained
        store = tmp_path / "store"
        db.save(store)
        reopened = connect(store)
        view = reopened.view("q")
        assert view.maintained
        assert view.schema.names == db.view("q").schema.names
        assert view.relation() == db.view("q").relation()

    def test_reordered_views_round_trip(self, tmp_path):
        """A select list in C-before-A order persists and answers in it."""
        from repro.workloads import textbook_catalog

        text = "SELECT color, s_no FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no"
        db = connect(textbook_catalog)
        db.create_view("v", text)
        db.delete("supplies", [db.relation("supplies").aligned_tuples()[0]])
        store = tmp_path / "store"
        db.save(store)
        reopened = connect(store)
        view = reopened.view("v")
        assert view.maintained and view.shape == db.view("v").shape
        assert view.schema.names == ("color", "s_no")
        assert view.relation() == db.view("v").relation()
        parts = reopened.relation("parts").project(["p_no"]).aligned_tuples()
        reopened.insert("supplies", [("s9", p_no) for (p_no,) in parts])
        expected = reopened.sql(text).run().relation
        assert view.relation().schema.names == expected.schema.names
        assert set(view.relation().aligned_tuples()) == set(expected.aligned_tuples())

    def test_a_manifest_without_an_order_answers_in_a_plus_c_order(self, tmp_path):
        """Stores written before views kept their column order open as
        they did then."""
        db = connect()
        db.add_table("r1", Relation(["a", "b"], [(1, 1), (1, 2), (3, 1)]))
        db.add_table("r3", Relation(["b", "c"], [(1, 10), (2, 10), (1, 20)]))
        db.create_view("g", db.table("r1").great_divide(db.table("r3")))
        store = tmp_path / "store"
        db.save(store)
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        (payload,) = manifest["views"]
        assert payload.pop("order") == [0, 1]
        manifest["digest"] = _manifest_digest(manifest)  # as the older code wrote it
        (store / MANIFEST_NAME).write_text(json.dumps(manifest))
        view = connect(store).view("g")
        assert view.maintained and view.shape.in_order
        assert view.schema.names == ("a", "c")
        assert set(view.relation().aligned_tuples()) == {(1, 10), (1, 20), (3, 20)}

    def test_manifest_keys_are_optional(self, tmp_path):
        """Stores written by pre-mutation code still load (no new format)."""
        db = connect()
        db.add_table("r1", Relation(["a"], [(1,)]))
        store = tmp_path / "old-store"
        save_database(store, db.catalog)  # no versions, no views
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        assert "table_versions" not in manifest and "views" not in manifest
        catalog, versions, views = load_store(store)
        assert versions == {} and views == []
        reopened = connect(store)
        assert reopened.versions == {"r1": 0}
        assert reopened.views == ()


class TestLoudFailures:
    def test_fallback_view_makes_save_fail(self, tmp_path):
        db = mutated_session()
        fallback = db.table("r1").project(["a", "b"]).divide(db.table("r2"), on=["b"])
        db.create_view("fb", fallback)
        with pytest.raises(ViewError, match="fallback"):
            db.save(tmp_path / "store")
        assert not (tmp_path / "store" / MANIFEST_NAME).exists()
        db.drop_view("fb")
        db.save(tmp_path / "store")  # without the fallback view it saves

    def test_versions_for_unknown_tables_fail(self, tmp_path):
        db = connect()
        db.add_table("r1", Relation(["a"], [(1,)]))
        with pytest.raises(StorageError, match="unknown table"):
            save_database(tmp_path / "store", db.catalog, table_versions={"ghost": 3})

    def test_malformed_manifest_versions_fail(self, tmp_path):
        db = connect()
        db.add_table("r1", Relation(["a"], [(1,)]))
        store = tmp_path / "store"
        db.save(store)
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        manifest["table_versions"] = ["not", "a", "mapping"]
        (store / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="table_versions"):
            load_store(store)

    def test_a_manifest_order_that_is_no_permutation_fails(self, tmp_path):
        db = mutated_session()
        store = tmp_path / "store"
        db.save(store)
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        manifest["views"][0]["order"] = [1]
        manifest["digest"] = _manifest_digest(manifest)
        (store / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ViewError, match="not a permutation"):
            connect(store)

    def test_malformed_manifest_views_fail(self, tmp_path):
        db = connect()
        db.add_table("r1", Relation(["a"], [(1,)]))
        store = tmp_path / "store"
        db.save(store)
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        manifest["views"] = {"not": "a list"}
        (store / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="views"):
            load_store(store)
