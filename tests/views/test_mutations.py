"""Table mutations: set-semantics insert/delete, versions, held values stay intact."""

import pytest

from repro.algebra import predicates as P
from repro.api import MutationResult, connect
from repro.division import small_divide
from repro.errors import ReproError, SchemaError, ViewError
from repro.relation import Relation
from repro.relation.row import Row


@pytest.fixture
def db():
    database = connect()
    database.add_table("r1", Relation(["a", "b"], [(1, 1), (1, 2), (2, 1)]))
    database.add_table("r2", Relation(["b"], [(1,), (2,)]))
    return database


class TestInsert:
    def test_insert_tuples_bumps_version(self, db):
        result = db.insert("r1", [(3, 1), (3, 2)])
        assert isinstance(result, MutationResult)
        assert result.changed
        assert result.version == 1 == db.table_version("r1")
        assert len(result.inserted) == 2 and not len(result.deleted)
        assert (3, 1) in {t for t in db.relation("r1").aligned_tuples()}

    def test_duplicate_insert_is_a_noop(self, db):
        db.insert("r1", [(1, 1)])
        assert db.table_version("r1") == 0
        result = db.insert("r1", [(1, 1), (9, 9)])
        assert result.version == 1
        assert result.inserted.aligned_tuples() == [(9, 9)]

    def test_insert_mappings_align_by_name(self, db):
        db.insert("r1", [{"b": 5, "a": 4}])
        assert (4, 5) in set(db.relation("r1").aligned_tuples())

    def test_insert_relation_realigns_by_schema(self, db):
        delta = Relation(["b", "a"], [(7, 6)])
        db.insert("r1", delta)
        assert (6, 7) in set(db.relation("r1").aligned_tuples())

    def test_insert_rows_from_another_result(self, db):
        rows = list(db.relation("r1"))
        db2 = connect()
        db2.add_table("r1", Relation(["a", "b"], []))
        db2.insert("r1", rows)
        assert db2.relation("r1") == db.relation("r1")

    def test_wrong_width_fails_loudly(self, db):
        with pytest.raises(SchemaError):
            db.insert("r1", [(1, 2, 3)])

    def test_wrong_attributes_fail_loudly(self, db):
        with pytest.raises(SchemaError):
            db.insert("r1", Relation(["x", "y"], [(1, 2)]))
        with pytest.raises(SchemaError):
            db.insert("r1", [{"a": 1, "z": 2}])

    def test_copy_on_write_leaves_old_relation_intact(self, db):
        before = db.relation("r1")
        size = len(before)
        db.insert("r1", [(8, 8)])
        assert len(before) == size
        assert len(db.relation("r1")) == size + 1


class TestDelete:
    def test_delete_by_value(self, db):
        result = db.delete("r1", [(1, 1)])
        assert result.changed and result.version == 1
        assert (1, 1) not in set(db.relation("r1").aligned_tuples())

    def test_delete_missing_rows_is_a_noop(self, db):
        result = db.delete("r1", [(99, 99)])
        assert not result.changed
        assert db.table_version("r1") == 0

    def test_delete_by_predicate_ast(self, db):
        db.delete("r1", P.Comparison(P.attr("a"), "=", 1))
        remaining = set(db.relation("r1").aligned_tuples())
        assert remaining == {(2, 1)}

    def test_delete_by_callable(self, db):
        db.delete("r1", lambda row: row["b"] == 1)
        assert set(db.relation("r1").aligned_tuples()) == {(1, 2)}

    def test_delete_everything_keeps_schema(self, db):
        db.delete("r2", lambda row: True)
        assert len(db.relation("r2")) == 0
        assert db.relation("r2").attributes == ("b",)


class TestVersions:
    def test_versions_snapshot(self, db):
        db.insert("r1", [(5, 5)])
        db.insert("r1", [(6, 6)])
        db.delete("r2", [(2,)])
        assert db.versions == {"r1": 2, "r2": 1}

    def test_unknown_table_raises(self, db):
        with pytest.raises(SchemaError):
            db.table_version("phantom")
        with pytest.raises((SchemaError, KeyError)):
            db.insert("phantom", [(1,)])

    def test_replace_table_bumps_version_and_routes_delta(self, db):
        db.replace_table("r1", Relation(["a", "b"], [(1, 1), (9, 9)]))
        assert db.table_version("r1") == 1
        assert set(db.relation("r1").aligned_tuples()) == {(1, 1), (9, 9)}

    def test_identical_replace_is_a_noop_version_wise(self, db):
        db.replace_table("r1", db.relation("r1"))
        assert db.table_version("r1") == 0


class TestMutationResultRepr:
    def test_repr_names_the_counts(self, db):
        result = db.insert("r1", [(7, 7)])
        text = repr(result)
        assert "r1" in text and "+1" in text and "version=1" in text


class TestViewErrorSurface:
    def test_view_lookup_of_unknown_name(self, db):
        with pytest.raises(ViewError):
            db.view("missing")
        with pytest.raises(ViewError):
            db.drop_view("missing")


class TestDeclaredKeys:
    """Law 11 trusts ``catalog.has_key`` without looking at the data, so an
    edit must never leave a declared key violated."""

    QUERY = "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b"

    @pytest.fixture
    def keyed(self):
        database = connect()
        database.add_table("r1", Relation(["a", "b"], [(1, 10), (2, 20)]), key=["a"])
        database.add_table("r2", Relation(["b"], [(10,), (11,)]))
        return database

    def test_law_11_fires_on_the_unedited_table(self, keyed):
        result = keyed.sql(self.QUERY).run()
        assert "law_11_grouped_dividend" in result.rules_fired
        assert result.relation.to_tuples() == set()

    def test_insert_that_breaks_the_key_is_a_typed_refusal(self, keyed):
        view = keyed.create_view("q", keyed.table("r1").divide(keyed.table("r2"), on=["b"]))
        view.run()
        keyed.sql(self.QUERY).run()
        before = keyed.relation("r1"), keyed.versions, keyed.cache_info(), view.deltas_applied
        with pytest.raises(SchemaError, match=r"key \['a'\] of table 'r1'.*a=1, b=11"):
            keyed.insert("r1", [(3, 30), (1, 11)])
        after = keyed.relation("r1"), keyed.versions, keyed.cache_info(), view.deltas_applied
        assert after == before and after[0] is before[0]
        # the query still runs through Law 11, and is still right
        result = keyed.sql(self.QUERY).run()
        assert "law_11_grouped_dividend" in result.rules_fired
        assert result.relation == small_divide(keyed.relation("r1"), keyed.relation("r2"))
        keyed.catalog.validate()

    def test_replace_table_that_breaks_the_key_is_refused(self, keyed):
        before = keyed.relation("r1"), keyed.versions, keyed.cache_info()
        with pytest.raises(SchemaError, match=r"key \['a'\] of table 'r1'"):
            keyed.replace_table("r1", Relation(["a", "b"], [(1, 10), (1, 11)]))
        assert (keyed.relation("r1"), keyed.versions, keyed.cache_info()) == before

    def test_moving_a_key_value_takes_a_delete_first(self, keyed):
        keyed.delete("r1", [(1, 10)])
        keyed.insert("r1", [(1, 11)])
        assert keyed.relation("r1").to_tuples() == {(1, 11), (2, 20)}
        keyed.catalog.validate()


class TestBoundary:
    """Bad input is a typed error, and a failing batch changes nothing."""

    @pytest.mark.parametrize("edit", ["insert", "delete"])
    def test_a_non_iterable_is_not_a_bare_type_error(self, db, edit):
        with pytest.raises(ReproError, match="cannot interpret 5 as rows"):
            getattr(db, edit)("r1", 5)

    @pytest.mark.parametrize("edit", ["insert", "delete"])
    @pytest.mark.parametrize(
        "bad",
        [(1, 2, 3), (1, [2]), {"a": 1}, 7, Row({"a": 1, "z": 2})],
        ids=["arity", "unhashable", "missing-attribute", "not-a-row", "foreign-row"],
    )
    def test_a_malformed_kth_row_leaves_everything_as_it_was(self, db, edit, bad):
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        view.run()
        db.insert("r1", [(5, 5)])  # a pending delta the failed batch must not touch
        pending = {name: (dict(a), set(r)) for name, (a, r) in db.catalog._pending.items()}
        before = db.versions, db.cache_info(), view.deltas_applied, view.relation()
        good = (9, 9) if edit == "insert" else (1, 1)
        with pytest.raises(ReproError):
            getattr(db, edit)("r1", [good, bad])
        assert db.catalog._pending == pending
        assert (db.versions, db.cache_info(), view.deltas_applied, view.relation()) == before
        assert db.relation("r1").to_tuples() == {(1, 1), (1, 2), (2, 1), (5, 5)}
