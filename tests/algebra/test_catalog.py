"""Tests for the catalog (tables, keys, foreign keys)."""

import pytest

from repro.algebra.catalog import Catalog
from repro.errors import SchemaError
from repro.relation import Relation


@pytest.fixture
def catalog(figure1_dividend, figure1_divisor):
    cat = Catalog()
    cat.add_table("r1", figure1_dividend)
    cat.add_table("r2", figure1_divisor, key=["b"])
    return cat


class TestTables:
    def test_mapping_protocol(self, catalog, figure1_dividend):
        assert catalog["r1"] == figure1_dividend
        assert set(catalog) == {"r1", "r2"}
        assert len(catalog) == 2

    def test_add_table_returns_ref(self, figure1_dividend):
        cat = Catalog()
        ref = cat.add_table("r1", figure1_dividend)
        assert ref.name == "r1"
        assert ref.schema.names == ("a", "b")

    def test_duplicate_table_rejected(self, catalog, figure1_dividend):
        with pytest.raises(SchemaError):
            catalog.add_table("r1", figure1_dividend)

    def test_ref_unknown_table(self, catalog):
        with pytest.raises(SchemaError):
            catalog.ref("missing")

    def test_replace_table(self, catalog):
        catalog.replace_table("r2", Relation(["b"], [(9,)]))
        assert catalog["r2"].to_set("b") == {9}

    def test_replace_table_schema_change_rejected(self, catalog):
        with pytest.raises(SchemaError):
            catalog.replace_table("r2", Relation(["z"], [(9,)]))

    def test_evaluate_expression_against_catalog(self, catalog, figure1_quotient):
        from repro.algebra import builders as B

        expr = B.divide(catalog.ref("r1"), catalog.ref("r2"))
        assert expr.evaluate(catalog) == figure1_quotient


class TestConstraints:
    def test_declared_key_lookup(self, catalog):
        assert catalog.has_key("r2", ["b"])
        assert catalog.has_key("r2", ["b", "extra"])  # superset of a key is a superkey
        assert not catalog.has_key("r1", ["a"])

    def test_declare_key_unknown_attribute(self, catalog):
        with pytest.raises(SchemaError):
            catalog.declare_key("r2", ["zzz"])

    def test_foreign_key_declaration_and_lookup(self, catalog):
        catalog.declare_foreign_key("r2", ["b"], "r1", ["b"])
        assert catalog.has_foreign_key("r2", ["b"], "r1", ["b"])
        assert not catalog.has_foreign_key("r1", ["b"], "r2", ["b"])
        assert len(catalog.foreign_keys) == 1

    def test_foreign_key_arity_mismatch(self, catalog):
        with pytest.raises(SchemaError):
            catalog.declare_foreign_key("r2", ["b"], "r1", ["a", "b"])

    def test_validate_passes_on_consistent_data(self, catalog):
        catalog.declare_foreign_key("r2", ["b"], "r1", ["b"])
        catalog.validate()

    def test_validate_detects_key_violation(self, figure1_dividend):
        cat = Catalog()
        cat.add_table("r1", figure1_dividend, key=["a"])  # a is not unique in r1
        with pytest.raises(SchemaError, match="key"):
            cat.validate()

    def test_validate_detects_foreign_key_violation(self, figure1_dividend):
        cat = Catalog()
        cat.add_table("r1", figure1_dividend)
        cat.add_table("bad", Relation(["b"], [(99,)]))
        cat.declare_foreign_key("bad", ["b"], "r1", ["b"])
        with pytest.raises(SchemaError, match="foreign key"):
            cat.validate()


def rows(catalog, name, tuples):
    from repro.relation.row import Row

    schema = catalog.schema(name)
    return [Row.from_schema(schema, values) for values in tuples]


class TestPendingDelta:
    """Edits are recorded beside the base value; the first read folds them."""

    def test_apply_delta_returns_the_effective_rows(self, catalog):
        inserted, deleted = catalog.apply_delta(
            "r1", rows(catalog, "r1", [(1, 1), (7, 7), (7, 7)]), ()
        )
        assert [row.values_tuple for row in inserted] == [(7, 7)] and deleted == []
        inserted, deleted = catalog.apply_delta(
            "r1", (), rows(catalog, "r1", [(1, 1), (8, 8), (1, 1)])
        )
        assert inserted == [] and [row.values_tuple for row in deleted] == [(1, 1)]
        assert catalog.apply_delta("r1", (), rows(catalog, "r1", [(1, 1)])) == ([], [])

    def test_opposite_edits_cancel_in_the_pending_delta(self, catalog, figure1_dividend):
        catalog.apply_delta("r1", (), rows(catalog, "r1", [(1, 1)]))
        catalog.apply_delta("r1", rows(catalog, "r1", [(9, 9)]), ())
        inserted, _ = catalog.apply_delta("r1", rows(catalog, "r1", [(1, 1)]), ())
        _, deleted = catalog.apply_delta("r1", (), rows(catalog, "r1", [(9, 9)]))
        assert len(inserted) == len(deleted) == 1
        assert catalog._pending["r1"] == ({}, set())
        # nothing left to fold: the read hands back the base value itself
        assert catalog["r1"] is figure1_dividend
        assert "r1" not in catalog._pending

    def test_one_call_deletes_then_inserts(self, catalog):
        both = rows(catalog, "r1", [(1, 1)])
        inserted, deleted = catalog.apply_delta("r1", both, both)
        assert inserted == deleted == both
        assert (1, 1) in catalog["r1"].to_tuples()

    def test_the_first_read_folds_once_and_caches(self, catalog, figure1_dividend):
        catalog.apply_delta("r1", rows(catalog, "r1", [(9, 9)]), rows(catalog, "r1", [(1, 1)]))
        folded = catalog["r1"]
        assert folded is catalog["r1"] is catalog.get("r1")
        assert folded.to_tuples() == (figure1_dividend.to_tuples() - {(1, 1)}) | {(9, 9)}
        assert (1, 1) in figure1_dividend.to_tuples()  # held values stay as they were

    def test_metadata_reads_do_not_fold(self, catalog):
        catalog.apply_delta("r1", rows(catalog, "r1", [(9, 9)]), ())
        assert "r1" in catalog and "nope" not in catalog
        assert sorted(catalog) == ["r1", "r2"] and len(catalog) == 2
        catalog.ref("r1"), catalog.schema("r1")
        catalog.declare_key("r1", ["a", "b"])
        catalog.declare_foreign_key("r2", ["b"], "r1", ["b"])
        catalog.has_key("r1", ["a", "b"]), catalog.declared_keys, catalog.foreign_keys
        assert "r1" in catalog._pending
        with pytest.raises(SchemaError):
            catalog.add_table("r1", Relation(["a", "b"], []))
        assert "r1" in catalog._pending

    def test_validate_reads_the_folded_tables(self, catalog):
        catalog.declare_foreign_key("r1", ["b"], "r2", ["b"])
        with pytest.raises(SchemaError, match="foreign key"):
            catalog.validate()
        catalog.apply_delta("r2", rows(catalog, "r2", [(2,), (4,)]), ())
        catalog.validate()

    def test_replace_table_drops_the_pending_delta(self, catalog):
        catalog.apply_delta("r1", rows(catalog, "r1", [(9, 9)]), ())
        replacement = Relation(["a", "b"], [(5, 5)])
        catalog.replace_table("r1", replacement)
        assert catalog["r1"] is replacement
        # a refused replacement leaves base and delta alone
        catalog.apply_delta("r1", rows(catalog, "r1", [(6, 6)]), ())
        with pytest.raises(SchemaError):
            catalog.replace_table("r1", Relation(["z"], []))
        assert catalog["r1"].to_tuples() == {(5, 5), (6, 6)}

    def test_unknown_table(self, catalog):
        with pytest.raises(SchemaError):
            catalog.apply_delta("missing", (), ())
        with pytest.raises(SchemaError):
            catalog.schema("missing")


class TestDeclaredKeysAreEnforced:
    @pytest.fixture
    def keyed(self):
        cat = Catalog()
        cat.add_table("r", Relation(["a", "b"], [(1, 10), (2, 20)]), key=["a"])
        return cat

    def test_an_insert_that_repeats_a_key_value_is_refused(self, keyed):
        with pytest.raises(SchemaError, match=r"key \['a'\] of table 'r'.*a=1"):
            keyed.apply_delta("r", rows(keyed, "r", [(3, 30), (1, 11)]), ())
        assert "r" not in keyed._pending and keyed["r"].to_tuples() == {(1, 10), (2, 20)}
        # the refused batch claimed nothing: its good row still goes in
        assert len(keyed.apply_delta("r", rows(keyed, "r", [(3, 30)]), ())[0]) == 1

    def test_a_batch_may_not_repeat_a_key_value_within_itself(self, keyed):
        with pytest.raises(SchemaError, match="already taken"):
            keyed.apply_delta("r", rows(keyed, "r", [(5, 50), (5, 51)]), ())

    def test_a_delete_frees_the_key_value(self, keyed):
        keyed.apply_delta("r", (), rows(keyed, "r", [(1, 10)]))
        keyed.apply_delta("r", rows(keyed, "r", [(1, 11)]), ())
        with pytest.raises(SchemaError):
            keyed.apply_delta("r", rows(keyed, "r", [(1, 12)]), ())
        # in one call: the delete comes first
        keyed.apply_delta("r", rows(keyed, "r", [(2, 21)]), rows(keyed, "r", [(2, 20)]))
        assert keyed["r"].to_tuples() == {(1, 11), (2, 21)}
        keyed.validate()

    def test_a_later_declared_key_counts_the_pending_rows_too(self):
        cat = Catalog()
        cat.add_table("r", Relation(["a", "b"], [(1, 10)]))
        cat.apply_delta("r", rows(cat, "r", [(2, 20)]), ())
        cat.declare_key("r", ["a"])
        with pytest.raises(SchemaError):
            cat.apply_delta("r", rows(cat, "r", [(2, 21)]), ())
        cat.declare_key("r", ["b"])  # a second key: the counts are rebuilt
        with pytest.raises(SchemaError, match=r"key \['b'\]"):
            cat.apply_delta("r", rows(cat, "r", [(3, 20)]), ())

    def test_replace_table_checks_and_recounts(self, keyed):
        with pytest.raises(SchemaError, match=r"key \['a'\] of table 'r'.*\(1,\)"):
            keyed.replace_table("r", Relation(["a", "b"], [(1, 10), (1, 11)]))
        assert keyed["r"].to_tuples() == {(1, 10), (2, 20)}
        keyed.replace_table("r", Relation(["a", "b"], [(7, 70)]))
        keyed.apply_delta("r", rows(keyed, "r", [(1, 10)]), ())
        with pytest.raises(SchemaError):
            keyed.apply_delta("r", rows(keyed, "r", [(7, 71)]), ())

    def test_tables_without_a_key_keep_no_counts(self, catalog):
        catalog.apply_delta("r1", rows(catalog, "r1", [(9, 9)]), ())
        assert catalog._key_counts == {}
