"""Maintained views: registration, maintenance, fallback, explain."""

import pytest

from repro.api import connect
from repro.division import great_divide, small_divide
from repro.errors import ViewError
from repro.relation import Relation


def fresh_db():
    database = connect()
    database.add_table(
        "r1",
        Relation(["a", "b"], [(1, 1), (1, 2), (2, 1), (3, 1), (3, 2)]),
    )
    database.add_table("r2", Relation(["b"], [(1,), (2,)]))
    database.add_table("r3", Relation(["b", "c"], [(1, 10), (2, 10), (1, 20)]))
    return database


class TestRegistration:
    def test_small_divide_view_is_maintained(self):
        db = fresh_db()
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        assert view.maintained
        assert db.views == ("q",)
        assert db.view("q") is view
        assert view.tables == frozenset({"r1", "r2"})

    def test_great_divide_view_is_maintained(self):
        db = fresh_db()
        view = db.create_view("g", db.table("r1").great_divide(db.table("r3")))
        assert view.maintained
        assert view.relation() == great_divide(db.relation("r1"), db.relation("r3"))

    def test_selection_inputs_stay_maintained(self):
        db = fresh_db()
        from repro.algebra import predicates as P

        query = db.table("r1").where(P.Comparison(P.attr("a"), "<", 3))
        view = db.create_view("q", query.divide(db.table("r2"), on=["b"]))
        assert view.maintained
        expected = small_divide(
            db.relation("r1").select(P.Comparison(P.attr("a"), "<", 3)),
            db.relation("r2"),
        )
        assert view.relation() == expected

    def test_sql_defined_view_is_maintained(self):
        """The SQL translator's alias wrapper (ρ over identity π) peels."""
        db = fresh_db()
        view = db.create_view(
            "q", db.sql("SELECT a FROM r1 AS s DIVIDE BY r2 AS p ON s.b = p.b")
        )
        assert view.maintained
        assert view.schema.names == ("a",)
        assert set(view.relation().aligned_tuples()) == {(1,), (3,)}
        db.insert("r1", [(2, 2)])
        assert set(view.relation().aligned_tuples()) == {(1,), (2,), (3,)}

    def test_reordering_projection_is_maintained(self):
        db = fresh_db()
        from repro.algebra import builders as B

        reordered = B.project(
            db.table("r1").great_divide(db.table("r3")).expression, ["c", "a"]
        )
        view = db.create_view("q", db.query(reordered))
        assert view.maintained and view.shape.order == (1, 0)
        expected = great_divide(db.relation("r1"), db.relation("r3"))
        assert view.schema.names == ("c", "a")
        assert set(view.relation().aligned_tuples()) == {
            (c, a) for a, c in expected.aligned_tuples()
        }

    def test_dropping_projection_falls_back(self):
        db = fresh_db()
        from repro.algebra import builders as B

        dropped = B.project(db.table("r1").great_divide(db.table("r3")).expression, ["c"])
        view = db.create_view("q", db.query(dropped))
        assert not view.maintained
        assert "Project" in view.unsupported_reason

    def test_projection_input_falls_back(self):
        db = fresh_db()
        query = db.table("r1").project(["a", "b"]).divide(db.table("r2"), on=["b"])
        view = db.create_view("q", query)
        assert not view.maintained
        assert view.unsupported_reason
        assert view.relation() == small_divide(db.relation("r1"), db.relation("r2"))

    def test_non_division_top_level_falls_back(self):
        db = fresh_db()
        view = db.create_view("p", db.table("r1").project(["a"]))
        assert not view.maintained
        assert view.relation() == db.relation("r1").project(["a"])

    def test_duplicate_name_rejected(self):
        db = fresh_db()
        db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        with pytest.raises(ViewError, match="already exists"):
            db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))

    def test_table_shadowing_rejected(self):
        db = fresh_db()
        with pytest.raises(ViewError, match="shadow"):
            db.create_view("r1", db.table("r1").divide(db.table("r2"), on=["b"]))

    def test_drop_view_stops_maintenance(self):
        db = fresh_db()
        db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        db.drop_view("q")
        assert db.views == ()
        db.insert("r1", [(9, 1)])  # must not blow up on a dropped view


class TestMaintenance:
    def test_dividend_insert_adds_quotient_member(self):
        db = fresh_db()
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        assert set(view.relation().aligned_tuples()) == {(1,), (3,)}
        db.insert("r1", [(2, 2)])
        assert set(view.relation().aligned_tuples()) == {(1,), (2,), (3,)}
        assert view.deltas_applied == 1

    def test_dividend_delete_evicts_quotient_member(self):
        db = fresh_db()
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        view.run()
        db.delete("r1", [(1, 2)])
        assert set(view.relation().aligned_tuples()) == {(3,)}

    def test_divisor_grow_and_shrink(self):
        db = fresh_db()
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        view.run()
        db.insert("r2", [(3,)])  # nobody has b=3: quotient empties
        assert set(view.relation().aligned_tuples()) == set()
        db.delete("r2", [(3,)])  # back to the original threshold
        assert set(view.relation().aligned_tuples()) == {(1,), (3,)}
        db.delete("r2", [(2,)])  # only b=1 required now
        assert set(view.relation().aligned_tuples()) == {(1,), (2,), (3,)}

    def test_mutation_of_unrelated_table_is_ignored(self):
        db = fresh_db()
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        view.run()
        before = view.deltas_applied
        db.insert("r3", [(9, 99)])
        assert view.deltas_applied == before

    def test_maintained_result_is_reused_until_mutation(self):
        db = fresh_db()
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        first = view.run()
        assert view.run() is first
        db.insert("r1", [(7, 1), (7, 2)])
        second = view.run()
        assert second is not first
        assert (7,) in set(second.relation.aligned_tuples())

    def test_rules_fired_name_the_delta_rules(self):
        db = fresh_db()
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        view.run()
        db.insert("r1", [(7, 1)])
        db.delete("r1", [(7, 1)])
        result = view.run()
        assert "delta_dividend_insert" in result.rules_fired
        assert "delta_dividend_delete" in result.rules_fired

    def test_fallback_view_reads_through_the_session_result_cache(self):
        db = fresh_db()
        query = db.table("r1").project(["a", "b"]).divide(db.table("r2"), on=["b"])
        view = db.create_view("q", query)
        assert not view.run().result_cache_hit
        assert view.run().result_cache_hit
        db.insert("r1", [(2, 2)])
        after = view.run()
        assert not after.result_cache_hit
        assert set(after.relation.aligned_tuples()) == {(1,), (2,), (3,)}

    def test_fallback_view_recomputes_after_mutation(self):
        db = fresh_db()
        query = db.table("r1").project(["a", "b"]).divide(db.table("r2"), on=["b"])
        view = db.create_view("q", query)
        assert set(view.relation().aligned_tuples()) == {(1,), (3,)}
        db.delete("r1", [(3, 2)])
        assert set(view.relation().aligned_tuples()) == {(1,)}


REORDERED = "SELECT color, s_no FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no"


def assert_same_answer(view_result, query_result):
    """Same columns in the same order, same rows."""
    assert view_result.schema.names == query_result.schema.names
    assert set(view_result.aligned_tuples()) == set(query_result.aligned_tuples())


class TestSelectListOrder:
    """A view answers in its select list's order and stays maintained."""

    def textbook_db(self):
        from repro.workloads import textbook_catalog

        return connect(textbook_catalog)

    def test_c_before_a_is_maintained(self):
        db = self.textbook_db()
        view = db.create_view("v", REORDERED)
        assert view.maintained
        assert view.schema.names == ("color", "s_no")
        assert_same_answer(view.relation(), db.sql(REORDERED).run().relation)

    def test_equals_the_query_after_an_insert(self):
        db = self.textbook_db()
        view = db.create_view("v", REORDERED)
        view.run()
        parts = db.relation("parts").project(["p_no"]).aligned_tuples()
        db.insert("supplies", [("s9", p_no) for (p_no,) in parts])
        assert view.deltas_applied > 0
        assert ("red", "s9") in set(view.relation().aligned_tuples())
        assert_same_answer(view.relation(), db.sql(REORDERED).run().relation)

    def test_equals_the_query_after_a_delete(self):
        db = self.textbook_db()
        view = db.create_view("v", REORDERED)
        before = set(view.relation().aligned_tuples())
        db.delete("supplies", [db.relation("supplies").aligned_tuples()[0]])
        assert view.deltas_applied == 1
        assert_same_answer(view.relation(), db.sql(REORDERED).run().relation)
        assert set(view.relation().aligned_tuples()) <= before

    def test_renamed_select_list_keeps_its_order(self):
        db = self.textbook_db()
        text = (
            "SELECT color AS shade, s_no AS who FROM supplies AS s "
            "DIVIDE BY parts AS p ON s.p_no = p.p_no"
        )
        view = db.create_view("v", text)
        assert view.maintained and view.schema.names == ("shade", "who")
        db.delete("parts", [db.relation("parts").aligned_tuples()[0]])
        assert_same_answer(view.relation(), db.sql(text).run().relation)

    def test_in_order_select_list_needs_no_permutation(self):
        db = self.textbook_db()
        view = db.create_view(
            "v", "SELECT s_no, color FROM supplies AS s DIVIDE BY parts AS p ON s.p_no = p.p_no"
        )
        assert view.maintained and view.shape.in_order


class TestExplain:
    def test_maintained_header_reports_deltas(self):
        db = fresh_db()
        view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        view.run()
        db.insert("r1", [(7, 1), (7, 2)])
        text = view.explain()
        assert text.startswith("view        : q\n")
        assert "maintained  : yes · deltas applied=2" in text

    def test_fallback_header_reports_reason(self):
        db = fresh_db()
        query = db.table("r1").project(["a", "b"]).divide(db.table("r2"), on=["b"])
        view = db.create_view("q", query)
        text = view.explain()
        assert "maintained  : no (" in text
        assert "full recompute on read" in text


class TestVerifyIntegration:
    def test_views_verify_clean_through_their_lifecycle(self):
        db = fresh_db()
        db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
        assert db.verify_view("q").ok
        db.view("q").run()
        db.insert("r1", [(6, 1), (6, 2)])
        db.delete("r2", [(2,)])
        assert db.verify_view("q").ok

    def test_reordered_and_fallback_views_verify_clean(self):
        db = fresh_db()
        reordered = db.sql("SELECT c, a FROM r1 AS s DIVIDE BY r3 AS t ON s.b = t.b")
        db.create_view("g", reordered)
        fallback = db.table("r1").project(["a", "b"]).divide(db.table("r2"), on=["b"])
        db.create_view("f", fallback)
        assert db.view("g").maintained and not db.view("f").maintained
        db.insert("r1", [(6, 1), (6, 2)])
        assert db.verify_view("g").ok
        assert db.verify_view("f").ok
