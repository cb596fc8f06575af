"""The Database session: construction, execution path, plan cache."""

import pytest

import repro
from repro.algebra.catalog import Catalog
from repro.api import Database, connect
from repro.division import small_divide
from repro.errors import ReproError, SchemaError
from repro.experiments.queries import Q1, Q2, Q3
from repro.relation import Relation
from repro.workloads import textbook_catalog


@pytest.fixture
def db():
    return connect(textbook_catalog)


class TestConstruction:
    def test_from_catalog(self):
        catalog = textbook_catalog()
        db = Database(catalog)
        assert db.catalog is catalog
        assert set(db.tables) == {"supplies", "parts"}

    def test_from_relation_mapping(self):
        db = Database(
            {
                "r1": Relation(["a", "b"], [(1, 1), (1, 2)]),
                "r2": Relation(["b"], [(1,), (2,)]),
            }
        )
        result = db.table("r1").divide(db.table("r2")).run()
        assert sorted(result.relation.to_set("a")) == [1]

    def test_from_workload_generator_callable(self):
        db = connect(textbook_catalog)
        assert set(db.tables) == {"supplies", "parts"}

    def test_empty_session_populated_later(self):
        db = connect()
        assert db.tables == ()
        db.add_table("r1", Relation(["a", "b"], [(1, 1)]))
        assert db.relation("r1") == Relation(["a", "b"], [(1, 1)])

    def test_connect_is_exported_at_top_level(self):
        assert repro.connect is connect
        assert isinstance(repro.connect(textbook_catalog), repro.Database)

    def test_rejects_non_relation_values(self):
        with pytest.raises(ReproError):
            connect({"r1": [("a", 1)]})

    def test_rejects_unknown_sources(self):
        with pytest.raises(ReproError):
            connect(42)

    def test_generator_must_return_catalog_or_mapping(self):
        with pytest.raises(ReproError):
            connect(lambda: 42)

    def test_unknown_table_lookup(self, db):
        with pytest.raises(SchemaError):
            db.relation("nope")

    @pytest.mark.parametrize(
        "option,value",
        [
            ("batch_size", 0),
            ("batch_size", 1.5),
            ("batch_size", "8"),
            ("batch_size", True),
            ("cache_size", -1),
            ("cache_size", 2.5),
            ("result_cache_size", -1),
            ("result_cache_size", "64"),
            ("memory_budget_mb", 0),
            ("memory_budget_mb", "64"),
            ("memory_budget_mb", float("nan")),
            ("memory_budget_mb", float("inf")),
        ],
    )
    def test_a_malformed_option_is_rejected_by_name(self, option, value):
        """Checked at ``connect``, before anything is built: never a bare
        ``TypeError`` from a comparison, nor a value that fails later."""
        with pytest.raises(ReproError, match=option):
            connect(textbook_catalog, **{option: value})


class TestSingleExecutionPath:
    def test_run_bundles_everything_from_one_execution(self, db):
        result = db.sql(Q1).run()
        assert sorted(result.relation.to_tuples(["s_no", "color"])) == [
            ("s1", "blue"),
            ("s1", "red"),
            ("s2", "blue"),
            ("s2", "green"),
        ]
        assert result.tuple_counts  # per-operator counts present
        assert result.max_intermediate >= len(result.relation)
        assert result.elapsed_seconds > 0
        assert result.fingerprint
        assert result.estimated_cost_before > 0

    def test_execute_accepts_sql_text_query_and_expression(self, db):
        by_text = db.execute(Q2)
        by_query = db.execute(db.sql(Q2))
        by_expression = db.execute(db.sql(Q2).expression)
        assert by_text.relation == by_query.relation == by_expression.relation

    def test_query_of_other_session_is_rejected(self, db):
        other = connect(textbook_catalog)
        with pytest.raises(ReproError):
            db.execute(other.sql(Q1))

    def test_recognizer_default_can_be_disabled_per_session(self):
        db = connect(textbook_catalog, recognize_division=False)
        result = db.sql(Q3).run()
        assert not result.expression.contains_division()
        recognized = db.sql(Q3, recognize_division=True).run()
        assert recognized.expression.contains_division()
        assert result.relation == recognized.relation

    def test_an_answer_comes_in_its_select_lists_order_from_one_cached_result(self, db):
        swapped = db.sql("SELECT p_no, s_no FROM supplies").run()
        straight = db.sql("SELECT s_no, p_no FROM supplies").run()
        assert not swapped.result_cache_hit and straight.result_cache_hit
        assert swapped.relation.schema.names == ("p_no", "s_no")
        assert straight.relation.schema.names == straight.expression.schema.names == ("s_no", "p_no")
        assert swapped.relation == straight.relation
        # A coded answer is reordered by permuting its code columns: no copy.
        assert [id(column) for column in swapped.relation.code_columns] == [
            id(column) for column in reversed(straight.relation.code_columns)
        ]


class TestPlanCache:
    def test_repeated_query_hits_the_cache(self, db):
        first = db.sql(Q2).run()
        second = db.sql(Q2).run()
        assert not first.cache_hit
        assert second.cache_hit
        info = db.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1
        assert first.relation == second.relation
        assert first.tuple_counts == second.tuple_counts

    def test_cache_hit_skips_rewrite_and_planning(self, db, monkeypatch):
        calls = {"rewrite": 0, "plan": 0}
        original_rewrite = db.optimizer.rewrite
        original_plan = db.optimizer.plan

        def counting_rewrite(expression):
            calls["rewrite"] += 1
            return original_rewrite(expression)

        def counting_plan(expression):
            calls["plan"] += 1
            return original_plan(expression)

        monkeypatch.setattr(db.optimizer, "rewrite", counting_rewrite)
        monkeypatch.setattr(db.optimizer, "plan", counting_plan)

        db.sql(Q2).run()
        assert calls == {"rewrite": 1, "plan": 1}
        db.sql(Q2).run()
        assert calls == {"rewrite": 1, "plan": 1}  # untouched on the hit

    def test_equivalent_formulations_share_one_slot(self, db):
        db.sql(Q1).run()
        result = db.sql(Q3).run()  # Q3 canonicalizes to Q1's expression
        assert result.cache_hit
        assert db.cache_info().size == 1

    def test_prepare_pins_the_plan(self, db):
        query = db.prepare(Q2)
        assert db.cache_info().misses == 1
        result = query.run()
        assert result.cache_hit

    def test_lru_evicts_oldest(self):
        db = connect(textbook_catalog, cache_size=1)
        db.sql(Q1).run()
        db.sql(Q2).run()  # evicts Q1's plan
        assert db.cache_info().size == 1
        result = db.sql(Q1).run()
        assert not result.cache_hit

    def test_cache_can_be_disabled(self):
        db = connect(textbook_catalog, cache_size=0)
        db.sql(Q1).run()
        result = db.sql(Q1).run()
        assert not result.cache_hit
        assert db.cache_info().size == 0

    def test_clear_cache_resets_counters(self, db):
        db.sql(Q1).run()
        db.sql(Q1).run()
        db.clear_cache()
        info = db.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_replace_table_invalidates_plans(self, db):
        db.sql(Q2).run()
        assert db.cache_info().size == 1
        db.replace_table(
            "parts", Relation(["p_no", "color"], [("p1", "blue"), ("p9", "blue")])
        )
        assert db.cache_info().size == 0
        result = db.sql(Q2).run()
        assert not result.cache_hit
        # s1 and s2 supply p1 but nobody supplies p9.
        assert sorted(result.relation.to_set("s_no")) == []

    def test_hit_rate(self, db):
        db.sql(Q1).run()
        db.sql(Q1).run()
        assert db.cache_info().hit_rate == pytest.approx(0.5)


class TestCatalogManagement:
    def test_add_table_returns_query_root(self):
        db = connect()
        query = db.add_table("r1", Relation(["a", "b"], [(1, 2)]))
        assert query.run().relation == Relation(["a", "b"], [(1, 2)])

    def test_catalog_constraints_survive(self):
        catalog = Catalog()
        catalog.add_table("parts", Relation(["p_no"], [("p1",)]), key=["p_no"])
        db = Database(catalog)
        assert db.catalog.has_key("parts", ["p_no"])


def session_state(db):
    """Everything a refused table call must leave as it was."""
    catalog = db.catalog
    return (
        db.tables,
        db.versions,
        catalog.declared_keys,
        {name: catalog[name] for name in catalog},
        db.cache_info(),
    )


class TestRefusedTableCallsChangeNothing:
    """Arguments are checked before the catalog is touched: a refused call
    raises a typed error and a retry with good arguments succeeds."""

    RELATION = Relation(["a"], [(1,), (2,)])

    @pytest.mark.parametrize(
        "name, relation, key",
        [
            ("", RELATION, None),
            (5, RELATION, None),
            (None, RELATION, None),
            ("t", [(1,)], None),
            ("t", "x", None),
            ("t", RELATION, ["missing"]),
        ],
    )
    def test_add_table(self, db, name, relation, key):
        db.sql(Q2).run()
        before = session_state(db)
        with pytest.raises(SchemaError):
            db.add_table(name, relation, key=key)
        with pytest.raises(SchemaError):
            db.catalog.add_table(name, relation, key=key)
        assert session_state(db) == before
        assert "t" not in db.catalog and "" not in db.catalog
        db.add_table("t", self.RELATION, key=["a"])
        assert db.tables == (*before[0], "t") and db.catalog.has_key("t", ["a"])

    @pytest.mark.parametrize("relation", ["x", [(1, 2)], None])
    def test_replace_table_with_a_non_relation(self, db, relation):
        before = session_state(db)
        with pytest.raises(SchemaError, match="must be a Relation"):
            db.replace_table("parts", relation)
        with pytest.raises(SchemaError, match="must be a Relation"):
            db.catalog.replace_table("parts", relation)
        assert session_state(db) == before

    def test_replace_table_under_a_bad_name(self, db):
        with pytest.raises(SchemaError):
            db.catalog.replace_table(7, self.RELATION)
        with pytest.raises(SchemaError):
            db.replace_table("missing", self.RELATION)

    @pytest.mark.parametrize("name", [1, "", ("t",)])
    def test_connect_refuses_a_name_that_is_not_a_nonempty_string(self, name):
        with pytest.raises(ReproError, match="table name"):
            connect({name: self.RELATION})


class TestMutationRowsNameOnlyTheTablesAttributes:
    """A mapping row that names an attribute the table lacks is refused
    before anything is recorded, by insert and by delete alike."""

    def test_insert_with_an_unknown_attribute(self, db):
        db.sql(Q2).run()
        before = session_state(db)
        with pytest.raises(SchemaError, match="zzz"):
            db.insert("supplies", [{"s_no": "s9", "p_no": "p1", "zzz": 9}])
        assert session_state(db) == before
        assert db.insert("supplies", [{"s_no": "s9", "p_no": "p1"}]).version == 1

    def test_delete_with_an_unknown_attribute(self, db):
        row = next(iter(db.relation("supplies")))
        mapping = {"s_no": row["s_no"], "p_no": row["p_no"]}
        db.sql(Q2).run()
        before = session_state(db)
        with pytest.raises(SchemaError, match="zzz"):
            db.delete("supplies", [{**mapping, "zzz": 9}])
        assert session_state(db) == before and row in db.relation("supplies")
        assert len(db.delete("supplies", [mapping]).deleted) == 1

    def test_one_bad_row_refuses_the_batch(self, db):
        before = session_state(db)
        rows = [{"s_no": "s9", "p_no": "p1"}, {"s_no": "s9", "p_no": "p2", "colour": "red"}]
        with pytest.raises(SchemaError, match="colour"):
            db.insert("supplies", rows)
        assert session_state(db) == before


class TestSqlArguments:
    """``sql`` checks its arguments at the call and names the one it refuses."""

    @pytest.mark.parametrize("text", [5, b"SELECT s_no FROM supplies", None, ["SELECT"]])
    def test_text_must_be_a_str(self, db, text):
        with pytest.raises(ReproError, match="text must be a str"):
            db.sql(text)

    @pytest.mark.parametrize("flag", ["no", 1, 0, "yes"])
    def test_recognize_division_must_be_a_bool_or_none(self, db, flag):
        with pytest.raises(ReproError, match="recognize_division must be a bool or None"):
            db.sql(Q2, recognize_division=flag)

    @pytest.mark.parametrize("flag", [None, True, False])
    def test_good_arguments_run(self, db, flag):
        assert db.sql(Q2, recognize_division=flag).run().relation == db.sql(Q2).run().relation


class TestAnalyze:
    def test_analyze_refreshes_statistics(self):
        db = connect()
        db.add_table("r1", Relation(["a", "b"], [(1, 1), (1, 2), (2, 1)]))
        report = db.analyze()
        assert set(report.tables) == {"r1"}
        stats = report.tables["r1"]
        assert stats.cardinality == 3
        assert stats.distinct_values == {"a": 2, "b": 2}
        assert stats.minimum("a") == 1 and stats.maximum("a") == 2

    def test_analyze_does_not_depend_on_the_scan_order(self):
        dividend = Relation(["a", "b"], [(g, v) for g in range(50) for v in range(4)])
        divisor = Relation(["b"], [(0,), (1,)])
        plain = connect({"r1": dividend, "r2": divisor}).analyze("r1")
        clustered = connect({"r1": dividend.clustered(["a"]), "r2": divisor}).analyze("r1")
        assert clustered.tables == plain.tables
        assert clustered.render() == plain.render() and "sorted" not in plain.render()

    def test_analyze_subset_of_tables(self, db):
        report = db.analyze("parts")
        assert set(report.tables) == {"parts"}

    def test_analyze_clears_the_plan_cache(self, db):
        db.sql(Q2).prepare()
        assert db.cache_info().size == 1
        db.analyze()
        assert db.cache_info().size == 0

    def test_analyze_report_renders(self, db):
        text = db.analyze().render()
        assert "supplies" in text and "distinct=" in text

    def test_replace_table_refreshes_statistics_and_price(self):
        """Replacing a table refreshes its statistics (``_refresh`` keeps
        them current on catalog changes): the price moves, the plan is
        hash division either way."""
        from repro.workloads import make_division_workload

        workload = make_division_workload(
            num_groups=400, divisor_size=8, containing_fraction=0.25,
            extra_values_per_group=6, seed=1,
        )
        db = connect({"r1": workload.dividend, "r2": workload.divisor})
        before = db.table("r1").divide("r2").run()
        smaller = workload.dividend.select(lambda row: row["a"] % 2 == 0)
        db.replace_table("r1", smaller)
        assert db.optimizer.statistics.table("r1").cardinality == len(smaller)
        after = db.table("r1").divide("r2").run()
        assert after.estimated_cost_after < before.estimated_cost_after
        assert "00:hash_division" in after.tuple_counts and "00:hash_division" in before.tuple_counts
        assert after.relation == small_divide(smaller, workload.divisor)

    def test_analyze_repairs_stale_statistics(self):
        """ANALYZE itself refreshes the price: with deliberately stale
        statistics planted in the catalog the plan is mispriced, and
        ``db.analyze()`` (with no table changes at all) restores the
        data-driven price."""
        from repro.optimizer import TableStatistics
        from repro.workloads import make_division_workload

        workload = make_division_workload(
            num_groups=400, divisor_size=8, containing_fraction=0.25,
            extra_values_per_group=6, seed=1,
        )
        tables = {"r1": workload.dividend.clustered(["a"]), "r2": workload.divisor}
        db = connect(tables)
        # Plant drifted statistics: a tiny r1.
        db.optimizer.statistics.add(
            "r1", TableStatistics(cardinality=4, distinct_values={"a": 2, "b": 2})
        )
        db.clear_cache()
        stale = db.table("r1").divide("r2").run()
        fresh_price = connect(tables).table("r1").divide("r2").run().estimated_cost_after
        assert stale.estimated_cost_after < fresh_price  # fooled
        report = db.analyze()
        assert report.tables["r1"].cardinality == len(workload.dividend)
        fresh = db.table("r1").divide("r2").run()
        assert fresh.estimated_cost_after == fresh_price
        assert fresh.relation == stale.relation

    def test_analyze_unknown_table_raises_schema_error(self, db):
        with pytest.raises(SchemaError) as excinfo:
            db.analyze("missing")
        assert "missing" in str(excinfo.value)
        assert "supplies" in str(excinfo.value)
