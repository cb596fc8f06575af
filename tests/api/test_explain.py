"""EXPLAIN rendering through the session API."""

import pytest

from repro.api import connect
from repro.experiments.queries import Q1, Q2
from repro.workloads import textbook_catalog


@pytest.fixture
def db():
    return connect(textbook_catalog)


class TestExplain:
    def test_sections_are_present(self, db):
        text = db.sql(Q2).explain()
        assert "SQL" in text
        assert "fingerprint :" in text
        assert "Logical plan (as written)" in text
        assert "Rewrite rules fired :" in text
        assert "Logical plan (canonical, rewritten)" in text
        assert "Estimated cost :" in text
        assert "Physical plan" in text

    def test_estimates_annotate_every_line(self, db):
        text = db.sql(Q2).explain()
        plan_lines = [
            line
            for line in text.splitlines()
            if line.startswith("  ") and "[" in line and "SQL" not in line
        ]
        assert plan_lines
        assert all("est~" in line or "est=?" in line for line in plan_lines)

    def test_analyze_shows_actual_counts(self, db):
        text = db.sql(Q2).explain(analyze=True)
        assert "actual=" in text
        assert "max intermediate" in text
        assert "elapsed" in text

    def test_plain_explain_does_not_execute(self, db):
        text = db.sql(Q2).explain()
        assert "actual=" not in text

    def test_explain_populates_the_plan_cache(self, db):
        db.sql(Q2).explain()
        assert db.cache_info().misses == 1
        result = db.sql(Q2).run()
        assert result.cache_hit
        assert "plan cache: hit" in db.sql(Q2).explain()

    def test_canonical_tree_is_clean_for_q1(self, db):
        text = db.sql(Q1).explain()
        canonical = text.split("Logical plan (canonical, rewritten)")[1]
        physical = canonical.split("Physical plan")[0]
        assert "Rename" not in physical

    def test_fluent_queries_explain_without_sql_section(self, db):
        text = db.table("supplies").divide(db.table("parts")).explain()
        assert not text.startswith("SQL")
        assert "Physical plan" in text

    def test_database_explain_shortcut(self, db):
        assert "Physical plan" in db.explain(Q1)


class TestEstimatedCost:
    """``Estimated cost : a -> b`` is the physical cost model's price of the
    plan for the query as written and of the plan that runs."""

    @pytest.fixture
    def divisor_union(self):
        from repro.workloads import make_division_workload

        workload = make_division_workload(num_groups=60, divisor_size=6, seed=4)
        values = sorted(workload.divisor.to_set("b"))
        half = set(values[: len(values) // 2])
        db = connect(
            {
                "r1": workload.dividend,
                "r2a": workload.divisor.select(lambda row: row["b"] in half),
                "r2b": workload.divisor.select(lambda row: row["b"] not in half),
            }
        )
        return db, db.table("r1").divide(db.table("r2a").union(db.table("r2b")))

    def test_the_prices_are_the_two_plans(self, divisor_union):
        db, query = divisor_union
        result = query.run()
        assert "law_01_divisor_union_split" in result.rules_fired
        before = db.optimizer.cost(result.expression)
        after = db.optimizer.cost(result.rewritten)
        assert result.estimated_cost_before == pytest.approx(before)
        assert result.estimated_cost_after == pytest.approx(after)
        assert f"Estimated cost : {before:.0f} -> {after:.0f} " in query.explain()

    def test_the_price_after_is_the_plan_that_ran(self, divisor_union):
        """With no rule fired the two prices are one: the hash division that
        ran, over its two scans."""
        db, _query = divisor_union
        result = db.table("r1").divide(db.table("r2a")).run()
        assert result.rules_fired == ()
        assert result.estimated_cost_before == result.estimated_cost_after
        assert result.estimated_cost_after == pytest.approx(db.optimizer.cost(result.rewritten))
        assert "00:hash_division" in result.tuple_counts
        scans = db.optimizer.cost(db.table("r1").expression) + db.optimizer.cost(
            db.table("r2a").expression
        )
        assert result.estimated_cost_after > scans


class TestExplainAnalyzeQError:
    def test_every_physical_node_reports_estimate_actual_and_q_error(self, db):
        text = db.sql(Q2).explain(analyze=True)
        physical = text.split("Physical plan")[1]
        node_lines = [
            line for line in physical.splitlines() if "[" in line and "rows]" in line
        ]
        assert node_lines
        for line in node_lines:
            assert "est~" in line, line
            assert "actual=" in line, line
            assert "q=" in line, line

    def test_algebra_simulation_inner_nodes_get_fallback_estimates(self):
        """Composite algorithms have no logical twin; the bottom-up physical
        estimator must still annotate every inner operator."""
        from repro.optimizer import PlannerOptions
        from repro.workloads import make_division_workload

        workload = make_division_workload(num_groups=30, divisor_size=4, seed=2)
        db = connect(
            {"r1": workload.dividend, "r2": workload.divisor},
            planner_options=PlannerOptions(small_divide_algorithm="algebra_simulation"),
        )
        text = db.table("r1").divide("r2").explain(analyze=True)
        physical = text.split("Physical plan")[1]
        node_lines = [
            line for line in physical.splitlines() if "[" in line and "rows]" in line
        ]
        assert len(node_lines) > 3  # the expanded inner plan is visible
        assert all("est~" in line and "q=" in line for line in node_lines)
        assert "est=?" not in physical

    def test_each_division_is_one_operator_of_its_kind(self, db):
        """No alternatives are priced, so none are listed: the plan names
        the one operator of each kind."""
        great = db.sql(Q1).explain().split("Physical plan")[1]
        small = db.sql(Q2).explain().split("Physical plan")[1]
        assert great.split()[0] == "nested_loops_great_division"
        assert small.split()[0] == "hash_division"
        assert "algorithm=" not in great + small and "alternatives" not in great + small

    def test_q_error_helper(self):
        from repro.api.explain import q_error

        assert q_error(10, 10) == 1.0
        assert q_error(5, 20) == 4.0
        assert q_error(20, 5) == 4.0
        assert q_error(0, 0) == 1.0


class TestKeyColumnAnnotations:
    """``explain(analyze=True)`` says where each division read its keys,
    which kernel ran, and how each ``Filter`` filtered."""

    SELECTIVE = (
        "SELECT s_no FROM (SELECT s_no, p_no FROM supplies WHERE s_no >= 's2') AS s "
        "DIVIDE BY (SELECT p_no FROM parts WHERE color = 'red') AS p ON s.p_no = p.p_no"
    )

    @staticmethod
    def physical_section(text):
        section = text.split("Physical plan", 1)[1]
        # estimates, costs and timings vary; the annotations are the snapshot
        return [line.strip() for line in section.splitlines() if line.strip().startswith("·")]

    def test_snapshot_of_a_dictionary_filtered_division(self, db):
        from repro.physical import active_kernel

        text = db.sql(self.SELECTIVE).explain(analyze=True)
        assert self.physical_section(text) == [
            f"· keys: cached codes (1 chunk) → coded quotient, kernel: {active_kernel().name}",
            "· bitmap: s_no → p_no, 5 rows × 3 bits, built from the encoding, "
            "σ on s_no masks candidates",
            "· filtered on the dictionary",
            # the divisor's projection above its filter eliminates duplicates
            "· filtered on the dictionary",
        ]

    def test_keys_line_says_what_the_division_emitted(self):
        """Single-attribute key sides leave as code columns over their own
        dictionaries (Q1's great divide: ``s_no`` and ``color``); a quotient
        side of several attributes decodes through its key tuples."""
        from repro.relation import Relation

        great = connect(textbook_catalog).sql(Q1).explain(analyze=True)
        assert "· keys: cached codes (1 chunk) → coded quotient, kernel: " in great
        composite = connect(
            {
                "r1": Relation(["a1", "a2", "b"], [(a, -a, b) for a in range(4) for b in range(a + 1)]),
                "r2": Relation(["b"], [(0,), (1,)]),
            }
        ).sql("SELECT a1, a2 FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b")
        assert composite.run().relation.to_tuples(["a1", "a2"]) == {(1, -1), (2, -2), (3, -3)}
        assert "· keys: cached codes (1 chunk) → tuples, kernel: " in composite.explain(analyze=True)

    def test_keys_line_counts_the_chunks_a_set_batch_size_cuts(self):
        """Batch size unset: the scan's block is one chunk.  Set, the eight
        ``supplies`` tuples come in slices: at one tuple a slice, the four
        with ``s_no >= 's2'`` are four chunks (whatever the scan order)."""
        for batch_size, chunks in ((None, "1 chunk"), (8, "1 chunk"), (1, "4 chunks")):
            text = connect(textbook_catalog, batch_size=batch_size).sql(self.SELECTIVE).explain(
                analyze=True
            )
            assert f"· keys: cached codes ({chunks}) → coded quotient, kernel: " in text

    def test_snapshot_of_a_stored_division(self, tmp_path):
        """The storage line: how the pages reach the plan (typed code
        buffers, 1 byte a code at these dictionary sizes; supplies as one
        deferred block, whose bitmap answers without its pages) and what
        the analyzed run read — supplies: nothing, parts: 5 tuples x 2
        columns."""
        from repro.physical import active_kernel

        connect(textbook_catalog).save(tmp_path / "store")
        stored = connect(tmp_path / "store")
        text = stored.sql(self.SELECTIVE).explain(analyze=True)
        assert self.physical_section(text) == [
            f"· keys: cached codes (1 chunk) → coded quotient, kernel: {active_kernel().name}",
            "· bitmap: s_no → p_no, 5 rows × 3 bits, built from 1 blocks, "
            "σ on s_no masks candidates",
            "· filtered on the dictionary",
            "· storage: blocks=1, pages: code buffers, one deferred block, "
            "zone-map skip on s_no >= 's2', skipped=0, read 0 bytes",
            "· filtered on the dictionary",
            "· storage: blocks=1, pages: code buffers, zone-map skip on color = 'red', "
            "skipped=0, read 10 bytes",
        ]
        static = self.physical_section(stored.sql(self.SELECTIVE).explain())
        assert (
            "· storage: blocks=1, pages: code buffers, one deferred block, "
            "zone-map skip on s_no >= 's2'"
        ) in static
        assert not any("read" in line or "skipped=" in line for line in static)

    def test_raw_pages_are_reported(self, tmp_path):
        """A column without a dictionary page: blocks are decoded to tuples."""
        from repro.storage import StoredRelation, StoredScan, TableReader
        from tests.storage.tables import write_tuples

        write_tuples(tmp_path / "t.rpb", "t", ("a", "b"), [(1, [1]), (2, [2, 3])])
        scan = StoredScan(StoredRelation(TableReader(tmp_path / "t.rpb")))
        assert scan.page_kind == "raw"
        assert [chunk.tuples for chunk in scan.chunks()] == [[(1, [1]), (2, [2, 3])]]
        assert scan.bytes_read == sum(meta["length"] for meta in scan.relation.reader.blocks)

    def test_plain_explain_claims_nothing_about_an_execution(self, db):
        text = db.sql(self.SELECTIVE).explain()
        assert "keys:" not in text and "filtered" not in text

    def test_a_filter_that_fell_back_says_per_tuple(self):
        """``n >= 2`` raises on the dictionary's string entries, which the
        first conjunct keeps from every comparison a tuple makes."""
        from repro.relation import Relation

        rows = [(i, i % 5) for i in range(20)] + [(100 + i, f"x{i}") for i in range(5)]
        db = connect({"t": Relation(["k", "n"], rows)})
        text = db.sql("SELECT k FROM t WHERE k < 100 AND n >= 2").explain(analyze=True)
        assert "· filtered per tuple" in self.physical_section(text)

    def test_pinned_kernel_is_reported(self, db):
        from repro.physical import use_kernel

        with use_kernel("python"):
            text = db.sql(Q2).explain(analyze=True)
        assert "· keys: cached codes (1 chunk) → coded quotient, kernel: python" in text


class TestPlannedOperator:
    """The physical plan's division is the default one, budget or not (the
    budget shows on the ``· exchange:`` line), and so is its price."""

    @staticmethod
    def explained(**options):
        text = connect(textbook_catalog, **options).sql(Q2).explain()
        (price,) = [line for line in text.splitlines() if line.startswith("Estimated cost")]
        return price, text.split("Physical plan")[1].split()[0]

    def test_the_default_is_hash_division(self):
        assert self.explained() == ("Estimated cost : 61 -> 61 (x1.00)", "hash_division")

    def test_a_budget_partitions_but_does_not_reprice(self):
        price, operator = self.explained(memory_budget_mb=0.0001)
        assert price == self.explained()[0]
        assert operator == "PartitionedDivision[hash,"
