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

    def test_division_decision_rationale_is_shown(self, db):
        text = db.sql(Q1).explain()
        assert "algorithm=" in text
        assert "cost-based" in text
        assert "alternatives:" in text

    def test_q_error_helper(self):
        from repro.api.explain import q_error

        assert q_error(10, 10) == 1.0
        assert q_error(5, 20) == 4.0
        assert q_error(20, 5) == 4.0
        assert q_error(0, 0) == 1.0


class TestKeyColumnAnnotations:
    """``explain(analyze=True)`` says where each division read its keys,
    which kernel ran, and how each compiled segment filtered."""

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
        assert (
            "compiled    : yes · 2 segments · filters: 1 on the dictionary, 1 per tuple" in text
        )
        annotations = [
            line for line in self.physical_section(text) if not line.startswith("· algorithm=")
        ]
        assert annotations == [
            f"· keys: cached codes (1 chunk) → coded quotient, kernel: {active_kernel().name}",
            "· compiled segment (1 operator(s) fused, filtered on the dictionary)",
            # the divisor's projection drops ``color``: it eliminates duplicates
            "· compiled segment (2 operator(s) fused, filtered per tuple)",
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
        buffers, 1 byte a code at these dictionary sizes) and what the
        analyzed run read — supplies: 8 tuples x 2 columns, parts: 5 x 2."""
        from repro.physical import active_kernel

        connect(textbook_catalog).save(tmp_path / "store")
        stored = connect(tmp_path / "store")
        text = stored.sql(self.SELECTIVE).explain(analyze=True)
        annotations = [
            line for line in self.physical_section(text) if not line.startswith("· algorithm=")
        ]
        assert annotations == [
            f"· keys: cached codes (1 chunk) → coded quotient, kernel: {active_kernel().name}",
            "· compiled segment (1 operator(s) fused, filtered on the dictionary)",
            "· storage: blocks=1, pages: code buffers, zone-map skip on s_no >= 's2', "
            "skipped=0, read 16 bytes",
            "· compiled segment (2 operator(s) fused, filtered per tuple)",
            "· storage: blocks=1, pages: code buffers, zone-map skip on color = 'red', "
            "skipped=0, read 10 bytes",
        ]
        static = self.physical_section(stored.sql(self.SELECTIVE).explain())
        assert "· storage: blocks=1, pages: code buffers, zone-map skip on s_no >= 's2'" in static
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
        assert "compiled    : yes · 2 segments\n" in text
        assert "keys:" not in text and "filtered" not in text

    def test_interpreted_filter_encodes_on_the_fly(self):
        db = connect(textbook_catalog, compile=False)
        text = db.sql(self.SELECTIVE).explain(analyze=True)
        assert "· keys: encoded on the fly → coded quotient, kernel: " in text
        assert "filters:" not in text

    def test_pinned_kernel_is_reported(self, db):
        from repro.physical import use_kernel

        with use_kernel("python"):
            text = db.sql(Q2).explain(analyze=True)
        assert "· keys: cached codes (1 chunk) → coded quotient, kernel: python" in text


class TestWhyItStayedSerial:
    """With ``workers > 1`` the ``· algorithm=`` line shows what the
    exchange was priced at: on the cheapest parallel variant next to the
    serial price that beat it, or on the chosen variant when it won."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, cpus):
        cpus(4)

    @staticmethod
    def algorithm_line(**options):
        text = connect(textbook_catalog, **options).sql(Q2).explain()
        (line,) = [line.strip() for line in text.splitlines() if "· algorithm=" in line]
        return line

    def test_serial_winner_names_the_three_charges_of_the_cheapest_parallel_variant(self):
        assert self.algorithm_line(workers=2) == (
            "· algorithm=nested_loops (cost-based, est cost 22); alternatives: "
            "algebra_simulation=36, merge_sort=41, hash=45, merge_count=47, "
            "nested_loops[dop=2]=120249 (exchange=186 tasks=120000 sub-plan=63), "
            "algebra_simulation[dop=2]=120256, merge_sort[dop=2]=120259, "
            "hash[dop=2]=120261, merge_count[dop=2]=120262"
        )

    def test_serial_session_prices_no_exchange(self):
        assert self.algorithm_line() == (
            "· algorithm=nested_loops (cost-based, est cost 22); alternatives: "
            "algebra_simulation=36, merge_sort=41, hash=45, merge_count=47"
        )

    def test_budget_that_removed_the_serial_candidates_says_so(self):
        assert self.algorithm_line(workers=2, memory_budget_mb=0.0001) == (
            "· algorithm=nested_loops (cost-based, est cost 120630, dop=2, partitions=2: "
            "exchange=567 tasks=120000 sub-plan=63); alternatives: "
            "algebra_simulation[dop=2]=120637, merge_sort[dop=2]=120640, "
            "hash[dop=2]=120642, merge_count[dop=2]=120643; serial: over memory budget"
        )
