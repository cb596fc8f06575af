"""Session-level plumbing of partition-parallel execution.

``repro.connect(workers=N)`` → ``PlannerOptions.workers`` → cost-based
exchange placement → ``execute_plan(..., workers=N)``; plus the
``explain(analyze=True)`` exchange annotation and the CLI flag.

A hash division on dictionary codes is never worth an exchange, so the
sessions below get theirs the two ways a real one does: from a quadratic
algorithm (forced here; coded input) and from a memory budget the input
outgrows (tuple input, spills).
"""

import pytest

import repro
from repro.api.fingerprint import optimizer_signature
from repro.cli import main
from repro.errors import ReproError
from repro.optimizer.planner import PlannerOptions
from repro.workloads import make_division_workload

DIVIDE_SQL = "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b"


#: The quadratic small-divide algorithm: candidates × dividend tuples.
QUADRATIC = PlannerOptions(small_divide_algorithm="nested_loops")


@pytest.fixture(autouse=True)
def four_cpus(cpus):
    cpus(4)


@pytest.fixture(scope="module")
def medium_workload():
    """~7k dividend tuples: enough for a quadratic division to be worth an
    exchange, and many times a 0.05 MB budget."""
    return make_division_workload(
        num_groups=600, divisor_size=10, containing_fraction=0.25, extra_values_per_group=6, seed=21
    )


@pytest.fixture(scope="module")
def tables(medium_workload):
    return {"r1": medium_workload.dividend, "r2": medium_workload.divisor}


class TestConnectWorkers:
    def test_parallel_session_matches_serial_results(self, tables):
        serial = repro.connect(tables).sql(DIVIDE_SQL).run()
        parallel = repro.connect(tables, planner_options=QUADRATIC, workers=4).sql(DIVIDE_SQL).run()
        assert parallel.relation == serial.relation
        decision = parallel.decisions[0]
        assert decision.chosen.workers == 4
        assert "dop=4" in decision.describe()

    def test_coded_hash_division_stays_serial_at_any_worker_count(self, tables):
        result = repro.connect(tables, workers=4).sql(DIVIDE_SQL).run()
        decision = result.decisions[0]
        assert (decision.chosen.name, decision.chosen.workers) == ("hash", 1)
        assert "hash[dop=4]=" in decision.describe()

    def test_workers_property_and_validation(self, tables):
        assert repro.connect(tables).workers == 1
        assert repro.connect(tables, workers=3).workers == 3
        with pytest.raises(ReproError, match="workers"):
            repro.connect(tables, workers=0)

    def test_workers_kw_overrides_planner_options(self, tables):
        db = repro.connect(tables, planner_options=PlannerOptions(workers=2), workers=4)
        assert db.planner_options.workers == 4

    def test_small_inputs_stay_serial_through_the_api(self):
        small = make_division_workload(
            num_groups=50, divisor_size=5, containing_fraction=0.3, extra_values_per_group=3, seed=7
        )
        db = repro.connect({"r1": small.dividend, "r2": small.divisor}, workers=4)
        result = db.sql(DIVIDE_SQL).run()
        assert result.decisions[0].chosen.workers == 1

    def test_signature_depends_on_workers(self):
        serial = optimizer_signature(False, PlannerOptions())
        parallel = optimizer_signature(False, PlannerOptions(workers=4))
        repartitioned = optimizer_signature(False, PlannerOptions(workers=4, partitions=16))
        assert len({serial, parallel, repartitioned}) == 3


class TestExplainExchange:
    def test_static_explain_reports_partitions_and_workers(self, tables):
        db = repro.connect(tables, planner_options=QUADRATIC, workers=2)
        text = db.sql(DIVIDE_SQL).explain()
        assert "PartitionedDivision" in text
        assert "exchange: partitions=2, workers=2" in text
        assert "dop=2" in text

    def test_analyze_explain_reports_partition_skew(self, tables):
        db = repro.connect(tables, planner_options=QUADRATIC, workers=2)
        text = db.sql(DIVIDE_SQL).explain(analyze=True)
        assert "partitions populated" in text
        assert "input skew max/mean=" in text

    def test_analyze_explain_snapshot_of_a_coded_exchange(self, tables):
        """The exchange ships code columns and its partitions' division
        operators read them as cached codes."""
        from repro.physical import active_kernel

        db = repro.connect(tables, planner_options=QUADRATIC, workers=2)
        text = db.sql(DIVIDE_SQL).explain(analyze=True)
        section = text.split("Physical plan", 1)[1]
        annotations = [
            line.strip()
            for line in section.splitlines()
            if line.strip().startswith("·") and "algorithm=" not in line
        ]
        assert annotations == [
            f"· keys: cached codes (1 chunk) → coded quotient, kernel: {active_kernel().name}",
            "· exchange: partitions=2, workers=2, 2/2 partitions populated, "
            f"input skew max/mean={self.skew(tables):.2f}, input: code columns",
        ]
        assert "input:" not in db.sql(DIVIDE_SQL).explain()

    @staticmethod
    def skew(tables):
        sizes = [0, 0]
        for values in tables["r1"].aligned_tuples():
            sizes[hash(values[0]) % 2] += 1
        return max(sizes) / (sum(sizes) / 2)

    def test_budgeted_exchange_reports_tuples(self, tables):
        """A budget the input outgrows keeps the exchange (the hash
        division would otherwise stay serial and the budget unhonoured);
        it takes the tuple route and spills."""
        db = repro.connect(tables, workers=2, memory_budget_mb=0.05)
        query = db.sql(DIVIDE_SQL)
        text = query.explain(analyze=True)
        assert "PartitionedDivision[hash, partitions=2, workers=2, budget=0.05MB]" in text
        assert "; serial: over memory budget" in text
        assert "input: tuples, spilled " in text
        assert "· keys: encoded on the fly → coded quotient, kernel: " in text
        assert query.run().relation == repro.connect(tables).sql(DIVIDE_SQL).run().relation

    def test_budgeted_session_stays_serial_below_the_budget(self, tables):
        db = repro.connect(tables, workers=2, memory_budget_mb=64)
        text = db.sql(DIVIDE_SQL).explain(analyze=True)
        assert "hash_division" in text and "PartitionedDivision" not in text
        assert "over memory budget" not in text and "exchange:" not in text

    def test_serial_explain_has_no_exchange_line(self, tables):
        text = repro.connect(tables).sql(DIVIDE_SQL).explain(analyze=True)
        assert "exchange:" not in text


class TestAnalyzeSkew:
    def test_analyze_report_renders_partition_skew(self, tables):
        report = repro.connect(tables).analyze()
        assert "skew=" in report.render()

    def test_statistics_catalog_carries_top_frequencies(self, tables):
        db = repro.connect(tables)
        db.analyze()
        statistics = db.optimizer.statistics.table("r2")
        assert statistics.top_frequency("b") == 1  # divisor values are distinct
        assert statistics.partition_skew("b") == pytest.approx(1 / len(tables["r2"]))


class TestCLIWorkers:
    def test_sql_accepts_workers_flag(self, capsys):
        code = main(
            ["sql", "SELECT s_no FROM supplies AS s WHERE s.p_no = 'p2'", "--workers", "2"]
        )
        assert code == 0
        assert "result" in capsys.readouterr().out

    def test_sql_explain_reports_the_exchange_input(self, capsys, tables, tmp_path):
        repro.connect(tables).save(tmp_path / "store")
        arguments = ["sql", DIVIDE_SQL, "--db", str(tmp_path / "store"), "--workers", "2"]
        code = main([*arguments, "--memory-budget-mb", "0.05", "--explain"])
        assert code == 0
        output = capsys.readouterr().out
        assert "PartitionedDivision" in output
        assert ", input: tuples" in output
        assert "· keys: encoded on the fly → coded quotient, kernel: " in output
        storage = [line.strip() for line in output.splitlines() if "· storage:" in line]
        assert len(storage) == 2  # dividend and divisor, both from the store
        for line in storage:
            assert line.startswith("· storage: blocks=") and ", pages: code buffers, " in line
            assert line.split("skipped=0, read ")[1].endswith(" bytes")

    def test_sql_rejects_bad_workers(self, capsys):
        code = main(["sql", "SELECT s_no FROM supplies AS s", "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().out
