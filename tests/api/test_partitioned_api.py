"""Session-level plumbing of partitioned plans.

``repro.connect(memory_budget_mb=M)`` → the planner puts an operator whose
input is estimated above ``M`` behind an exchange → ``execute_plan(...,
memory_budget_mb=M)`` spills its buffered partitions; plus the
``explain(analyze=True)`` exchange annotation and the CLI flag.
"""

import pytest

import repro
from repro.cli import build_parser, main
from repro.workloads import make_division_workload

DIVIDE_SQL = "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b"

#: Far below the ~7k-tuple dividend, so the exchange must spill.
TINY_BUDGET_MB = 0.05


@pytest.fixture(scope="module")
def medium_workload():
    """~7k dividend tuples: many times a 0.05 MB budget."""
    return make_division_workload(
        num_groups=600, divisor_size=10, containing_fraction=0.25, extra_values_per_group=6, seed=21
    )


@pytest.fixture(scope="module")
def tables(medium_workload):
    return {"r1": medium_workload.dividend, "r2": medium_workload.divisor}


class TestBudgetedSession:
    def test_default_session_with_a_tiny_budget_spills_and_agrees(self, tables):
        """No ``workers`` anywhere: the budget alone puts the division behind
        an exchange that spills, and the quotient and the per-operator tuple
        counts are those of the same session without a budget."""
        unbudgeted = repro.connect(tables).sql(DIVIDE_SQL).run()
        db = repro.connect(tables, memory_budget_mb=TINY_BUDGET_MB)
        result = db.sql(DIVIDE_SQL).run()
        prepared, _cached = db._prepare(db.sql(DIVIDE_SQL).expression)
        (exchange,) = [op for op in prepared.plan.walk() if op.parallel]
        assert exchange.partitions >= 2
        assert exchange.spill_statistics["spilled_tuples"] > 0
        assert result.relation == unbudgeted.relation
        assert list(result.tuple_counts.values()) == list(unbudgeted.tuple_counts.values())

    def test_input_below_the_budget_stays_serial(self, tables):
        db = repro.connect(tables, memory_budget_mb=64)
        text = db.sql(DIVIDE_SQL).explain(analyze=True)
        assert "hash_division" in text and "PartitionedDivision" not in text
        assert "exchange:" not in text

    def test_workers_is_accepted_and_has_no_effect(self, tables):
        db = repro.connect(tables, workers=4)
        assert db.workers == 1
        assert db.sql(DIVIDE_SQL).explain() == repro.connect(tables).sql(DIVIDE_SQL).explain()


class TestExplainExchange:
    def test_static_explain_reports_partitions_and_budget(self, tables):
        db = repro.connect(tables, memory_budget_mb=TINY_BUDGET_MB)
        text = db.sql(DIVIDE_SQL).explain()
        (line,) = [line.strip() for line in text.splitlines() if "· exchange:" in line]
        assert line.startswith("· exchange: partitions=")
        assert line.endswith(f", budget={TINY_BUDGET_MB:g}MB")
        assert "workers" not in text and "dop=" not in text

    def test_analyze_explain_reports_skew_route_and_spill(self, tables):
        db = repro.connect(tables, memory_budget_mb=TINY_BUDGET_MB)
        text = db.sql(DIVIDE_SQL).explain(analyze=True)
        assert "partitions populated" in text
        assert "input skew max/mean=" in text
        assert "input: tuples, spilled " in text
        assert "· keys: encoded on the fly → coded quotient, kernel: " in text

    def test_unbudgeted_explain_has_no_exchange_line(self, tables):
        text = repro.connect(tables).sql(DIVIDE_SQL).explain(analyze=True)
        assert "exchange:" not in text


class TestAnalyzeTopFrequencies:
    def test_analyze_report_renders_top_frequencies(self, tables):
        report = repro.connect(tables).analyze()
        assert "top=" in report.render()

    def test_statistics_catalog_carries_top_frequencies(self, tables):
        db = repro.connect(tables)
        db.analyze()
        statistics = db.optimizer.statistics.table("r2")
        assert statistics.top_frequency("b") == 1  # divisor values are distinct


class TestCLI:
    def test_sql_explain_reports_the_exchange_input(self, capsys, tables, tmp_path):
        repro.connect(tables).save(tmp_path / "store")
        arguments = ["sql", DIVIDE_SQL, "--db", str(tmp_path / "store")]
        code = main([*arguments, "--memory-budget-mb", str(TINY_BUDGET_MB), "--explain"])
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

    def test_sql_has_no_workers_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sql", DIVIDE_SQL, "--workers", "2"])
