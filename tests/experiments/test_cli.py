"""Tests for the command-line interface (python -m repro …).

Every subcommand is driven through ``main([...])``; the assertions pin the
exit codes and the key output lines.
"""

import pytest

from repro.cli import build_parser, main
from repro.experiments.queries import Q2


class TestParser:
    def test_commands_are_registered(self):
        parser = build_parser()
        for argv in (
            ["figures"],
            ["query", "Q1"],
            ["sql", "SELECT p_no FROM parts"],
            ["explain", "Q2"],
            ["views"],
            ["claims"],
            ["mine"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_query_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "Q9"])

    def test_explain_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "Q9"])

    def test_sql_requires_text(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sql"])

    def test_sql_db_accepts_store_paths(self, capsys):
        # ``--db`` takes a built-in name or a saved-store path; an unknown
        # value parses but fails at open time with a clear error.
        args = build_parser().parse_args(["sql", "SELECT 1", "--db", "prod"])
        assert args.db == "prod"
        assert main(["sql", "SELECT p_no FROM parts", "--db", "prod"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFiguresCommand:
    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "11/11 figures reproduced exactly." in output
        assert "Figure 1" in output and "Figure 11" in output


class TestQueryCommand:
    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3"])
    def test_query_command(self, capsys, name):
        assert main(["query", name]) == 0
        output = capsys.readouterr().out
        assert f"result of {name}" in output
        assert "s1" in output

    def test_query_runs_once_and_reports_statistics(self, capsys):
        assert main(["query", "Q1"]) == 0
        output = capsys.readouterr().out
        assert "logical plan :" in output
        assert "rules fired  :" in output
        assert "max intermediate" in output
        assert "elapsed" in output

    def test_query_without_recognizer(self, capsys):
        assert main(["query", "Q3", "--no-recognizer"]) == 0
        output = capsys.readouterr().out
        assert "great_divide" not in output.split("logical plan")[1].splitlines()[0]


class TestSqlCommand:
    def test_sql_runs_an_arbitrary_query(self, capsys):
        assert main(["sql", "SELECT p_no FROM parts WHERE color = 'blue'"]) == 0
        output = capsys.readouterr().out
        assert "result" in output
        assert "p1" in output and "p2" in output
        assert "max intermediate" in output

    def test_sql_divide_by(self, capsys):
        assert main(["sql", Q2]) == 0
        output = capsys.readouterr().out
        assert "s1" in output and "s2" in output

    def test_sql_batch_size_flag(self, capsys):
        assert main(["sql", Q2, "--batch-size", "2"]) == 0
        output = capsys.readouterr().out
        assert "s1" in output and "s2" in output

    def test_sql_batch_size_must_be_positive(self, capsys):
        assert main(["sql", Q2, "--batch-size", "0"]) == 2
        assert "batch size must be positive" in capsys.readouterr().out

    def test_sql_explain_flag(self, capsys):
        assert main(["sql", Q2, "--explain"]) == 0
        output = capsys.readouterr().out
        assert "Physical plan" in output
        assert "actual=" in output

    def test_sql_random_database(self, capsys):
        assert main(["sql", "SELECT color FROM parts", "--db", "random"]) == 0
        output = capsys.readouterr().out
        assert "result" in output

    def test_sql_parse_error_exit_code(self, capsys):
        assert main(["sql", "SELECT"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_sql_unknown_table_exit_code(self, capsys):
        assert main(["sql", "SELECT x FROM missing"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_sql_compile_flag(self, capsys):
        assert main(["sql", Q2, "--compile"]) == 0
        output = capsys.readouterr().out
        assert "s1" in output and "s2" in output

    def test_sql_no_compile_flag(self, capsys):
        assert main(["sql", Q2, "--no-compile"]) == 0
        output = capsys.readouterr().out
        assert "s1" in output and "s2" in output

    def test_sql_compile_flags_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sql", Q2, "--compile", "--no-compile"])

    def test_sql_explain_reports_compilation_status(self, capsys):
        assert main(["sql", Q2, "--explain"]) == 0
        assert "compiled    : yes" in capsys.readouterr().out

    def test_sql_no_compile_explain_reports_off(self, capsys):
        assert main(["sql", Q2, "--explain", "--no-compile"]) == 0
        assert "compiled    : no (compilation off)" in capsys.readouterr().out


class TestExplainCommand:
    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3"])
    def test_explain_command(self, capsys, name):
        assert main(["explain", name]) == 0
        output = capsys.readouterr().out
        assert "Logical plan (as written)" in output
        assert "Logical plan (canonical, rewritten)" in output
        assert "Physical plan" in output
        assert "actual=" in output

    def test_explain_reports_key_source_kernel_and_filter_mode(self, capsys):
        assert main(["explain", "Q2"]) == 0
        output = capsys.readouterr().out
        # Q2's only filter sits under a duplicate-eliminating projection.
        assert "compiled    : yes · 1 segment · filters: 0 on the dictionary, 1 per tuple" in output
        assert "· keys: cached codes (1 chunk) → coded quotient, kernel: " in output
        assert "fused, filtered per tuple)" in output

    def test_sql_explain_reports_dictionary_filter(self, capsys):
        text = "SELECT s_no, p_no FROM supplies WHERE s_no >= 's2'"
        assert main(["sql", text, "--explain"]) == 0
        output = capsys.readouterr().out
        assert "· filters: 1 on the dictionary, 0 per tuple" in output
        assert "fused, filtered on the dictionary)" in output

    def test_explain_reports_coordinator_worker_split(self, capsys):
        assert main(["explain", "Q2"]) == 0
        output = capsys.readouterr().out
        assert "(coordinator " in output
        assert " ms + workers " in output

    def test_explain_verbose_appends_segment_source(self, capsys):
        assert main(["explain", "Q2", "--verbose"]) == 0
        output = capsys.readouterr().out
        assert "Compiled segments" in output
        assert "def _segment(_pull, _bind):" in output

    def test_explain_without_verbose_omits_segment_source(self, capsys):
        assert main(["explain", "Q2"]) == 0
        assert "def _segment" not in capsys.readouterr().out


class TestViewsCommand:
    def test_views_command(self, capsys):
        assert main(["views", "--edits", "25", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "maintained  : yes" in output
        assert "edits applied    : 25" in output
        assert "view verification: clean" in output


class TestClaimsCommand:
    def test_claims_command(self, capsys):
        assert main(["claims"]) == 0
        output = capsys.readouterr().out
        assert "claims confirmed" in output


class TestMineCommand:
    def test_mine_command(self, capsys):
        assert main(["mine", "--transactions", "60", "--min-support", "12", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "identical results : True" in output


class TestAnalyzeCommand:
    def test_analyze_textbook(self, capsys):
        assert main(["analyze"]) == 0
        output = capsys.readouterr().out
        assert "analyzed 2 table(s)" in output
        assert "supplies" in output and "distinct=" in output

    def test_analyze_specific_table(self, capsys):
        assert main(["analyze", "parts"]) == 0
        output = capsys.readouterr().out
        assert "analyzed 1 table(s)" in output

    def test_analyze_unknown_table(self, capsys):
        assert main(["analyze", "missing"]) == 2
        assert "error:" in capsys.readouterr().out
