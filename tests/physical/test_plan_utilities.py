"""Tests for plan statistics, explain output and operator plumbing."""

from repro.physical import (
    Filter,
    HashDivision,
    PlanStatistics,
    ProjectOp,
    RelationScan,
    collect_statistics,
    execute_plan,
)
from repro.relation import Relation


class TestPlanStatistics:
    def test_totals_and_max(self):
        stats = PlanStatistics({"00:scan": 10, "01:filter": 4})
        assert stats.total_tuples == 14
        assert stats.max_intermediate == 10
        assert stats["00:scan"] == 10
        assert stats["missing"] == 0

    def test_empty_statistics(self):
        stats = PlanStatistics()
        assert stats.total_tuples == 0
        assert stats.max_intermediate == 0

    def test_collect_statistics_labels_operators_in_walk_order(self, figure1_dividend):
        plan = ProjectOp(RelationScan(figure1_dividend), ["a"])
        plan.execute()
        stats = collect_statistics(plan)
        assert set(stats.tuples_by_operator) == {"00:project", "01:relation_scan"}
        assert stats.tuples_by_operator["00:project"] == 3
        assert stats.tuples_by_operator["01:relation_scan"] == 9


class TestOperatorPlumbing:
    def test_walk_visits_the_whole_tree(self, figure1_dividend, figure1_divisor):
        plan = HashDivision(RelationScan(figure1_dividend), RelationScan(figure1_divisor))
        names = [operator.name for operator in plan.walk()]
        assert names == ["hash_division", "relation_scan", "relation_scan"]

    def test_reset_counters(self, figure1_dividend):
        plan = ProjectOp(RelationScan(figure1_dividend), ["a"])
        plan.execute()
        assert plan.tuples_out > 0
        plan.reset_counters()
        assert all(operator.tuples_out == 0 for operator in plan.walk())

    def test_repeated_execution_is_idempotent(self, figure1_dividend, figure1_divisor):
        plan = HashDivision(RelationScan(figure1_dividend), RelationScan(figure1_divisor))
        first = execute_plan(plan)
        second = execute_plan(plan)
        assert first.relation == second.relation
        assert first.statistics.tuples_by_operator == second.statistics.tuples_by_operator

    def test_explain_is_indented(self, figure1_dividend, figure1_divisor):
        plan = Filter(
            HashDivision(RelationScan(figure1_dividend), RelationScan(figure1_divisor)),
            lambda row: True,
        )
        lines = plan.explain().splitlines()
        assert lines[0].startswith("Filter")
        assert lines[1].startswith("  hash_division")
        assert lines[2].startswith("    RelationScan")

    def test_label_contains_operator_name(self, figure1_dividend):
        scan = RelationScan(figure1_dividend)
        assert scan.label.startswith("relation_scan#")

    def test_repr_mentions_schema(self, figure1_dividend):
        assert "('a', 'b')" in repr(RelationScan(figure1_dividend))

    def test_execute_materializes_set_semantics(self):
        duplicated = Relation(["a"], [(1,)])
        plan = ProjectOp(RelationScan(duplicated.union(Relation(["a"], [(1,)]))), ["a"])
        assert len(plan.execute()) == 1
