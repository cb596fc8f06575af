"""Acceptance benchmarks for cost-based physical planning.

For every committed division-benchmark scenario (and a clustered variant),
``db.sql(...).explain()`` must report a *cost-chosen* division algorithm
whose measured runtime is within 1.5× of the best forced-algorithm runtime
on the same inputs, and ``explain(analyze=True)`` must report estimated and
actual cardinality (with q-error) for every plan node.

The bound is the ``planner-choice`` row of ``gates.py``: best-of-N
timings, with a small absolute floor that shields the sub-millisecond
scenarios from scheduler jitter.  ``gates.check_gate`` skips the timing
under ``--benchmark-disable`` (the CI smoke job on shared runners); the
algorithm-choice and explain assertions still run there.
"""

from functools import partial

import pytest

from gates import check_gate
from repro.api import connect
from repro.division import small_divide
from repro.optimizer import PhysicalPlanner, PlannerOptions
from repro.physical import SMALL_DIVIDE_ALGORITHMS
from repro.physical.executor import execute_plan
from repro.workloads import make_division_workload

DIVIDE_SQL = "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b"


def _scenarios():
    small = make_division_workload(
        num_groups=400, divisor_size=8, containing_fraction=0.25, extra_values_per_group=6, seed=1
    )
    large = make_division_workload(
        num_groups=1200, divisor_size=10, containing_fraction=0.2, extra_values_per_group=6, seed=2
    )
    return {
        "bench-small": (small.dividend, small.divisor),
        "bench-large": (large.dividend, large.divisor),
        "bench-small-clustered": (small.dividend.clustered(["a"]), small.divisor),
    }


SCENARIOS = _scenarios()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_cost_chosen_algorithm_is_competitive(request, scenario):
    """The chosen algorithm runs within 1.5× of the best forced algorithm."""
    dividend, divisor = SCENARIOS[scenario]
    db = connect({"r1": dividend, "r2": divisor})
    query = db.sql(DIVIDE_SQL)

    explain_text = query.explain()
    assert "cost-based" in explain_text
    assert "algorithm=" in explain_text
    assert query.run().relation == small_divide(dividend, divisor)

    def planned(options=None):
        """Plan off the clock; time the execution."""
        plan = PhysicalPlanner(db.catalog, options).plan(query.expression)
        return partial(execute_plan, plan)

    forced = {
        algorithm: partial(planned, PlannerOptions(small_divide_algorithm=algorithm))
        for algorithm in SMALL_DIVIDE_ALGORITHMS
        if algorithm != "nested_loops"  # 40× slower at this size; skip the wait
    }
    check_gate(request, "planner-choice", planned, forced)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_explain_analyze_reports_q_error_for_every_node(benchmark, scenario):
    dividend, divisor = SCENARIOS[scenario]
    db = connect({"r1": dividend, "r2": divisor})
    text = benchmark(lambda: db.sql(DIVIDE_SQL).explain(analyze=True))
    physical = text.split("Physical plan")[1]
    node_lines = [line for line in physical.splitlines() if "[" in line and "rows]" in line]
    assert node_lines
    for line in node_lines:
        assert "est~" in line and "actual=" in line and "q=" in line, line


def test_clustered_scenario_picks_streaming_merge_sort():
    dividend, divisor = SCENARIOS["bench-small-clustered"]
    db = connect({"r1": dividend, "r2": divisor})
    result = db.sql(DIVIDE_SQL).run()
    decision = result.decisions[0]
    assert decision.chosen.name == "merge_sort"
    assert decision.chosen.clustered
    assert "sort waived" in decision.describe()
