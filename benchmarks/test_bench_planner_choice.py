"""Acceptance benchmarks for the planner's default division.

For every committed division-benchmark scenario (and a clustered variant),
the default plan's division (hash division) must run within 1.5× of the
best forced-algorithm runtime on the same inputs, and
``explain(analyze=True)`` must report estimated and actual cardinality
(with q-error) for every plan node.  On ROADMAP's Law 1 fixture the
rewritten plan in a default session must run within 1.2× of the same plan
with hash division forced: the default never picks the nested loops that
a bad estimate once steered it to.

The bounds are the ``planner-choice`` and ``law1-default`` rows of
``gates.py``: best-of-N timings, with a small absolute floor that shields
the millisecond scenarios from scheduler jitter.  ``gates.check_gate``
skips the timing under ``--benchmark-disable`` (the CI smoke job on shared
runners); the plan and explain assertions still run there.
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


def physical_operators(query):
    """The operator names of the physical plan ``explain`` prints."""
    section = query.explain().split("Physical plan")[1]
    return [line.split()[0] for line in section.splitlines() if "[est~" in line]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_default_algorithm_is_competitive(request, scenario):
    """The default algorithm runs within 1.5× of the best forced algorithm."""
    dividend, divisor = SCENARIOS[scenario]
    db = connect({"r1": dividend, "r2": divisor})
    query = db.sql(DIVIDE_SQL)

    assert physical_operators(query)[0] == "hash_division"
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


def test_clustered_scenario_plans_hash_division():
    """The scan order is no reason to pick another algorithm."""
    dividend, divisor = SCENARIOS["bench-small-clustered"]
    db = connect({"r1": dividend, "r2": divisor})
    query = db.sql(DIVIDE_SQL)
    assert physical_operators(query)[0] == "hash_division"
    assert query.run().relation == small_divide(dividend, divisor)


def test_law1_default_runs_as_fast_as_hash_forced(request):
    """ROADMAP's Law 1 fixture: 50 428 dividend tuples, the divisor split
    in halves.  Law 1 rewrites the division by the union into two
    divisions; the outer one's input is estimated at 17 tuples and is
    24 008.  The default session runs both as hash division."""
    workload = make_division_workload(num_groups=3000, divisor_size=20, seed=4)
    values = sorted(workload.divisor.to_set("b"))
    half = set(values[: len(values) // 2])
    tables = {
        "r1": workload.dividend,
        "r2a": workload.divisor.select(lambda row: row["b"] in half),
        "r2b": workload.divisor.select(lambda row: row["b"] not in half),
    }

    def prepared(options=None):
        db = connect(tables, planner_options=options, result_cache_size=0)
        return db.table("r1").divide(db.table("r2a").union(db.table("r2b"))).prepare()

    default, forced = prepared(), prepared(PlannerOptions(small_divide_algorithm="hash"))
    result = default.run()
    assert result.rules_fired == ("law_01_divisor_union_split",)
    assert physical_operators(default).count("hash_division") == 2
    assert result.relation == forced.run().relation == small_divide(
        workload.dividend, workload.divisor
    )
    check_gate(request, "law1-default", lambda: default.run, lambda: forced.run)
