"""Self-check of the benchmark at ``--scale tiny`` (collected by tier-1).

Checks the harness, not the engine's speed: every workload runs and is
verified, every metric BENCHMARK.json names is reported with its unit, the
oracle catches a planted wrong quotient, and a seed fixes the operation
sequence and every exact counter.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from bench import oracle
from bench.datagen import generate
from bench.layers import LAYER_METRICS
from bench.runner import END_TO_END, PassResult, _attempt, run_workload, set_up
from bench.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "tuples", "B"}
EXACT_RATIOS = {"api.plan_cache_hit_ratio", "api.result_cache_hit_ratio", "storage.skip_ratio"}


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in LAYER_METRICS
    ]


@pytest.fixture(scope="module", autouse=True)
def pinned_hash_seed():
    """Child processes (the store writer, pool workers) hash strings as they
    do under ``python3 -m bench``, which pins the seed for itself too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONHASHSEED", "0")
        yield


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs per workload with one seed (the second must agree)."""
    out = tmp_path_factory.mktemp("bench-out")
    return {
        name: [run_workload(name, seed=7, seconds=0.5, trace=True, scale="tiny", out=out) for _ in range(2)]
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = run_workload(name, seed=7, seconds=0.2, trace=False, scale="tiny", out=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert not list(tmp_path.iterdir()), "temp stores are torn down"


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, traced):
    first, second = traced[name]
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {m.name: m.unit for m in LAYER_METRICS}
    assert first["details"]["null_metrics"] == []
    exact = [m.name for m in LAYER_METRICS if m.unit in EXACT_UNITS or m.name in EXACT_RATIOS]
    assert {k: first["metrics"][k]["value"] for k in exact} == {k: second["metrics"][k]["value"] for k in exact}


def test_layer_counters_show_each_workloads_mechanism(traced):
    value = lambda name, metric: traced[name][0]["metrics"][metric]["value"]  # noqa: E731
    assert value("adhoc_small", "api.plan_cache_hit_ratio") == 0  # every text is new
    assert value("repeat_hot", "api.result_cache_hit_ratio") == 1  # fits both caches
    assert value("repeat_hot", "sql.divisions_recognized") > 0
    assert value("divide_mem", "api.plan_cache_hit_ratio") == 1 and value("divide_mem", "physical.tuples_total") > 0
    assert value("divide_stored", "storage.blocks_read") > 0 and value("divide_stored", "storage.bytes_per_tuple") > 0
    assert value("view_churn", "views.deltas_applied") > 0 and value("view_churn", "api.plan_invalidations") > 0


def _session(name, seed, tmp_path):
    return set_up(WORKLOADS[name], seed, "tiny", tmp_path / f"{name}-{seed}", PassResult())[0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_tables_and_operation_sequence(name, tmp_path):
    sessions = [_session(name, seed, tmp_path) for seed in (7, 7, 8)]
    same, again, other = ((s.model.tables, list(itertools.islice(s.ops, 120))) for s in sessions)
    for session in sessions:
        session.close()
    assert same == again
    assert same != other


def test_oracle_finds_every_quotient_the_generator_planted():
    data = generate(7, 600)
    model = oracle.Model(data.supplies, data.parts, data.wanted)
    assert data.planted_colors and data.planted_wanted
    assert data.planted_colors <= model.quotient(oracle.QuerySpec(oracle.BY_COLOR))
    assert {(supplier,) for supplier in data.planted_wanted} <= model.quotient(oracle.QuerySpec(oracle.WANTED))


def test_oracle_catches_a_planted_wrong_quotient(tmp_path):
    session = _session("divide_mem", 7, tmp_path)
    try:
        op = next(session.ops)  # Q1, the great divide
        expected = session.model.quotient(op.spec)
        assert expected, "quotients are non-empty by construction"
        supplier = min(expected)[0]
        # Break the engine's table behind the oracle's back.
        doomed = [row for row in session.model.tables["supplies"] if row[0] == supplier]
        session.db.delete("supplies", doomed)
        outcome = PassResult()
        _attempt(session, op, None, outcome, record=True)
        assert (outcome.attempted, outcome.failed) == (1, 1)
    finally:
        session.close()
