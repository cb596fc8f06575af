"""Unit tests for the hardware-normalized benchmark comparison gate."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_module():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", REPO_ROOT / "scripts" / "bench_compare.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(times: dict[str, float]) -> dict:
    return {
        "benchmarks": [
            {"name": name, "stats": {"min": value}} for name, value in times.items()
        ]
    }


class TestCompare:
    def test_uniform_slowdown_does_not_fail(self):
        """A machine that is 3x slower across the board is not a regression."""
        module = load_module()
        baseline = payload({"a": 1.0, "b": 2.0, "c": 0.5})
        current = payload({"a": 3.0, "b": 6.0, "c": 1.5})
        _, failures = module.compare(baseline, current, threshold=0.25)
        assert failures == []

    def test_single_scenario_regression_fails(self):
        module = load_module()
        baseline = payload({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
        current = payload({"a": 1.0, "b": 1.0, "c": 1.0, "d": 2.0})
        lines, failures = module.compare(baseline, current, threshold=0.25)
        assert len(failures) == 1 and failures[0].startswith("d:")
        assert any("REGRESSION" in line for line in lines)

    def test_within_threshold_passes(self):
        module = load_module()
        baseline = payload({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
        current = payload({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.2})
        _, failures = module.compare(baseline, current, threshold=0.25)
        assert failures == []

    def test_disjoint_benchmarks_fail_loudly(self):
        module = load_module()
        _, failures = module.compare(payload({"a": 1.0}), payload({"b": 1.0}), threshold=0.25)
        assert failures

    def test_real_baseline_compares_clean_against_itself(self):
        module = load_module()
        committed = (REPO_ROOT / "BENCH_division.json").read_text()
        import json

        data = json.loads(committed)
        _, failures = module.compare(data, data, threshold=0.25)
        assert failures == []

    def test_large_speedup_in_one_scenario_does_not_flag_the_rest(self):
        """Median normalization: one 10x improvement must not make the
        unchanged majority look like relative regressions."""
        module = load_module()
        names = [f"s{i}" for i in range(8)]
        baseline = payload({name: 1.0 for name in names})
        current_times = {name: 1.0 for name in names}
        current_times["s0"] = 0.1  # one scenario got 10x faster
        lines, failures = module.compare(baseline, payload(current_times), threshold=0.25)
        assert failures == []
        assert any("bench-record" in line for line in lines)

    def test_sub_millisecond_jitter_is_shielded_by_the_floor(self):
        """A relative blip on a sub-ms scenario whose absolute excess is
        tiny must not fail the gate; the same relative regression on a
        big scenario must."""
        module = load_module()
        baseline = payload({"fast": 0.0005, "a": 0.010, "b": 0.010, "slow": 0.020})
        current = payload({"fast": 0.0008, "a": 0.010, "b": 0.010, "slow": 0.020})
        _, failures = module.compare(baseline, current, threshold=0.25)
        assert failures == []
        current = payload({"fast": 0.0005, "a": 0.010, "b": 0.010, "slow": 0.032})
        _, failures = module.compare(baseline, current, threshold=0.25)
        assert len(failures) == 1 and failures[0].startswith("slow:")

    def test_uniform_slowdown_passes_but_warns(self):
        module = load_module()
        baseline = payload({"a": 0.010, "b": 0.010, "c": 0.010})
        current = payload({"a": 0.020, "b": 0.020, "c": 0.020})
        lines, failures = module.compare(baseline, current, threshold=0.25)
        assert failures == []
        assert any("warning: the whole suite" in line for line in lines)


class TestCompareParallel:
    """The decision gate on the large serial-vs-partitioned scenarios."""

    @staticmethod
    def run(times: dict[str, float], **picks: str) -> dict:
        """A benchmark payload; ``picks`` maps scenario → the planner's pick
        recorded by its ``workers=2`` partitioned benchmark."""
        document = payload(times)
        for bench in document["benchmarks"]:
            scenario = bench["name"].removeprefix("test_partitioned_").split("[")[0]
            if bench["name"].endswith("[2]") and scenario in picks:
                bench["extra_info"] = {"planner_pick": picks[scenario]}
        return document

    def test_picking_the_faster_arm_passes_and_prints_both_arms(self):
        module = load_module()
        run = self.run(
            {
                "test_serial_division": 0.0033,
                "test_partitioned_division[1]": 0.0034,
                "test_partitioned_division[2]": 0.0080,
                "test_serial_join": 0.300,
                "test_partitioned_join[2]": 0.200,
            },
            division="serial",
            join="partitioned",
        )
        lines, failures = module.compare_parallel(run, workers=2)
        assert failures == []
        assert lines[0].startswith("nproc = ")
        assert (
            "division workers=2: serial 3.300 ms, partitioned 8.000 ms (0.41x vs serial); "
            "planner picks serial (1.00x the faster arm)"
        ) in lines
        assert any(line.endswith("planner picks partitioned (1.00x the faster arm)") for line in lines)

    def test_mispriced_pick_fails_in_either_direction(self):
        module = load_module()
        bound = module.PARALLEL_PICK_BOUND
        times = {
            "test_serial_division": 0.100,
            "test_partitioned_division[2]": 0.100 * (bound + 0.3),
            "test_serial_join": 0.100 * (bound + 0.3),
            "test_partitioned_join[2]": 0.100,
        }
        _, failures = module.compare_parallel(
            self.run(times, division="partitioned", join="serial"), workers=2
        )
        assert len(failures) == 2
        assert failures[0].startswith("division: at workers=2 the planner picks the partitioned plan")
        assert failures[1].startswith("join: at workers=2 the planner picks the serial plan")
        assert all(f"allowed {bound:.2f}x" in failure for failure in failures)
        # inside the bound either pick is accepted: the arms are a tie
        times["test_partitioned_division[2]"] = 0.100 * (bound - 0.1)
        times["test_serial_join"] = 0.100 * (bound - 0.1)
        _, failures = module.compare_parallel(
            self.run(times, division="partitioned", join="serial"), workers=2
        )
        assert failures == []

    def test_run_without_a_recorded_pick_fails(self):
        module = load_module()
        run = self.run({"test_serial_division": 0.1, "test_partitioned_division[2]": 0.2})
        _, failures = module.compare_parallel(run, workers=2)
        assert len(failures) == 1 and "picks the None plan" in failures[0]

    def test_workers1_overhead_fails(self):
        module = load_module()
        run = payload(
            {
                "test_serial_division": 0.100,
                "test_partitioned_division[1]": 0.150,
            }
        )
        _, failures = module.compare_parallel(run, workers=1)
        assert failures and "workers=1" in failures[0]

    def test_missing_serial_baseline_fails_loudly(self):
        module = load_module()
        _, failures = module.compare_parallel(
            payload({"test_partitioned_division[2]": 0.05}), workers=2
        )
        assert failures == ["missing baseline"]

    def test_missing_requested_worker_count_fails(self):
        module = load_module()
        run = payload(
            {
                "test_serial_division": 0.100,
                "test_partitioned_division[1]": 0.100,
            }
        )
        _, failures = module.compare_parallel(run, workers=4)
        assert any("workers=4" in failure for failure in failures)


class TestMissingBaselineEntries:
    """A scenario in the current run but absent from the committed baseline
    must fail loudly, listing every missing name."""

    def test_missing_names_are_listed(self):
        module = load_module()
        baseline = payload({"a": 1.0})
        current = payload({"a": 1.0, "b": 1.0, "c": 1.0})
        lines, failures = module.compare(baseline, current, threshold=0.25)
        assert failures == [
            "missing baseline entry for b",
            "missing baseline entry for c",
        ]
        text = "\n".join(lines)
        assert "  - b" in text and "  - c" in text
        assert "bench-record" in text

    def test_matching_scenario_sets_do_not_trip_the_check(self):
        module = load_module()
        same = payload({"a": 1.0, "b": 1.0})
        _, failures = module.compare(same, same, threshold=0.25)
        assert failures == []


class TestCompareStorage:
    """The stored-table gates: zone-map skipping and metadata ANALYZE."""

    def run_payload(self, skip_speedup: float, analyze_speedup: float) -> dict:
        return payload(
            {
                "test_selective_scan[selective-full]": 0.100,
                "test_selective_scan[selective-skipping]": 0.100 / skip_speedup,
                "test_cold_analyze[cold-fullscan]": 0.500,
                "test_cold_analyze[cold-metadata]": 0.500 / analyze_speedup,
            }
        )

    def test_fast_run_passes_both_gates(self):
        module = load_module()
        lines, failures = module.compare_storage(self.run_payload(20.0, 100.0))
        assert failures == []
        assert any("20.00x" in line for line in lines)
        assert any("100.00x" in line for line in lines)

    def test_slow_skipping_fails_the_scan_gate(self):
        module = load_module()
        _, failures = module.compare_storage(self.run_payload(2.0, 100.0))
        assert len(failures) == 1 and "zone-map skipping" in failures[0]

    def test_slow_metadata_analyze_fails_the_analyze_gate(self):
        module = load_module()
        _, failures = module.compare_storage(self.run_payload(20.0, 3.0))
        assert len(failures) == 1 and "metadata ANALYZE" in failures[0]

    def test_missing_scenarios_fail_loudly(self):
        module = load_module()
        _, failures = module.compare_storage(payload({"unrelated": 1.0}))
        assert failures == ["missing scenarios"]

    def test_missing_mode_fails(self):
        module = load_module()
        run = payload({"test_selective_scan[selective-full]": 0.1})
        _, failures = module.compare_storage(run)
        assert any("missing a mode" in failure for failure in failures)


class TestCompareIvm:
    """The view-maintenance gates: maintained vs recompute, and a flat
    edit cost and rewrite-after-an-edit cost."""

    def run_payload(self, speedup: float, edit_ratio: float, rewrite_ratio: float = 1.2) -> dict:
        module = load_module()
        edits = module.IVM_EDITS
        return payload(
            {
                "test_churn[edits-maintained]": 0.001 * edits["maintained"],
                "test_churn[edits-recompute]": 0.001 * speedup * edits["recompute"],
                "test_edit_cost[rows-20k]": 0.006,
                "test_edit_cost[rows-200k]": 0.006 * edit_ratio,
                "test_rewrite_cost[rows-20k]": 0.0002,
                "test_rewrite_cost[rows-200k]": 0.0002 * rewrite_ratio,
            }
        )

    def test_a_fast_view_and_a_flat_edit_pass(self):
        module = load_module()
        lines, failures = module.compare_ivm(self.run_payload(40.0, 1.1))
        assert failures == []
        assert any("(40.00x)" in line for line in lines)
        assert any("edit cost rows" in line and "(1.10x)" in line for line in lines)
        assert any("rewrite cost rows" in line and "(1.20x)" in line for line in lines)

    def test_an_edit_that_grows_with_the_table_fails(self):
        module = load_module()
        _, failures = module.compare_ivm(self.run_payload(40.0, 9.0))
        assert len(failures) == 1 and "one edit at 200k tuples costs 9.00x" in failures[0]

    def test_a_rewrite_that_grows_with_the_table_fails(self):
        module = load_module()
        _, failures = module.compare_ivm(self.run_payload(40.0, 1.0, rewrite_ratio=10.0))
        assert len(failures) == 1 and "one rewrite at 200k tuples costs 10.00x" in failures[0]

    def test_a_slow_view_still_fails_its_own_gate(self):
        module = load_module()
        _, failures = module.compare_ivm(self.run_payload(4.0, 1.0))
        assert len(failures) == 1 and "maintained view is only 4.00x" in failures[0]

    def test_missing_edit_cost_scenarios_fail_loudly(self):
        module = load_module()
        run = self.run_payload(40.0, 1.0)
        run["benchmarks"] = [b for b in run["benchmarks"] if "200k" not in b["name"]]
        _, failures = module.compare_ivm(run)
        assert failures == [
            "edit-cost scenario rows is missing a size",
            "rewrite-cost scenario rows is missing a size",
        ]
        run["benchmarks"] = [b for b in run["benchmarks"] if "_cost" not in b["name"]]
        _, failures = module.compare_ivm(run)
        assert failures == [
            "no edit-cost scenarios in the benchmark run",
            "no rewrite-cost scenarios in the benchmark run",
        ]
