"""Unit tests for the house rule of ``scripts/bench_pairs.py``."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]
CLEAN = {"failed": (0, 0)}  # no operation failed on either side


def test_a_clear_gain_on_every_pair_holds():
    change = [value * 1.12 for value in PARENT]
    result = bench_pairs.verdict(PARENT, change, higher_is_better=True, **CLEAN)
    assert (result.pairs, result.wins) == (10, 10)
    assert result.change_median == pytest.approx(1.12 * result.parent_median)
    assert result.holds


def test_nine_wins_of_ten_hold_and_eight_do_not():
    change = [value * 1.12 for value in PARENT]
    change[0] = PARENT[0] - 1
    assert bench_pairs.verdict(PARENT, change, True, **CLEAN).holds
    change[1] = PARENT[1]  # a tie is no win
    result = bench_pairs.verdict(PARENT, change, True, **CLEAN)
    assert result.wins == 8 and not result.holds


def test_a_gain_inside_the_parents_quartiles_does_not_hold():
    result = bench_pairs.verdict(PARENT, [value + 0.6 for value in PARENT], True, **CLEAN)
    assert result.wins == 10
    assert result.parent_iqr == pytest.approx(1.25)  # 100.875 - 99.625
    assert not result.holds


def test_lower_is_better_counts_the_other_way():
    faster = [value * 0.8 for value in PARENT]
    assert bench_pairs.verdict(PARENT, faster, higher_is_better=False, **CLEAN).holds
    assert not bench_pairs.verdict(PARENT, faster, higher_is_better=True, **CLEAN).holds
    assert bench_pairs.verdict(PARENT, faster, higher_is_better=True, **CLEAN).wins == 0


def test_uneven_or_empty_pairs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT[:-1], True, **CLEAN)
    with pytest.raises(ValueError):
        bench_pairs.verdict([], [], True, **CLEAN)


def test_a_gain_that_fails_more_operations_does_not_hold():
    change = [value * 1.12 for value in PARENT]
    more = bench_pairs.verdict(PARENT, change, True, failed=(0, 1))
    assert more.wins == 10 and not more.holds
    assert bench_pairs.verdict(PARENT, change, True, failed=(2, 2)).holds
    assert bench_pairs.verdict(PARENT, change, True, failed=(2, 1)).holds


def test_a_bound_check_compares_the_medians():
    slower = [value * 1.12 for value in PARENT]
    slower[0] = PARENT[0] * 2  # one wild pair moves the median one place only
    result = bench_pairs.verdict(PARENT, slower, higher_is_better=False, **CLEAN)
    assert result.relative == pytest.approx(112.28 / 100 - 1)
    assert result.against(0.25) == "inside"
    assert result.against(0.1) == "OUTSIDE"
    # The same rise is a gain when higher is better, whatever the bound.
    assert bench_pairs.verdict(PARENT, slower, True, **CLEAN).against(0.02) == "inside"


def test_a_bound_check_counts_a_fall_against_a_higher_is_better_metric():
    fewer = bench_pairs.verdict(PARENT, [value * 0.85 for value in PARENT], True, **CLEAN)
    assert fewer.against(0.2) == "inside"
    assert fewer.against(0.1) == "OUTSIDE"
    fell = bench_pairs.verdict(PARENT, [value * 0.85 for value in PARENT], False, **CLEAN)
    assert fell.against(0.02) == "inside"


def test_a_bound_narrower_than_the_parents_spread_is_unresolved():
    # The parent's quartiles are 1.25 apart, 1.25% of its median.
    slower = bench_pairs.verdict(PARENT, [value + 0.5 for value in PARENT], False, **CLEAN)
    assert slower.against(0.01) == "unresolved"
    assert slower.against(0.02) == "inside"
    # Unless every run of the change reads better than every run of the parent.
    faster = bench_pairs.verdict(PARENT, [value - 5 for value in PARENT], False, **CLEAN)
    assert faster.separated and faster.against(0.01) == "inside"


def test_a_bound_check_over_a_parent_median_of_zero():
    assert bench_pairs.verdict([0.0], [0.0], False, **CLEAN).against(0.0) == "inside"
    assert bench_pairs.verdict([0.0], [1.0], False, **CLEAN).against(0.25) == "OUTSIDE"
