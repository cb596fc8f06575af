"""Unit tests for the same-run benchmark gate table (``benchmarks/gates.py``)."""

import ast
import importlib.util
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _load_gates():
    spec = importlib.util.spec_from_file_location("benchmark_gates", BENCHMARKS / "gates.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


gates = _load_gates()
ROWS = [pytest.param(gate, id=name) for name, gate in gates.GATES.items()]
#: A reference timing of 10 ms for the synthetic cases.
REFERENCE = 0.010


def _request(benchmark_disabled):
    config = SimpleNamespace(getoption=lambda _name: benchmark_disabled, stash=pytest.Stash())
    return SimpleNamespace(config=config, node=SimpleNamespace(name="test_fake"))


@pytest.mark.parametrize("gate", ROWS)
def test_a_timing_just_inside_the_bound_passes(gate):
    assert gate.failure(gate.limit(REFERENCE) * 0.999, REFERENCE) is None


@pytest.mark.parametrize("gate", ROWS)
def test_a_timing_just_outside_fails_naming_the_gate_both_arms_and_the_bound(gate):
    message = gate.failure(gate.limit(REFERENCE) * 1.001, REFERENCE)
    assert message is not None
    for part in (gate.name, gate.arm, gate.reference, f"{gate.bound:.3g} ×"):
        assert part in message, (part, message)


@pytest.mark.parametrize("gate", ROWS)
def test_an_excess_smaller_than_the_floor_passes(gate):
    """Over the ratio by half the floor (for a row without one: exactly
    at the ratio, which the bound includes)."""
    assert gate.failure(gate.bound * REFERENCE + gate.floor / 2, REFERENCE) is None


def test_check_gate_times_nothing_under_benchmark_disable():
    def untouchable():
        raise AssertionError("a run was prepared under --benchmark-disable")

    request = _request(benchmark_disabled=True)
    assert gates.check_gate(request, "zone-map-skip", untouchable, untouchable) is None
    assert request.config.stash.get(gates.MEASURED, []) == []


def test_check_gate_times_a_run_shared_by_both_sides_once_and_reports_it():
    prepared = []

    def run():
        prepared.append(None)
        return lambda: None

    request = _request(benchmark_disabled=False)
    gates.check_gate(request, "parallel-pick-division", run, {"serial": run, "partitioned": run})
    assert len(prepared) == gates.REPEATS
    (line,) = request.config.stash[gates.MEASURED]
    assert line.startswith("test_fake: parallel-pick-division 1.000×"), line


def test_check_gate_fails_a_slow_arm_with_every_timing():
    request = _request(benchmark_disabled=False)
    with pytest.raises(AssertionError, match="gate 'metadata-analyze'.*a full statistics scan"):
        gates.check_gate(
            request, "metadata-analyze", lambda: lambda: time.sleep(0.005), lambda: lambda: None
        )
    assert request.config.stash[gates.MEASURED][0].endswith("FAILED")


def _gate_names_and_bounds():
    """Every ``check_gate`` name and module-level ``*_BOUND`` constant in
    the benchmark files."""
    names, bounds = [], []
    for path in sorted(BENCHMARKS.glob("test_bench_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_gate":
                name = node.args[1]
                assert isinstance(name, ast.Constant), f"{path.name}: gate name is not a literal"
                names.append(name.value)
        bounds += [
            f"{path.name}: {target.id}"
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_BOUND")
        ]
    return names, bounds


def test_every_gate_used_in_benchmarks_is_a_row_and_every_row_is_used():
    names, bounds = _gate_names_and_bounds()
    assert set(names) == set(gates.GATES)
    assert bounds == [], "bounds belong in benchmarks/gates.py"
