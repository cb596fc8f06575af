"""Unit tests for fault plans and the injection registry."""

import pickle

import pytest

from repro.errors import InjectedFaultError, ReproError
from repro.faults import (
    ACTIONS,
    FAULT_POINTS,
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_plan,
    draw,
    fire,
    injection_counters,
    install_plan,
    reset_counters,
)


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with no plan armed and zero counters."""
    clear_plan()
    reset_counters()
    yield
    clear_plan()
    reset_counters()


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec(point="spill.read")
        assert spec.action == "raise"
        assert spec.probability == 1.0
        assert spec.limit is None

    def test_rejects_unknown_action(self):
        with pytest.raises(ReproError, match="unknown fault action"):
            FaultSpec(point="spill.read", action="explode")

    def test_rejects_bad_probability(self):
        with pytest.raises(ReproError, match="probability"):
            FaultSpec(point="spill.read", probability=1.5)

    def test_rejects_bad_limit(self):
        with pytest.raises(ReproError, match="limit"):
            FaultSpec(point="spill.read", limit=0)

    def test_rejects_empty_point(self):
        with pytest.raises(ReproError, match="point"):
            FaultSpec(point="")

    def test_actions_registry(self):
        assert ACTIONS == {"raise", "delay", "corrupt", "crash"}


class TestFaultPlanParse:
    def test_parse_full_entry(self):
        plan = FaultPlan.parse("storage.block_read:corrupt:0.5:3", seed=7)
        (spec,) = plan.specs
        assert spec.point == "storage.block_read"
        assert spec.action == "corrupt"
        assert spec.probability == 0.5
        assert spec.limit == 3
        assert plan.seed == 7

    def test_parse_defaults(self):
        plan = FaultPlan.parse("spill.read")
        (spec,) = plan.specs
        assert spec.action == "raise" and spec.probability == 1.0 and spec.limit is None

    def test_parse_multiple_entries(self):
        plan = FaultPlan.parse("spill.read:crash:1:1; spill.write:raise, storage.manifest_load")
        assert plan.points() == ("spill.read", "spill.write", "storage.manifest_load")

    def test_parse_empty_is_falsy(self):
        assert not FaultPlan.parse("")
        assert bool(FaultPlan.parse("spill.read"))

    def test_parse_rejects_malformed(self):
        with pytest.raises(ReproError, match="REPRO_FAULTS"):
            FaultPlan.parse("spill.read:raise:not-a-number")
        with pytest.raises(ReproError, match="REPRO_FAULTS"):
            FaultPlan.parse("a:b:c:d:e")

    def test_unregistered_points_are_constructible(self):
        """Typos are caught by the RP704 verifier, not at parse time."""
        plan = FaultPlan.parse("spill.readz")
        assert plan.points() == ("spill.readz",)
        install_plan(plan)
        assert active_plan() is plan


class TestRegistry:
    def test_every_registered_point_is_dotted(self):
        for point in FAULT_POINTS:
            layer, _, name = point.partition(".")
            assert layer and name

    def test_no_plan_means_no_firing(self):
        assert draw("spill.read") is None
        assert fire("spill.read", b"data") == b"data"
        assert injection_counters() == {}

    def test_raise_fires_typed_error_with_point(self):
        install_plan(FaultPlan((FaultSpec(point="spill.write"),)))
        with pytest.raises(InjectedFaultError) as excinfo:
            fire("spill.write")
        assert excinfo.value.point == "spill.write"
        assert injection_counters() == {"spill.write": 1}

    def test_limit_caps_firings(self):
        install_plan(FaultPlan((FaultSpec(point="spill.write", limit=2),)))
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                fire("spill.write")
        assert fire("spill.write", b"ok") == b"ok"
        assert injection_counters() == {"spill.write": 2}

    def test_corrupt_flips_exactly_one_byte(self):
        install_plan(FaultPlan((FaultSpec(point="storage.block_read", action="corrupt"),)))
        payload = bytes(range(32))
        corrupted = fire("storage.block_read", payload)
        assert corrupted != payload
        assert len(corrupted) == len(payload)
        diffs = [i for i, (a, b) in enumerate(zip(payload, corrupted)) if a != b]
        assert diffs == [len(payload) // 2]

    def test_corrupt_without_payload_degrades_to_raise(self):
        install_plan(FaultPlan((FaultSpec(point="storage.table_write", action="corrupt"),)))
        with pytest.raises(InjectedFaultError):
            fire("storage.table_write")

    def test_probability_stream_is_deterministic(self):
        def decisions():
            install_plan(
                FaultPlan((FaultSpec(point="spill.read", probability=0.5),), seed=42)
            )
            return tuple(draw("spill.read") is not None for _ in range(64))

        first, second = decisions(), decisions()
        assert first == second
        assert any(first) and not all(first)

    def test_per_point_streams_are_independent(self):
        """Adding a spec for one point never shifts another point's draws."""
        spec_a = FaultSpec(point="storage.block_read", probability=0.5)
        spec_b = FaultSpec(point="spill.read", probability=0.5)
        install_plan(FaultPlan((spec_a,), seed=9))
        alone = tuple(draw("storage.block_read") is not None for _ in range(32))
        install_plan(FaultPlan((spec_a, spec_b), seed=9))
        together = tuple(draw("storage.block_read") is not None for _ in range(32))
        assert alone == together

    def test_counters_survive_reinstall(self):
        install_plan(FaultPlan((FaultSpec(point="spill.write"),)))
        with pytest.raises(InjectedFaultError):
            fire("spill.write")
        install_plan(FaultPlan((FaultSpec(point="spill.read"),)))
        assert injection_counters() == {"spill.write": 1}

    def test_install_rejects_non_plan(self):
        with pytest.raises(TypeError):
            install_plan("spill.read:raise")

    def test_injected_error_pickles(self):
        error = InjectedFaultError("injected fault at spill.read", point="spill.read")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.point == "spill.read"
        assert str(clone) == str(error)
