"""The chaos sweep: every fault point x every division algorithm x one
and four partitions.

The contract under injection is *fail-stop, never fail-wrong*: a run with
an armed fault plan either produces the bit-identical quotient or raises
one of the documented typed errors — ``InjectedFaultError`` or
``StorageError`` (including the corruption subclass).  A silently wrong
quotient fails the sweep.
"""

import pytest

from repro.errors import InjectedFaultError, StorageError
from repro.faults import (
    FaultPlan,
    FaultSpec,
    clear_plan,
    injection_counters,
    install_plan,
    reset_counters,
)
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    PartitionedDivision,
    RelationScan,
    execute_plan,
)
from repro.relation import Relation
from repro.storage.scan import StoredScan
from repro.storage.store import load_store, save_database

#: The fault points the sweep drives, with the action that exercises the
#: most interesting path at each: a corrupted block/manifest must be
#: *detected* (checksums), spill faults hit the out-of-core path.
SWEEP = {
    "storage.block_read": "corrupt",
    "storage.manifest_load": "corrupt",
    "spill.write": "raise",
    "spill.read": "corrupt",
}

#: Errors the contract allows a chaos run to surface.
TYPED_ERRORS = (InjectedFaultError, StorageError)

ALGORITHMS = [("small", name) for name in sorted(SMALL_DIVIDE_ALGORITHMS)] + [
    ("great", name) for name in sorted(GREAT_DIVIDE_ALGORITHMS)
]


def _dividend():
    # 40 candidate groups, half of which contain the divisor.
    rows = []
    for a in range(40):
        values = (1, 2, 3) if a % 2 else (1, 3)
        rows.extend((a, b) for b in values)
    return Relation(("a", "b"), rows)


def _small_divisor():
    return Relation(("b",), [(1,), (2,), (3,)])


def _great_divisor():
    return Relation(("b", "c"), [(1, 10), (2, 10), (1, 20), (3, 20)])


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A saved store plus the fault-free quotient for each division kind."""
    path = tmp_path_factory.mktemp("chaos-store")
    from repro.algebra.catalog import Catalog

    catalog = Catalog()
    catalog.add_table("dividend", _dividend())
    catalog.add_table("small_divisor", _small_divisor())
    catalog.add_table("great_divisor", _great_divisor())
    save_database(path, catalog)
    expected = {
        "small": execute_plan(
            SMALL_DIVIDE_ALGORITHMS["hash"](
                RelationScan(_dividend()), RelationScan(_small_divisor())
            )
        ).relation,
        "great": execute_plan(
            GREAT_DIVIDE_ALGORITHMS["hash"](
                RelationScan(_dividend()), RelationScan(_great_divisor())
            )
        ).relation,
    }
    return path, expected


@pytest.fixture(autouse=True)
def disarmed():
    clear_plan()
    reset_counters()
    yield
    clear_plan()
    reset_counters()


def _build_plan(path, kind, algorithm, partitions):
    catalog, _versions, _views = load_store(path)
    divisor = "small_divisor" if kind == "small" else "great_divisor"
    return PartitionedDivision(
        StoredScan(catalog["dividend"], table="dividend"),
        StoredScan(catalog[divisor], table=divisor),
        algorithm=algorithm,
        kind=kind,
        partitions=partitions,
    )


@pytest.mark.parametrize("partitions", (1, 4))
@pytest.mark.parametrize("kind,algorithm", ALGORITHMS)
@pytest.mark.parametrize("point", sorted(SWEEP))
def test_chaos_sweep(store, point, kind, algorithm, partitions):
    """Armed fault at ``point``: exact quotient or a documented typed error."""
    path, expected = store
    install_plan(
        FaultPlan((FaultSpec(point=point, action=SWEEP[point], limit=3),), seed=17)
    )
    # A tiny budget forces the exchange through the spill path, so the
    # spill.* points actually sit on the executed path.
    budget = 0.01 if point.startswith("spill.") else None
    try:
        plan = _build_plan(path, kind, algorithm, partitions)
        result = execute_plan(plan, memory_budget_mb=budget)
    except TYPED_ERRORS:
        return  # fail-stop: detected and typed, never silent
    assert result.relation == expected[kind]


#: Every other action the registry applies at a payload-carrying point:
#: each point is swept with all three, not only its most interesting one.
OTHER_ACTIONS = [
    (point, action)
    for point in sorted(SWEEP)
    for action in ("corrupt", "delay", "raise")
    if action != SWEEP[point]
]


@pytest.mark.parametrize("partitions", (1, 4))
@pytest.mark.parametrize("kind,algorithm", ALGORITHMS)
@pytest.mark.parametrize("point,action", OTHER_ACTIONS)
def test_every_action_at_every_point(store, point, action, kind, algorithm, partitions):
    """A delay fires and is absorbed: the exact quotient, no error.  A raise
    fires and surfaces typed: nothing retries it.  A corruption is
    fail-stop, as in the sweep above."""
    path, expected = store
    spec = FaultSpec(point=point, action=action, limit=3, delay_seconds=0.001)
    install_plan(FaultPlan((spec,), seed=17))
    budget = 0.01 if point.startswith("spill.") else None
    try:
        plan = _build_plan(path, kind, algorithm, partitions)
        result = execute_plan(plan, memory_budget_mb=budget)
    except TYPED_ERRORS as error:
        assert action != "delay", f"a delay surfaced as {error!r}"
    else:
        assert action != "raise", "an injected raise was swallowed"
        assert result.relation == expected[kind]
    assert injection_counters().get(point, 0) >= 1  # the point is on the path


class TestCorruptionIsDetected:
    def test_probabilistic_corruption_never_yields_wrong_blocks(self, store):
        """50%-probability block corruption across many reads: every firing
        is either absorbed (impossible for corrupt) or typed — and a clean
        pass is bit-identical."""
        path, expected = store
        install_plan(
            FaultPlan(
                (FaultSpec(point="storage.block_read", action="corrupt", probability=0.5),),
                seed=23,
            )
        )
        outcomes = set()
        for _ in range(6):
            try:
                plan = _build_plan(path, "small", "merge_sort", partitions=1)
                result = execute_plan(plan)
            except TYPED_ERRORS:
                outcomes.add("typed")
            else:
                assert result.relation == expected["small"]
                outcomes.add("exact")
        assert "typed" in outcomes  # the plan did fire at least once
