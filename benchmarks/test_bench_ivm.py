"""Benchmarks for incremental view maintenance (the churn workload).

The acceptance contract of the view subsystem: **1000 single-row edits
against a ≥100k-tuple dividend, reading the quotient view after every
edit, beat recompute-per-edit by ≥10× per edit**, measured same-run.
The edit itself is O(delta) in both arms — the catalog records the row
in the table's pending delta, nothing is copied.  The arms differ in
what the read after each edit costs: the maintained view applies an
O(delta) counter update and scans its counter table without touching
the base table, while the recompute baseline folds the pending row into
the 100k-tuple dividend (one vectorized pass that carries the scan
block over) and divides it from scratch.

A second contract pins the edit path itself: **the cost of a single-row
edit does not depend on the size of the table** (``test_edit_cost`` /
``test_edit_cost_is_flat``: per-edit time at a 200k-tuple dividend
within 2× of the time at 20k, two maintained views registered, no read
between the edits so nothing folds).

A third pins the re-query after an edit: **what the rewriter pays to
check the laws' preconditions does not depend on the size of the table
either** (``test_rewrite_cost`` / ``test_rewrite_cost_is_flat``:
``Optimizer.rewrite`` of ``r1 ÷ σ_color(parts)`` right after a single-row
edit at 200k tuples within 2× of the same at 20k — key-ness and inclusion
are read off the dictionaries the fold carried over, not off a projection
of the table).  A timed pass is ``REWRITES_PER_EDIT`` rewrites, not one:
the first runs on the CPU caches the fold has just streamed the table
through (0.10 ms after a 20k fold, 0.20 ms after a 200k one — what it
costs after streaming 32 MB of anything), every later one takes 0.04 ms
at either size, and the gate is about work done, not about cache misses.

The edit stream is delete/re-insert pairs over existing dividend rows,
so every full pass restores the starting state (timed passes are
repeatable) while still flipping quotient membership whenever the
deleted row carries a divisor value.

**The recompute arm is subsampled**: replaying all 1000 edits through
full recomputes takes minutes, so the gate (``test_ivm_speedup_bound``)
times both arms over the same first ``RECOMPUTE_EDITS`` edits (complete
pairs), which makes the ratio of two passes the ratio per edit; the
``test_churn[edits-maintained]`` benchmark replays the whole stream.

Every bound is a row of ``gates.py`` (``view-per-edit``,
``edit-cost-flat``, ``rewrite-cost-flat``); ``gates.check_gate`` times the
arms unless ``--benchmark-disable``, and the result-parity assertions
always run.
"""

import random
from functools import partial

import pytest

from gates import check_gate
from repro.api import connect
from repro.division import small_divide
from repro.relation import Relation
from repro.workloads import make_division_workload

#: Edits in one full churn pass (delete/re-insert pairs, state-restoring).
MAINTAINED_EDITS = 1000
#: The recompute arm replays only this prefix of the stream (whole pairs).
RECOMPUTE_EDITS = 20
#: The dividend must be at least this large for the contract to mean much.
ROWS_FLOOR = 100_000

CHURN_MODES = ("maintained", "recompute")

#: Quotient groups of the edit-cost dividends (~11.6 tuples a group):
#: about 20k and 200k tuples.
EDIT_COST_GROUPS = {"20k": 1_800, "200k": 18_000}
#: Edits in one edit-cost pass: this many deletes of distinct rows, then
#: their re-inserts (state-restoring; the pending delta grows to half of it).
EDIT_COST_EDITS = 400

#: Rewrites of the re-query in one timed pass after a single-row edit (no
#: verdict is cached, so each checks every precondition again).
REWRITES_PER_EDIT = 20
#: The re-query whose rewrite is timed (the end-to-end benchmark's shape).
DIVIDE_BY_COLOUR = (
    "SELECT a FROM r1 DIVIDE BY (SELECT b FROM parts WHERE color = 'blue') AS p ON r1.b = p.b"
)

assert MAINTAINED_EDITS % 2 == 0 and RECOMPUTE_EDITS % 2 == 0


@pytest.fixture(scope="session")
def churn_workload():
    """A ≥100k-tuple small-divide workload plus its churn edit stream."""
    workload = make_division_workload(
        num_groups=9000,
        divisor_size=10,
        containing_fraction=0.2,
        extra_values_per_group=6,
        seed=11,
    )
    assert len(workload.dividend) >= ROWS_FLOOR
    rng = random.Random(17)
    rows = rng.sample(sorted(workload.dividend.aligned_tuples()), MAINTAINED_EDITS // 2)
    edits = []
    for row in rows:
        edits.append(("delete", row))
        edits.append(("insert", row))
    return workload, edits


def _view_session(workload):
    """A database with the workload under r1/r2 and a built maintained view."""
    db = connect()
    db.add_table("r1", workload.dividend)
    db.add_table("r2", workload.divisor)
    view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
    view.run()
    assert view.maintained
    return db, view


def _recompute_session(workload):
    """The baseline database: same tables, no view, recompute on read."""
    db = connect()
    db.add_table("r1", workload.dividend)
    db.add_table("r2", workload.divisor)
    return db, db.table("r1").divide(db.table("r2"), on=["b"])


def _apply_edit(db, op, row):
    if op == "insert":
        db.insert("r1", [row])
    else:
        db.delete("r1", [row])


def _maintained_pass(db, view, edits):
    """Apply every edit and read the view after each one."""
    for op, row in edits:
        _apply_edit(db, op, row)
        view.relation()


def _recompute_pass(db, query, edits):
    """Apply each edit and recompute the division from scratch after it.

    ``clear_cache()`` makes "no incremental help" explicit — the mutation
    already invalidates the version-keyed result cache and the prepared
    plan, so this baseline is exactly the pay-full-price-per-edit path.
    """
    for op, row in edits:
        _apply_edit(db, op, row)
        db.clear_cache()
        query.run()


@pytest.fixture(scope="module")
def sized_workloads():
    """The ~20k- and ~200k-tuple workloads the flat-cost gates compare."""
    return {
        size: make_division_workload(
            num_groups=groups,
            divisor_size=10,
            containing_fraction=0.2,
            extra_values_per_group=6,
            seed=11,
        )
        for size, groups in EDIT_COST_GROUPS.items()
    }


def _edit_cost_session(workload):
    """Two maintained views over the workload's dividend, plus the edit
    stream: deletes of distinct existing rows, then their re-inserts."""
    db = connect()
    db.add_table("r1", workload.dividend)
    db.add_table("r2", workload.divisor)
    db.add_table("r3", Relation(["b"], sorted(workload.divisor.aligned_tuples())[:5]))
    for name, divisor in (("q", "r2"), ("half", "r3")):
        view = db.create_view(name, db.table("r1").divide(db.table(divisor), on=["b"]))
        view.run()
        assert view.maintained
    rows = random.Random(17).sample(sorted(workload.dividend.aligned_tuples()), EDIT_COST_EDITS // 2)
    return db, [("delete", row) for row in rows] + [("insert", row) for row in rows]


@pytest.fixture(scope="module")
def edit_cost_sessions(sized_workloads):
    """One session per size, shared: every pass restores the state."""
    return {size: _edit_cost_session(workload) for size, workload in sized_workloads.items()}


def _edit_pass(db, edits):
    """Apply every edit; nothing reads the table, so nothing folds."""
    for op, row in edits:
        _apply_edit(db, op, row)


@pytest.mark.parametrize(
    "size", [pytest.param(size, id=f"rows-{size}") for size in EDIT_COST_GROUPS]
)
def test_edit_cost(benchmark, edit_cost_sessions, size):
    """Single-row edits against a small and a ten times larger dividend."""
    db, edits = edit_cost_sessions[size]
    before = db.relation("r1")
    quotient = db.view("q").relation()
    benchmark.pedantic(lambda: _edit_pass(db, edits), rounds=5, iterations=1, warmup_rounds=1)
    # Every pass restores the state: nothing is left to fold, and the
    # views are where they started.
    assert db.relation("r1") is before
    assert db.view("q").relation() == quotient
    assert db.view("q").deltas_applied >= EDIT_COST_EDITS


def test_edit_cost_is_flat(request, edit_cost_sessions):
    """Same-run gate: an edit costs the same whatever the table's size."""
    check_gate(
        request,
        "edit-cost-flat",
        lambda: partial(_edit_pass, *edit_cost_sessions["200k"]),
        lambda: partial(_edit_pass, *edit_cost_sessions["20k"]),
    )


class _RewriteAfterEdit:
    """A session over a workload's dividend and a coloured divisor;
    each :meth:`edit` toggles one dividend row and catches the session up
    (fold + statistics, off the clock), each :meth:`rewrite_pass` is what
    the rewriter then pays for the re-query, ``REWRITES_PER_EDIT`` times."""

    def __init__(self, workload):
        parts = [(b, "blue" if b % 2 else "red") for (b,) in workload.divisor.aligned_tuples()]
        self.db = connect({"r1": workload.dividend, "parts": Relation(["b", "color"], parts)})
        query = self.db.sql(DIVIDE_BY_COLOUR)
        self.rules_fired = query.run().rules_fired
        self.canonical = query.expression.canonical()
        self.row = min(workload.dividend.aligned_tuples())
        self.edits = 0

    def edit(self):
        toggle = self.db.insert if self.edits % 2 else self.db.delete
        assert toggle("r1", [self.row]).changed
        self.edits += 1
        self.db._refresh_stale_statistics(["parts", "r1"])

    def rewrite_pass(self):
        for _ in range(REWRITES_PER_EDIT):
            report = self.db.optimizer.rewrite(self.canonical)
        return report


@pytest.fixture(scope="module")
def rewrite_sessions(sized_workloads):
    return {size: _RewriteAfterEdit(workload) for size, workload in sized_workloads.items()}


@pytest.mark.parametrize(
    "size", [pytest.param(size, id=f"rows-{size}") for size in EDIT_COST_GROUPS]
)
def test_rewrite_cost(benchmark, rewrite_sessions, size):
    """The rewrite of the re-query right after a single-row edit, against
    a small and a ten times larger dividend."""
    session = rewrite_sessions[size]
    report = benchmark.pedantic(
        session.rewrite_pass, setup=session.edit, rounds=10, iterations=1, warmup_rounds=2
    )
    # Same verdicts on every version of the table as on the unedited one.
    assert tuple(report.rules_fired) == tuple(session.rules_fired)
    assert not session.db.catalog._pending


def test_rewrite_cost_is_flat(request, rewrite_sessions):
    """Same-run gate: checking the laws' preconditions after an edit costs
    the same whatever the table's size."""

    def after_edit(session):
        """Edit and catch the session up off the clock; time the rewrites."""
        session.edit()
        return session.rewrite_pass

    check_gate(
        request,
        "rewrite-cost-flat",
        partial(after_edit, rewrite_sessions["200k"]),
        partial(after_edit, rewrite_sessions["20k"]),
    )


@pytest.mark.parametrize(
    "mode", [pytest.param(mode, id=f"edits-{mode}") for mode in CHURN_MODES]
)
def test_churn(benchmark, churn_workload, mode):
    """The churn workload, maintained vs recompute-per-edit (the recompute
    arm replays the ``RECOMPUTE_EDITS`` prefix).

    ``pedantic(rounds=1)``: a pass runs for seconds (far above jitter),
    and auto-calibrated rounds would replay the multi-second stateful
    stream dozens of times for no extra signal.
    """
    workload, edits = churn_workload
    if mode == "maintained":
        db, view = _view_session(workload)
        benchmark.pedantic(
            lambda: _maintained_pass(db, view, edits), rounds=1, iterations=1
        )
        result = view.relation()
        deltas = view.deltas_applied
        assert deltas >= MAINTAINED_EDITS
    else:
        db, query = _recompute_session(workload)
        benchmark.pedantic(
            lambda: _recompute_pass(db, query, edits[:RECOMPUTE_EDITS]),
            rounds=1,
            iterations=1,
        )
        result = query.run().relation
    # Every pass is made of delete/re-insert pairs: the state is restored,
    # so both arms must end at the workload's original quotient.
    expected = small_divide(db.relation("r1"), db.relation("r2"))
    assert result == expected
    assert len(result) == workload.expected_quotient_size


def test_ivm_speedup_bound(request, churn_workload):
    """Same-run gate: a maintained view costs a tenth of recompute per edit.

    Parity always: along the recompute prefix the maintained view and the
    from-scratch division must agree after **every** edit.  Then both arms
    replay that prefix, so their passes compare per edit.
    """
    workload, edits = churn_workload
    db, view = _view_session(workload)
    base, query = _recompute_session(workload)
    for op, row in edits[:RECOMPUTE_EDITS]:
        _apply_edit(db, op, row)
        _apply_edit(base, op, row)
        base.clear_cache()
        assert view.relation() == query.run().relation, (op, row)

    prefix = edits[:RECOMPUTE_EDITS]
    check_gate(
        request,
        "view-per-edit",
        lambda: partial(_maintained_pass, db, view, prefix),
        lambda: partial(_recompute_pass, base, query, prefix),
    )
