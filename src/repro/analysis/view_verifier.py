"""View verifier: maintained-view invariants (RP6xx).

A maintained view is a cache with an algebraic contract: its counter
table must agree with the view's quotient schema (RP601), its expression
must still analyze to the shape its deltas are routed by (RP602), and the
versions the view claims to have applied must be monotone with the
tables' current versions (RP603) —
a view "ahead" of its base table has incorporated a delta that never
happened.  RP604 rejects views defined over other views: delta routing
is keyed by *base-table* name, so a view-over-view would silently miss
every mutation.

All checks read the view duck-typed (plain attribute access), so the
corruption tests in ``tests/tooling/test_verifier_mutations.py`` can
break one invariant at a time on a real view and watch exactly one code
fire.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis.findings import VerificationReport, finding
from repro.errors import ReproError
from repro.views.shapes import UnsupportedViewShape, analyze_division

__all__ = ["verify_view"]


def _check_counter_schema(view: Any, where: str) -> list[Any]:
    """RP601: the counter table must mirror the view's quotient schema."""
    findings = []
    shape = getattr(view, "shape", None)
    counters = getattr(view, "counters", None)
    schema_names = tuple(getattr(view, "schema_names", ()))
    if shape is None:
        return findings  # fallback views have no counter table to check
    a_names = tuple(shape.a_names)
    c_names = tuple(shape.c_names)
    if schema_names != tuple(shape.schema_names) or len(schema_names) != len(
        a_names + c_names
    ):
        findings.append(
            finding(
                "RP601",
                f"quotient schema {schema_names!r} disagrees with the shape's "
                f"output schema {tuple(shape.schema_names)!r} "
                f"(A+C = {a_names + c_names!r})",
                where,
                origin="view",
            )
        )
    if counters is None:
        return findings  # not built yet: nothing else to compare
    if counters.kind != shape.kind:
        findings.append(
            finding(
                "RP601",
                f"counter table kind {counters.kind!r} disagrees with the "
                f"division shape kind {shape.kind!r}",
                where,
                origin="view",
            )
        )
    if counters.a_width != len(a_names) or counters.c_width != len(c_names):
        findings.append(
            finding(
                "RP601",
                f"counter widths a={counters.a_width} c={counters.c_width} "
                f"disagree with the shape's |A|={len(a_names)} |C|={len(c_names)}",
                where,
                origin="view",
            )
        )
    width = len(a_names) + len(c_names)
    bad = sorted(t for t in counters.quotient_tuples() if len(t) != width)
    if bad:
        findings.append(
            finding(
                "RP601",
                f"quotient tuple {bad[0]!r} has width {len(bad[0])}, "
                f"schema expects {width}",
                where,
                origin="view",
            )
        )
    return findings


def _check_shape(view: Any, where: str) -> list[Any]:
    """RP602: a maintained view's expression still analyzes to its shape."""
    shape = getattr(view, "shape", None)
    if shape is None:
        return []  # fallback views route no deltas
    try:
        current = analyze_division(view.expression)
    except UnsupportedViewShape as error:
        message = f"view is maintained but its expression has no shape ({error.reason})"
    else:
        if current == shape:
            return []
        message = f"view routes deltas by {shape!r}, but its expression analyzes to {current!r}"
    return [finding("RP602", message, where, origin="view")]


def _check_version_monotonicity(view: Any, database: Any, where: str) -> list[Any]:
    """RP603: applied versions must be monotone with the tables' versions."""
    findings = []
    applied = dict(getattr(view, "applied_versions", {}) or {})
    counters = getattr(view, "counters", None)
    for table, version in sorted(applied.items()):
        try:
            current = database.table_version(table)
        except (KeyError, ReproError):
            findings.append(
                finding(
                    "RP603",
                    f"view applied versions name unknown table {table!r}",
                    where,
                    origin="view",
                )
            )
            continue
        if version > current:
            findings.append(
                finding(
                    "RP603",
                    f"view claims {table!r}@v{version} but the table is at "
                    f"v{current} — the view is ahead of its base table",
                    where,
                    origin="view",
                )
            )
        elif version < current and getattr(view, "maintained", False) and counters is not None:
            # Mutations are routed synchronously, so a built maintained
            # view behind its base table has missed a delta.
            findings.append(
                finding(
                    "RP603",
                    f"maintained view is behind {table!r}: applied v{version}, "
                    f"table at v{current} — a delta was not incorporated",
                    where,
                    origin="view",
                )
            )
    return findings


def _check_base_tables(view: Any, database: Any, where: str) -> list[Any]:
    """RP604: every referenced name must be a base table, never a view."""
    findings = []
    views = getattr(database, "views", ())
    name = getattr(view, "name", "")
    for table in sorted(view.tables):
        if table != name and table in views:
            findings.append(
                finding(
                    "RP604",
                    f"view reads {table!r}, which is itself a view — delta "
                    "routing is keyed by base-table name and would miss its "
                    "changes",
                    where,
                    origin="view",
                )
            )
    return findings


def verify_view(view: Any, database: Optional[Any] = None) -> VerificationReport:
    """Check one maintained view's RP601–RP604 invariants.

    ``database`` defaults to the view's owning session; passing one
    explicitly lets tests verify a view against a different (corrupted)
    catalog state.
    """
    if database is None:
        database = view.database
    where = f"view {getattr(view, 'name', '?')!r}"
    findings = []
    findings.extend(_check_counter_schema(view, where))
    findings.extend(_check_shape(view, where))
    findings.extend(_check_version_monotonicity(view, database, where))
    findings.extend(_check_base_tables(view, database, where))
    checked = 2 + len(view.tables)
    return VerificationReport(findings=tuple(findings), passes=("view",), checked=checked)
