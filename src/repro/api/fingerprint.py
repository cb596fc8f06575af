"""Cache keys for prepared plans.

A prepared plan is valid for a *canonical expression* under a fixed
optimizer configuration.  The cache key therefore combines the expression's
canonical fingerprint (:func:`repro.algebra.canonical.expression_fingerprint`)
with a digest of everything that changes which plan the optimizer would
produce: the rewrite strategy and the physical algorithm choices.

Statistics are intentionally *not* part of the key: a
:class:`~repro.api.database.Database` snapshots its statistics at
construction time, and its plan cache lives and dies with it.
"""

from __future__ import annotations

import hashlib

from repro.algebra.canonical import expression_fingerprint
from repro.algebra.expressions import Expression
from repro.errors import PlanningError
from repro.optimizer.planner import PlannerOptions

__all__ = ["expression_fingerprint", "optimizer_signature", "plan_cache_key"]


def _compile_part(planner_options: PlannerOptions) -> str:
    """The compile-mode component of the signature.

    Invalid values still produce a (distinct) signature here — the
    :class:`PlanningError` is deferred to prepare time, matching how unknown
    algorithm names are reported.
    """
    try:
        return f"compile={planner_options.compile_mode()}"
    except PlanningError:
        return f"compile={planner_options.compile!r}"


def optimizer_signature(
    cost_based: bool,
    planner_options: PlannerOptions,
    allow_data_inspection: bool = True,
) -> str:
    """A short digest of the optimizer configuration.

    Covers every knob that changes which plan the optimizer produces: the
    rewrite strategy, whether rules may inspect data to establish their
    preconditions, and the physical algorithm choices.
    """
    parts = (
        "cost_based" if cost_based else "heuristic",
        "inspecting" if allow_data_inspection else "static",
        planner_options.small_divide_algorithm or "auto",
        planner_options.great_divide_algorithm or "auto",
        planner_options.join_algorithm or "auto",
        f"workers={planner_options.workers or 1}",
        f"partitions={planner_options.partitions or planner_options.workers or 1}",
        _compile_part(planner_options),
    )
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]


def plan_cache_key(
    expression: Expression, configuration: str, *, assume_canonical: bool = False
) -> str:
    """Cache key for ``expression`` under one optimizer ``configuration``.

    Set ``assume_canonical=True`` when ``expression`` is already canonical
    to skip a redundant pull-up pass (canonicalization is idempotent, so
    passing a raw expression without the flag is merely slower, not wrong).
    """
    digest = expression_fingerprint(expression, assume_canonical=assume_canonical)
    return f"{digest}:{configuration}"
