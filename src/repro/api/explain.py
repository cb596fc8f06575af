"""EXPLAIN rendering: before/after logical trees and the physical plan.

The logical trees are annotated with the optimizer's cardinality estimates;
the physical plan shows, per node, the estimated cardinality and — under
``explain(analyze=True)`` (one real execution) — the actual tuple count and
the *q-error* ``max(est, actual) / min(est, actual)`` (floored at one
tuple), the standard measure of how far the estimate was off.

Estimates transfer from the logical to the physical tree by walking both in
parallel — the planner maps every logical node to exactly one physical
operator with the same arity.  Where a physical algorithm expands
differently (e.g. the algebra-simulation division's inner plan) the
parallel walk stops and a bottom-up *physical* estimator fills in the
remaining nodes from their children, so every plan node carries an
estimate.

Operators chosen by the cost-based planner additionally render their
:class:`~repro.optimizer.physical_cost.PlanDecision` — the chosen
algorithm, its estimated cost, and the priced alternatives it beat; in a
``workers > 1`` session also the three charges the exchange was priced at
(on the parallel variant that lost to a serial one, or on the winner), or
``serial: over memory budget`` where the budget left no serial candidate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.algebra.expressions import Expression
from repro.optimizer.statistics import DEFAULT_SELECTIVITY, CardinalityEstimator
from repro.physical import (
    DifferenceOp,
    Filter,
    IntersectOp,
    ProductOp,
    RelationScan,
    TableScan,
    UnionOp,
)
from repro.physical.base import PhysicalOperator
from repro.physical.executor import execute_plan
from repro.storage.scan import StoredScan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.database import Database
    from repro.api.query import Query

__all__ = ["render_explain", "q_error"]


def q_error(estimated: float, actual: float) -> float:
    """The q-error of one estimate: ``max(est, act) / min(est, act)``.

    Both quantities are floored at one tuple so empty results do not
    divide by zero; a perfect estimate has q-error 1.0.
    """
    estimated = max(float(estimated), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimated / actual, actual / estimated)


def render_explain(
    database: "Database",
    query: "Query",
    analyze: bool = False,
    verbose: bool = False,
    verify: bool = False,
) -> str:
    """Multi-section EXPLAIN (optionally EXPLAIN ANALYZE) for ``query``.

    ``verbose=True`` appends the generated source of every compiled
    pipeline segment; ``verify=True`` runs the static verifier over the
    prepared plan and adds a ``verification`` status line plus any
    findings (with their stable RP codes).
    """
    expression = query.expression
    prepared, cache_hit = database._prepare(expression)
    estimator = CardinalityEstimator(database.optimizer.statistics)

    actual: Optional[dict[int, int]] = None
    if analyze:
        execution = execute_plan(
            prepared.plan,
            batch_size=database.batch_size,
            workers=database.workers,
            memory_budget_mb=database.memory_budget_mb,
        )
        actual = {id(op): op.tuples_out for op in prepared.plan.walk()}

    lines: list[str] = []
    if query.sql is not None:
        lines.append("SQL")
        lines.extend("  " + line for line in query.sql.strip().splitlines())
        lines.append("")
    lines.append(f"fingerprint : {prepared.fingerprint[:16]}  (plan cache: "
                 f"{'hit' if cache_hit else 'miss'})")
    compilation = prepared.compilation
    if compilation is None:
        lines.append("compiled    : no (compilation off)")
    else:
        filters = _filter_summary(prepared.plan, analyze)
        lines.append(f"compiled    : {compilation.summary()}{filters}")
    if verify:
        from repro.analysis.check import verify_prepared

        report = verify_prepared(prepared, database.catalog)
        lines.append(f"verification: {report.summary()}")
        lines.extend("  " + finding.render() for finding in report.findings)
    lines.append("")

    lines.append("Logical plan (as written)")
    lines.extend(_logical_lines(expression, estimator))
    lines.append("")

    fired = ", ".join(prepared.rules_fired) or "(none)"
    lines.append(f"Rewrite rules fired : {fired}")
    lines.append("")

    lines.append("Logical plan (canonical, rewritten)")
    lines.extend(_logical_lines(prepared.rewritten, estimator))
    lines.append("")

    before = prepared.original_cost.total_cost
    after = prepared.rewritten_cost.total_cost
    speedup = float("inf") if after == 0 else before / after
    lines.append(
        f"Estimated cost : {before:.0f} -> {after:.0f} (x{speedup:.2f})"
    )
    lines.append("")

    lines.append("Physical plan" + (" (analyzed: 1 execution)" if analyze else ""))
    estimates = _physical_estimates(prepared.plan, prepared.rewritten, estimator)
    lines.extend(_physical_lines(prepared.plan, estimates, actual))
    if analyze:
        lines.append("")
        worker_ms = execution.statistics.worker_seconds * 1000
        coordinator_ms = max(execution.elapsed_seconds * 1000 - worker_ms, 0.0)
        lines.append(
            f"max intermediate = {execution.max_intermediate} tuples, "
            f"elapsed = {execution.elapsed_seconds * 1000:.2f} ms "
            f"(coordinator {coordinator_ms:.2f} ms + workers {worker_ms:.2f} ms)"
        )
        statistics = execution.statistics
        if statistics.tasks_retried or statistics.tasks_degraded or statistics.faults_injected:
            injected = ", ".join(
                f"{point}={count}"
                for point, count in sorted(statistics.faults_injected.items())
            ) or "none"
            lines.append(
                f"supervision: {statistics.tasks_retried} task(s) retried, "
                f"{statistics.tasks_degraded} degraded to inline, "
                f"faults injected: {injected}"
            )
    if verbose and compilation is not None and compilation.segments:
        lines.append("")
        lines.append("Compiled segments")
        for number, segment in enumerate(compilation.segments, start=1):
            origin = "shared code object" if segment.shared else "freshly compiled"
            lines.append(
                f"  segment {number}: {segment.root} "
                f"({segment.fused_count} operator(s) fused, {origin})"
            )
            lines.extend("    " + line for line in segment.source.splitlines())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# logical tree with estimates
# ----------------------------------------------------------------------
def _logical_lines(expression: Expression, estimator: CardinalityEstimator) -> list[str]:
    lines: list[str] = []

    def visit(node: Expression, indent: int) -> None:
        estimate = estimator.cardinality(node)
        lines.append(f"  {'  ' * indent}{node._pretty_label()}  [est~{estimate:.0f} rows]")
        for child in node.children:
            visit(child, indent + 1)

    visit(expression, 0)
    return lines


# ----------------------------------------------------------------------
# physical tree with estimated vs actual cardinalities
# ----------------------------------------------------------------------
def _physical_estimates(
    plan: PhysicalOperator,
    expression: Expression,
    estimator: CardinalityEstimator,
) -> dict[int, float]:
    """Map every physical operator (by id) to a cardinality estimate.

    A parallel logical/physical walk transfers the estimator's figures
    wherever the trees mirror each other; composite physical algorithms
    (whose subtree has no logical counterpart) are filled in bottom-up from
    their children by :func:`_fallback_estimate`.
    """
    estimates: dict[int, float] = {}

    def visit(operator: PhysicalOperator, node: Expression) -> None:
        estimates[id(operator)] = estimator.cardinality(node)
        if len(operator.children) == len(node.children):
            for child_op, child_node in zip(operator.children, node.children):
                visit(child_op, child_node)

    visit(plan, expression)

    def fill(operator: PhysicalOperator) -> float:
        for child in operator.children:
            fill(child)
        if id(operator) not in estimates:
            estimates[id(operator)] = _fallback_estimate(operator, estimates)
        return estimates[id(operator)]

    fill(plan)
    return estimates


def _fallback_estimate(operator: PhysicalOperator, estimates: dict[int, float]) -> float:
    """Bottom-up estimate for a physical operator without a logical twin."""
    children = [estimates.get(id(child), 1.0) for child in operator.children]
    if isinstance(operator, (RelationScan, TableScan, StoredScan)):
        return float(len(operator.relation))
    if isinstance(operator, Filter):
        return children[0] * DEFAULT_SELECTIVITY
    if isinstance(operator, ProductOp):
        return children[0] * children[1]
    if isinstance(operator, UnionOp):
        return sum(children)
    if isinstance(operator, IntersectOp):
        return min(children) * 0.5
    if isinstance(operator, DifferenceOp):
        return children[0]
    return max(children, default=1.0)


def _filter_summary(plan: PhysicalOperator, analyzed: bool) -> str:
    """How the analyzed execution's compiled segments evaluated their filters.

    ``on the dictionary``: once per dictionary entry, then masks over the
    scanned code columns; ``per tuple``: the generated per-tuple loop (no
    code columns in the input, or a predicate the dictionary cannot decide).
    """
    if not analyzed:
        return ""
    modes = [
        operator._filter_mode
        for operator in plan.walk()
        if operator._compiled_producer is not None and operator._filter_mode is not None
    ]
    if not modes:
        return ""
    dictionary = modes.count("dictionary")
    return f" · filters: {dictionary} on the dictionary, {len(modes) - dictionary} per tuple"


def _exchange_line(operator: PhysicalOperator, analyzed: bool) -> Optional[str]:
    """Exchange annotation for partition-parallel operators.

    Static explain reports the configured shape (partitions, DOP); after an
    ``analyze=True`` execution the line adds the measured per-partition
    input-cardinality skew — max partition size over mean partition size,
    1.00 meaning perfectly balanced — and the form the exchange shipped
    its input in (``code columns`` or ``tuples``).
    """
    if not operator.parallel:
        return None
    summary = f"exchange: partitions={operator.partitions}, workers={operator.workers}"
    budget = getattr(operator, "memory_budget_mb", None)
    if budget is not None:
        summary += f", budget={budget:g}MB"
    sizes = operator.partition_input_sizes
    if analyzed and sizes:
        mean = sum(sizes) / len(sizes)
        skew = (max(sizes) / mean) if mean else 1.0
        populated = sum(1 for size in sizes if size)
        summary += (
            f", {populated}/{len(sizes)} partitions populated, "
            f"input skew max/mean={skew:.2f}"
        )
        shipped = getattr(operator, "exchange_input", None)
        if shipped is not None:
            summary += f", input: {shipped}"
    spill = getattr(operator, "spill_statistics", None)
    if analyzed and spill:
        summary += (
            f", spilled {spill['spilled_tuples']} tuples"
            f"/{spill['spilled_blocks']} blocks"
            f" in {spill['spilled_partitions']} partition(s)"
            f", peak buffered {spill['peak_buffered_tuples']} tuples"
        )
    return summary


def _storage_line(operator: PhysicalOperator, analyzed: bool) -> Optional[str]:
    """Zone-map annotation for stored-table scans.

    Static explain shows the block count, how the blocks' pages reach the
    plan (``code buffers``, or ``raw`` when a column has no dictionary and
    blocks are decoded to tuples) and any pushed-down skip predicate; after
    an ``analyze=True`` execution the line adds how many blocks the zone
    maps actually skipped and how many payload bytes the run read.
    """
    if not isinstance(operator, StoredScan):
        return None
    summary = f"storage: blocks={operator.blocks_total}, pages: {operator.page_kind}"
    if operator.skip_predicate is not None:
        summary += f", zone-map skip on {operator.skip_predicate!r}"
    if analyzed:
        summary += f", skipped={operator.blocks_skipped}, read {operator.bytes_read} bytes"
    return summary


def _physical_lines(
    plan: PhysicalOperator,
    estimates: dict[int, float],
    actual: Optional[dict[int, int]],
) -> list[str]:
    lines: list[str] = []

    def visit(operator: PhysicalOperator, indent: int) -> None:
        # _physical_estimates' bottom-up fill guarantees every node an entry.
        estimate = estimates[id(operator)]
        annotation = f"est~{estimate:.0f}"
        if actual is not None:
            measured = actual.get(id(operator), 0)
            annotation += f", actual={measured}, q={q_error(estimate, measured):.2f}"
        lines.append(f"  {'  ' * indent}{operator.describe()}  [{annotation} rows]")
        if operator.decision is not None:
            lines.append(f"  {'  ' * indent}  · {operator.decision.describe()}")
        if operator._compiled_producer is not None:
            fused = getattr(operator, "_compiled_fused", 1)
            filtered = ""
            if actual is not None and operator._filter_mode is not None:
                how = "on the dictionary" if operator._filter_mode == "dictionary" else "per tuple"
                filtered = f", filtered {how}"
            lines.append(
                f"  {'  ' * indent}  · compiled segment ({fused} operator(s) fused{filtered})"
            )
        key_source = getattr(operator, "key_source", None)
        if actual is not None and key_source is not None:
            kernel = getattr(operator, "kernel_name", None)
            lines.append(f"  {'  ' * indent}  · keys: {key_source}, kernel: {kernel}")
        exchange = _exchange_line(operator, analyzed=actual is not None)
        if exchange is not None:
            lines.append(f"  {'  ' * indent}  · {exchange}")
        storage = _storage_line(operator, analyzed=actual is not None)
        if storage is not None:
            lines.append(f"  {'  ' * indent}  · {storage}")
        for child in operator.children:
            visit(child, indent + 1)

    visit(plan, 0)
    return lines
