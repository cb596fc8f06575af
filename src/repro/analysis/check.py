"""`repro check`: verify prepared plans across the paper workloads.

This module glues the verification passes together:

* :func:`verify_expression_tree` — the logical pass alone;
* :func:`verify_plan` — the physical pass over one plan;
* :func:`verify_prepared` — everything a :class:`PreparedPlan` carries:
  the canonical expression, the rewritten expression and the physical
  plan;
* :func:`check_workloads` — the sweep the CLI and CI run: every paper
  query (Q1–Q3 and the NOT-EXISTS variant), optionally crossed with every
  division algorithm, each prepared on a fresh database and verified.
  Nothing is executed — preparation is planning only — so the sweep is
  safe to run anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis.findings import VerificationReport
from repro.analysis.plan_verifier import verify_expression, verify_physical
from repro.physical.base import PhysicalOperator

__all__ = [
    "CheckRun",
    "WorkloadCheck",
    "check_workloads",
    "verify_expression_tree",
    "verify_plan",
    "verify_prepared",
]


def verify_expression_tree(expression: Any, catalog: Any = None) -> VerificationReport:
    """Run the logical schema-soundness pass over one expression tree."""
    findings, checked = verify_expression(expression, catalog)
    return VerificationReport(findings=tuple(findings), passes=("logical",), checked=checked)


def verify_plan(plan: PhysicalOperator) -> VerificationReport:
    """Run the physical-contract pass over one physical plan."""
    findings, checked = verify_physical(plan)
    return VerificationReport(findings=tuple(findings), passes=("physical",), checked=checked)


def verify_prepared(prepared: Any, catalog: Any = None) -> VerificationReport:
    """Verify everything one :class:`~repro.api.database.PreparedPlan` holds.

    The canonical and rewritten logical expressions are both checked (a
    law that corrupts schemas shows up as the *rewritten* tree failing
    while the canonical one is clean), then the physical plan.
    """
    report = verify_expression_tree(prepared.canonical, catalog)
    rewritten = prepared.rewritten
    if rewritten is not prepared.canonical:
        report = report.merged(verify_expression_tree(rewritten, catalog))
    return report.merged(verify_plan(prepared.plan))


@dataclass(frozen=True)
class WorkloadCheck:
    """One (query, configuration) cell of the sweep and its report."""

    workload: str
    configuration: str
    report: VerificationReport

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "configuration": self.configuration,
            **self.report.to_dict(),
        }


@dataclass(frozen=True)
class CheckRun:
    """The outcome of one ``repro check`` invocation."""

    checks: tuple[WorkloadCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.report.ok for check in self.checks)

    @property
    def findings(self) -> tuple[Any, ...]:
        return tuple(f for check in self.checks for f in check.report.findings)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "cells": len(self.checks),
            "checks": [check.to_dict() for check in self.checks],
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok" if check.report.ok else "FAIL"
            lines.append(
                f"{status:<4} {check.workload:<14} {check.configuration:<40} "
                f"{check.report.summary()}"
            )
            lines.extend("     " + f.render() for f in check.report.findings)
        verdict = "all clean" if self.ok else "errors found"
        lines.append(f"{len(self.checks)} cell(s) checked: {verdict}")
        return "\n".join(lines)


def _paper_queries() -> dict[str, str]:
    from repro.experiments import Q1, Q2, Q3, Q2_NOT_EXISTS

    return {"Q1": Q1, "Q2": Q2, "Q3": Q3, "Q2_NOT_EXISTS": Q2_NOT_EXISTS}


def _configurations(all_workloads: bool, query_name: str) -> list[tuple[str, dict[str, Any]]]:
    """(label, PlannerOptions kwargs) pairs for one query's sweep column."""
    if not all_workloads:
        return [("default", {})]
    from repro.physical import GREAT_DIVIDE_ALGORITHMS, SMALL_DIVIDE_ALGORITHMS

    # Q1 is the paper's great-divide query; the others plan small divides.
    if query_name == "Q1":
        option = "great_divide_algorithm"
        algorithms = sorted(GREAT_DIVIDE_ALGORITHMS)
    else:
        option = "small_divide_algorithm"
        algorithms = sorted(SMALL_DIVIDE_ALGORITHMS)
    return [(f"algorithm={algorithm}", {option: algorithm}) for algorithm in algorithms]


def check_workloads(
    source: Any = None, all_workloads: bool = False, queries: Optional[dict[str, str]] = None
) -> CheckRun:
    """Prepare and verify the paper workloads; nothing is executed.

    ``source`` is a catalog source (defaults to the textbook catalog);
    ``all_workloads`` crosses each query with every applicable division
    algorithm.
    """
    from repro.api.database import connect
    from repro.optimizer.planner import PlannerOptions

    if source is None:
        from repro.workloads import textbook_catalog

        source = textbook_catalog
    checks: list[WorkloadCheck] = []
    for name, sql in sorted((queries or _paper_queries()).items()):
        for label, option_kwargs in _configurations(all_workloads, name):
            database = connect(source, planner_options=PlannerOptions(**option_kwargs))
            prepared, _cached = database._prepare(database.sql(sql).expression)
            report = verify_prepared(prepared, database.catalog)
            checks.append(WorkloadCheck(workload=name, configuration=label, report=report))
    return CheckRun(checks=tuple(checks))
