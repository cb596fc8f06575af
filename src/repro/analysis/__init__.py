"""Static analysis of plans and engine contracts.

Two passes, one currency (:class:`~repro.analysis.findings.Finding`):

* the **plan verifier** (:mod:`repro.analysis.plan_verifier`) checks
  schema soundness of logical expressions and physical plans plus the
  operator contracts (RP1xx/RP2xx);
* the **engine-contract linter** (``scripts/lint_engine.py``) enforces
  repo-wide source rules (RP4xx) and shares the finding registry.

Entry points: ``repro check`` (CLI), ``Query.verify()`` /
``explain(verify=True)`` (API), and the executor's debug pre-execution
hook (``REPRO_VERIFY=1`` or ``execute_plan(..., verify=True)``).
"""

from repro.analysis.check import (
    CheckRun,
    WorkloadCheck,
    check_workloads,
    verify_expression_tree,
    verify_plan,
    verify_prepared,
)
from repro.analysis.findings import (
    FINDING_CODES,
    Finding,
    Severity,
    VerificationReport,
    finding,
)
from repro.analysis.plan_verifier import verify_expression, verify_physical
from repro.analysis.view_verifier import verify_view

__all__ = [
    "FINDING_CODES",
    "CheckRun",
    "Finding",
    "Severity",
    "VerificationReport",
    "WorkloadCheck",
    "check_workloads",
    "finding",
    "verify_expression",
    "verify_expression_tree",
    "verify_physical",
    "verify_plan",
    "verify_prepared",
    "verify_view",
]
