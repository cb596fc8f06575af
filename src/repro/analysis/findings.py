"""Findings: the common currency of every static-analysis pass.

A finding is one defect (or suspicion) located somewhere in a logical
expression, a physical plan, a compiled segment's generated source, or the
engine's own source code.  Findings carry a **stable code** (``RP101`` …)
so tests, CI gates and documentation can refer to a check without matching
message text, and a severity so CI can fail on errors while letting
warnings through.

Code ranges
-----------
* ``RP1xx`` — schema soundness of logical expressions and physical plans;
* ``RP2xx`` — operator-contract completeness (properties, parallel safety,
  partition keys, pickle-safety, streaming segments, exchange shape);
* ``RP3xx`` — codegen audit of compiled-segment source;
* ``RP4xx`` — engine-contract lint rules (``scripts/lint_engine.py``);
* ``RP5xx`` — storage invariants (stored-scan headers, zone maps, spill
  budgets);
* ``RP6xx`` — maintained-view invariants (counter-table/schema agreement,
  delta-rule coverage, version monotonicity, view-over-view rejection);
* ``RP7xx`` — fault-tolerance invariants (checksum coverage of stored
  files, retry-policy sanity, fault-point registration).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any


__all__ = [
    "FINDING_CODES",
    "Finding",
    "Severity",
    "VerificationReport",
    "finding",
]


class Severity(enum.Enum):
    """How bad a finding is; CI gates on :attr:`ERROR` only."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: code → (default severity, one-line description).  The registry is the
#: single source of truth for the stable codes; tests assert against it and
#: the docs table is generated from the same names.
FINDING_CODES: dict[str, tuple[Severity, str]] = {
    # -- RP1xx: schema soundness -------------------------------------------
    "RP101": (Severity.ERROR, "attribute reference does not resolve against the input schema"),
    "RP102": (Severity.ERROR, "rename/grouping output collides with an existing attribute"),
    "RP103": (Severity.ERROR, "division schema law violated (quotient != dividend - divisor)"),
    "RP104": (Severity.ERROR, "set operation over inputs with different attribute sets"),
    "RP105": (Severity.ERROR, "product/theta-join inputs share attributes"),
    "RP106": (Severity.ERROR, "cached schema disagrees with the recomputed schema"),
    "RP107": (Severity.ERROR, "relation reference disagrees with the catalog"),
    "RP111": (Severity.ERROR, "physical operator schema inconsistent with its children"),
    "RP112": (Severity.WARNING, "join/division key typed differently on the two sides"),
    # -- RP2xx: operator contracts -----------------------------------------
    "RP201": (Severity.ERROR, "physical operator class does not declare its own PhysicalProperties"),
    "RP202": (Severity.ERROR, "parallel wrapper wraps an algorithm not marked key-disjoint safe"),
    "RP203": (Severity.ERROR, "exchange partition key does not cover the operator's grouping keys"),
    "RP204": (Severity.WARNING, "task payload is not statically pickle-safe"),
    "RP205": (Severity.ERROR, "compiled producer attached to a non-fusable/non-streaming chain"),
    "RP206": (Severity.ERROR, "exchange shape invalid (partitions/workers below 1)"),
    # -- RP3xx: codegen audit ----------------------------------------------
    "RP301": (Severity.ERROR, "generated source calls outside the binding whitelist"),
    "RP302": (Severity.ERROR, "generated source writes state outside the counter contract"),
    "RP303": (Severity.ERROR, "generated source shadows a _bind binding name"),
    "RP304": (Severity.ERROR, "generated source does not match the fused operator chain"),
    "RP305": (Severity.ERROR, "generated source does not parse"),
    # -- RP4xx: engine-contract lint ---------------------------------------
    "RP401": (Severity.ERROR, "_produce_chunks materializes Row objects without a waiver"),
    "RP402": (Severity.ERROR, "physical operator pulls rows() from a child operator"),
    "RP403": (Severity.ERROR, "law class does not declare its conditions"),
    "RP404": (Severity.ERROR, "physical operator class misses name/properties declarations"),
    "RP405": (Severity.ERROR, "division operator extracts key values outside the key-column seam"),
    "RP406": (Severity.ERROR, "exchange layer reads tuples outside its one tuple route"),
    "RP407": (Severity.ERROR, "storage layer builds per-value lists from a block outside its decoded views"),
    "RP408": (Severity.ERROR, "table edit does whole-table work or writes a table's value outside the fold"),
    "RP409": (Severity.ERROR, "law precondition reads a relation row by row without a waiver"),
    "RP410": (Severity.ERROR, "physical cost model declares a module-level cost coefficient"),
    "RP411": (Severity.ERROR, "numpy imported outside relation/encoding.py and physical/compile/kernels.py"),
    # -- RP5xx: storage invariants -----------------------------------------
    "RP501": (Severity.ERROR, "stored scan schema disagrees with the table file header"),
    "RP502": (Severity.ERROR, "block zone map malformed (unknown attribute or min > max)"),
    "RP503": (Severity.ERROR, "skip predicate references attributes outside the scan schema"),
    "RP504": (Severity.ERROR, "block index tuple counts disagree with the header tuple count"),
    "RP505": (Severity.ERROR, "exchange memory budget is not positive"),
    # -- RP6xx: maintained-view invariants ---------------------------------
    "RP601": (Severity.ERROR, "counter table disagrees with the view's quotient schema"),
    "RP602": (Severity.ERROR, "maintained view lacks full delta-rule coverage"),
    "RP603": (Severity.ERROR, "view's applied versions are not monotone with the tables"),
    "RP604": (Severity.ERROR, "view is defined over another view"),
    # -- RP7xx: fault-tolerance invariants ---------------------------------
    "RP702": (Severity.ERROR, "checksummed table file has a block without a CRC entry"),
    "RP703": (Severity.ERROR, "operator retry policy is unsound (negative retries/backoff or non-positive timeout)"),
    "RP704": (Severity.ERROR, "active fault plan targets an unregistered fault point"),
}


@dataclass(frozen=True)
class Finding:
    """One located defect reported by a static-analysis pass."""

    #: Stable code from :data:`FINDING_CODES` (``RP101`` …).
    code: str
    #: :class:`Severity` of this occurrence (defaults from the registry).
    severity: Severity
    #: Human-readable statement of what is wrong, with the offending names.
    message: str
    #: Where the defect sits: an operator label, a node rendering, a
    #: ``file:line`` pair — whatever locates it for the reader.
    where: str
    #: Which pass produced it: "logical", "physical", "codegen", "engine".
    origin: str = ""

    def to_dict(self) -> dict[str, str]:
        """JSON-ready representation (the CI gate consumes this)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "where": self.where,
            "origin": self.origin,
        }

    def render(self) -> str:
        """One-line rendering for terminals and explain output."""
        return f"{self.code} {self.severity.value:<7} [{self.where}] {self.message}"


def finding(code: str, message: str, where: str, origin: str = "") -> Finding:
    """Build a finding with the registry's default severity for ``code``."""
    try:
        severity, _description = FINDING_CODES[code]
    except KeyError:
        raise ValueError(f"unknown finding code {code!r}") from None
    return Finding(code=code, severity=severity, message=message, where=where, origin=origin)


@dataclass(frozen=True)
class VerificationReport:
    """The outcome of one verification run over one plan/expression."""

    #: Every finding, in discovery order.
    findings: tuple[Finding, ...] = ()
    #: Names of the passes that ran (e.g. ``("logical", "physical")``).
    passes: tuple[str, ...] = ()
    #: How many nodes/operators/segments were inspected (for rendering).
    checked: int = 0

    @property
    def ok(self) -> bool:
        """True when no finding has severity ``error``."""
        return not self.errors()

    def errors(self) -> tuple[Finding, ...]:
        """Only the severity-``error`` findings."""
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    def warnings(self) -> tuple[Finding, ...]:
        """Only the severity-``warning`` findings."""
        return tuple(f for f in self.findings if f.severity is Severity.WARNING)

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        """This report and ``other`` folded into one."""
        return VerificationReport(
            findings=self.findings + other.findings,
            passes=self.passes + tuple(p for p in other.passes if p not in self.passes),
            checked=self.checked + other.checked,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "ok": self.ok,
            "checked": self.checked,
            "passes": list(self.passes),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document (``repro check --json``)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def summary(self) -> str:
        """One line: clean, or the error/warning counts."""
        if not self.findings:
            scope = f"{self.checked} node(s)" if self.checked else "all checks"
            return f"clean ({scope}, {len(self.passes)} pass(es))"
        errors = len(self.errors())
        warnings = len(self.warnings())
        return f"{errors} error(s), {warnings} warning(s) over {self.checked} node(s)"

    def render(self) -> str:
        """Multi-line rendering: summary plus one line per finding."""
        lines = [self.summary()]
        lines.extend("  " + f.render() for f in self.findings)
        return "\n".join(lines)
