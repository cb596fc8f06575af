"""Rule-based rewriting of logical expressions.

:class:`Rewriter` repeatedly applies the rule set bottom-up until no rule
matches anywhere (a Starburst-style fixpoint rewriter, at most
:data:`MAX_PASSES` passes), and records the rewrite trace so experiments
can show *which* laws fired.  A node is offered only the rules whose
pattern has its class at the root, in registry order, so the same rule
wins on every node; each is asked once (``try_apply``), so its conditions
are checked once.  The rewriter does not price what it applies: the
physical price of the expression before and after
(:meth:`repro.optimizer.Optimizer.cost`) is what ``explain()`` reports
beside the rules that fired.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.expressions import Expression
from repro.errors import RewriteError
from repro.laws.base import Rewrite, RewriteContext, RewriteRule
from repro.laws.registry import all_rules

__all__ = ["MAX_PASSES", "RewriteReport", "Rewriter"]

#: Bottom-up passes before the rewriter stops short of a fixpoint.
MAX_PASSES = 10


@dataclass
class RewriteReport:
    """The outcome of a rewriting session."""

    original: Expression
    result: Expression
    applied: list[Rewrite] = field(default_factory=list)

    @property
    def rules_fired(self) -> list[str]:
        """Names of the rules that fired, in application order."""
        return [rewrite.rule for rewrite in self.applied]

    def __len__(self) -> int:
        return len(self.applied)


class Rewriter:
    """Apply a rule set bottom-up until fixpoint."""

    def __init__(
        self,
        rules: Optional[Sequence[RewriteRule]] = None,
        context: Optional[RewriteContext] = None,
    ) -> None:
        self.rules = list(rules) if rules is not None else all_rules()
        self.context = context if context is not None else RewriteContext()
        self._rules_by_root: dict[type, list[RewriteRule]] = {}
        for rule in self.rules:
            self._rules_by_root.setdefault(rule.root, []).append(rule)

    def rewrite(self, expression: Expression) -> RewriteReport:
        """Rewrite ``expression`` to fixpoint and report the applied rules."""
        report = RewriteReport(original=expression, result=expression)
        current = expression
        self.context._operands = {}  # each precondition operand runs once per rewrite
        try:
            for _ in range(MAX_PASSES):
                rewritten = self._one_pass(current, report)
                if rewritten == current:
                    break
                current = rewritten
        finally:
            self.context._operands = None
        report.result = current
        return report

    def _one_pass(self, expression: Expression, report: RewriteReport) -> Expression:
        def visit(node: Expression) -> Expression:
            for rule in self._rules_by_root.get(type(node), ()):
                try:
                    replacement = rule.try_apply(node, self.context)
                except RewriteError:
                    continue
                if replacement is None or replacement == node:
                    continue
                report.applied.append(
                    Rewrite(rule=rule.name, before=node, after=replacement, note=rule.paper_reference)
                )
                return replacement
            return node

        return expression.transform_bottom_up(visit)
