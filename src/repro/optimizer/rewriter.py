"""Rule-based rewriting of logical expressions.

:class:`Rewriter` repeatedly applies the rule set bottom-up until no rule
matches anywhere (a Starburst-style fixpoint rewriter), and records the
rewrite trace so experiments can show *which* laws fired.  It does not
price what it applies: the physical price of the expression before and
after (:meth:`repro.optimizer.Optimizer.cost`) is what ``explain()``
reports beside the rules that fired.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.expressions import Expression
from repro.errors import RewriteError
from repro.laws.base import Rewrite, RewriteContext, RewriteRule
from repro.laws.registry import all_rules

__all__ = ["RewriteReport", "Rewriter"]


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
        max_passes: int = 10,
    ) -> None:
        self.rules = list(rules) if rules is not None else all_rules()
        self.context = context if context is not None else RewriteContext()
        self.max_passes = max_passes

    def rewrite(self, expression: Expression) -> RewriteReport:
        """Rewrite ``expression`` to fixpoint and report the applied rules."""
        report = RewriteReport(original=expression, result=expression)
        current = expression
        self.context._operands = {}  # each precondition operand runs once per rewrite
        try:
            for _ in range(self.max_passes):
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
            for rule in self.rules:
                try:
                    if not rule.matches(node, self.context):
                        continue
                    replacement = rule.apply(node, self.context)
                except RewriteError:
                    continue
                if replacement == node:
                    continue
                report.applied.append(
                    Rewrite(rule=rule.name, before=node, after=replacement, note=rule.paper_reference)
                )
                return replacement
            return node

        return expression.transform_bottom_up(visit)
