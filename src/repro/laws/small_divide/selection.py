"""Laws 3, 4 and Example 1 — small divide versus selection (Section 5.1.2).

* **Law 3** ("selection push-down"): ``σ_{p(A)}(r1 ÷ r2) = σ_{p(A)}(r1) ÷ r2``.
* **Law 4** ("replicate selection"): ``r1 ÷ σ_{p(B)}(r2) =
  σ_{p(B)}(r1) ÷ σ_{p(B)}(r2)``.
* **Example 1**: a restriction on the *dividend's* ``B`` attributes —
  ``σ_{p(B)}(r1) ÷ r2 = (σ_{p(B)}(r1) ÷ σ_{p(B)}(r2)) −
  π_A(π_A(r1) × σ_{¬p(B)}(r2))`` (Figure 6 of the paper).

Law 4 and Example 1 refuse their own output (a dividend, or a divisor,
already restricted by the same predicate), so the fixpoint ends.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    Difference,
    Expression,
    Product,
    Project,
    Select,
    SmallDivide,
)
from repro.algebra.predicates import Predicate
from repro.laws.base import RewriteContext, RewriteRule

__all__ = [
    "Law3SelectionPushdown",
    "Law4ReplicateSelection",
    "Example1DividendRestriction",
]


def restricted_by(expression: Expression, predicate: Predicate) -> bool:
    """True if ``expression`` is ``σ_predicate(…)``."""
    return isinstance(expression, Select) and expression.predicate == predicate


class Law3SelectionPushdown(RewriteRule):
    """Law 3: push a quotient-attribute selection below the small divide."""

    name = "law_03_selection_pushdown"
    paper_reference = "Law 3"
    description = "σ_p(A)(r1 ÷ r2) = σ_p(A)(r1) ÷ r2"
    requires_data = False
    conditions = ("the predicate references quotient (A) attributes only",)

    @staticmethod
    def lhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return Select(SmallDivide(dividend, divisor), predicate)

    @staticmethod
    def rhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return SmallDivide(Select(dividend, predicate), divisor)

    @staticmethod
    def holds(context: RewriteContext, dividend, divisor, predicate) -> bool:
        return predicate.attributes <= dividend.schema.difference(divisor.schema).name_set


class Law4ReplicateSelection(RewriteRule):
    """Law 4: replicate a divisor selection onto the dividend.

    The paper's proof partitions the dividend into ``σ_p(r1) ∪ σ_¬p(r1)``
    and argues ``σ_¬p(r1) ÷ σ_p(r2) = ∅`` — which requires the *selected
    divisor to be nonempty* (an empty divisor makes every dividend group a
    quotient candidate).  The rule therefore verifies ``σ_p(r2) ≠ ∅``
    against the context database.
    """

    name = "law_04_replicate_selection"
    paper_reference = "Law 4"
    description = "r1 ÷ σ_p(B)(r2) = σ_p(B)(r1) ÷ σ_p(B)(r2)"
    requires_data = True
    conditions = (
        "the predicate references divisor (B) attributes only",
        "r1 is not already restricted by p",
        "σ_p(r2) ≠ ∅ (verified on data)",
    )

    @staticmethod
    def lhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return SmallDivide(dividend, Select(divisor, predicate))

    @staticmethod
    def rhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return SmallDivide(Select(dividend, predicate), Select(divisor, predicate))

    @staticmethod
    def holds(context: RewriteContext, dividend, divisor, predicate) -> bool:
        return (
            predicate.attributes <= divisor.schema.name_set
            and not restricted_by(dividend, predicate)
            and not context.evaluate(Select(divisor, predicate)).is_empty()
        )


class Example1DividendRestriction(RewriteRule):
    """Example 1: a selection on the dividend's ``B`` attributes.

    ``σ_{p(B)}(r1) ÷ r2`` is empty as soon as ``σ_{¬p(B)}(r2)`` is nonempty
    (some required divisor value can never appear in the restricted
    dividend).  The rewrite makes this explicit:

    ``(σ_{p(B)}(r1) ÷ σ_{p(B)}(r2)) − π_A(π_A(r1) × σ_{¬p(B)}(r2))``

    where the second operand "switches off" the whole quotient whenever the
    rejected divisor part is nonempty.
    """

    name = "example_1_dividend_restriction"
    paper_reference = "Example 1"
    description = "σ_p(B)(r1) ÷ r2 rewritten to expose the empty-result short-circuit"
    requires_data = False
    conditions = (
        "the predicate references divisor (B) attributes only",
        "r2 is not already restricted by p",
    )

    @staticmethod
    def lhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return SmallDivide(Select(dividend, predicate), divisor)

    @staticmethod
    def rhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        quotient = dividend.schema.difference(divisor.schema)
        return Difference(
            SmallDivide(Select(dividend, predicate), Select(divisor, predicate)),
            Project(
                Product(Project(dividend, quotient), Select(divisor, predicate.negate())), quotient
            ),
        )

    @staticmethod
    def holds(context: RewriteContext, dividend, divisor, predicate) -> bool:
        return predicate.attributes <= divisor.schema.name_set and not restricted_by(
            divisor, predicate
        )
