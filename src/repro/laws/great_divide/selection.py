"""Laws 14, 15 and 16 — great divide versus selection (Section 5.2.2).

* **Law 14**: push a predicate over the dividend-only attributes ``A`` into
  the dividend: ``σ_{p(A)}(r1 ÷* r2) = σ_{p(A)}(r1) ÷* r2``.
* **Law 15**: push a predicate over the divisor-only attributes ``C`` into
  the divisor: ``σ_{p(C)}(r1 ÷* r2) = r1 ÷* σ_{p(C)}(r2)``.
* **Law 16**: replicate a predicate over the shared attributes ``B``:
  ``r1 ÷* σ_{p(B)}(r2) = σ_{p(B)}(r1) ÷* σ_{p(B)}(r2)``.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression, GreatDivide, Select
from repro.algebra.predicates import Predicate
from repro.laws.base import RewriteContext, RewriteRule
from repro.laws.small_divide.selection import restricted_by

__all__ = ["Law14QuotientSelectionPushdown", "Law15GroupSelectionPushdown", "Law16SharedSelectionReplication"]


class Law14QuotientSelectionPushdown(RewriteRule):
    """Law 14: σ_p(A)(r1 ÷* r2) = σ_p(A)(r1) ÷* r2."""

    name = "law_14_quotient_selection_pushdown"
    paper_reference = "Law 14"
    description = "Push a selection over dividend-only attributes into the dividend."
    requires_data = False
    conditions = ("the predicate references dividend-only (A) attributes only",)

    @staticmethod
    def lhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return Select(GreatDivide(dividend, divisor), predicate)

    @staticmethod
    def rhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return GreatDivide(Select(dividend, predicate), divisor)

    @staticmethod
    def holds(context: RewriteContext, dividend, divisor, predicate) -> bool:
        return predicate.attributes <= dividend.schema.difference(divisor.schema).name_set


class Law15GroupSelectionPushdown(RewriteRule):
    """Law 15: σ_p(C)(r1 ÷* r2) = r1 ÷* σ_p(C)(r2)."""

    name = "law_15_group_selection_pushdown"
    paper_reference = "Law 15"
    description = "Push a selection over divisor-only attributes into the divisor."
    requires_data = False
    conditions = ("C ≠ ∅ and the predicate references divisor-only (C) attributes only",)

    @staticmethod
    def lhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return Select(GreatDivide(dividend, divisor), predicate)

    @staticmethod
    def rhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return GreatDivide(dividend, Select(divisor, predicate))

    @staticmethod
    def holds(context: RewriteContext, dividend, divisor, predicate) -> bool:
        c_attributes = divisor.schema.difference(dividend.schema)
        return len(c_attributes) > 0 and predicate.attributes <= c_attributes.name_set


class Law16SharedSelectionReplication(RewriteRule):
    """Law 16: r1 ÷* σ_p(B)(r2) = σ_p(B)(r1) ÷* σ_p(B)(r2).

    Unlike its small-divide counterpart (Law 4), no nonemptiness
    precondition is needed: the great divide iterates over divisor groups,
    each of which is nonempty by construction, so an empty selected divisor
    simply yields an empty quotient on both sides.
    """

    name = "law_16_shared_selection_replication"
    paper_reference = "Law 16"
    description = "Replicate a selection over the shared attributes B onto the dividend."
    requires_data = False
    conditions = (
        "the predicate references shared (B) attributes only",
        "r1 is not already restricted by p",
    )

    @staticmethod
    def lhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return GreatDivide(dividend, Select(divisor, predicate))

    @staticmethod
    def rhs(dividend: Expression, divisor: Expression, predicate: Predicate):
        return GreatDivide(Select(dividend, predicate), Select(divisor, predicate))

    @staticmethod
    def holds(context: RewriteContext, dividend, divisor, predicate) -> bool:
        shared = dividend.schema.intersection(divisor.schema)
        return predicate.attributes <= shared.name_set and not restricted_by(dividend, predicate)
