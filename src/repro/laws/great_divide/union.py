"""Law 13 — great divide versus union (Section 5.2.1).

``r1 ÷* (r2' ∪ r2'') = (r1 ÷* r2') ∪ (r1 ÷* r2'')`` whenever the divisor
partitions do not share any group identifier:
``π_C(r2') ∩ π_C(r2'') = ∅``.  This is the law that lets an engine spread
the divisor groups over ``n`` nodes and merge the partial quotients.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression, GreatDivide, Union
from repro.laws.base import RewriteContext, RewriteRule
from repro.laws.conditions import projections_disjoint

__all__ = ["Law13DivisorPartitioning"]


class Law13DivisorPartitioning(RewriteRule):
    """Law 13: distribute a great divide over divisor partitions disjoint on C."""

    name = "law_13_divisor_partitioning"
    paper_reference = "Law 13"
    description = "r1 ÷* (r2' ∪ r2'') = (r1 ÷* r2') ∪ (r1 ÷* r2'') when π_C are disjoint"
    requires_data = True
    conditions = ("C ≠ ∅", "π_C(r2') ∩ π_C(r2'') = ∅ (verified on data)")

    @staticmethod
    def lhs(dividend: Expression, divisor_a: Expression, divisor_b: Expression):
        return GreatDivide(dividend, Union(divisor_a, divisor_b))

    @staticmethod
    def rhs(dividend: Expression, divisor_a: Expression, divisor_b: Expression):
        return Union(GreatDivide(dividend, divisor_a), GreatDivide(dividend, divisor_b))

    @staticmethod
    def holds(context: RewriteContext, dividend, divisor_a, divisor_b) -> bool:
        group_attributes = divisor_a.schema.difference(dividend.schema)
        # No C attributes: the operator degenerates to a small divide and
        # the condition cannot be met by nonempty partitions.
        return len(group_attributes) > 0 and projections_disjoint(
            context.evaluate(divisor_a), context.evaluate(divisor_b), group_attributes
        )
