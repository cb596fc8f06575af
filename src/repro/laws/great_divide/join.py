"""Example 4 — pushing an equi-join below the great divide (Section 5.2.4).

``r1* ⋈_{a1=a2} (r1** ÷* r2) = (r1* ⋈_{a1=a2} r1**) ÷* r2`` whenever the
join predicate references only attributes of ``r1*`` and dividend-only
attributes ``A`` of the great divide, and ``r1*`` shares no attribute with
the dividend (the pushed-down join needs disjoint schemas: an ``r1*`` that
holds a ``B`` attribute joins the quotient, never the dividend).  The paper derives it by composing
the definition of the theta-join with Laws 17 and 14; pushing the join
below the divide pays off when the join is selective, because far fewer
dividend groups have to be tested against the divisor.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression, GreatDivide, ThetaJoin
from repro.algebra.predicates import Predicate
from repro.laws.base import RewriteContext, RewriteRule

__all__ = ["Example4JoinPushdown"]


class Example4JoinPushdown(RewriteRule):
    """Example 4: r1* ⋈_θ (r1** ÷* r2) = (r1* ⋈_θ r1**) ÷* r2."""

    name = "example_4_join_pushdown"
    paper_reference = "Example 4"
    description = "Push a theta-join on dividend-only attributes below the great divide."
    requires_data = False
    conditions = (
        "the join predicate references r1* and dividend-only (A) attributes only",
        "r1* shares no attribute with the dividend",
    )

    @staticmethod
    def lhs(outer: Expression, dividend: Expression, divisor: Expression, predicate: Predicate):
        return ThetaJoin(outer, GreatDivide(dividend, divisor), predicate)

    @staticmethod
    def rhs(outer: Expression, dividend: Expression, divisor: Expression, predicate: Predicate):
        return GreatDivide(ThetaJoin(outer, dividend, predicate), divisor)

    @staticmethod
    def holds(context: RewriteContext, outer, dividend, divisor, predicate) -> bool:
        dividend_only = dividend.schema.difference(divisor.schema)
        allowed = outer.schema.name_set | dividend_only.name_set
        return predicate.attributes <= allowed and outer.schema.is_disjoint(dividend.schema)
