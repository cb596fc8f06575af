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

from typing import Optional

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
        "the join predicate references dividend-only (A) attributes",
        "r1* shares no attribute with the dividend",
    )

    def matches(self, expression: Expression, context: Optional[RewriteContext] = None) -> bool:
        if not (isinstance(expression, ThetaJoin) and isinstance(expression.right, GreatDivide)):
            return False
        divide: GreatDivide = expression.right  # type: ignore[assignment]
        dividend_only = divide.left.schema.difference(divide.right.schema)
        allowed = expression.left.schema.name_set | dividend_only.name_set
        return expression.predicate.attributes <= allowed and expression.left.schema.is_disjoint(
            divide.left.schema
        )

    def apply(self, expression: Expression, context: Optional[RewriteContext] = None) -> Expression:
        if not self.matches(expression, context):
            raise self._reject(
                expression,
                "join predicate must reference only r1* and dividend-only attributes, "
                "and r1* must share no attribute with the dividend",
            )
        divide: GreatDivide = expression.right  # type: ignore[assignment]
        return GreatDivide(
            ThetaJoin(expression.left, divide.left, expression.predicate), divide.right
        )

    @staticmethod
    def sides(outer: Expression, dividend: Expression, divisor: Expression, predicate: Predicate):
        """r1* ⋈_θ (r1** ÷* r2)  vs  (r1* ⋈_θ r1**) ÷* r2."""
        lhs = ThetaJoin(outer, GreatDivide(dividend, divisor), predicate)
        rhs = GreatDivide(ThetaJoin(outer, dividend, predicate), divisor)
        return lhs, rhs
