"""Law 5 — small divide versus intersection (Section 5.1.3).

``(r1' ∩ r1'') ÷ r2 = (r1' ÷ r2) ∩ (r1'' ÷ r2)``: the small divide can be
pushed into an intersection of dividend relations.

Like the paper's proof (which merges the two witnesses ``t1 ∈ r1'`` and
``t1 ∈ r1''`` into one), the equivalence relies on the divisor being
*nonempty*: any shared divisor element witnesses a shared dividend tuple.
For an empty divisor ``π_A(r1' ∩ r1'')`` can be a strict subset of
``π_A(r1') ∩ π_A(r1'')``.  The rule therefore checks divisor nonemptiness
against the context database.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression, Intersection, SmallDivide
from repro.laws.base import RewriteContext, RewriteRule

__all__ = ["Law5IntersectionPushdown"]


class Law5IntersectionPushdown(RewriteRule):
    """Law 5: distribute a small divide over an intersection of dividends."""

    name = "law_05_intersection_pushdown"
    paper_reference = "Law 5"
    description = "(r1' ∩ r1'') ÷ r2 = (r1' ÷ r2) ∩ (r1'' ÷ r2)"
    requires_data = True
    conditions = ("r2 ≠ ∅ (verified on data)",)

    @staticmethod
    def lhs(part1: Expression, part2: Expression, divisor: Expression):
        return SmallDivide(Intersection(part1, part2), divisor)

    @staticmethod
    def rhs(part1: Expression, part2: Expression, divisor: Expression):
        return Intersection(SmallDivide(part1, divisor), SmallDivide(part2, divisor))

    @staticmethod
    def holds(context: RewriteContext, part1, part2, divisor) -> bool:
        return not context.evaluate(divisor).is_empty()
