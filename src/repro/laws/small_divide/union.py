"""Laws 1 and 2 — small divide versus union (Section 5.1.1).

* **Law 1** splits a union *divisor*: ``r1 ÷ (r2' ∪ r2'') =
  (r1 ⋉ (r1 ÷ r2')) ÷ r2''``.  It holds even for overlapping divisor
  partitions and enables pipeline parallelism for group-preserving
  division algorithms (Figure 4 of the paper).
* **Law 2** splits a union *dividend*: ``(r1' ∪ r1'') ÷ r2 =
  (r1' ÷ r2) ∪ (r1'' ÷ r2)``, but only under condition ``c1`` (Figure 5
  shows a violation).  The cheaper sufficient condition ``c2`` —
  disjoint quotient candidates — is what a partitioned table guarantees
  and what enables degree-n parallel scans.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression, SemiJoin, SmallDivide, Union
from repro.laws.base import RewriteContext, RewriteRule
from repro.laws.conditions import condition_c1, condition_c2

__all__ = ["Law1DivisorUnionSplit", "Law2DividendUnionSplit"]


class Law1DivisorUnionSplit(RewriteRule):
    """Law 1: ``r1 ÷ (r2' ∪ r2'') = (r1 ⋉ (r1 ÷ r2')) ÷ r2''``."""

    name = "law_01_divisor_union_split"
    paper_reference = "Law 1"
    description = "Divide by a union of divisors in two pipelined stages."
    requires_data = False
    conditions = ()  # unconditional: any divisor union splits into pipelined stages

    @staticmethod
    def lhs(dividend: Expression, divisor_a: Expression, divisor_b: Expression):
        return SmallDivide(dividend, Union(divisor_a, divisor_b))

    @staticmethod
    def rhs(dividend: Expression, divisor_a: Expression, divisor_b: Expression):
        return SmallDivide(SemiJoin(dividend, SmallDivide(dividend, divisor_a)), divisor_b)


class Law2DividendUnionSplit(RewriteRule):
    """Law 2: ``(r1' ∪ r1'') ÷ r2 = (r1' ÷ r2) ∪ (r1'' ÷ r2)`` under ``c1``.

    ``holds`` tries the stricter, cheaper condition ``c2`` first — disjoint
    quotient candidates, which a range- or hash-partitioned table satisfies
    by construction — and runs ``c1`` only when ``c2`` fails.  Since ``c2``
    implies ``c1`` the verdict is ``c1``'s.
    """

    name = "law_02_dividend_union_split"
    paper_reference = "Law 2"
    description = "Distribute a small divide over a partitioned dividend."
    requires_data = True
    conditions = ("c2: π_A(r1') ∩ π_A(r1'') = ∅, or else c1(r1', r1'') (verified on data)",)

    @staticmethod
    def lhs(part1: Expression, part2: Expression, divisor: Expression):
        return SmallDivide(Union(part1, part2), divisor)

    @staticmethod
    def rhs(part1: Expression, part2: Expression, divisor: Expression):
        return Union(SmallDivide(part1, divisor), SmallDivide(part2, divisor))

    @staticmethod
    def holds(context: RewriteContext, part1, part2, divisor) -> bool:
        first, second = context.evaluate(part1), context.evaluate(part2)
        quotient = part1.schema.difference(divisor.schema)
        return condition_c2(first, second, quotient) or condition_c1(
            first, second, context.evaluate(divisor)
        )
