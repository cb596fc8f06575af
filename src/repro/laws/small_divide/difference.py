"""Laws 6 and 7 — small divide versus difference (Section 5.1.4).

* **Law 6**: when the two dividends are restrictions of the *same* relation
  by predicates over the quotient attributes ``A`` only (so every quotient
  group is kept or dropped atomically) and ``r1' ⊇ r1''``, the divide
  distributes over the difference:
  ``(r1' − r1'') ÷ r2 = (r1' ÷ r2) − (r1'' ÷ r2)``.
* **Law 7**: when the quotient candidates of the two dividends are disjoint
  (``π_A(r1') ∩ π_A(r1'') = ∅``), the second divide is redundant:
  ``(r1' ÷ r2) − (r1'' ÷ r2) = r1' ÷ r2`` — the short-circuit the paper
  highlights as a large potential saving.
"""

from __future__ import annotations

from repro.algebra.expressions import Difference, Expression, Select, SmallDivide
from repro.algebra.predicates import And, Predicate
from repro.laws.base import RewriteContext, RewriteRule
from repro.laws.conditions import is_superset_of, projections_disjoint

__all__ = ["Law6DifferencePushdown", "Law7DisjointDifferenceElimination", "predicate_implies"]


def predicate_implies(stronger: Predicate, weaker: Predicate) -> bool:
    """Cheap syntactic implication test: ``stronger ⇒ weaker``.

    True when the predicates are equal or ``stronger`` is a conjunction
    containing ``weaker`` (or all of ``weaker``'s conjuncts).  This is the
    static fallback for Law 6's containment precondition; the data-level
    check in :func:`repro.laws.conditions.is_superset_of` is exact.
    """
    if stronger == weaker:
        return True
    stronger_parts = set(stronger.operands) if isinstance(stronger, And) else {stronger}
    weaker_parts = set(weaker.operands) if isinstance(weaker, And) else {weaker}
    return weaker_parts <= stronger_parts


class Law6DifferencePushdown(RewriteRule):
    """Law 6: distribute a small divide over a difference of A-restrictions."""

    name = "law_06_difference_pushdown"
    paper_reference = "Law 6"
    description = "(σ_p'(A)(r1) − σ_p''(A)(r1)) ÷ r2 = (σ_p'(A)(r1) ÷ r2) − (σ_p''(A)(r1) ÷ r2)"
    requires_data = True
    conditions = (
        "both predicates reference quotient (A) attributes only",
        "σ_p'(r1) ⊇ σ_p''(r1): p'' ⇒ p' syntactically, or verified on data",
    )

    @staticmethod
    def lhs(relation: Expression, predicate_outer, predicate_inner, divisor: Expression):
        return SmallDivide(
            Difference(Select(relation, predicate_outer), Select(relation, predicate_inner)),
            divisor,
        )

    @staticmethod
    def rhs(relation: Expression, predicate_outer, predicate_inner, divisor: Expression):
        return Difference(
            SmallDivide(Select(relation, predicate_outer), divisor),
            SmallDivide(Select(relation, predicate_inner), divisor),
        )

    @staticmethod
    def holds(context: RewriteContext, relation, predicate_outer, predicate_inner, divisor) -> bool:
        quotient = relation.schema.difference(divisor.schema).name_set
        if not (predicate_outer.attributes <= quotient and predicate_inner.attributes <= quotient):
            return False
        return predicate_implies(predicate_inner, predicate_outer) or is_superset_of(
            context.evaluate(Select(relation, predicate_outer)),
            context.evaluate(Select(relation, predicate_inner)),
        )


class Law7DisjointDifferenceElimination(RewriteRule):
    """Law 7: drop the subtrahend divide when quotient candidates are disjoint."""

    name = "law_07_disjoint_difference_elimination"
    paper_reference = "Law 7"
    description = "(r1' ÷ r2) − (r1'' ÷ r2) = r1' ÷ r2 when π_A(r1') ∩ π_A(r1'') = ∅"
    requires_data = True
    conditions = ("π_A(r1') ∩ π_A(r1'') = ∅ (verified on data)",)

    @staticmethod
    def lhs(part1: Expression, part2: Expression, divisor: Expression):
        return Difference(SmallDivide(part1, divisor), SmallDivide(part2, divisor))

    @staticmethod
    def rhs(part1: Expression, part2: Expression, divisor: Expression):
        return SmallDivide(part1, divisor)

    @staticmethod
    def holds(context: RewriteContext, part1, part2, divisor) -> bool:
        quotient = part1.schema.difference(divisor.schema)
        return quotient == part2.schema.difference(divisor.schema) and projections_disjoint(
            context.evaluate(part1), context.evaluate(part2), quotient
        )
