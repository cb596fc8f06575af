"""Law 10 and Example 3 — small divide versus joins (Section 5.1.6).

* **Law 10**: a semi-join on quotient attributes commutes with the divide:
  ``(r1 ÷ r2) ⋉ r3 = (r1 ⋉ r3) ÷ r2`` — useful when ``r3`` is small and
  highly selective, so the dividend shrinks before the (expensive) divide.
* **Example 3**: a theta-join between the dividend and a relation that only
  carries divisor attributes can be *compiled away* entirely when the
  divisor references that relation through a foreign key (Figure 9):

  ``(r1* ⋈_θ r1**) ÷ r2 =
    (r1* ÷ π_{B1}(σ_θ(r2))) − π_A(π_A(r1*) × σ_{¬θ}(r2))``
"""

from __future__ import annotations

from repro.algebra.expressions import (
    Difference,
    Expression,
    Product,
    Project,
    Select,
    SemiJoin,
    SmallDivide,
    ThetaJoin,
)
from repro.algebra.predicates import Predicate
from repro.laws.base import RewriteContext, RewriteRule
from repro.laws.conditions import inclusion_holds
from repro.laws.small_divide.product import drops_divisor_factor

__all__ = ["Law10SemiJoinCommute", "Example3JoinElimination"]


class Law10SemiJoinCommute(RewriteRule):
    """Law 10: push a quotient-attribute semi-join below the small divide."""

    name = "law_10_semijoin_commute"
    paper_reference = "Law 10"
    description = "(r1 ÷ r2) ⋉ r3 = (r1 ⋉ r3) ÷ r2"
    requires_data = False
    conditions = ("∅ ≠ attrs(r3) ⊆ quotient (A) attributes",)

    @staticmethod
    def lhs(dividend: Expression, divisor: Expression, filter_relation: Expression):
        return SemiJoin(SmallDivide(dividend, divisor), filter_relation)

    @staticmethod
    def rhs(dividend: Expression, divisor: Expression, filter_relation: Expression):
        return SmallDivide(SemiJoin(dividend, filter_relation), divisor)

    @staticmethod
    def holds(context: RewriteContext, dividend, divisor, filter_relation) -> bool:
        filter_schema = filter_relation.schema
        quotient = dividend.schema.difference(divisor.schema)
        return len(filter_schema) > 0 and filter_schema.is_subset(quotient)


class Example3JoinElimination(RewriteRule):
    """Example 3: eliminate the dividend-side join below a small divide.

    Pattern: ``(r1* ⋈_θ r1**) ÷ r2`` where

    * ``r1**``'s attributes are all divisor attributes (the set ``B2``),
    * the remaining divisor attributes ``B1`` belong to ``r1*``,
    * the join predicate θ references divisor attributes only, and
    * ``π_{B2}(r2) ⊆ r1**`` (foreign key / inclusion dependency).

    The rewrite avoids the join between ``r1*`` and ``r1**`` altogether —
    the paper motivates it with the case where only ``r2`` is indexed.  An
    entirely empty divisor would turn the left side into ``π_A(r1* ⋈_θ
    r1**)`` but the right side into ``π_A(r1*)``: the derivation's Law 4
    step needs a nonempty divisor.
    """

    name = "example_3_join_elimination"
    paper_reference = "Example 3"
    description = "(r1* ⋈_θ r1**) ÷ r2 = (r1* ÷ π_B1(σ_θ(r2))) − π_A(π_A(r1*) × σ_¬θ(r2))"
    requires_data = True
    conditions = (
        "attrs(r1**) = B2 ⊆ B, ∅ ≠ B1 = B − B2 ⊆ attrs(r1*), r1* keeps a quotient attribute",
        "θ references divisor (B) attributes only",
        "r2 ≠ ∅ and π_B2(r2) ⊆ r1** (verified on data)",
    )

    @staticmethod
    def lhs(keep: Expression, drop: Expression, divisor: Expression, predicate: Predicate):
        return SmallDivide(ThetaJoin(keep, drop, predicate), divisor)

    @staticmethod
    def rhs(keep: Expression, drop: Expression, divisor: Expression, predicate: Predicate):
        b1 = divisor.schema.difference(drop.schema)
        quotient = keep.schema.difference(divisor.schema)
        return Difference(
            SmallDivide(keep, Project(Select(divisor, predicate), b1)),
            Project(
                Product(Project(keep, quotient), Select(divisor, predicate.negate())),
                quotient,
            ),
        )

    @staticmethod
    def holds(context: RewriteContext, keep, drop, divisor, predicate) -> bool:
        if not (
            drops_divisor_factor(keep, drop, divisor)
            and predicate.attributes <= divisor.schema.name_set
        ):
            return False
        divisor_value = context.evaluate(divisor)
        return not divisor_value.is_empty() and inclusion_holds(
            divisor_value, context.evaluate(drop), drop.schema
        )
