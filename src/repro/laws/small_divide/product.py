"""Laws 8, 9 and Example 2 — small divide versus Cartesian product
(Section 5.1.5).

* **Law 8**: when the divisor attributes all come from one product factor,
  only that factor needs to be divided:
  ``(r1* × r1**) ÷ r2 = r1* × (r1** ÷ r2)`` (Figure 7).
* **Law 9**: when one product factor consists solely of divisor attributes
  ``B2`` and the divisor's ``B2``-projection is contained in it, the factor
  and those divisor attributes can be dropped:
  ``(r1* × r1**) ÷ r2 = r1* ÷ π_{B1}(r2)`` (Figure 8).
* **Example 2**: the cancellation ``(r1 × s) ÷ (r2 × s) = r1 ÷ r2`` derived
  from Law 9.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression, Product, Project, SmallDivide
from repro.laws.base import RewriteContext, RewriteRule
from repro.laws.conditions import inclusion_holds

__all__ = ["Law8ProductFactorOut", "Law9ProductElimination", "Example2CommonFactorCancellation"]


class Law8ProductFactorOut(RewriteRule):
    """Law 8: factor the non-divisor part of a product dividend out of the divide."""

    name = "law_08_product_factor_out"
    paper_reference = "Law 8"
    description = "(r1* × r1**) ÷ r2 = r1* × (r1** ÷ r2) when B ⊆ attrs(r1**)"
    requires_data = False
    conditions = ("B ⊆ attrs(r1**) and attrs(r1*) ∩ B = ∅", "r1** keeps a quotient attribute")

    @staticmethod
    def lhs(factor: Expression, dividend_part: Expression, divisor: Expression):
        return SmallDivide(Product(factor, dividend_part), divisor)

    @staticmethod
    def rhs(factor: Expression, dividend_part: Expression, divisor: Expression):
        return Product(factor, SmallDivide(dividend_part, divisor))

    @staticmethod
    def holds(context: RewriteContext, factor, dividend_part, divisor) -> bool:
        # The kept factor must retain a non-divisor attribute so that the
        # inner divide has a nonempty quotient schema.
        return (
            divisor.schema.is_subset(dividend_part.schema)
            and factor.schema.is_disjoint(divisor.schema)
            and len(dividend_part.schema.difference(divisor.schema)) > 0
        )


def drops_divisor_factor(keep: Expression, drop: Expression, divisor: Expression) -> bool:
    """The schema half of Law 9 / Example 3's condition: ``r1**`` holds
    divisor attributes ``B2`` only, the rest ``B1 ≠ ∅`` lie in ``r1*``, and
    ``r1*`` keeps a quotient attribute."""
    b1 = divisor.schema.difference(drop.schema)
    return (
        drop.schema.is_subset(divisor.schema)
        and len(b1) > 0
        and b1.is_subset(keep.schema)
        and len(keep.schema.difference(divisor.schema)) > 0
    )


class Law9ProductElimination(RewriteRule):
    """Law 9: drop a product factor that only covers divisor attributes.

    Precondition ``π_{B2}(r2) ⊆ r1**`` is established by a data check.  To
    avoid the degenerate corner where both the divisor and the dropped
    factor are empty (the two sides then disagree), the check also requires
    that not both are empty.
    """

    name = "law_09_product_elimination"
    paper_reference = "Law 9"
    description = "(r1* × r1**) ÷ r2 = r1* ÷ π_B1(r2) when π_B2(r2) ⊆ r1**"
    requires_data = True
    conditions = (
        "attrs(r1**) = B2 ⊆ B, ∅ ≠ B1 = B − B2 ⊆ attrs(r1*), r1* keeps a quotient attribute",
        "π_B2(r2) ⊆ r1**, not both empty (verified on data)",
    )

    @staticmethod
    def lhs(keep: Expression, drop: Expression, divisor: Expression):
        return SmallDivide(Product(keep, drop), divisor)

    @staticmethod
    def rhs(keep: Expression, drop: Expression, divisor: Expression):
        return SmallDivide(keep, Project(divisor, divisor.schema.difference(drop.schema)))

    @staticmethod
    def holds(context: RewriteContext, keep, drop, divisor) -> bool:
        if not drops_divisor_factor(keep, drop, divisor):
            return False
        divisor_value, dropped_value = context.evaluate(divisor), context.evaluate(drop)
        if divisor_value.is_empty() and dropped_value.is_empty():
            return False
        return inclusion_holds(divisor_value, dropped_value, drop.schema)


class Example2CommonFactorCancellation(RewriteRule):
    """Example 2: cancel a factor common to dividend and divisor.

    ``(r1 × s) ÷ (r2 × s) = r1 ÷ r2``.  Derived from Law 9 in the paper; the
    shared factor ``s`` must be nonempty (otherwise both products are empty
    while ``r1 ÷ r2`` need not be), which the rule checks against the
    context database.
    """

    name = "example_2_common_factor_cancellation"
    paper_reference = "Example 2"
    description = "(r1 × s) ÷ (r2 × s) = r1 ÷ r2"
    requires_data = True
    conditions = ("attrs(r2) ⊂ attrs(r1)", "s ≠ ∅ (verified on data)")

    @staticmethod
    def lhs(core_dividend: Expression, core_divisor: Expression, shared: Expression):
        return SmallDivide(Product(core_dividend, shared), Product(core_divisor, shared))

    @staticmethod
    def rhs(core_dividend: Expression, core_divisor: Expression, shared: Expression):
        return SmallDivide(core_dividend, core_divisor)

    @staticmethod
    def holds(context: RewriteContext, core_dividend, core_divisor, shared) -> bool:
        return (
            core_divisor.schema.is_subset(core_dividend.schema)
            and len(core_dividend.schema.difference(core_divisor.schema)) > 0
            and not context.evaluate(shared).is_empty()
        )
