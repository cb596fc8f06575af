"""Law 17 — great divide versus Cartesian product (Section 5.2.3).

``(r1* × r1**) ÷* r2 = r1* × (r1** ÷* r2)`` when the shared attributes
``B`` all come from ``r1**``.  Combined with Laws 15 and 16 it lets the
optimizer rewrite expressions mixing joins and the great divide
(Example 4).
"""

from __future__ import annotations

from repro.algebra.expressions import Expression, GreatDivide, Product
from repro.laws.base import RewriteContext, RewriteRule

__all__ = ["Law17ProductFactorOut"]


class Law17ProductFactorOut(RewriteRule):
    """Law 17: factor the non-shared part of a product dividend out of ÷*."""

    name = "law_17_product_factor_out"
    paper_reference = "Law 17"
    description = "(r1* × r1**) ÷* r2 = r1* × (r1** ÷* r2) when B ⊆ attrs(r1**)"
    requires_data = False
    conditions = (
        "attrs(r1*) ∩ attrs(r2) = ∅",
        "r1** shares an attribute with r2 and keeps a dividend-only one",
    )

    @staticmethod
    def lhs(factor: Expression, dividend_part: Expression, divisor: Expression):
        return GreatDivide(Product(factor, dividend_part), divisor)

    @staticmethod
    def rhs(factor: Expression, dividend_part: Expression, divisor: Expression):
        return Product(factor, GreatDivide(dividend_part, divisor))

    @staticmethod
    def holds(context: RewriteContext, factor, dividend_part, divisor) -> bool:
        divisor_schema = divisor.schema
        return (
            factor.schema.is_disjoint(divisor_schema)
            and len(dividend_part.schema.intersection(divisor_schema)) > 0
            and len(dividend_part.schema.difference(divisor_schema)) > 0
        )
