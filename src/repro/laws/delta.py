"""Delta rules: incremental maintenance of division under table mutations.

The paper's rewrite laws state how division commutes with selection and
set operations; read as *delta equations* they say exactly how a quotient
moves under a single-table delta.  With set semantics (multiplicities in
{0, 1}) and the dictionary encoding of divisor values, each rule reduces
to integer bitmask arithmetic on the per-quotient-key counter table
(:class:`repro.views.counters.CounterTable`):

* dividend insert:   ``(r1 ∪ Δ) ÷ r2``  — mask OR, subset re-check of the
  touched group only;
* dividend delete:   ``(r1 − Δ) ÷ r2``  — mask AND-NOT, eviction check of
  the touched group only;
* divisor grow:      ``r1 ÷ (r2 ∪ Δ)``  — the popcount threshold rises:
  only current members lacking the new bit can drop out;
* divisor shrink:    ``r1 ÷ (r2 − Δ)``  — the threshold falls: only
  non-members can join; one pass over counters, never over the data.

The rules live in the same registry as the 21 rewrite laws, carry the
same ``name`` / ``paper_reference`` / ``conditions`` attributes and answer
the same ``matches`` / ``apply`` calls, but they are not
:class:`~repro.laws.base.RewriteRule` subclasses: they state no left and
right side.  ``apply`` is the identity — a delta rule does not rewrite the
tree, it licenses ``MaintainedView`` to update counters instead of
re-running the plan.  ``Database.create_view`` registers a view for
maintenance only when **all four** rules match; otherwise the view runs
in full-recompute fallback mode (RP602 verifies the coverage).
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.expressions import Expression
from repro.errors import RewriteError
from repro.laws.base import RewriteContext

__all__ = [
    "DeltaRule",
    "DividendInsertDelta",
    "DividendDeleteDelta",
    "DivisorInsertDelta",
    "DivisorDeleteDelta",
]


class DeltaRule:
    """Base class for the four maintenance rules.

    Class attributes ``target`` (``"dividend"`` | ``"divisor"``) and
    ``operation`` (``"insert"`` | ``"delete"``) name the delta the rule
    handles; ``MaintainedView`` requires full {target} × {operation}
    coverage before switching a view to counter maintenance.
    """

    target: str = ""
    operation: str = ""
    requires_data = False
    conditions: tuple[str, ...] = ()

    def matches(self, expression: Expression, context: Optional[RewriteContext] = None) -> bool:
        # Imported lazily: repro.views imports the laws package (registry),
        # so a module-level import here would be circular.
        from repro.views.shapes import UnsupportedViewShape, analyze_division

        try:
            analyze_division(expression)
        except UnsupportedViewShape:
            return False
        return True

    def apply(self, expression: Expression, context: Optional[RewriteContext] = None) -> Expression:
        if not self.matches(expression, context):
            raise RewriteError(
                f"{self.name} does not apply to {expression.to_text()}: "
                "inputs are not base tables under selections/renames"
            )
        # Identity on the tree: the rule's effect is the counter update.
        return expression


class DividendInsertDelta(DeltaRule):
    """``(r1 ∪ Δ) ÷ r2``: OR the new bits in, re-check the touched group."""

    name = "delta_dividend_insert"
    paper_reference = "Laws 5/7 read as delta equations"
    description = (
        "A dividend insert can only add quotient tuples; the touched group's "
        "bitmask grows monotonically, so one subset test per delta row suffices."
    )
    target = "dividend"
    operation = "insert"
    conditions = ("maintainable_inputs", "set_semantics")


class DividendDeleteDelta(DeltaRule):
    """``(r1 − Δ) ÷ r2``: AND the bits out, evict the group if it fails."""

    name = "delta_dividend_delete"
    paper_reference = "Laws 6/8 read as delta equations"
    description = (
        "A dividend delete can only remove quotient tuples; with set semantics "
        "the dropped bit was the group's only copy, so the mask update is exact."
    )
    target = "dividend"
    operation = "delete"
    conditions = ("maintainable_inputs", "set_semantics")


class DivisorInsertDelta(DeltaRule):
    """``r1 ÷ (r2 ∪ Δ)``: the popcount threshold rises for one group."""

    name = "delta_divisor_insert"
    paper_reference = "Law 4 read as a delta equation"
    description = (
        "Growing the divisor is anti-monotone: only current quotient members "
        "lacking the new bit can drop out — one pass over existing counters."
    )
    target = "divisor"
    operation = "insert"
    conditions = ("maintainable_inputs", "popcount_threshold")


class DivisorDeleteDelta(DeltaRule):
    """``r1 ÷ (r2 − Δ)``: the popcount threshold falls for one group."""

    name = "delta_divisor_delete"
    paper_reference = "Law 4 read as a delta equation"
    description = (
        "Shrinking the divisor is monotone: only non-members can join, so the "
        "re-check visits existing counters, never the dividend data."
    )
    target = "divisor"
    operation = "delete"
    conditions = ("maintainable_inputs", "popcount_threshold")
