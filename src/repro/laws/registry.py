"""Registry of every rewrite rule in the library.

The optimizer's default rule set and the benchmark harness both draw from
this registry; tests use it to assert that every law of the paper has an
implementation.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import RewriteError
from repro.laws.base import RewriteRule
from repro.laws.great_divide import (
    Example4JoinPushdown,
    Law13DivisorPartitioning,
    Law14QuotientSelectionPushdown,
    Law15GroupSelectionPushdown,
    Law16SharedSelectionReplication,
    Law17ProductFactorOut,
)
from repro.laws.small_divide import (
    Example1DividendRestriction,
    Example2CommonFactorCancellation,
    Example3JoinElimination,
    Law1DivisorUnionSplit,
    Law2DividendUnionSplit,
    Law3SelectionPushdown,
    Law4ReplicateSelection,
    Law5IntersectionPushdown,
    Law6DifferencePushdown,
    Law7DisjointDifferenceElimination,
    Law8ProductFactorOut,
    Law9ProductElimination,
    Law10SemiJoinCommute,
    Law11GroupedDividend,
    Law12GroupedDivisorKey,
)

__all__ = [
    "all_rules",
    "small_divide_rules",
    "great_divide_rules",
    "pushdown_rules",
    "get_rule",
    "rules_by_reference",
]

_SMALL_DIVIDE_RULE_CLASSES = (
    Law1DivisorUnionSplit,
    Law2DividendUnionSplit,
    Law3SelectionPushdown,
    Law4ReplicateSelection,
    Example1DividendRestriction,
    Law5IntersectionPushdown,
    Law6DifferencePushdown,
    Law7DisjointDifferenceElimination,
    Law8ProductFactorOut,
    Law9ProductElimination,
    Example2CommonFactorCancellation,
    Law10SemiJoinCommute,
    Example3JoinElimination,
    Law11GroupedDividend,
    Law12GroupedDivisorKey,
)

_GREAT_DIVIDE_RULE_CLASSES = (
    Law13DivisorPartitioning,
    Law14QuotientSelectionPushdown,
    Law15GroupSelectionPushdown,
    Law16SharedSelectionReplication,
    Law17ProductFactorOut,
    Example4JoinPushdown,
)


def small_divide_rules() -> list[RewriteRule]:
    """Fresh instances of every small-divide rule, in paper order."""
    return [rule_class() for rule_class in _SMALL_DIVIDE_RULE_CLASSES]


def great_divide_rules() -> list[RewriteRule]:
    """Fresh instances of every great-divide rule, in paper order."""
    return [rule_class() for rule_class in _GREAT_DIVIDE_RULE_CLASSES]


def all_rules() -> list[RewriteRule]:
    """Fresh instances of every rule implemented by the library."""
    return small_divide_rules() + great_divide_rules()


def pushdown_rules() -> list[RewriteRule]:
    """The subset of rules that are pure static push-downs.

    These are always safe to apply without data access; the rewriter's
    default rule set is :func:`all_rules`.
    """
    return [rule for rule in all_rules() if not rule.requires_data]


def get_rule(name: str) -> RewriteRule:
    """Look up a rule instance by its machine-readable name."""
    for rule in all_rules():
        if rule.name == name:
            return rule
    raise RewriteError(f"no rewrite rule named {name!r}")


def rules_by_reference() -> dict[str, RewriteRule]:
    """Map the paper's law/example labels (e.g. ``"Law 3"``) to rules."""
    return {rule.paper_reference: rule for rule in all_rules()}


def find_applicable(expression, rules: Optional[Iterable[RewriteRule]] = None, context=None):
    """Return the rules from ``rules`` (default: all) matching ``expression``."""
    candidates = list(rules) if rules is not None else all_rules()
    return [rule for rule in candidates if rule.matches(expression, context)]
