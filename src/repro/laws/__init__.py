"""Algebraic laws of the paper, packaged as rewrite rules.

* :mod:`repro.laws.small_divide` — Laws 1–12 and Examples 1–3
* :mod:`repro.laws.great_divide` — Laws 13–17 and Example 4
* :mod:`repro.laws.registry` — rule registry used by the optimizer
* :mod:`repro.laws.conditions` — the preconditions (c1, c2, disjointness,
  inclusion/foreign-key and key checks) as standalone functions

The union/difference laws read as *delta equations* are not rules here:
they rewrite no tree.  :mod:`repro.views` applies them as counter updates
on every view :func:`repro.views.shapes.analyze_division` accepts.
"""

from repro.laws import conditions, great_divide, registry, small_divide
from repro.laws.base import Rewrite, RewriteContext, RewriteRule
from repro.laws.registry import (
    all_rules,
    find_applicable,
    get_rule,
    great_divide_rules,
    pushdown_rules,
    rules_by_reference,
    small_divide_rules,
)

__all__ = [
    "conditions",
    "small_divide",
    "great_divide",
    "registry",
    "Rewrite",
    "RewriteContext",
    "RewriteRule",
    "all_rules",
    "small_divide_rules",
    "great_divide_rules",
    "pushdown_rules",
    "get_rule",
    "rules_by_reference",
    "find_applicable",
]
