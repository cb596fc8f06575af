"""Delta-maintained quotient views (incremental view maintenance).

The paper's small/great-divide laws describe how division commutes with
selection, union and difference — exactly the algebra needed to maintain a
quotient under single-table deltas instead of recomputing it.  This package
implements that maintenance on the engine's own representation choices:

* :mod:`repro.views.shapes` — the one test of maintainability: whether a
  division query has a *maintainable shape* (each input a base table under
  selections/renames, the select list in any column order), and the
  delta-routing metadata.
* :mod:`repro.views.counters` — the per-quotient-key bitset counter table:
  a dividend insert/delete is an int-mask OR / AND-NOT plus a subset test
  on the dictionary-encoded divisor bits, a divisor grow/shrink is a
  popcount-threshold change re-checked against the existing counters.
* :mod:`repro.views.view` — :class:`MaintainedView`, the object registered
  by ``Database.create_view``: it routes mutation deltas to the counter
  table and answers reads from it (or runs the query through the session
  when the shape is unsupported).
* :mod:`repro.views.persist` — JSON payloads so counter-backed views
  survive ``Database.save`` / ``repro.connect(path)`` round trips.
"""

from repro.views.counters import CounterTable
from repro.views.shapes import DivisionShape, InputShape, UnsupportedViewShape, analyze_division
from repro.views.view import MaintainedView

__all__ = [
    "CounterTable",
    "DivisionShape",
    "InputShape",
    "MaintainedView",
    "UnsupportedViewShape",
    "analyze_division",
]
