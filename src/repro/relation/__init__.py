"""Set-semantics relational substrate.

Public surface:

* :class:`~repro.relation.schema.Schema` — ordered attribute sets
* :class:`~repro.relation.row.Row` — immutable rows
* :class:`~repro.relation.relation.Relation` — relations with the basic
  operators of the relational algebra (Appendix A of the paper)
* :mod:`~repro.relation.aggregates` — aggregate functions for grouping
* :mod:`~repro.relation.render` — ASCII rendering used to regenerate the
  paper's figures
"""

from repro.relation.relation import NULL, Relation, RowPredicate
from repro.relation.row import Row
from repro.relation.schema import Schema, as_schema
from repro.relation import aggregates, render

__all__ = [
    "NULL",
    "Relation",
    "Row",
    "RowPredicate",
    "Schema",
    "as_schema",
    "aggregates",
    "render",
]
