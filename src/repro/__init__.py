"""repro — reproduction of "Laws for Rewriting Queries Containing Division
Operators" (Rantzau & Mangold, ICDE 2006).

The top-level package re-exports the most frequently used names; the
subpackages provide the full API:

* :mod:`repro.relation`   — set-semantics relational substrate
* :mod:`repro.division`   — small divide, great divide, set containment join
* :mod:`repro.algebra`    — logical expression trees and their evaluator
* :mod:`repro.laws`       — Laws 1–17 and Examples 1–4 as rewrite rules
* :mod:`repro.optimizer`  — rule-based rewriter, statistics, cost, planner
* :mod:`repro.physical`   — Volcano-style physical operators
* :mod:`repro.sql`        — SQL frontend with the DIVIDE BY syntax
* :mod:`repro.mining`     — frequent itemset discovery via great divide
* :mod:`repro.workloads`  — synthetic data generators
* :mod:`repro.experiments`— figure regeneration and experiment harness
* :mod:`repro.api`        — the session front door (:func:`repro.connect`)
* :mod:`repro.storage`    — persistent columnar store and spill partitions
* :mod:`repro.views`      — delta-maintained quotient views
* :mod:`repro.analysis`   — static plan verifier and engine-contract findings
* :mod:`repro.faults`     — deterministic fault injection for storage and spill
"""

from repro.api import AnalyzeReport, Database, Query, QueryResult, connect
from repro.division import great_divide, small_divide
from repro.errors import ReproError
from repro.relation import NULL, Relation, Row, Schema

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "NULL",
    "Relation",
    "Row",
    "Schema",
    "ReproError",
    "small_divide",
    "great_divide",
    "connect",
    "AnalyzeReport",
    "Database",
    "Query",
    "QueryResult",
]
