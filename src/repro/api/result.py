"""Results of one query execution through the public API.

A :class:`QueryResult` bundles everything a single physical execution
produced: the result relation, which rewrite laws fired, per-operator tuple
counts, the paper's max-intermediate metric, and wall-clock time.  The CLI,
the examples and the experiment harness all read from one of these instead
of running a query twice through disjoint paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.algebra.expressions import Expression
from repro.optimizer.statistics import TableStatistics
from repro.physical.base import PlanStatistics
from repro.relation.relation import Relation
from repro.relation.row import Row
from repro.relation.schema import AttributeNames

__all__ = ["AnalyzeReport", "CacheInfo", "MutationResult", "QueryResult"]


@dataclass(frozen=True)
class AnalyzeReport:
    """What one ``ANALYZE`` pass collected, per table."""

    tables: Mapping[str, TableStatistics]

    def render(self) -> str:
        """Human-readable statistics summary (used by ``repro analyze``)."""
        lines: list[str] = []
        for name, stats in self.tables.items():
            lines.append(f"{name}: {stats.cardinality} rows")
            for attribute, distinct in stats.distinct_values.items():
                extras = [f"distinct={distinct}"]
                minimum, maximum = stats.minimum(attribute), stats.maximum(attribute)
                if minimum is not None:
                    extras.append(f"min={minimum!r}")
                if maximum is not None:
                    extras.append(f"max={maximum!r}")
                if stats.top_frequency(attribute):
                    extras.append(f"top={stats.top_frequency(attribute)}")
                lines.append(f"  {attribute}: {', '.join(extras)}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.tables)


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss counters of a database's caches.

    The first four fields describe the prepared-plan LRU (PR 2); the
    ``result_*`` fields describe the version-keyed result cache, and
    ``invalidations`` counts plan-cache entries dropped because a table
    version moved past them (both 0 on databases that never mutate).
    """

    hits: int
    misses: int
    size: int
    maxsize: int
    #: Plan-cache entries evicted by a table-version bump at lookup time.
    invalidations: int = 0
    #: Version-keyed result cache (QueryResults of non-view queries).
    result_hits: int = 0
    result_misses: int = 0
    result_size: int = 0
    result_maxsize: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def result_hit_rate(self) -> float:
        """Fraction of result lookups served from cache (0.0 when unused)."""
        total = self.result_hits + self.result_misses
        return self.result_hits / total if total else 0.0


@dataclass(frozen=True)
class MutationResult:
    """What one ``insert``/``delete`` statement actually changed.

    ``inserted``/``deleted`` are the *effective* set deltas (rows already
    present do not insert; rows already absent do not delete), and
    ``version`` is the table's version counter after the statement —
    unchanged when the delta was empty.
    """

    table: str
    inserted: Relation
    deleted: Relation
    version: int

    @property
    def changed(self) -> bool:
        return bool(len(self.inserted) or len(self.deleted))

    def __repr__(self) -> str:
        return (
            f"<MutationResult {self.table!r} +{len(self.inserted)} "
            f"-{len(self.deleted)} version={self.version}>"
        )


@dataclass(frozen=True)
class QueryResult:
    """Everything one execution of a :class:`~repro.api.query.Query` produced."""

    #: The materialized result.
    relation: Relation
    #: The logical expression as written (SQL translation or fluent build).
    expression: Expression
    #: The canonical, law-rewritten expression the physical plan came from.
    rewritten: Expression
    #: Names of the rewrite laws that fired, in application order.
    rules_fired: tuple[str, ...]
    #: Per-operator tuple counts and wall-clock time of the one execution.
    statistics: PlanStatistics
    #: Canonical fingerprint of the query (the plan-cache key prefix).
    fingerprint: str
    #: True if the physical plan came from the prepared-plan cache.
    cache_hit: bool
    #: Estimated plan price before and after rewriting (the physical cost
    #: model's units).
    estimated_cost_before: float
    estimated_cost_after: float
    #: True if the whole QueryResult came from the version-keyed result
    #: cache (no physical execution happened for this call).
    result_cache_hit: bool = False

    # ------------------------------------------------------------------
    # statistics conveniences
    # ------------------------------------------------------------------
    @property
    def tuple_counts(self) -> Mapping[str, int]:
        """Per-operator tuple counts (operator label → tuples emitted)."""
        return dict(self.statistics.tuples_by_operator)

    @property
    def max_intermediate(self) -> int:
        """Largest intermediate result of the execution (the paper's metric)."""
        return self.statistics.max_intermediate

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds of the one physical execution."""
        return self.statistics.elapsed_seconds

    # ------------------------------------------------------------------
    # relation conveniences
    # ------------------------------------------------------------------
    def rows(self) -> Iterator[Row]:
        """Iterate over the result rows."""
        return iter(self.relation)

    def to_tuples(self, attributes: AttributeNames | None = None) -> list[tuple[Any, ...]]:
        """The result as value tuples (in the relation's attribute order)."""
        names = attributes if attributes is not None else self.relation.schema.names
        return self.relation.to_tuples(names)

    def __len__(self) -> int:
        return len(self.relation)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.relation)

    def __repr__(self) -> str:
        return (
            f"<QueryResult {len(self.relation)} rows, "
            f"{len(self.rules_fired)} rules fired, "
            f"max_intermediate={self.max_intermediate}, "
            f"cache_hit={self.cache_hit}>"
        )
