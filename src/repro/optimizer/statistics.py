"""Table statistics and cardinality estimation.

The estimator implements the textbook System-R style formulas (uniformity
and independence assumptions) extended with formulas for the division
operators: the selectivity of a small divide is estimated as the
probability that a dividend group of average size ``g`` drawn from a domain
of ``d`` distinct ``B``-values contains all ``|r2|`` divisor values.  These
estimates feed the cost model that ranks rewrite alternatives.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.algebra.expressions import (
    AntiJoin,
    Difference,
    Expression,
    GreatDivide,
    GroupBy,
    Intersection,
    LeftOuterJoin,
    LiteralRelation,
    NaturalJoin,
    Product,
    Project,
    RelationRef,
    Rename,
    Select,
    SemiJoin,
    SmallDivide,
    ThetaJoin,
    Union,
)
from repro.errors import SchemaError
from repro.relation.relation import Relation

__all__ = [
    "TableStatistics",
    "StatisticsCatalog",
    "CardinalityEstimator",
    "Estimate",
    "DEFAULT_SELECTIVITY",
]

#: Selectivity assumed for a predicate we know nothing about.
DEFAULT_SELECTIVITY = 0.33


def _non_decreasing(column: Iterable[Any]) -> bool:
    """Whether a column's values appear in non-decreasing (scan) order."""
    iterator = iter(column)
    try:
        previous = next(iterator)
    except StopIteration:
        return True
    try:
        for value in iterator:
            if value < previous:
                return False
            previous = value
    except TypeError:
        # Mixed incomparable types: no usable physical order.
        return False
    return True


def _lexicographic_prefix_length(tuples: list[tuple[Any, ...]], width: int) -> int:
    """Longest prefix length ``k`` with the scan lexicographically
    non-decreasing on the first ``k`` attributes.

    Captures *composite* clustering that per-attribute flags cannot: after
    ``relation.clustered(["a", "b"])`` the ``b`` column is not globally
    sorted (it resets within each ``a`` group), but the (a, b) combination
    is — equal (a, b) pairs are contiguous in the scan.
    """
    limit = width
    previous: tuple[Any, ...] | None = None
    for values in tuples:
        if previous is not None and limit:
            for index in range(limit):
                a, b = previous[index], values[index]
                if a == b:
                    continue
                try:
                    descending = b < a
                except TypeError:
                    descending = True
                if descending:
                    limit = index
                # The first differing column decides the lexicographic order
                # of every longer prefix, so stop comparing here.
                break
        if limit == 0:
            break
        previous = values
    return limit


@dataclass(frozen=True)
class TableStatistics:
    """Cardinality plus per-attribute statistics of one table.

    Beyond the distinct counts the System-R formulas need, ``analyze()``
    records per-attribute minima/maxima and — crucially for the physical
    planner — which attributes the table's *scan order* is sorted on
    (non-decreasing over :meth:`Relation.aligned_tuples`).  Order-exploiting
    algorithms (streaming merge-group division) are only priced as cheap
    when the dividend actually arrives clustered.
    """

    cardinality: int
    distinct_values: Mapping[str, int]
    minima: Mapping[str, Any] = field(default_factory=dict)
    maxima: Mapping[str, Any] = field(default_factory=dict)
    sorted_attributes: frozenset[str] = frozenset()
    #: Longest schema-order prefix the scan is *lexicographically* sorted
    #: on — records composite clustering (``clustered(["a", "b"])``) that
    #: the per-attribute ``sorted_attributes`` flags cannot express.
    lexicographic_prefix: tuple[str, ...] = ()
    #: Per-attribute frequency of the *most common* value (the top key).
    #: ``partition_skew`` derives from it: a hash-partition exchange on an
    #: attribute can never split the rows of one value, so the largest
    #: partition holds at least ``top_frequency / cardinality`` of the rows
    #: — the cost model uses that fraction to discount parallelism on
    #: heavily skewed keys.
    top_frequencies: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def from_relation(cls, relation: Relation) -> "TableStatistics":
        """Gather exact statistics from an in-memory relation.

        Reads the relation's cached dictionary encoding
        (:meth:`~repro.relation.relation.Relation.encoded_columns`) instead
        of making a pass of its own: the distinct count is the dictionary
        size, min/max range over the dictionary, the top frequency is a
        bincount of the codes, and the scan is sorted on an attribute iff
        its codes never step down over a non-decreasing dictionary.  The
        first scan of the same relation value reuses the encoding.

        Stored tables (:class:`~repro.storage.store.StoredRelation`) carry
        statistics gathered at save time in their file header; for them
        this is a metadata read — the blocks are never decoded.
        """
        stored = getattr(relation, "stored_statistics", None)
        if stored is not None:
            statistics = stored()
            if statistics is not None:
                return statistics
        tuples = relation.aligned_tuples()
        names = relation.schema.names
        distinct: dict[str, int] = {name: 0 for name in names}
        minima: dict[str, Any] = {}
        maxima: dict[str, Any] = {}
        sorted_names: set[str] = set()
        top_frequencies: dict[str, int] = {}
        prefix: tuple[str, ...] = ()
        if tuples:
            for name, column in zip(names, relation.encoded_columns()):
                dictionary = column.dictionary
                distinct[name] = len(dictionary)
                top_frequencies[name] = column.top_frequency()
                try:
                    bounds = min(dictionary), max(dictionary)
                except TypeError:
                    pass  # incomparable values: neither bound is known
                else:
                    minima[name], maxima[name] = bounds
                if column.is_non_decreasing() and _non_decreasing(dictionary):
                    sorted_names.add(name)
            prefix = names[: _lexicographic_prefix_length(tuples, len(names))]
        return cls(
            cardinality=len(tuples),
            distinct_values=distinct,
            minima=minima,
            maxima=maxima,
            sorted_attributes=frozenset(sorted_names),
            lexicographic_prefix=prefix,
            top_frequencies=top_frequencies,
        )

    def distinct(self, attribute: str) -> int:
        """Distinct count of one attribute (at least 1 to avoid zero division)."""
        return max(1, self.distinct_values.get(attribute, 1))

    def minimum(self, attribute: str) -> Any:
        """Smallest value of one attribute (``None`` when unknown)."""
        return self.minima.get(attribute)

    def maximum(self, attribute: str) -> Any:
        """Largest value of one attribute (``None`` when unknown)."""
        return self.maxima.get(attribute)

    def is_sorted(self, attribute: str) -> bool:
        """Whether the table's scan order is non-decreasing on ``attribute``."""
        return attribute in self.sorted_attributes

    def top_frequency(self, attribute: str) -> int:
        """Row count of the attribute's most frequent value (0 when unknown)."""
        return self.top_frequencies.get(attribute, 0)

    def partition_skew(self, attribute: str) -> float:
        """Fraction of the rows carrying the attribute's most frequent value.

        The lower bound on the largest hash partition when partitioning on
        this attribute (equal keys cannot be split): 0.0 means unknown or
        empty, 1.0 means every row shares one key and partitioning cannot
        help at all.
        """
        if not self.cardinality:
            return 0.0
        return self.top_frequency(attribute) / self.cardinality


class StatisticsCatalog:
    """Statistics for a collection of named tables."""

    def __init__(self, tables: Mapping[str, TableStatistics] | None = None) -> None:
        self._tables = dict(tables or {})

    @classmethod
    def from_database(cls, database: Mapping[str, Relation]) -> "StatisticsCatalog":
        """Exact statistics for every table of a database/catalog."""
        return cls({name: TableStatistics.from_relation(rel) for name, rel in database.items()})

    def analyze(
        self,
        database: Mapping[str, Relation],
        names: Iterable[str] | None = None,
    ) -> dict[str, TableStatistics]:
        """Recollect statistics for ``names`` (default: all tables) in place.

        The ``ANALYZE`` path: reads the relations straight out of the
        database/catalog and replaces the stored statistics, returning the
        freshly gathered entries.  Unknown names raise :class:`SchemaError`
        (the library's error contract), listing the known tables.
        """
        selected = list(database) if names is None else list(names)
        unknown = [name for name in selected if name not in database]
        if unknown:
            raise SchemaError(
                f"cannot analyze unknown table(s) {sorted(unknown)!r}; "
                f"known tables: {sorted(database)!r}"
            )
        gathered: dict[str, TableStatistics] = {}
        for name in selected:
            gathered[name] = TableStatistics.from_relation(database[name])
        self._tables.update(gathered)
        return gathered

    def add(self, name: str, statistics: TableStatistics) -> None:
        self._tables[name] = statistics

    def table(self, name: str) -> TableStatistics:
        """Statistics of a table; unknown tables get a neutral default."""
        return self._tables.get(name, TableStatistics(cardinality=1000, distinct_values={}))

    def tables(self) -> dict[str, TableStatistics]:
        """A snapshot of all stored per-table statistics."""
        return dict(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables


@dataclass(frozen=True)
class Estimate:
    """Estimated cardinality and per-attribute distinct counts of a subexpression."""

    cardinality: float
    distinct_values: Mapping[str, float]

    def distinct(self, attribute: str) -> float:
        return max(1.0, self.distinct_values.get(attribute, self.cardinality or 1.0))


#: Backwards-compatible alias (the estimate type used to be private).
_Estimate = Estimate


class CardinalityEstimator:
    """Estimates output cardinalities of logical expressions."""

    #: Maximum number of literal-relation statistics kept per estimator.
    LITERAL_CACHE_SIZE = 256

    def __init__(self, statistics: StatisticsCatalog) -> None:
        self._statistics = statistics
        # LiteralRelation statistics are exact but cost a columnar pass per
        # relation; cache them keyed by relation identity, bounded so a
        # long-lived session cannot pin arbitrarily many literals.  The
        # relation is pinned in the value while cached; after an eviction an
        # id() can be recycled, which the identity check in
        # :meth:`literal_statistics` guards against.
        self._literal_statistics: dict[int, tuple[Relation, TableStatistics]] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def cardinality(self, expression: Expression) -> float:
        """Estimated number of output tuples of ``expression``."""
        return self._estimate(expression).cardinality

    def estimate(self, expression: Expression) -> Estimate:
        """Full estimate (cardinality plus per-attribute distinct counts)."""
        return self._estimate(expression)

    def literal_statistics(self, relation: Relation) -> TableStatistics:
        """Exact (cached) statistics of an in-memory literal relation."""
        cached = self._literal_statistics.get(id(relation))
        if cached is not None and cached[0] is relation:
            return cached[1]
        statistics = TableStatistics.from_relation(relation)
        if len(self._literal_statistics) >= self.LITERAL_CACHE_SIZE:
            # FIFO eviction: drop the oldest entry (dicts preserve insertion
            # order); reuse after eviction just re-runs the columnar pass.
            self._literal_statistics.pop(next(iter(self._literal_statistics)))
        self._literal_statistics[id(relation)] = (relation, statistics)
        return statistics

    # ------------------------------------------------------------------
    # recursive estimation
    # ------------------------------------------------------------------
    def _estimate(self, expression: Expression) -> _Estimate:
        if isinstance(expression, RelationRef):
            stats = self._statistics.table(expression.name)
            return _Estimate(
                cardinality=float(stats.cardinality),
                distinct_values={
                    name: float(stats.distinct(name)) for name in expression.schema.names
                },
            )
        if isinstance(expression, LiteralRelation):
            stats = self.literal_statistics(expression.relation)
            return _Estimate(
                cardinality=float(stats.cardinality),
                distinct_values={k: float(v) for k, v in stats.distinct_values.items()},
            )
        if isinstance(expression, (Project, Rename)):
            child = self._estimate(expression.child)
            kept = {
                name: child.distinct(name)
                for name in expression.schema.names
                if name in child.distinct_values or True
            }
            if isinstance(expression, Project):
                # Duplicate elimination: bounded by the product of distinct counts.
                bound = math.prod(min(child.distinct(name), child.cardinality) for name in expression.schema.names) if len(expression.schema) else 1.0
                return _Estimate(cardinality=min(child.cardinality, bound), distinct_values=kept)
            return _Estimate(cardinality=child.cardinality, distinct_values=kept)
        if isinstance(expression, Select):
            child = self._estimate(expression.child)
            selectivity = self._selectivity(expression, child)
            scaled = {name: value * selectivity for name, value in child.distinct_values.items()}
            return _Estimate(cardinality=child.cardinality * selectivity, distinct_values=scaled)
        if isinstance(expression, GroupBy):
            child = self._estimate(expression.child)
            groups = math.prod(child.distinct(name) for name in expression.grouping.names) if len(expression.grouping) else 1.0
            cardinality = min(child.cardinality, groups)
            return _Estimate(
                cardinality=cardinality,
                distinct_values={name: cardinality for name in expression.schema.names},
            )
        if isinstance(expression, Union):
            left, right = self._estimate(expression.left), self._estimate(expression.right)
            return _Estimate(
                cardinality=left.cardinality + right.cardinality,
                distinct_values={
                    name: left.distinct(name) + right.distinct(name)
                    for name in expression.schema.names
                },
            )
        if isinstance(expression, Intersection):
            left, right = self._estimate(expression.left), self._estimate(expression.right)
            cardinality = min(left.cardinality, right.cardinality) * 0.5
            return _Estimate(
                cardinality=cardinality,
                distinct_values={name: min(left.distinct(name), right.distinct(name)) for name in expression.schema.names},
            )
        if isinstance(expression, Difference):
            return self._estimate(expression.left)
        if isinstance(expression, (Product,)):
            left, right = self._estimate(expression.left), self._estimate(expression.right)
            distinct = dict(left.distinct_values)
            distinct.update(right.distinct_values)
            return _Estimate(cardinality=left.cardinality * right.cardinality, distinct_values=distinct)
        if isinstance(expression, ThetaJoin):
            left, right = self._estimate(expression.left), self._estimate(expression.right)
            distinct = dict(left.distinct_values)
            distinct.update(right.distinct_values)
            selectivity = self._join_selectivity(expression, left, right)
            return _Estimate(
                cardinality=left.cardinality * right.cardinality * selectivity,
                distinct_values=distinct,
            )
        if isinstance(expression, (NaturalJoin, LeftOuterJoin)):
            left, right = self._estimate(expression.left), self._estimate(expression.right)
            shared = expression.left.schema.intersection(expression.right.schema)
            denominator = math.prod(max(left.distinct(n), right.distinct(n)) for n in shared.names) if len(shared) else 1.0
            cardinality = left.cardinality * right.cardinality / max(denominator, 1.0)
            if isinstance(expression, LeftOuterJoin):
                cardinality = max(cardinality, left.cardinality)
            distinct = dict(left.distinct_values)
            distinct.update(right.distinct_values)
            return _Estimate(cardinality=cardinality, distinct_values=distinct)
        if isinstance(expression, (SemiJoin, AntiJoin)):
            left = self._estimate(expression.left)
            right = self._estimate(expression.right)
            shared = expression.left.schema.intersection(expression.right.schema)
            if len(shared):
                # Fraction of the left rows whose shared-attribute value also
                # occurs on the right (uniformity assumption).
                matching = math.prod(
                    min(1.0, right.distinct(name) / left.distinct(name)) for name in shared.names
                )
            else:
                matching = 1.0 if right.cardinality else 0.0
            selectivity = matching if isinstance(expression, SemiJoin) else 1.0 - matching
            return _Estimate(
                cardinality=left.cardinality * selectivity,
                distinct_values={
                    name: value * selectivity for name, value in left.distinct_values.items()
                },
            )
        if isinstance(expression, SmallDivide):
            return self._estimate_small_divide(expression)
        if isinstance(expression, GreatDivide):
            return self._estimate_great_divide(expression)
        # Unknown node type: be conservative.
        children = [self._estimate(child) for child in expression.children]
        cardinality = max((child.cardinality for child in children), default=1.0)
        return _Estimate(cardinality=cardinality, distinct_values={})

    # ------------------------------------------------------------------
    # operator-specific formulas
    # ------------------------------------------------------------------
    def _selectivity(self, expression: Select, child: _Estimate) -> float:
        from repro.algebra.predicates import And, Comparison, Not, Or, TruePredicate, FalsePredicate

        predicate = expression.predicate
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, FalsePredicate):
            return 0.0
        if isinstance(predicate, Comparison):
            if predicate.operator == "=":
                attributes = sorted(predicate.attributes)
                if attributes:
                    return 1.0 / child.distinct(attributes[0])
                return DEFAULT_SELECTIVITY
            if predicate.operator == "!=":
                return 1.0 - DEFAULT_SELECTIVITY
            return self._range_selectivity(expression.child, predicate)
        if isinstance(predicate, And):
            result = 1.0
            for operand in predicate.operands:
                result *= self._selectivity(Select(expression.child, operand), child)
            return result
        if isinstance(predicate, Or):
            result = 1.0
            for operand in predicate.operands:
                result *= 1.0 - self._selectivity(Select(expression.child, operand), child)
            return 1.0 - result
        if isinstance(predicate, Not):
            return 1.0 - self._selectivity(Select(expression.child, predicate.operand), child)
        return DEFAULT_SELECTIVITY

    #: Range comparisons mirrored for a literal on the left-hand side.
    _MIRRORED_OPERATORS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

    def _range_selectivity(self, expression: Expression, predicate: Any) -> float:
        """Selectivity of a range comparison via min/max interpolation.

        When the compared attribute's bounds are known (stored-table zone
        metadata or analyzed statistics reachable through the child
        expression), a ``attr < literal`` predicate is priced as the linear
        fraction of the ``[min, max]`` interval it selects — the classic
        uniformity interpolation.  Anything unresolvable (no bounds,
        attr-vs-attr comparison, non-numeric values) falls back to
        :data:`DEFAULT_SELECTIVITY`.
        """
        from repro.algebra.predicates import AttributeRef, Literal

        left, operator, right = predicate.left, predicate.operator, predicate.right
        if isinstance(left, Literal) and isinstance(right, AttributeRef):
            left, right = right, left
            operator = self._MIRRORED_OPERATORS.get(operator, operator)
        if not (isinstance(left, AttributeRef) and isinstance(right, Literal)):
            return DEFAULT_SELECTIVITY
        if operator not in self._MIRRORED_OPERATORS:
            return DEFAULT_SELECTIVITY
        low, high = self._column_bounds(expression, left.name)
        value = right.value
        numbers = (int, float)
        if not (
            isinstance(low, numbers)
            and isinstance(high, numbers)
            and isinstance(value, numbers)
            and not isinstance(low, bool)
            and not isinstance(high, bool)
            and not isinstance(value, bool)
        ):
            return DEFAULT_SELECTIVITY
        if high <= low:
            # Degenerate (single-valued) column: the comparison either takes
            # everything or nothing, modulo the open/closed endpoint.
            fraction = 1.0 if value > low or (value == low and operator in ("<=", ">=")) else 0.0
            if operator in ("<", "<="):
                selectivity = fraction
            else:
                selectivity = 1.0 if value < low or (value == low and operator == ">=") else 0.0
            return min(max(selectivity, 0.001), 1.0)
        fraction = (value - low) / (high - low)
        fraction = min(max(fraction, 0.0), 1.0)
        selectivity = fraction if operator in ("<", "<=") else 1.0 - fraction
        return min(max(selectivity, 0.001), 1.0)

    def _column_bounds(self, expression: Expression, attribute: str) -> tuple[Any, Any]:
        """(min, max) of ``attribute`` at the base table feeding ``expression``.

        Descends through order-preserving wrappers to the nearest base
        relation; anything narrowing the column's range on the way down
        (another selection) only makes the interpolation conservative.
        Returns ``(None, None)`` when the bounds cannot be traced.
        """
        if isinstance(expression, RelationRef):
            stats = self._statistics.table(expression.name)
            return stats.minimum(attribute), stats.maximum(attribute)
        if isinstance(expression, LiteralRelation):
            stats = self.literal_statistics(expression.relation)
            return stats.minimum(attribute), stats.maximum(attribute)
        if isinstance(expression, (Select, Project)):
            return self._column_bounds(expression.child, attribute)
        if isinstance(expression, Rename):
            inverse = {new: old for old, new in expression.mapping.items()}
            return self._column_bounds(expression.child, inverse.get(attribute, attribute))
        return (None, None)

    def _join_selectivity(self, expression: ThetaJoin, left: _Estimate, right: _Estimate) -> float:
        from repro.algebra.predicates import Comparison

        predicate = expression.predicate
        if isinstance(predicate, Comparison) and predicate.is_equi_comparison:
            attributes = sorted(predicate.attributes)
            denominators = [
                left.distinct(a) if a in expression.left.schema else right.distinct(a)
                for a in attributes
            ]
            return 1.0 / max(max(denominators, default=1.0), 1.0)
        return DEFAULT_SELECTIVITY

    def _estimate_small_divide(self, expression: SmallDivide) -> _Estimate:
        dividend = self._estimate(expression.left)
        divisor = self._estimate(expression.right)
        quotient_schema = expression.schema
        b_schema = expression.right.schema
        candidates = math.prod(dividend.distinct(name) for name in quotient_schema.names)
        candidates = min(candidates, dividend.cardinality) or 1.0
        group_size = dividend.cardinality / max(candidates, 1.0)
        domain = math.prod(dividend.distinct(name) for name in b_schema.names) or 1.0
        # Probability that one group of `group_size` values drawn from `domain`
        # contains one particular divisor value, raised to |divisor|.
        p_single = min(1.0, group_size / max(domain, 1.0))
        selectivity = p_single ** max(divisor.cardinality, 0.0)
        cardinality = candidates * selectivity
        return _Estimate(
            cardinality=cardinality,
            distinct_values={name: cardinality for name in quotient_schema.names},
        )

    def _estimate_great_divide(self, expression: GreatDivide) -> _Estimate:
        dividend = self._estimate(expression.left)
        divisor = self._estimate(expression.right)
        shared = expression.left.schema.intersection(expression.right.schema)
        a_schema = expression.left.schema.difference(shared)
        c_schema = expression.right.schema.difference(shared)
        candidates = min(
            math.prod(dividend.distinct(name) for name in a_schema.names), dividend.cardinality
        ) or 1.0
        groups = min(
            math.prod(divisor.distinct(name) for name in c_schema.names) if len(c_schema) else 1.0,
            divisor.cardinality or 1.0,
        ) or 1.0
        group_size = dividend.cardinality / max(candidates, 1.0)
        divisor_group_size = divisor.cardinality / max(groups, 1.0)
        domain = math.prod(dividend.distinct(name) for name in shared.names) or 1.0
        p_single = min(1.0, group_size / max(domain, 1.0))
        selectivity = p_single ** max(divisor_group_size, 0.0)
        cardinality = candidates * groups * selectivity
        distinct = {name: cardinality for name in expression.schema.names}
        return _Estimate(cardinality=cardinality, distinct_values=distinct)
