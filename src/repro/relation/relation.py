"""Set-semantics relations and the basic operators of the relational algebra.

This module implements the substrate every other part of the library builds
on: the operators listed in Appendix A of the paper (union, intersection,
difference, Cartesian product, projection, selection, theta-join, natural
join, semi-join, anti-semi-join, left outer join, grouping) with strict
*set* semantics, plus renaming.

The division operators themselves live in :mod:`repro.division`; they are
derived operators and are kept separate because the paper studies several
alternative definitions for them.

Representation invariant: every row of a relation shares the relation's
*interned* schema object, so its value tuple is aligned with the schema's
attribute order.  The operators exploit this with precomputed attribute
index arrays ("pickers"): projection, joins, semi-joins and grouping pick
values positionally out of the tuples instead of rebuilding per-row dicts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any, Optional, Union

from repro.errors import RelationError, SchemaError
from repro.relation.encoding import CodeColumn, drop_positions, encode_columns, patch_code_columns
from repro.relation.row import Row
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = ["Relation", "RowPredicate", "NULL"]

#: Predicates used by :meth:`Relation.select` take a row and return a bool.
RowPredicate = Callable[[Row], bool]


class _Null:
    """Singleton marker used by the left outer join for padded attributes."""

    _instance: Optional["_Null"] = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False


#: The null marker produced by the left outer join (Appendix A).
NULL = _Null()


class Relation:
    """An immutable relation: a schema plus a *set* of rows.

    Parameters
    ----------
    attributes:
        The attribute names of the schema, in display order.
    rows:
        An iterable of rows.  Each row may be a mapping from attribute name
        to value or a sequence of values aligned with ``attributes``.
        Duplicates are silently removed (set semantics).

    Examples
    --------
    >>> r = Relation(["a", "b"], [(1, 1), (1, 4), (2, 1)])
    >>> len(r)
    3
    >>> r.project(["a"]).to_set("a")
    {1, 2}
    """

    __slots__ = ("_schema", "_rows", "_tuples", "_encoding")

    def __init__(
        self,
        attributes: AttributeNames,
        rows: Iterable[Union[Mapping[str, Any], Sequence[Any]]] = (),
    ) -> None:
        schema = Schema.interned(as_schema(attributes).names)
        coerce = self._coerce_row
        self._schema = schema
        self._rows: frozenset[Row] = frozenset(coerce(schema, raw) for raw in rows)
        self._tuples: Optional[list[tuple[Any, ...]]] = None
        self._encoding: Optional[tuple[CodeColumn, ...]] = None

    @staticmethod
    def _coerce_row(schema: Schema, raw: Union[Row, Mapping[str, Any], Sequence[Any]]) -> Row:
        if isinstance(raw, Row):
            raw_schema = raw.schema
            if raw_schema is schema:
                return raw
            if raw_schema.name_set == schema.name_set:
                # Same attribute set, possibly another declaration order:
                # realign the value tuple with this relation's schema.
                return Row.from_schema(schema, raw.values_for(schema))
            raise RelationError(
                f"row attributes {sorted(raw.keys())!r} do not match schema {schema.names!r}"
            )
        if isinstance(raw, Mapping):
            for name in raw:
                if not isinstance(name, str) or not name:
                    raise RelationError(
                        f"row attribute names must be nonempty strings, got {name!r}"
                    )
            if len(raw) != len(schema):
                raise RelationError(
                    f"row attributes {sorted(raw.keys())!r} do not match schema {schema.names!r}"
                )
            try:
                values = tuple(raw[name] for name in schema.names)
            except KeyError:
                raise RelationError(
                    f"row attributes {sorted(raw.keys())!r} do not match schema {schema.names!r}"
                ) from None
            return Row.from_schema(schema, values)
        values = tuple(raw)
        if len(values) != len(schema):
            raise RelationError(
                f"row {values!r} has {len(values)} values but schema {schema.names!r} "
                f"has {len(schema)} attributes"
            )
        return Row.from_schema(schema, values)

    @classmethod
    def _from_parts(cls, schema: Schema, rows: Iterable[Row]) -> "Relation":
        """Internal constructor: ``schema`` is interned and every row is
        already aligned with it — no coercion."""
        relation = object.__new__(cls)
        relation._schema = schema
        relation._rows = rows if isinstance(rows, frozenset) else frozenset(rows)
        relation._tuples = None
        relation._encoding = None
        return relation

    @classmethod
    def from_aligned(cls, attributes: AttributeNames, tuples: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from value tuples already aligned with the schema.

        The columnar executor's boundary constructor: each element of
        ``tuples`` must be a tuple of values in schema attribute order, so
        no per-row mapping coercion or length checking is needed.
        """
        schema = Schema.interned(as_schema(attributes).names)
        return cls._from_parts(schema, frozenset(Row.block(schema, tuples)))

    def with_delta(self, added: Iterable[Row], removed: Iterable[Row]) -> "Relation":
        """This value minus ``removed`` plus ``added``: a table after its edits.

        ``removed`` are rows of this relation and ``added`` rows it does
        not hold (the catalog's pending delta guarantees both).  The row
        set is one C-level copy per non-empty side; a cached scan block is
        *carried over* instead of dropped — scan order "this one's minus
        the removed tuples, then the added ones", and the encoding patched
        to match (:func:`~repro.relation.encoding.patch_code_columns`), so
        ``encoded_columns()`` still decodes to ``aligned_tuples()`` position
        by position and is what a fresh encode of that block would give.
        Without a cached encoding (or one that cannot be patched) both
        stay unset and are rebuilt on first use, as for any new value.
        """
        added = [self._align(row) for row in added]
        removed = [self._align(row) for row in removed]
        rows = self._rows
        if removed:
            rows = rows.difference(removed)
        if added:
            rows = rows.union(added)
        relation = Relation._from_parts(self._schema, rows)
        encoding, tuples = self._encoding, self._tuples
        if encoding is not None and tuples is not None:
            appended = [row._values for row in added]
            patched = patch_code_columns(encoding, [row._values for row in removed], appended)
            if patched is not None:
                dropped, relation._encoding = patched
                relation._tuples = drop_positions(tuples, dropped)
                relation._tuples += appended
        return relation

    def aligned_tuples(self) -> list[tuple[Any, ...]]:
        """Value tuples of all rows, aligned with the schema (cached).

        Every row of a relation shares the relation's interned schema, so
        this is a plain attribute sweep; the result is cached because scans
        re-chunk the same relation on every execution.
        """
        tuples = self._tuples
        if tuples is None:
            tuples = [row._values for row in self._rows]
            self._tuples = tuples
        return tuples

    def encoded_columns(self) -> tuple[CodeColumn, ...]:
        """Per-attribute dictionary codes of :meth:`aligned_tuples` (cached).

        One :class:`~repro.relation.encoding.CodeColumn` per schema
        attribute, aligned with the scan order.  Relations are immutable —
        a table's edits fold into a *new* relation value — so the cache
        never needs invalidating; :meth:`with_delta` hands the new value a
        patched copy, any other new value builds its own on its first scan
        or statistics pass.
        """
        encoding = self._encoding
        if encoding is None:
            encoding = encode_columns(self.aligned_tuples(), len(self._schema))
            self._encoding = encoding
        return encoding

    @property
    def cached_encoding(self) -> Optional[tuple[CodeColumn, ...]]:
        """:meth:`encoded_columns` if this value already carries it, else
        ``None`` — asking builds nothing.  Every entry of these dictionaries
        occurs in the relation, which no slice or copy of them promises."""
        return self._encoding

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        """Pickle the value and its scan order, not the derived encoding."""
        return None, {
            "_schema": self._schema,
            "_rows": self._rows,
            "_tuples": self._tuples,
            "_encoding": None,
        }

    def _align(self, row: Row) -> Row:
        """Realign a same-attribute-set row with this relation's schema."""
        if row.schema is self._schema:
            return row
        return Row.from_schema(self._schema, row.values_for(self._schema))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, attributes: AttributeNames) -> "Relation":
        """An empty relation over the given schema."""
        return cls(attributes, ())

    @classmethod
    def from_rows(cls, attributes: AttributeNames, rows: Iterable[Any]) -> "Relation":
        """Alias of the constructor, provided for readability at call sites."""
        return cls(attributes, rows)

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence[Any]]) -> "Relation":
        """Build a relation from parallel columns.

        >>> Relation.from_columns({"a": [1, 2], "b": [10, 20]}).schema.names
        ('a', 'b')
        """
        names = tuple(columns.keys())
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise RelationError(f"columns have different lengths: { {n: len(v) for n, v in columns.items()} }")
        count = lengths.pop() if lengths else 0
        rows = [tuple(columns[name][i] for name in names) for i in range(count)]
        return cls(names, rows)

    @classmethod
    def singleton(cls, values: Mapping[str, Any]) -> "Relation":
        """A one-tuple relation, written ``(t)`` in the paper."""
        return cls(tuple(values.keys()), [values])

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The relation schema."""
        return self._schema

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in display order."""
        return self._schema.names

    @property
    def rows(self) -> frozenset[Row]:
        """The set of rows."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __contains__(self, row: object) -> bool:
        if isinstance(row, Mapping) and not isinstance(row, Row):
            row = Row(dict(row))
        return row in self._rows

    def is_empty(self) -> bool:
        """Return ``True`` if the relation has no rows."""
        return not self._rows

    def sorted_rows(self, attributes: Optional[AttributeNames] = None) -> list[Row]:
        """Rows sorted by the given attributes (defaults to the full schema).

        Used for deterministic rendering and by sort-based physical
        operators.  Values of each attribute must be mutually comparable.
        """
        schema = self._schema if attributes is None else as_schema(attributes)
        self._schema.require(schema, "sort")
        picks = self._schema.picker(schema)
        return sorted(
            self._rows,
            key=lambda row: tuple(_sort_key(row.values_tuple[i]) for i in picks),
        )

    def clustered(self, attributes: Optional[AttributeNames] = None) -> "Relation":
        """A copy whose *physical scan order* is sorted by ``attributes``.

        The relation value (set of rows) is unchanged — only the cached
        aligned-tuple block that scans slice from is pre-sorted, the way a
        clustered index lays out a table.  ``TableStatistics.from_relation``
        detects this order and flags the attributes as sorted, which lets
        the cost-based planner pick order-exploiting algorithms (e.g. the
        streaming merge-group division).  Defaults to the full schema.
        """
        schema = self._schema if attributes is None else as_schema(attributes)
        self._schema.require(schema, "clustered")
        picks = self._schema.picker(schema)
        relation = Relation._from_parts(self._schema, self._rows)
        relation._tuples = sorted(
            self.aligned_tuples(),
            key=lambda values: tuple(_sort_key(values[i]) for i in picks),
        )
        return relation

    def to_set(self, attribute: str) -> set[Any]:
        """Values of a single attribute as a Python set."""
        self._schema.require([attribute], "to_set")
        position = self._schema.position(attribute)
        return {row.values_tuple[position] for row in self._rows}

    def to_tuples(self, attributes: Optional[AttributeNames] = None) -> set[tuple[Any, ...]]:
        """Rows as value tuples (ordered by ``attributes`` or the schema)."""
        schema = self._schema if attributes is None else as_schema(attributes)
        self._schema.require(schema, "to_tuples")
        get = self._schema.tuple_getter(schema)
        return {get(row.values_tuple) for row in self._rows}

    # ------------------------------------------------------------------
    # value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            return self._schema == other._schema and self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._schema, self._rows))

    def __repr__(self) -> str:
        return f"Relation(attributes={self._schema.names!r}, rows={len(self._rows)})"

    # ------------------------------------------------------------------
    # unary operators
    # ------------------------------------------------------------------
    def project(self, attributes: AttributeNames) -> "Relation":
        """Projection ``π_A(r)`` with duplicate elimination."""
        target = Schema.interned(self._schema.project(attributes).names)
        get = self._schema.tuple_getter(target)
        projected = {get(row.values_tuple) for row in self._rows}
        return Relation._from_parts(target, frozenset(Row.block(target, projected)))

    def select(self, predicate: RowPredicate) -> "Relation":
        """Selection ``σ_θ(r)``; ``predicate`` is evaluated on every row."""
        return Relation._from_parts(
            self._schema, frozenset(row for row in self._rows if predicate(row))
        )

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes according to ``mapping`` (ρ operator)."""
        new_schema = Schema.interned(self._schema.rename(dict(mapping)).names)
        renamed = Row.block(new_schema, [row._values for row in self._rows])
        return Relation._from_parts(new_schema, frozenset(renamed))

    def prefix(self, prefix: str, separator: str = ".") -> "Relation":
        """Rename every attribute to ``prefix`` + separator + name.

        Convenience used by the SQL frontend for correlation names.
        """
        return self.rename({name: f"{prefix}{separator}{name}" for name in self._schema})

    # ------------------------------------------------------------------
    # binary set operators (require identical attribute sets)
    # ------------------------------------------------------------------
    def _require_same_schema(self, other: "Relation", operation: str) -> None:
        if self._schema != other._schema:
            raise SchemaError(
                f"{operation}: schemas differ: {self._schema.names!r} vs {other._schema.names!r}"
            )

    def union(self, other: "Relation") -> "Relation":
        """Set union ``r1 ∪ r2``."""
        self._require_same_schema(other, "union")
        if other._schema is self._schema:
            rows = self._rows | other._rows
        else:
            rows = self._rows | frozenset(self._align(row) for row in other._rows)
        return Relation._from_parts(self._schema, rows)

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection ``r1 ∩ r2``."""
        self._require_same_schema(other, "intersection")
        if other._schema is self._schema:
            rows = self._rows & other._rows
        else:
            # Row hashing is order-insensitive, so membership tests work
            # across schema orders; keep elements of `self` for alignment.
            rows = frozenset(row for row in self._rows if row in other._rows)
        return Relation._from_parts(self._schema, rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference ``r1 − r2``."""
        self._require_same_schema(other, "difference")
        return Relation._from_parts(self._schema, self._rows - other._rows)

    def __or__(self, other: "Relation") -> "Relation":
        return self.union(other)

    def __and__(self, other: "Relation") -> "Relation":
        return self.intersection(other)

    def __sub__(self, other: "Relation") -> "Relation":
        return self.difference(other)

    # ------------------------------------------------------------------
    # products and joins
    # ------------------------------------------------------------------
    def product(self, other: "Relation") -> "Relation":
        """Cartesian product ``r1 × r2`` (attribute sets must be disjoint)."""
        if not self._schema.is_disjoint(other._schema):
            shared = self._schema.intersection(other._schema).names
            raise SchemaError(
                f"product: attribute sets must be disjoint, both sides contain {shared!r}"
            )
        schema = Schema.interned(self._schema.union(other._schema).names)
        rows = frozenset(
            Row.from_schema(schema, left.values_tuple + right.values_tuple)
            for left in self._rows
            for right in other._rows
        )
        return Relation._from_parts(schema, rows)

    def __mul__(self, other: "Relation") -> "Relation":
        return self.product(other)

    def theta_join(self, other: "Relation", predicate: RowPredicate) -> "Relation":
        """Theta-join ``r1 ⋈_θ r2 = σ_θ(r1 × r2)`` (disjoint attribute sets)."""
        return self.product(other).select(predicate)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join ``r1 ⋈ r2`` on the shared attributes."""
        shared = self._schema.intersection(other._schema)
        if not len(shared):
            # Degenerates to the Cartesian product, exactly as in the
            # textbook definition.
            return self.product(other)
        schema = Schema.interned(self._schema.union(other._schema).names)
        extra = other._schema.difference(self._schema)
        left_key = self._schema.key_getter(shared)
        right_key = other._schema.key_getter(shared)
        right_extra = other._schema.tuple_getter(extra)
        index: dict[Any, list[tuple[Any, ...]]] = {}
        for row in other._rows:
            values = row.values_tuple
            index.setdefault(right_key(values), []).append(right_extra(values))
        rows: set[Row] = set()
        add = rows.add
        lookup = index.get
        from_schema = Row.from_schema
        for left in self._rows:
            values = left.values_tuple
            for extras in lookup(left_key(values), ()):
                add(from_schema(schema, values + extras))
        return Relation._from_parts(schema, frozenset(rows))

    def semijoin(self, other: "Relation") -> "Relation":
        """Left semi-join ``r1 ⋉ r2``: rows of ``r1`` with a join partner."""
        shared = self._schema.intersection(other._schema)
        if not len(shared):
            return self if other._rows else Relation.empty(self._schema)
        left_key = self._schema.key_getter(shared)
        right_key = other._schema.key_getter(shared)
        keys = {right_key(row.values_tuple) for row in other._rows}
        return Relation._from_parts(
            self._schema,
            frozenset(row for row in self._rows if left_key(row.values_tuple) in keys),
        )

    def antijoin(self, other: "Relation") -> "Relation":
        """Left anti-semi-join ``r1 ▷ r2 = r1 − (r1 ⋉ r2)``."""
        return self.difference(self.semijoin(other))

    def left_outer_join(self, other: "Relation") -> "Relation":
        """Left outer join ``r1 ⟕ r2`` padding missing partners with NULL."""
        joined = self.natural_join(other)
        dangling = self.antijoin(other)
        pad_attributes = other._schema.difference(self._schema)
        padded_rows = {
            row.with_values({name: NULL for name in pad_attributes}) for row in dangling
        }
        schema = self._schema.union(other._schema)
        return Relation(schema, set(joined.rows) | padded_rows)

    # ------------------------------------------------------------------
    # grouping / aggregation
    # ------------------------------------------------------------------
    def group_by(
        self,
        grouping: AttributeNames,
        aggregations: Mapping[str, tuple[str, Callable[[Iterable[Row]], Any]]],
    ) -> "Relation":
        """Grouping operator ``GγF(r)`` of Appendix A.

        Parameters
        ----------
        grouping:
            The grouping attributes ``G`` (may be empty for a global
            aggregate over the whole relation).
        aggregations:
            Maps each *output* attribute name to a pair ``(doc, fn)`` where
            ``fn`` receives the iterable of rows of one group and returns the
            aggregate value, and ``doc`` is a short human-readable label
            (e.g. ``"count(b)"``) used only for rendering and debugging.

        The helpers in :mod:`repro.relation.aggregates` build suitable
        ``(doc, fn)`` pairs for the common aggregates.
        """
        group_schema = as_schema(grouping)
        self._schema.require(group_schema, "group_by")
        output_schema = Schema.interned(group_schema.names + tuple(aggregations.keys()))
        key_of = self._schema.tuple_getter(group_schema)

        groups: dict[tuple[Any, ...], list[Row]] = {}
        for row in self._rows:
            groups.setdefault(key_of(row.values_tuple), []).append(row)

        if not groups and not len(group_schema):
            # Global aggregate over an empty relation: one row of aggregates
            # over the empty group, mirroring SQL's behaviour for COUNT.
            groups[()] = []
        aggregate_fns = tuple(fn for (_doc, fn) in aggregations.values())
        result_rows = frozenset(
            Row.from_schema(output_schema, key + tuple(fn(members) for fn in aggregate_fns))
            for key, members in groups.items()
        )
        return Relation._from_parts(output_schema, result_rows)

    # ------------------------------------------------------------------
    # convenience used throughout the law implementations
    # ------------------------------------------------------------------
    def image_set(self, row_values: Mapping[str, Any], over: AttributeNames) -> "Relation":
        """Codd's image set ``i_r(x)``: the ``over``-values co-occurring with ``x``.

        ``row_values`` fixes the values of some attributes; the result is the
        projection to ``over`` of the rows agreeing with ``row_values``.
        """
        fixed = Row(dict(row_values))
        self._schema.require(list(fixed.keys()), "image_set")
        over_schema = Schema.interned(self._schema.project(over).names)
        over_get = self._schema.tuple_getter(over_schema)
        fixed_get = self._schema.tuple_getter(fixed.schema)
        fixed_values = fixed.values_tuple
        projected = {
            over_get(row.values_tuple)
            for row in self._rows
            if fixed_get(row.values_tuple) == fixed_values
        }
        return Relation._from_parts(over_schema, frozenset(Row.block(over_schema, projected)))

    def partition_horizontal(self, predicate: RowPredicate) -> tuple["Relation", "Relation"]:
        """Split rows into (matching, non-matching) relations."""
        matching = frozenset(row for row in self._rows if predicate(row))
        return (
            Relation._from_parts(self._schema, matching),
            Relation._from_parts(self._schema, self._rows - matching),
        )


def _sort_key(value: Any) -> tuple[str, Any]:
    """Total order over heterogeneous attribute values (None/NULL first)."""
    if value is None or value is NULL:
        return ("0", "")
    if isinstance(value, bool):
        return ("1", int(value))
    if isinstance(value, (int, float)):
        return ("2", value)
    if isinstance(value, str):
        return ("3", value)
    if isinstance(value, (tuple, frozenset)):
        return ("4", tuple(sorted(map(repr, value))))
    return ("5", repr(value))
