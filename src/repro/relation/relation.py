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

A relation is held in one of two states: a de-duplicated block of
aligned value tuples (what the constructor, :meth:`Relation.from_aligned`
and every algebra operator build, in first-seen order, and what a stored
table and a plan emitting tuples hand over), or one dictionary-code column
per attribute (what a plan whose every chunk is coded over shared
dictionaries hands over: a set by construction, whose dictionaries may
carry entries no tuple holds; and what a table's edits fold into when its
encoding is cached: the patched encoding itself).  The block is built from
the codes the first time something needs it: a folded value's block is the
parent's tuple list less the removed tuples plus the added ones when that
list had been built (one link, never a chain of versions), else the codes
are decoded.  So the scan order, dictionaries and stored bytes of a table
and of any algebra result are those of the order its tuples were given,
whatever the process's hash seed.  ``Row`` objects are a cache: the row
set behind :attr:`Relation.rows`, iteration, ``in``, ``==`` and ``hash``
is built from the block the first time one of them asks, and is never a
source.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Sized
from typing import Any, Optional, Union

from repro.errors import RelationError, SchemaError
from repro.relation.encoding import (
    CodeColumn,
    CodeFold,
    drop_positions,
    encode_columns,
    fold_code_columns,
)
from repro.relation.row import Row
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = ["Relation", "RowPredicate", "NULL"]

#: Predicates used by :meth:`Relation.select` take a row and return a bool.
RowPredicate = Callable[[Row], bool]

#: A folded value's block source: the parent's tuple list, the ascending
#: positions the edit dropped from it and the tuples it appended.
_BlockSource = tuple[list[tuple[Any, ...]], list[int], list[tuple[Any, ...]]]

#: How a fold carries a held summary over (:meth:`Relation.with_delta`):
#: per summary kind (a key's first element), ``patch(summary, key, fold)``
#: returns the folded value's summary, or :data:`_DROPPED` to leave it to
#: a fresh build.  A kind with no entry is dropped.  The division
#: operators' key seam registers its containment bitmaps: one patch for
#: the one row form every ``("containment", a, b)`` bitmap is held in.
_SUMMARY_PATCHES: dict[str, Callable[[Any, tuple[Any, ...], CodeFold], Any]] = {}

#: What a summary patch returns for a summary it cannot carry exactly.
_DROPPED = object()


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

    A relation holds the set as a de-duplicated tuple block, in the order
    its rows were given (the algebra's results too, in first-seen order),
    or, as a plan's result or a table's folded value, as code columns (see
    the module docstring).  ``len`` reads either state; ``to_tuples``,
    ``to_set`` and the algebra read the block (built once from its source
    or the codes), and ``encoded_columns`` renumbers the codes or encodes
    the block.  The row set is a cache: the first iteration, membership
    test, ``rows``, ``==`` or ``hash`` builds it once from the block.  Both
    states answer every method alike; only the scan order of
    :meth:`aligned_tuples` follows how the value was built.

    Parameters
    ----------
    attributes:
        The attribute names of the schema, in display order.
    rows:
        An iterable of rows.  Each row may be a ``Row``, a mapping from
        attribute name to value or a sequence of values aligned with
        ``attributes``; each becomes an aligned value tuple, and no ``Row``
        is built until something asks for rows.  Duplicates are silently
        removed (set semantics), the first one kept.

    Examples
    --------
    >>> r = Relation(["a", "b"], [(1, 1), (1, 4), (2, 1)])
    >>> len(r)
    3
    >>> r.project(["a"]).to_set("a")
    {1, 2}
    """

    __slots__ = (
        "_schema", "_set", "_block", "_block_source", "_encoding", "_codes", "_summaries",
    )  # fmt: skip

    def __init__(
        self,
        attributes: AttributeNames,
        rows: Iterable[Union[Mapping[str, Any], Sequence[Any]]] = (),
    ) -> None:
        schema = Schema.interned(as_schema(attributes).names)
        align = self._aligned_values
        self._hold_block(schema, [align(schema, raw) for raw in rows])

    @staticmethod
    def _aligned_values(
        schema: Schema, raw: Union[Row, Mapping[str, Any], Sequence[Any]]
    ) -> tuple[Any, ...]:
        """``raw`` as a value tuple aligned with ``schema``: no ``Row`` is built."""
        if isinstance(raw, Row):
            raw_schema = raw.schema
            if raw_schema is schema:
                return raw._values
            if raw_schema.name_set == schema.name_set:
                # Same attribute set, possibly another declaration order:
                # realign the value tuple with this relation's schema.
                return raw.values_for(schema)
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
                return tuple(raw[name] for name in schema.names)
            except KeyError:
                raise RelationError(
                    f"row attributes {sorted(raw.keys())!r} do not match schema {schema.names!r}"
                ) from None
        values = tuple(raw)
        if len(values) != len(schema):
            raise RelationError(
                f"row {values!r} has {len(values)} values but schema {schema.names!r} "
                f"has {len(schema)} attributes"
            )
        return values

    @classmethod
    def _from_block(cls, schema: Schema, tuples: list[tuple[Any, ...]]) -> "Relation":
        """Internal constructor of the block state: ``schema`` is interned,
        every tuple aligned with it, and the list is the relation's to keep.
        Duplicates go here (the first one stays, as in a set built from the
        same tuples); no ``Row`` is built."""
        relation = object.__new__(cls)
        relation._hold_block(schema, tuples)
        return relation

    def _hold_block(self, schema: Schema, tuples: list[tuple[Any, ...]]) -> None:
        """Set this value to the block state over ``tuples`` (see
        :meth:`_from_block`), de-duplicated in first-seen order."""
        try:
            if len(set(tuples)) != len(tuples):
                tuples = list(dict.fromkeys(tuples))
        except TypeError:
            Row.block(schema, tuples)  # raises RelationError, naming the tuple
            raise
        self._schema = schema
        self._block = tuples
        #: The row set, a cache built from the block the first time it is
        #: asked for (:attr:`_rows`).
        self._set: Optional[frozenset[Row]] = None
        #: Where a table's folded value gets its block without decoding
        #: (see :meth:`with_delta`); dropped once the block is built.
        self._block_source: Optional[_BlockSource] = None
        self._encoding: Optional[tuple[CodeColumn, ...]] = None
        self._codes: Optional[tuple[CodeColumn, ...]] = None
        #: What :meth:`_summary` derived from the encoding (``None``: nothing yet).
        self._summaries: Optional[dict[Hashable, Any]] = None

    @classmethod
    def _from_columns(cls, schema: Schema, columns: tuple[CodeColumn, ...]) -> "Relation":
        """Internal constructor of the coded state: one aligned code column
        per attribute of ``schema`` (at least one), no tuple twice; nothing
        is decoded."""
        relation = object.__new__(cls)
        relation._schema = schema
        relation._set = relation._block = relation._block_source = relation._encoding = None
        relation._summaries = None
        relation._codes = columns
        return relation

    @classmethod
    def from_aligned(cls, attributes: AttributeNames, tuples: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from value tuples already aligned with the schema.

        Each element of ``tuples`` must be a tuple of values in schema
        attribute order, so no per-row mapping coercion is needed; one of
        another width is refused with a :class:`RelationError` naming it.
        The tuples are copied into a list the relation owns (a later change
        to the caller's list changes nothing) and de-duplicated in
        first-seen order: the relation starts in the block state, its scan
        order is the order given, and no ``Row`` is built until something
        asks for rows.
        """
        schema = Schema.interned(as_schema(attributes).names)
        tuples = list(tuples)
        width = len(schema)
        try:
            wrong = bool(set(map(len, tuples)) - {width})
        except TypeError:  # an element without a length
            wrong = True
        if wrong:
            culprit = next(
                values for values in tuples
                if not isinstance(values, Sized) or len(values) != width
            )  # fmt: skip
            raise RelationError(
                f"from_aligned: {culprit!r} is not a tuple of {width} values "
                f"aligned with {schema.names!r}"
            )
        return cls._from_block(schema, tuples)

    def with_delta(
        self, added: Iterable[tuple[Any, ...]], removed: Iterable[tuple[Any, ...]]
    ) -> "Relation":
        """This value minus ``removed`` plus ``added``: a table after its edits.

        Both are value tuples aligned with this relation's schema:
        ``removed`` tuples it holds, ``added`` tuples it does not, in the
        order they are appended (the catalog's pending delta guarantees
        both).  With a cached encoding the new value is its *code columns*:
        the encoding patched to the scan order "this one's minus the removed
        tuples, then the added ones"
        (:func:`~repro.relation.encoding.fold_code_columns`), which is what a
        fresh encode of that block would give, and the columns' counts and
        bounds (what statistics read) come patched along.  The summaries
        this value holds come over patched by the edit
        (:data:`_SUMMARY_PATCHES`), each equal to what a fresh build on the
        new value would give; one the patch cannot prove exact is left to
        that build.  Nothing else is built: this value's tuple list, if it
        was built, becomes the new value's block source — dropped to the new
        block only if something reads tuples (:meth:`aligned_tuples`; a later
        fold links to that list, or to none).  A zero-attribute value has no
        code column to hold its count, so it folds into a block.  Without a
        cached encoding (or one that cannot be patched) the new block is
        this value's tuples less the removed ones, then the added ones, one
        pass over the table, and encoding and summaries are rebuilt on first
        use, as for any new value.
        """
        added, removed = list(added), list(removed)
        encoding, block = self._encoding, self._block
        if encoding is not None:
            fold = fold_code_columns(encoding, removed, added)
            if fold is not None:
                columns = fold.columns
                if columns:
                    relation = Relation._from_columns(self._schema, columns)
                    relation._encoding = columns
                    relation._summaries = self._carried_summaries(fold)
                    if block is not None:
                        relation._block_source = block, fold.dropped, added
                    return relation
                if block is not None:  # no attribute: nothing to drop
                    relation = Relation._from_block(self._schema, block + added)
                    relation._encoding = columns
                    return relation
        gone = set(removed)
        kept = [values for values in self._value_tuples if values not in gone]
        return Relation._from_block(self._schema, kept + added)

    def _carried_summaries(self, fold: CodeFold) -> Optional[dict[Hashable, Any]]:
        """The summaries this value holds, patched by ``fold`` for the
        folded value (``None``: none carries over)."""
        carried = {}
        for key, summary in (self._summaries or {}).items():
            patch = _SUMMARY_PATCHES.get(key[0])  # type: ignore[index]
            if patch is not None:
                patched = patch(summary, key, fold)  # type: ignore[arg-type]
                if patched is not _DROPPED:
                    carried[key] = patched
        return carried or None

    @property
    def _tuples(self) -> Optional[list[tuple[Any, ...]]]:
        """The tuple block if this value holds it or can have it without
        decoding (a folded value drops its source's list now), else
        ``None``."""
        block = self._block
        if block is None and self._block_source is not None:
            (tuples, dropped, appended), self._block_source = self._block_source, None
            block = self._block = drop_positions(tuples, dropped)
            block += appended
        return block

    @_tuples.setter
    def _tuples(self, tuples: Optional[list[tuple[Any, ...]]]) -> None:
        self._block, self._block_source = tuples, None

    def aligned_tuples(self) -> list[tuple[Any, ...]]:
        """Value tuples of all rows, aligned with the schema (cached).

        The block itself, or, in the coded state, one decode per column
        (unless a folded value's block source has the list); the result is
        cached because scans re-chunk the same relation on every execution.
        """
        tuples = self._tuples
        if tuples is None:
            tuples = self._block = list(zip(*map(CodeColumn.values, self._codes)))  # type: ignore[arg-type]
        return tuples

    @property
    def _value_tuples(self) -> list[tuple[Any, ...]]:
        """Every value tuple once: the block held or linked, else
        :meth:`aligned_tuples` (a decode, or a stored table's read)."""
        tuples = self._tuples
        return self.aligned_tuples() if tuples is None else tuples

    @property
    def _rows(self) -> frozenset[Row]:
        """The row set: a cache, built from the block the first time it is
        asked for."""
        rows = self._set
        if rows is None:
            rows = self._set = frozenset(Row.block(self._schema, self._value_tuples))
        return rows

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
            if self._codes is None:
                encoding = encode_columns(self.aligned_tuples(), len(self._schema))
            else:  # renumbered onto the entries the codes carry: nothing decoded
                encoding = tuple(column.first_seen() for column in self._codes)
            self._encoding = encoding
        return encoding

    def _summary(self, key: Hashable, build: Callable[["Relation"], Any]) -> Any:
        """What ``build`` derives from this value — a column's code
        frequencies, two columns' containment bitmap (the division
        operators') — built on the first ask and kept under ``key``.

        The summaries share the encoding's lifetime: they are this value's,
        so they die with it and never need invalidating.  A table's edit
        folds into a new value, which gets each of them patched by the edit
        where :data:`_SUMMARY_PATCHES` knows how (:meth:`with_delta`), and
        builds the others itself when asked.  A build that raises keeps
        nothing.
        """
        summaries = self._summaries
        if summaries is None:
            summaries = self._summaries = {}
        if key not in summaries:
            summaries[key] = build(self)
        return summaries[key]

    def _summary_columns(self) -> tuple[CodeColumn, ...]:
        """The code columns a summary is built from: the encoding (a stored
        table's value reads its pages instead)."""
        return self.encoded_columns()

    @property
    def summary_source(self) -> str:
        """What :meth:`_summary_columns` reads, as ``explain`` names it."""
        return "the encoding"

    def stored_bitmap(self, a: int, b: int) -> Optional[tuple[Any, list[Any], list[Any]]]:
        """``(words, candidate keys, value keys)`` of the containment bitmap
        of the columns at ``a`` and ``b`` as a saved store holds it (a
        stored table's value), else ``None``: build it from
        :meth:`_summary_columns`."""
        return None

    def column_frequencies(self, position: int) -> tuple[list[Any], Any]:
        """``(dictionary, tuples per entry)`` of the column at ``position``:
        the ``("frequencies", position)`` summary, kept on this value."""

        def build(relation: Relation) -> tuple[list[Any], Any]:
            column = relation._summary_columns()[position]
            return column.dictionary, column.frequencies()

        return self._summary(("frequencies", position), build)

    @property
    def summaries_from_pages(self) -> bool:
        """Whether a summary of this value is built from stored code pages
        without decoding a tuple (a stored table whose every column is
        coded); an in-memory value's summary encodes its tuples first."""
        return False

    @property
    def cached_encoding(self) -> Optional[tuple[CodeColumn, ...]]:
        """:meth:`encoded_columns` if this value already carries it, else
        ``None`` — asking builds nothing.  Every entry of these dictionaries
        occurs in the relation, which no slice or copy of them promises, nor
        the :attr:`code_columns` a plan's result is held as."""
        return self._encoding

    @property
    def code_columns(self) -> Optional[tuple[CodeColumn, ...]]:
        """The code columns this value is held as (a plan's result or a
        table's folded value, see the module docstring), else ``None``; a
        plan result's dictionary may carry entries no tuple holds."""
        return self._codes

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        """Pickle the value as its code columns, else its block — not the
        derived encoding, summaries or rows."""
        codes = self._codes
        return None, {
            "_schema": self._schema,
            "_set": None,
            "_block": self._tuples if codes is None else None,
            "_block_source": None,
            "_encoding": None,
            "_codes": codes,
            "_summaries": None,
        }

    def _tuples_as(self, schema: Schema) -> list[tuple[Any, ...]]:
        """This value's tuples aligned with ``schema``, an order of the same
        attribute set."""
        tuples = self.aligned_tuples()
        if schema is self._schema:
            return tuples
        return list(map(self._schema.tuple_getter(schema), tuples))

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
        block = self._block
        return len(self._codes[0] if block is None else block)  # type: ignore[index]

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        if isinstance(row, Mapping) and not isinstance(row, Row):
            row = Row(dict(row))
        return row in self._rows

    def is_empty(self) -> bool:
        """Return ``True`` if the relation has no rows."""
        return not len(self)

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
        clustered index lays out a table; a saved copy keeps that order, so
        its zone maps skip the blocks a range predicate on ``attributes``
        excludes.  Defaults to the full schema.
        """
        schema = self._schema if attributes is None else as_schema(attributes)
        self._schema.require(schema, "clustered")
        picks = self._schema.picker(schema)
        return Relation._from_block(
            self._schema,
            sorted(
                self.aligned_tuples(),
                key=lambda values: tuple(_sort_key(values[i]) for i in picks),
            ),
        )

    def to_set(self, attribute: str) -> set[Any]:
        """Values of a single attribute as a Python set."""
        self._schema.require([attribute], "to_set")
        position = self._schema.position(attribute)
        return {values[position] for values in self._value_tuples}

    def to_tuples(self, attributes: Optional[AttributeNames] = None) -> set[tuple[Any, ...]]:
        """Rows as value tuples (ordered by ``attributes`` or the schema)."""
        schema = self._schema if attributes is None else as_schema(attributes)
        self._schema.require(schema, "to_tuples")
        if schema.names == self._schema.names:
            return set(self._value_tuples)
        return set(map(self._schema.tuple_getter(schema), self._value_tuples))

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
        return f"Relation(attributes={self._schema.names!r}, rows={len(self)})"

    # ------------------------------------------------------------------
    # unary operators
    # ------------------------------------------------------------------
    def project(self, attributes: AttributeNames) -> "Relation":
        """Projection ``π_A(r)`` with duplicate elimination."""
        target = Schema.interned(self._schema.project(attributes).names)
        get = self._schema.tuple_getter(target)
        return Relation._from_block(target, list(map(get, self.aligned_tuples())))

    def select(self, predicate: RowPredicate) -> "Relation":
        """Selection ``σ_θ(r)``; ``predicate`` is evaluated on every row."""
        tuples = self.aligned_tuples()
        rows = Row.block(self._schema, tuples)
        return Relation._from_block(
            self._schema, [values for values, row in zip(tuples, rows) if predicate(row)]
        )

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes according to ``mapping`` (ρ operator)."""
        new_schema = Schema.interned(self._schema.rename(dict(mapping)).names)
        return Relation._from_block(new_schema, list(self.aligned_tuples()))

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
        return Relation._from_block(
            self._schema, self.aligned_tuples() + other._tuples_as(self._schema)
        )

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection ``r1 ∩ r2``."""
        self._require_same_schema(other, "intersection")
        kept = set(other._tuples_as(self._schema))
        return Relation._from_block(
            self._schema, [values for values in self.aligned_tuples() if values in kept]
        )

    def difference(self, other: "Relation") -> "Relation":
        """Set difference ``r1 − r2``."""
        self._require_same_schema(other, "difference")
        gone = set(other._tuples_as(self._schema))
        return Relation._from_block(
            self._schema, [values for values in self.aligned_tuples() if values not in gone]
        )

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
        right = other.aligned_tuples()
        return Relation._from_block(
            schema, [left + values for left in self.aligned_tuples() for values in right]
        )

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
        for values in other.aligned_tuples():
            index.setdefault(right_key(values), []).append(right_extra(values))
        lookup = index.get
        return Relation._from_block(
            schema,
            [
                values + extras
                for values in self.aligned_tuples()
                for extras in lookup(left_key(values), ())
            ],
        )

    def semijoin(self, other: "Relation") -> "Relation":
        """Left semi-join ``r1 ⋉ r2``: rows of ``r1`` with a join partner."""
        shared = self._schema.intersection(other._schema)
        if not len(shared):
            return self if other else Relation.empty(self._schema)
        left_key = self._schema.key_getter(shared)
        right_key = other._schema.key_getter(shared)
        keys = set(map(right_key, other.aligned_tuples()))
        return Relation._from_block(
            self._schema, [values for values in self.aligned_tuples() if left_key(values) in keys]
        )

    def antijoin(self, other: "Relation") -> "Relation":
        """Left anti-semi-join ``r1 ▷ r2 = r1 − (r1 ⋉ r2)``."""
        return self.difference(self.semijoin(other))

    def left_outer_join(self, other: "Relation") -> "Relation":
        """Left outer join ``r1 ⟕ r2`` padding missing partners with NULL."""
        joined = self.natural_join(other)
        pad = (NULL,) * len(other._schema.difference(self._schema))
        padded = [values + pad for values in self.antijoin(other).aligned_tuples()]
        return Relation._from_block(joined._schema, joined.aligned_tuples() + padded)

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
        tuples = self.aligned_tuples()
        for values, row in zip(tuples, Row.block(self._schema, tuples)):
            groups.setdefault(key_of(values), []).append(row)

        if not groups and not len(group_schema):
            # Global aggregate over an empty relation: one row of aggregates
            # over the empty group, mirroring SQL's behaviour for COUNT.
            groups[()] = []
        aggregate_fns = tuple(fn for (_doc, fn) in aggregations.values())
        return Relation._from_block(
            output_schema,
            [key + tuple(fn(members) for fn in aggregate_fns) for key, members in groups.items()],
        )

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
        projected = [
            over_get(values) for values in self.aligned_tuples() if fixed_get(values) == fixed_values
        ]
        return Relation._from_block(over_schema, projected)


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
