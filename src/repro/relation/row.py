"""Immutable rows (named tuples of attribute values).

A :class:`Row` maps attribute names to hashable values.  Rows are the
elements of a :class:`~repro.relation.relation.Relation`; because the paper
(and hence this library) uses *set* semantics throughout, rows must be
hashable and comparable by value.

Representation: a row stores an interned :class:`~repro.relation.schema.Schema`
plus a plain value tuple aligned with it — no per-row dict.  Equality and
hashing remain attribute-order-insensitive (``Row({"a": 1, "b": 2}) ==
Row({"b": 2, "a": 1})``) because hashing permutes the values into canonical
(sorted-name) order.  The full :class:`Mapping` API is preserved, so rows
still behave like read-only dicts everywhere.

Hot paths construct rows with :meth:`Row.from_schema`, which takes an
already-interned schema and an aligned value tuple and touches no dict at
all — and whole blocks of them with :meth:`Row.block`, which hashes the
block in one C-level pass.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import repeat
from typing import Any

from repro.errors import RelationError, RowAttributeError, SchemaError
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = ["Row"]


class Row(Mapping):
    """An immutable mapping from attribute name to value.

    Examples
    --------
    >>> r = Row({"a": 1, "b": 2})
    >>> r["a"]
    1
    >>> r.project(["b"])
    Row(b=2)
    """

    __slots__ = ("_schema", "_values", "_hash")

    def __init__(self, values: Mapping[str, Any]) -> None:
        if isinstance(values, Row):
            self._schema = values._schema
            self._values = values._values
            self._hash = values._hash
            return
        names = tuple(values.keys())
        for name in names:
            if not isinstance(name, str) or not name:
                raise RelationError(f"row attribute names must be nonempty strings, got {name!r}")
        try:
            schema = Schema.interned(names)
        except SchemaError as exc:
            raise RelationError(str(exc)) from exc
        value_tuple = tuple(values.values())
        self._schema = schema
        self._values = value_tuple
        try:
            self._hash = schema.hash_values(value_tuple)
        except TypeError as exc:  # unhashable attribute value
            raise RelationError(
                f"row values must be hashable: {dict(zip(names, value_tuple))!r}"
            ) from exc

    @classmethod
    def from_schema(cls, schema: Schema, values: tuple[Any, ...]) -> "Row":
        """Fast constructor from an interned schema and an aligned value tuple.

        The caller guarantees ``len(values) == len(schema)`` and that
        ``schema`` came from :meth:`Schema.interned`; no dict is built.
        """
        row = object.__new__(cls)
        row._schema = schema
        row._values = values
        try:
            row._hash = schema.hash_values(values)
        except TypeError as exc:  # unhashable attribute value
            raise RelationError(f"row values must be hashable: {values!r}") from exc
        return row

    @classmethod
    def block(cls, schema: Schema, tuples: Iterable[tuple[Any, ...]]) -> list["Row"]:
        """``[Row.from_schema(schema, values) for values in tuples]``, a block
        at a time: every hash in one C-level pass, then three slot stores a
        row (half the time of the per-row constructor on two attributes)."""
        if not isinstance(tuples, list):
            tuples = list(tuples)
        canonical = schema._canonical_getter
        ordered = tuples if canonical is None else map(canonical, tuples)
        try:
            hashes = list(map(hash, zip(repeat(schema._name_set), ordered)))
        except TypeError:
            for values in tuples:
                cls.from_schema(schema, values)  # raises, naming the tuple
            raise
        new = object.__new__
        rows = []
        append = rows.append
        for values, hashed in zip(tuples, hashes):
            row = new(cls)
            row._schema = schema
            row._values = values
            row._hash = hashed
            append(row)
        return rows

    # ------------------------------------------------------------------
    # representation accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The (interned) schema this row's value tuple is aligned with."""
        return self._schema

    @property
    def values_tuple(self) -> tuple[Any, ...]:
        """The raw value tuple, aligned with :attr:`schema`.

        Named ``values_tuple`` (not ``values``) so the :class:`Mapping`
        protocol's ``values()`` view stays intact.
        """
        return self._values

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        position = self._schema._index.get(name)
        if position is None:
            raise RowAttributeError(
                f"row has no attribute {name!r}; available: {sorted(self._schema._names)}"
            )
        return self._values[position]

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema._names)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: object) -> bool:
        return name in self._schema._index

    # ------------------------------------------------------------------
    # value semantics
    # ------------------------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            if self._schema is other._schema:
                return self._values == other._values
            if self._schema._name_set != other._schema._name_set:
                return False
            other_index = other._schema._index
            other_values = other._values
            names = self._schema._names
            values = self._values
            return all(
                values[i] == other_values[other_index[names[i]]] for i in range(len(names))
            )
        if isinstance(other, Mapping):
            return dict(zip(self._schema._names, self._values)) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in sorted(zip(self._schema._names, self._values))
        )
        return f"Row({inner})"

    # ------------------------------------------------------------------
    # algebraic helpers
    # ------------------------------------------------------------------
    def project(self, attributes: AttributeNames) -> "Row":
        """Return a new row restricted to ``attributes``."""
        target = Schema.interned(as_schema(attributes).names)
        try:
            getter = self._schema.tuple_getter(target.names)
        except KeyError as exc:
            raise RowAttributeError(
                f"row has no attribute {exc.args[0]!r}; available: {sorted(self._schema._names)}"
            ) from None
        return Row.from_schema(target, getter(self._values))

    def rename(self, mapping: Mapping[str, str]) -> "Row":
        """Return a new row with attributes renamed according to ``mapping``."""
        names = tuple(mapping.get(name, name) for name in self._schema._names)
        try:
            schema = Schema.interned(names)
        except SchemaError as exc:
            raise RelationError(str(exc)) from exc
        return Row.from_schema(schema, self._values)

    def merge(self, other: "Row") -> "Row":
        """Concatenate two rows (used by products and joins).

        Shared attributes must agree on their value; otherwise the merge is
        rejected, because the natural-join semantics of the library never
        merges rows that disagree on common attributes.
        """
        self_schema, other_schema = self._schema, other._schema
        if self_schema._name_set.isdisjoint(other_schema._name_set):
            schema = Schema.interned(self_schema._names + other_schema._names)
            return Row.from_schema(schema, self._values + other._values)
        merged = dict(zip(self_schema._names, self._values))
        for name, value in zip(other_schema._names, other._values):
            if name in merged and merged[name] != value:
                raise RelationError(
                    f"cannot merge rows that disagree on attribute {name!r}: "
                    f"{merged[name]!r} != {value!r}"
                )
            merged[name] = value
        return Row(merged)

    def values_for(self, attributes: AttributeNames) -> tuple[Any, ...]:
        """Return the values of ``attributes`` as a tuple (in the given order)."""
        try:
            getter = self._schema.tuple_getter(attributes)
        except KeyError as exc:
            raise RowAttributeError(
                f"row has no attribute {exc.args[0]!r}; available: {sorted(self._schema._names)}"
            ) from None
        return getter(self._values)

    def with_values(self, updates: Mapping[str, Any]) -> "Row":
        """Return a new row with the given attributes added or replaced."""
        merged = dict(zip(self._schema._names, self._values))
        merged.update(updates)
        return Row(merged)
