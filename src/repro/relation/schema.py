"""Relation schemas.

A :class:`Schema` is an ordered collection of distinct attribute names.  The
paper treats schemas as plain attribute *sets* (named perspective); we keep
the declaration order purely for stable rendering of figures, while all
comparisons and algebraic operations use set semantics.

Schemas are the backbone of the tuple-backed row representation: every
:class:`~repro.relation.row.Row` stores a plain value tuple aligned with an
*interned* schema.  The schema therefore carries everything needed to make
row operations positional instead of dict-based:

* an attribute → position index (:attr:`_index`),
* a canonical (sorted-name) permutation used to hash rows so that equal
  rows over differently-ordered schemas hash equally (:meth:`hash_values`),
* a per-schema cache of "pickers" — index tuples that project a value tuple
  onto a target attribute list in one pass (:meth:`picker`).

:meth:`Schema.interned` returns a process-wide shared instance per distinct
attribute-name tuple, so rows of the same relation share one schema object
and schema identity checks (``is``) replace name-by-name comparisons on the
hot paths.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import itemgetter
from typing import Any, Optional, Union

from repro.errors import SchemaError

__all__ = ["Schema", "AttributeNames", "as_schema"]

#: Anything accepted where a schema (or attribute list) is expected.
AttributeNames = Union["Schema", Sequence[str], Iterable[str]]

#: Process-wide intern table: attribute-name tuple → shared Schema instance.
#: Weak-valued so one-off schemas (SQL correlation prefixes, generated
#: attribute names) are reclaimed once no row or relation references them.
_INTERNED: "weakref.WeakValueDictionary[tuple[str, ...], Schema]" = weakref.WeakValueDictionary()


class Schema:
    """An ordered set of attribute names.

    Parameters
    ----------
    attributes:
        Attribute names in declaration order.  Names must be nonempty
        strings and must not repeat.

    Examples
    --------
    >>> s = Schema(["a", "b"])
    >>> s.names
    ('a', 'b')
    >>> s | Schema(["c"])
    Schema('a', 'b', 'c')
    """

    __slots__ = (
        "_names",
        "_name_set",
        "_index",
        "_canonical_getter",
        "_picker_cache",
        "_getter_cache",
        "__weakref__",
    )

    def __init__(self, attributes: AttributeNames) -> None:
        if isinstance(attributes, Schema):
            names = attributes.names
        else:
            names = tuple(attributes)
        index: dict[str, int] = {}
        for position, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise SchemaError(f"attribute names must be nonempty strings, got {name!r}")
            if name in index:
                raise SchemaError(f"duplicate attribute name {name!r} in schema {names!r}")
            index[name] = position
        self._names: tuple[str, ...] = names
        self._name_set: frozenset[str] = frozenset(names)
        self._index: dict[str, int] = index
        order = sorted(range(len(names)), key=names.__getitem__)
        #: Permutes an aligned value tuple into canonical (sorted-name) order;
        #: ``None`` when the declaration order already is canonical.
        self._canonical_getter: Optional[Callable] = (
            itemgetter(*order) if any(i != j for i, j in enumerate(order)) else None
        )
        self._picker_cache: Optional[dict[tuple[str, ...], tuple[int, ...]]] = None
        self._getter_cache: Optional[dict[tuple[str, ...], tuple[Callable, Callable]]] = None

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    @classmethod
    def interned(cls, attributes: AttributeNames) -> "Schema":
        """The shared instance for this exact attribute order.

        Rows built from the same interned schema can be compared, hashed and
        projected positionally; ``schema1 is schema2`` then implies both the
        same attribute set *and* the same declaration order.
        """
        if isinstance(attributes, Schema):
            names = attributes._names
        else:
            names = tuple(attributes)
        schema = _INTERNED.get(names)
        if schema is None:
            schema = cls(names)
            _INTERNED[names] = schema
        return schema

    def __reduce__(self) -> tuple[Any, ...]:
        """Pickle as the attribute names: the getter caches hold closures
        (unpicklable, and derived data anyway), and the copy rejoins the
        receiving process's intern table."""
        return Schema.interned, (self._names,)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return self._names

    @property
    def name_set(self) -> frozenset[str]:
        """Attribute names as a frozen set."""
        return self._name_set

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._name_set

    def __getitem__(self, index: int) -> str:
        return self._names[index]

    # ------------------------------------------------------------------
    # positional access (tuple-backed rows)
    # ------------------------------------------------------------------
    def position(self, name: str) -> int:
        """Position of ``name`` in the declaration order (KeyError if absent)."""
        return self._index[name]

    def picker(self, attributes: AttributeNames) -> tuple[int, ...]:
        """Index tuple projecting an aligned value tuple onto ``attributes``.

        ``tuple(values[i] for i in schema.picker(target))`` reorders a value
        tuple aligned with this schema into ``target`` order.  Pickers are
        cached per target attribute tuple.  Raises ``KeyError`` for unknown
        attributes (callers translate to their domain error).
        """
        if isinstance(attributes, Schema):
            names = attributes._names
        elif isinstance(attributes, str):
            names = (attributes,)
        else:
            names = tuple(attributes)
        cache = self._picker_cache
        if cache is None:
            cache = {}
            self._picker_cache = cache
        picks = cache.get(names)
        if picks is None:
            index = self._index
            picks = tuple(index[name] for name in names)
            cache[names] = picks
        return picks

    def getters(self, attributes: AttributeNames) -> tuple[Callable, Callable]:
        """``(tuple_getter, key_getter)`` pair for an attribute list.

        Both take a value tuple aligned with this schema.  The tuple getter
        returns the ``attributes`` values as a tuple; the key getter returns
        a hashable group key — the bare value when there is exactly one
        attribute (cheaper to hash, no allocation), the same tuple
        otherwise.  Built on :func:`operator.itemgetter` so the extraction
        runs at C speed; cached per target attribute tuple.
        """
        if isinstance(attributes, Schema):
            names = attributes._names
        elif isinstance(attributes, str):
            names = (attributes,)
        else:
            names = tuple(attributes)
        cache = self._getter_cache
        if cache is None:
            cache = {}
            self._getter_cache = cache
        getters = cache.get(names)
        if getters is None:
            picks = self.picker(names)
            if not picks:
                getters = (_empty_getter, _empty_getter)
            elif len(picks) == 1:
                position = picks[0]
                getters = (_single_tuple_getter(position), itemgetter(position))
            else:
                getter = itemgetter(*picks)
                getters = (getter, getter)
            cache[names] = getters
        return getters

    def tuple_getter(self, attributes: AttributeNames) -> Callable:
        """Callable mapping an aligned value tuple to the ``attributes`` tuple."""
        return self.getters(attributes)[0]

    def key_getter(self, attributes: AttributeNames) -> Callable:
        """Callable mapping an aligned value tuple to a hashable group key."""
        return self.getters(attributes)[1]

    def hash_values(self, values: tuple[Any, ...]) -> int:
        """Order-insensitive hash of a value tuple aligned with this schema.

        Values are permuted into canonical (sorted-name) order before
        hashing, so equal rows hash equally regardless of the attribute
        order their schemas were declared in.
        """
        canonical = self._canonical_getter
        if canonical is not None:
            values = canonical(values)
        return hash((self._name_set, values))

    # ------------------------------------------------------------------
    # comparisons (set semantics)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Schema):
            return self._name_set == other._name_set
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._name_set)

    def is_disjoint(self, other: AttributeNames) -> bool:
        """Return ``True`` if the two schemas share no attribute."""
        return self._name_set.isdisjoint(as_schema(other).name_set)

    def is_subset(self, other: AttributeNames) -> bool:
        """Return ``True`` if every attribute of ``self`` appears in ``other``."""
        return self._name_set <= as_schema(other).name_set

    def is_superset(self, other: AttributeNames) -> bool:
        """Return ``True`` if ``self`` contains every attribute of ``other``."""
        return self._name_set >= as_schema(other).name_set

    # ------------------------------------------------------------------
    # set operations (order of the left operand is preserved)
    # ------------------------------------------------------------------
    def union(self, other: AttributeNames) -> "Schema":
        """Attributes of ``self`` followed by the new attributes of ``other``."""
        other = as_schema(other)
        extra = [name for name in other.names if name not in self._name_set]
        return Schema(self._names + tuple(extra))

    def intersection(self, other: AttributeNames) -> "Schema":
        """Attributes of ``self`` that also appear in ``other``."""
        other_set = as_schema(other).name_set
        return Schema(tuple(name for name in self._names if name in other_set))

    def difference(self, other: AttributeNames) -> "Schema":
        """Attributes of ``self`` that do not appear in ``other``."""
        other_set = as_schema(other).name_set
        return Schema(tuple(name for name in self._names if name not in other_set))

    def __or__(self, other: AttributeNames) -> "Schema":
        return self.union(other)

    def __and__(self, other: AttributeNames) -> "Schema":
        return self.intersection(other)

    def __sub__(self, other: AttributeNames) -> "Schema":
        return self.difference(other)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def require(self, attributes: AttributeNames, context: str = "operation") -> None:
        """Raise :class:`SchemaError` unless every listed attribute exists."""
        missing = as_schema(attributes).name_set - self._name_set
        if missing:
            raise SchemaError(
                f"{context}: attributes {sorted(missing)!r} are not part of schema {self._names!r}"
            )

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a schema with attributes renamed according to ``mapping``.

        Attributes not mentioned in ``mapping`` keep their names.
        """
        unknown = set(mapping) - self._name_set
        if unknown:
            raise SchemaError(f"rename: unknown attributes {sorted(unknown)!r}")
        return Schema(tuple(mapping.get(name, name) for name in self._names))

    def project(self, attributes: AttributeNames) -> "Schema":
        """Return a schema restricted to ``attributes`` (in the given order)."""
        target = as_schema(attributes)
        self.require(target, "projection")
        return target

    def __repr__(self) -> str:
        inner = ", ".join(repr(name) for name in self._names)
        return f"Schema({inner})"


def _empty_getter(values: tuple[Any, ...]) -> tuple[Any, ...]:
    return ()


def _single_tuple_getter(position: int) -> Callable:
    def getter(values: tuple[Any, ...]) -> tuple[Any, ...]:
        return (values[position],)

    return getter


def as_schema(value: AttributeNames) -> Schema:
    """Coerce ``value`` (schema, sequence or iterable of names) to a Schema."""
    if isinstance(value, Schema):
        return value
    if isinstance(value, str):
        # A bare string is almost always a bug (it would be iterated
        # character by character); treat it as a single attribute name.
        return Schema((value,))
    return Schema(value)
