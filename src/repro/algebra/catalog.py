"""Catalog: named relations plus integrity constraints.

Several laws of the paper have preconditions that go beyond schemas:

* Law 9 and Example 3 need a *foreign key* / inclusion dependency
  ``π_{B2}(r2) ⊆ r1**``;
* Law 11 needs the dividend grouped such that each quotient candidate has a
  single tuple (guaranteed when ``A`` is a key, e.g. the output of a
  grouping);
* Law 12 additionally needs ``r2.B`` to be a foreign key referencing
  ``r1.B``.

The :class:`Catalog` records these constraints so that rewrite rules can
check them declaratively, and it doubles as the database (name → relation
mapping) the evaluator and the physical executor read from.

Edits are O(delta): :meth:`Catalog.apply_delta` records the rows an edit
adds and removes beside the table's immutable relation value, and the
first *read* of the table (``catalog[name]`` — the one way every reader
gets at a relation) folds what is pending into a new value.  Declared keys
are enforced on the way in, so a law that trusts ``has_key`` never sees a
table that breaks it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Any

from repro.algebra.expressions import RelationRef
from repro.errors import SchemaError
from repro.relation.relation import Relation
from repro.relation.row import Row
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = ["Catalog", "ForeignKey"]


@dataclass(frozen=True)
class ForeignKey:
    """An inclusion dependency: ``π_attrs(table) ⊆ π_ref_attrs(ref_table)``."""

    table: str
    attributes: tuple[str, ...]
    ref_table: str
    ref_attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.attributes) != len(self.ref_attributes):
            raise SchemaError(
                "foreign key: the referencing and referenced attribute lists must have "
                f"the same length, got {self.attributes!r} and {self.ref_attributes!r}"
            )


class Catalog(Mapping[str, Relation]):
    """A set of named relations with optional key and foreign-key constraints.

    The catalog implements the ``Mapping[str, Relation]`` protocol, so it can
    be passed directly to :meth:`Expression.evaluate`.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Relation] = {}
        #: Edits not yet folded into ``_tables``: per table the rows added
        #: (insertion-ordered) and the rows of the base value removed.
        self._pending: dict[str, tuple[dict[Row, None], set[Row]]] = {}
        self._keys: dict[str, set[frozenset[str]]] = {}
        #: Per declared key the count of each key value among the table's
        #: current rows; built by the first edit of a table that has a key.
        self._key_counts: dict[str, dict[frozenset[str], Counter[Any]]] = {}
        self._foreign_keys: list[ForeignKey] = []

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Relation:
        if name in self._pending:
            return self._fold(name)
        return self._tables[name]

    def __contains__(self, name: object) -> bool:
        # The Mapping mixin would call __getitem__ and fold the table.
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    def _fold(self, name: str) -> Relation:
        """Fold the pending delta of ``name`` into a new relation value."""
        added, removed = self._pending.pop(name)
        relation = self._tables[name]
        if added or removed:
            relation = self._tables[name] = relation.with_delta(added, removed)
        return relation

    # ------------------------------------------------------------------
    # definition API
    # ------------------------------------------------------------------
    def add_table(
        self,
        name: str,
        relation: Relation,
        key: AttributeNames | None = None,
    ) -> RelationRef:
        """Register a relation and return a :class:`RelationRef` to it."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} is already defined")
        self._tables[name] = relation
        if key is not None:
            self.declare_key(name, key)
        return RelationRef(name, relation.schema)

    def replace_table(self, name: str, relation: Relation) -> None:
        """Replace the contents of an existing table (same schema required).

        Refused with :class:`SchemaError` when the new contents violate a
        declared key; pending edits of the old contents are dropped.
        """
        schema = self.schema(name)
        if schema != relation.schema:
            raise SchemaError(
                f"replace_table: schema of {name!r} would change from "
                f"{schema.names!r} to {relation.schema.names!r}"
            )
        if self._keys.get(name):
            counts = self._count_keys(name, relation)
            for key, counter in counts.items():
                if len(counter) != len(relation):
                    ((value, _count),) = counter.most_common(1)
                    raise SchemaError(
                        f"replace_table: key {sorted(key)!r} of table {name!r} would be "
                        f"violated: {value!r} occurs more than once"
                    )
            self._key_counts[name] = counts
        self._pending.pop(name, None)
        self._tables[name] = relation

    def apply_delta(
        self, name: str, inserted: Iterable[Row], deleted: Iterable[Row]
    ) -> tuple[list[Row], list[Row]]:
        """Record an edit of ``name`` and return its *effective* rows.

        ``(current − deleted) ∪ inserted`` under set semantics, in
        O(delta): membership is read off the base value and the pending
        delta, nothing is copied and nothing is folded.  A row counts as
        inserted when the table does not hold it (inserting a
        pending-removed row cancels the removal), as deleted when it does
        (deleting a pending-added row cancels the addition).  Rows must be
        aligned with the table's schema (:meth:`schema`).  An edit that
        would break a declared key raises :class:`SchemaError` and records
        nothing.
        """
        keyed = bool(self._keys.get(name))
        if keyed and name not in self._key_counts:
            # Counts the folded table, so before any pending state is read.
            self._key_counts[name] = self._count_keys(name, self[name])
        rows = self._require_table(name).rows
        added, removed = self._pending.get(name) or ({}, set())

        def held(row: Row) -> bool:
            return row in added or (row in rows and row not in removed)

        gone = dict.fromkeys(filter(held, deleted))
        new = dict.fromkeys(row for row in inserted if row in gone or not held(row))
        if not gone and not new:
            return [], []
        if keyed:
            self._claim_keys(name, new, gone)
        for row in gone:
            if row in added:
                del added[row]
            else:
                removed.add(row)
        for row in new:
            if row in removed:
                removed.discard(row)
            else:
                added[row] = None
        self._pending[name] = added, removed
        return list(new), list(gone)

    def _count_keys(self, name: str, relation: Relation) -> dict[frozenset[str], Counter[Any]]:
        """Per declared key of ``name``: key value → rows of ``relation`` carrying it."""
        schema, tuples = relation.schema, relation.aligned_tuples()
        return {
            key: Counter(map(schema.tuple_getter(sorted(key)), tuples))
            for key in self._keys[name]
        }

    def _claim_keys(self, name: str, new: Iterable[Row], gone: Iterable[Row]) -> None:
        """Move the key counts of ``name`` to "minus ``gone`` plus ``new``",
        or raise (counts untouched) if a key value would occur twice."""
        schema = self.schema(name)
        shifts = []
        for key, counter in self._key_counts[name].items():
            getter = schema.tuple_getter(sorted(key))
            shift = Counter(getter(row.values_tuple) for row in new)
            shift.subtract(getter(row.values_tuple) for row in gone)
            for row in new:
                value = getter(row.values_tuple)
                if counter[value] + shift[value] > 1:
                    raise SchemaError(
                        f"key {sorted(key)!r} of table {name!r} would be violated by "
                        f"row {row!r}: {value!r} is already taken"
                    )
            shifts.append((counter, shift))
        for counter, shift in shifts:
            counter.update(shift)
            for value in shift:
                if not counter[value]:
                    del counter[value]

    def declare_key(self, name: str, attributes: AttributeNames) -> None:
        """Declare ``attributes`` as a candidate key of ``name``."""
        schema = as_schema(attributes)
        self.schema(name).require(schema, f"key of {name}")
        self._keys.setdefault(name, set()).add(frozenset(schema.name_set))
        self._key_counts.pop(name, None)

    def declare_foreign_key(
        self,
        table: str,
        attributes: AttributeNames,
        ref_table: str,
        ref_attributes: AttributeNames,
    ) -> None:
        """Declare the inclusion dependency ``table.attributes ⊆ ref_table.ref_attributes``."""
        src_schema = as_schema(attributes)
        dst_schema = as_schema(ref_attributes)
        self.schema(table).require(src_schema, f"foreign key of {table}")
        self.schema(ref_table).require(dst_schema, f"foreign key target of {ref_table}")
        self._foreign_keys.append(
            ForeignKey(table, tuple(src_schema.names), ref_table, tuple(dst_schema.names))
        )

    def ref(self, name: str) -> RelationRef:
        """A :class:`RelationRef` expression for a registered table."""
        return RelationRef(name, self.schema(name))

    def schema(self, name: str) -> Schema:
        """The schema of a registered table (edits never change it)."""
        return self._require_table(name).schema

    # ------------------------------------------------------------------
    # constraint queries used by rewrite-rule preconditions
    # ------------------------------------------------------------------
    def has_key(self, name: str, attributes: AttributeNames) -> bool:
        """True if some declared key of ``name`` is a subset of ``attributes``.

        A superset of a key is itself a superkey, which is what the laws
        need ("each group defined by these attributes has one tuple").
        """
        candidate = frozenset(as_schema(attributes).name_set)
        return any(key <= candidate for key in self._keys.get(name, ()))

    def has_foreign_key(
        self,
        table: str,
        attributes: AttributeNames,
        ref_table: str,
        ref_attributes: AttributeNames,
    ) -> bool:
        """True if the given inclusion dependency has been declared."""
        probe = ForeignKey(
            table,
            tuple(as_schema(attributes).names),
            ref_table,
            tuple(as_schema(ref_attributes).names),
        )
        return probe in self._foreign_keys

    @property
    def foreign_keys(self) -> tuple[ForeignKey, ...]:
        """All declared foreign keys."""
        return tuple(self._foreign_keys)

    @property
    def declared_keys(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        """Every declared candidate key per table, deterministically ordered.

        Used by :mod:`repro.storage` to persist the constraints alongside
        the data so that a reopened store keeps the same rewrite-law
        preconditions available.
        """
        return {
            name: tuple(tuple(sorted(key)) for key in sorted(keys, key=sorted))
            for name, keys in self._keys.items()
            if keys
        }

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that the data satisfies every declared key and foreign key.

        Raises :class:`SchemaError` on the first violated constraint.  The
        checks are intentionally eager and simple; the catalog holds
        laptop-scale synthetic data.
        """
        for name, keys in self._keys.items():
            relation = self[name]
            for key in keys:
                key_schema = as_schema(sorted(key))
                if len(relation.project(key_schema)) != len(relation):
                    raise SchemaError(f"key {sorted(key)!r} of table {name!r} is violated")
        for fk in self._foreign_keys:
            source = self[fk.table]
            target = self[fk.ref_table]
            source_values = {row.values_for(fk.attributes) for row in source}
            target_values = {row.values_for(fk.ref_attributes) for row in target}
            if not source_values <= target_values:
                raise SchemaError(
                    f"foreign key {fk.table}.{fk.attributes!r} -> "
                    f"{fk.ref_table}.{fk.ref_attributes!r} is violated"
                )

    def _require_table(self, name: str) -> Relation:
        """The *base* value of a table — pending edits not applied; only
        its schema and its rows-as-of-the-last-fold may be read off it."""
        if name not in self._tables:
            raise SchemaError(f"table {name!r} is not defined")
        return self._tables[name]
