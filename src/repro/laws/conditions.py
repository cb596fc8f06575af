"""Precondition predicates used by the laws (Section 5 of the paper).

These functions operate on *relation values*; the rewrite rules call them
through :class:`~repro.laws.base.RewriteContext` when they are allowed to
inspect data, and the tests call them directly to exercise both the
positive and the negative cases (e.g. Figure 5, where condition ``c1`` is
violated).

The projection conditions (key-ness, inclusion, disjointness, ``c2``) all
ask one helper, :func:`_distinct_values`, for the distinct values of
``π_attributes(operand)``.  A relation that already carries its dictionary
encoding — every base table a query names does, statistics read it before
the rewriter runs and an edit's fold carries it over — answers from the
dictionaries; a coded operand (a plan's result held as code columns)
answers one attribute from the codes it carries, and a stored table
from its pages' code frequencies, without decoding a tuple; anything else
takes one sweep over its aligned tuples.  No
condition builds a ``Row`` or an intermediate relation; the tuple
definitions they replaced live on in ``tests/laws/test_conditions.py`` as
the reference these are compared against.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import Any

from repro.division.schemas import small_divide_schemas
from repro.relation.encoding import select_items
from repro.relation.relation import Relation
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = [
    "condition_c1",
    "condition_c2",
    "projections_disjoint",
    "is_superset_of",
    "inclusion_holds",
    "attribute_is_key",
]


def _distinct_values(operand: Relation, schema: Schema) -> Collection[Any]:
    """The distinct values of ``π_schema(operand)``, each exactly once.

    Bare values for a single attribute, value tuples (in ``schema`` order)
    otherwise — the same convention on both paths, so the collections of
    two operands compare directly.

    With a cached encoding the answer for one attribute is its dictionary
    *itself*: every entry of a relation's own dictionary occurs (a fresh
    :func:`~repro.relation.encoding.encode_columns` by construction, a
    folded edit by :func:`~repro.relation.encoding.fold_code_columns`'
    first-seen canonicalisation).  That holds for the relation's own cache
    only — a chunk's slice, a ``bounded()`` column, a stored page or a
    plan result's :attr:`~repro.relation.relation.Relation.code_columns`
    share dictionaries with entries they do not carry, so the last answers
    from its codes (each distinct code looked up once).  A stored table
    answers from its ``("frequencies", p)`` summary, built from its pages
    with no tuple kept: the dictionary entries some tuple holds (a stored
    dictionary may carry entries no tuple does).  Several attributes (or
    none) take the sweep whether or not the operand is encoded.
    """
    operand.schema.require(schema, "precondition check")
    picks = operand.schema.picker(schema)
    if len(picks) == 1:
        encoding = operand.cached_encoding
        if encoding is not None:
            return encoding[picks[0]].dictionary
        if operand.code_columns is not None:
            return operand.code_columns[picks[0]].distinct_values()
        if operand.summaries_from_pages:
            dictionary, frequencies = operand.column_frequencies(picks[0])
            return select_items(dictionary, frequencies)
    return frozenset(map(operand.schema.key_getter(schema), operand.aligned_tuples()))


def condition_c1(part1: Relation, part2: Relation, divisor: Relation) -> bool:
    """Condition ``c1(r1', r1'')`` of Law 2.

    For every quotient candidate ``a`` appearing in *both* dividend
    partitions, either one of the partitions already contains the whole
    divisor in ``a``'s group, or even the union of the two groups does not —
    i.e. the quotient membership of ``a`` is decided identically with or
    without the union.  Each operand is read in one sweep over its aligned
    tuples.
    """
    schemas = small_divide_schemas(part1, divisor)
    divisor_values = set(map(divisor.schema.tuple_getter(schemas.b), divisor.aligned_tuples()))

    def groups(relation: Relation) -> dict[tuple[Any, ...], set[tuple[Any, ...]]]:
        """Each quotient candidate's ``b`` values in ``relation``."""
        key_of = relation.schema.tuple_getter(schemas.a)
        b_of = relation.schema.tuple_getter(schemas.b)
        grouped: dict[tuple[Any, ...], set[tuple[Any, ...]]] = {}
        for values in relation.aligned_tuples():
            grouped.setdefault(key_of(values), set()).add(b_of(values))
        return grouped

    first, second = groups(part1), groups(part2)
    for key in first.keys() & second.keys():
        group1, group2 = first[key], second[key]
        in_first = divisor_values <= group1
        in_second = divisor_values <= group2
        in_union = divisor_values <= (group1 | group2)
        if not (in_first or in_second or not in_union):
            return False
    return True


def condition_c2(part1: Relation, part2: Relation, quotient_attributes: AttributeNames) -> bool:
    """Condition ``c2(r1', r1'')`` of Law 2: disjoint quotient candidates.

    ``π_A(r1') ∩ π_A(r1'') = ∅`` — stricter than ``c1`` but cheap to check
    (and trivially guaranteed by range partitioning on ``A``).
    """
    schema = as_schema(quotient_attributes)
    return projections_disjoint(part1, part2, schema)


def projections_disjoint(left: Relation, right: Relation, attributes: AttributeNames) -> bool:
    """``π_attributes(left) ∩ π_attributes(right) = ∅`` (used by Laws 7 and 13)."""
    schema = as_schema(attributes)
    return frozenset(_distinct_values(left, schema)).isdisjoint(_distinct_values(right, schema))


def is_superset_of(left: Relation, right: Relation) -> bool:
    """``left ⊇ right`` over identical schemas (precondition of Law 6).

    Inclusion over the whole schema, read from both value blocks in
    ``left``'s column order (two equal schemas may list their attributes in
    different orders).
    """
    return left.schema == right.schema and inclusion_holds(right, left, left.schema)


def inclusion_holds(source: Relation, target: Relation, attributes: AttributeNames) -> bool:
    """``π_attributes(source) ⊆ π_attributes(target)`` (Law 9 / Law 12 FK check)."""
    schema = as_schema(attributes)
    return frozenset(_distinct_values(target, schema)).issuperset(_distinct_values(source, schema))


def attribute_is_key(relation: Relation, attributes: AttributeNames) -> bool:
    """True if ``attributes`` functionally determine the whole tuple.

    Laws 11 and 12 require the dividend to be the output of a grouping,
    which makes the grouping attributes a key; when the dividend is a base
    table this data-level check is the fallback for a missing declaration:
    as many distinct ``attributes`` values as tuples.
    """
    return len(_distinct_values(relation, as_schema(attributes))) == len(relation)
