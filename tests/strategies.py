"""Hypothesis strategies shared by the property-based tests.

The domains are intentionally tiny (a handful of attribute values) so that
interesting containment relationships — full groups, empty divisors,
overlapping partitions — occur with high probability in small examples.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.relation import Relation

#: Small value domain; collisions are the point.
VALUES = st.integers(min_value=0, max_value=3)


def relations(attributes, min_rows: int = 0, max_rows: int = 8, values=VALUES):
    """Strategy producing relations over ``attributes``."""
    attributes = tuple(attributes)
    row = st.tuples(*([values] * len(attributes)))
    return st.lists(row, min_size=min_rows, max_size=max_rows).map(
        lambda rows: Relation(attributes, rows)
    )


def dividends(min_rows: int = 0, max_rows: int = 12):
    """Dividend relations r1(a, b)."""
    return relations(("a", "b"), min_rows=min_rows, max_rows=max_rows)


def divisors(min_rows: int = 0, max_rows: int = 4):
    """Small-divide divisor relations r2(b)."""
    return relations(("b",), min_rows=min_rows, max_rows=max_rows)


def nonempty_divisors(max_rows: int = 4):
    """Divisor relations with at least one tuple."""
    return divisors(min_rows=1, max_rows=max_rows)


def great_divisors(min_rows: int = 0, max_rows: int = 8):
    """Great-divide divisor relations r2(b, c)."""
    return relations(("b", "c"), min_rows=min_rows, max_rows=max_rows)


def wide_dividends(min_rows: int = 0, max_rows: int = 12):
    """Dividend relations r1(a, b1, b2) for the product/join laws."""
    return relations(("a", "b1", "b2"), min_rows=min_rows, max_rows=max_rows)


#: Base tables of :func:`expressions`: ``r1(a, b)``, ``r2(b)``, ``r3(b, c)``.
TABLES = {"r1": ("a", "b"), "r2": ("b",), "r3": ("b", "c")}


@st.composite
def _grown(draw, children):
    """One operator over schema-valid ``children``, valid itself."""
    from repro.algebra import expressions as E
    from repro.algebra import predicates as P

    left = draw(children)
    names = left.schema.names
    unary = draw(st.sampled_from(["select", "project", "rename", "group", "same_schema", "binary"]))
    if unary == "select":
        return E.Select(left, P.equals(P.attr(draw(st.sampled_from(names))), draw(VALUES)))
    if unary == "project":
        kept = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        return E.Project(left, kept)
    if unary == "rename":
        old = draw(st.sampled_from(names))
        return E.Rename(left, {old: old + "_"}) if old + "_" not in names else left
    if unary == "group":
        count = E.AggregateSpec("count", None, "n")
        return E.GroupBy(left, names[:1], [count]) if "n" not in names else left
    if unary == "same_schema":
        kind = draw(st.sampled_from([E.Union, E.Intersection, E.Difference]))
        return kind(left, E.Select(left, P.equals(P.attr(names[0]), draw(VALUES))))
    right = draw(children)
    shared = left.schema.name_set & right.schema.name_set
    rest = right.schema.name_set - shared
    if not shared:
        theta = P.equals(P.attr(names[0]), P.attr(right.schema.names[0]))
        return draw(st.sampled_from([E.Product(left, right), E.ThetaJoin(left, right, theta)]))
    if rest and shared < left.schema.name_set:
        return E.GreatDivide(left, right)
    if not rest and shared < left.schema.name_set:
        return draw(st.sampled_from([E.SmallDivide, E.SemiJoin, E.NaturalJoin]))(left, right)
    return draw(st.sampled_from([E.NaturalJoin, E.AntiJoin, E.LeftOuterJoin]))(left, right)


def expressions(max_leaves: int = 6):
    """Schema-valid logical trees over :data:`TABLES` and small literals."""
    from repro.algebra import expressions as E

    leaves = st.sampled_from(sorted(TABLES)).map(lambda name: E.RelationRef(name, TABLES[name]))
    literals = relations(("a", "b"), max_rows=3).map(E.LiteralRelation)
    return st.recursive(leaves | literals, _grown, max_leaves=max_leaves)
