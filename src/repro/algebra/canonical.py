"""Canonicalization of logical expressions, and canonical fingerprints.

Two trees for the same question can differ only in where they rename
attributes.  A fluent-algebra query, a hand-built tree and an expression
the laws rewrote each place their :class:`~repro.algebra.expressions.Rename`
nodes where it suited them, so the trees — though equivalent — would
neither compare equal nor produce identical physical plans.  (The SQL
translator already emits the canonical placement: it resolves correlation
names in its own scope and renames only where a name changes — an
attribute two FROM items share, a divisor's ON attributes, the output
names — so its trees leave the pull-up little more than identity
projections to drop.)

:func:`canonicalize` normalizes them all to the same tree by *pulling renames up*:

* adjacent renames are composed, identity renames are dropped;
* a rename below a projection / selection / grouping is hoisted above it
  (the operator's attribute references are mapped back to the underlying
  names);
* a rename below a binary operator is hoisted above it, with a minimal
  compensating rename on the other input so that shared-attribute semantics
  (natural join, semi/anti join, division) are preserved exactly.

Renames therefore accumulate at the root, where an output rename cancels
them; what remains is the bare algebraic skeleton.
Every step is validated — if hoisting a rename would change the attribute
set of the node (or is structurally unsafe, e.g. it would introduce an
accidental shared attribute), the node is left untouched.  Canonicalization
is best-effort but *always* semantics-preserving.

:func:`expression_fingerprint` derives a stable hex digest from the
canonical tree; the public API's prepared-plan cache uses it as its key, so
``db.sql(Q2)`` and the equivalent fluent query hit the same cache slot.
"""

from __future__ import annotations

import hashlib

from repro.algebra.expressions import (
    AggregateSpec,
    AntiJoin,
    Difference,
    Expression,
    GreatDivide,
    GroupBy,
    Intersection,
    LeftOuterJoin,
    NaturalJoin,
    Product,
    Project,
    Rename,
    Select,
    SemiJoin,
    SmallDivide,
    ThetaJoin,
    Union,
)
from repro.algebra.predicates import Predicate
from repro.errors import ExpressionError, PredicateError, SchemaError
from repro.relation.relation import Relation

__all__ = ["canonicalize", "expression_fingerprint"]

#: Upper bound on pull-up passes (each pass strictly shrinks or preserves
#: the number of Rename nodes; trees in practice settle in 2-3 passes).
_MAX_PASSES = 10

_SHARED_SEMANTICS = (NaturalJoin, SemiJoin, AntiJoin, LeftOuterJoin, SmallDivide, GreatDivide)
_SAME_SCHEMA = (Union, Intersection, Difference)
_TRANSFORM_ERRORS = (SchemaError, ExpressionError, PredicateError, KeyError)


def canonicalize(expression: Expression) -> Expression:
    """Return the canonical (rename-minimized) form of ``expression``."""
    current = expression
    for _ in range(_MAX_PASSES):
        rewritten = current.transform_bottom_up(_pull_up)
        if rewritten == current:
            break
        current = rewritten
    return current


def expression_fingerprint(expression: Expression, *, assume_canonical: bool = False) -> str:
    """A stable hex fingerprint of the canonical form of ``expression``.

    Structurally equal canonical trees — regardless of how they were built
    (SQL translation, fluent builder, hand-written algebra) — fingerprint
    identically; any semantic difference in operators, attributes,
    predicates or literal relations changes the digest.

    Pass ``assume_canonical=True`` when the caller already canonicalized
    the expression (canonicalization is idempotent, so this only skips a
    redundant pull-up pass — it cannot change the digest).
    """
    canonical = expression if assume_canonical else canonicalize(expression)
    encoded = _encode(canonical._cached_signature())
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the pull-up transformation
# ----------------------------------------------------------------------
def _pull_up(node: Expression) -> Expression:
    """One canonicalization step at ``node`` (children already canonical)."""
    try:
        if isinstance(node, Rename):
            return _simplify_rename(node)
        if isinstance(node, Project):
            return _hoist_through_project(node)
        if isinstance(node, Select):
            return _hoist_through_select(node)
        if isinstance(node, GroupBy):
            return _hoist_through_group_by(node)
        if isinstance(node, _SAME_SCHEMA + _SHARED_SEMANTICS + (Product, ThetaJoin)):
            return _hoist_through_binary(node)
    except _TRANSFORM_ERRORS:
        return node
    return node


def _split_rename(expression: Expression) -> tuple[Expression, dict[str, str]]:
    """Peel a Rename off ``expression``: (base, total old → new mapping)."""
    if isinstance(expression, Rename):
        base = expression.child
        return base, {name: expression.mapping.get(name, name) for name in base.schema.names}
    return expression, {name: name for name in expression.schema.names}


def _wrap(expression: Expression, mapping: dict[str, str], template: Expression) -> Expression:
    """Rename ``expression`` per ``mapping`` (identities stripped) and check
    that the result has exactly the attribute set of ``template``."""
    effective = {old: new for old, new in mapping.items() if old != new}
    result: Expression = Rename(expression, effective) if effective else expression
    if result.schema.name_set != template.schema.name_set:
        raise SchemaError("canonicalization would change the output attribute set")
    return result


def _simplify_rename(node: Rename) -> Expression:
    """Compose adjacent renames and drop identity entries."""
    base, inner = _split_rename(node.child)
    outer = node.mapping
    composed = {name: outer.get(mapped, mapped) for name, mapped in inner.items()}
    return _wrap(base, composed, node)


def _hoist_through_project(node: Project) -> Expression:
    child = node.child
    if node.attributes.name_set == child.schema.name_set:
        # Identity projection: under set semantics it changes nothing, and
        # the child's column order stands (a projection's too).
        return child
    if isinstance(child, Project):
        # π_B(π_A(x)) = π_B(x) whenever B ⊆ A (guaranteed by schema checks).
        return Project(child.child, node.attributes)
    if not isinstance(child, Rename):
        return node
    base, mapping = _split_rename(child)
    inverse = _invert(mapping)
    underlying = [inverse[name] for name in node.attributes.names]
    hoisted = {old: mapping[old] for old in underlying}
    return _wrap(Project(base, underlying), hoisted, node)


def _hoist_through_select(node: Select) -> Expression:
    base, mapping = _split_rename(node.child)
    if not isinstance(node.child, Rename):
        return node
    predicate = node.predicate.rename(_invert(mapping))
    return _wrap(Select(base, predicate), mapping, node)


def _hoist_through_group_by(node: GroupBy) -> Expression:
    base, mapping = _split_rename(node.child)
    if not isinstance(node.child, Rename):
        return node
    inverse = _invert(mapping)
    grouping = [inverse[name] for name in node.grouping.names]
    aggregate_outputs = {spec.output for spec in node.aggregates}
    if any(name in aggregate_outputs for name in grouping):
        return node  # hoisting would collide a grouping name with an aggregate output
    aggregates = tuple(
        AggregateSpec(
            spec.function,
            None if spec.attribute is None else inverse.get(spec.attribute, spec.attribute),
            spec.output,
        )
        for spec in node.aggregates
    )
    hoisted = {old: mapping[old] for old in grouping}
    return _wrap(GroupBy(base, grouping, aggregates), hoisted, node)


def _hoist_through_binary(node: Expression) -> Expression:
    left, right = node.children
    if not isinstance(left, Rename) and not isinstance(right, Rename):
        return node
    base_left, left_map = _split_rename(left)
    base_right, right_map = _split_rename(right)
    left_inverse = _invert(left_map)
    left_names = set(base_left.schema.names)
    left_effective = set(left_map.values())

    if isinstance(node, _SAME_SCHEMA):
        compensate = {old: left_inverse[new] for old, new in right_map.items()}
        rebuilt = type(node)(base_left, _wrap(base_right, compensate, base_left))
        return _wrap(rebuilt, dict(left_map), node)

    if isinstance(node, _SHARED_SEMANTICS):
        shared_effective = left_effective & set(right_map.values())
        compensate: dict[str, str] = {}
        taken = {left_inverse[name] for name in shared_effective}
        for old, new in right_map.items():
            if new in shared_effective:
                compensate[old] = left_inverse[new]
            else:
                # A right-only attribute: prefer its underlying name, but it
                # must neither capture a left attribute (which would create
                # an accidental shared attribute) nor collide on the right.
                for candidate in (old, new):
                    if candidate not in left_names and candidate not in taken:
                        compensate[old] = candidate
                        taken.add(candidate)
                        break
                else:
                    return node
        rebuilt = type(node)(base_left, _wrap_partial(base_right, compensate))
        output = dict(left_map)
        output.update({compensate[old]: new for old, new in right_map.items()})
        output = {old: new for old, new in output.items() if old in rebuilt.schema.name_set}
        return _wrap(rebuilt, output, node)

    # Product / ThetaJoin: disjoint schemas, no shared-attribute semantics.
    compensate = {}
    taken = set(left_names)
    for old, new in right_map.items():
        for candidate in (old, new):
            if candidate not in taken:
                compensate[old] = candidate
                taken.add(candidate)
                break
        else:
            return node
    new_right = _wrap_partial(base_right, compensate)
    if isinstance(node, ThetaJoin):
        effective_to_new = {new: old for old, new in left_map.items() if new != old}
        effective_to_new.update(
            {right_map[old]: new for old, new in compensate.items() if right_map[old] != new}
        )
        predicate = node.predicate.rename(effective_to_new) if effective_to_new else node.predicate
        rebuilt: Expression = ThetaJoin(base_left, new_right, predicate)
    else:
        rebuilt = Product(base_left, new_right)
    output = dict(left_map)
    output.update({compensate[old]: new for old, new in right_map.items()})
    return _wrap(rebuilt, output, node)


def _wrap_partial(expression: Expression, mapping: dict[str, str]) -> Expression:
    """Rename without the output-schema check (used for compensating sides)."""
    effective = {old: new for old, new in mapping.items() if old != new}
    return Rename(expression, effective) if effective else expression


def _invert(mapping: dict[str, str]) -> dict[str, str]:
    inverse = {new: old for old, new in mapping.items()}
    if len(inverse) != len(mapping):
        raise SchemaError(f"rename mapping {mapping!r} is not invertible")
    return inverse


# ----------------------------------------------------------------------
# stable encoding of expression signatures
# ----------------------------------------------------------------------
def _encode(value: object) -> str:
    """Deterministically encode a signature component as a string."""
    if isinstance(value, tuple):
        return "(" + ",".join(_encode(item) for item in value) + ")"
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(_encode(item) for item in value)) + "}"
    if isinstance(value, Relation):
        names = tuple(sorted(value.schema.names))
        rows = sorted(repr(row.values_for(names)) for row in value)
        return "rel(" + _encode(names) + ";" + ",".join(rows) + ")"
    if isinstance(value, AggregateSpec):
        return "agg(" + value.to_text() + ")"
    if isinstance(value, Predicate):
        return "pred(" + repr(value) + ")"
    if isinstance(value, (str, int, float, bool)) or value is None:
        return repr(value)
    return f"{type(value).__name__}:{value!r}"
