"""Maintainable-shape analysis for division views.

A view is delta-maintainable when both division inputs are *base tables
under selections and renames*: a chain of ``Select``/``Rename`` nodes over
a single ``RelationRef``.  For such inputs a table delta maps to an input
delta by filtering through the (base-named) selection predicate and
renaming — no joins, unions or projections stand between the table and the
division, so set-semantics deltas stay deltas (Laws 3/4 of the paper:
selection commutes with division on either side).

Anything else — a projection (deleting through ``π`` needs multiplicity
counts the engine does not keep), a join, a nested division — raises
:class:`UnsupportedViewShape`, and ``Database.create_view`` registers the
view in full-recompute fallback mode instead.

:func:`analyze_division` is the one test of maintainability: a view with a
shape is maintained under all four single-table deltas (dividend or
divisor, insert or delete), because each of the paper's union/difference
laws reads as a counter update on that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.expressions import (
    Expression,
    GreatDivide,
    Project,
    RelationRef,
    Rename,
    Select,
    SmallDivide,
)
from repro.algebra.predicates import And, Predicate
from repro.errors import ViewError

__all__ = ["InputShape", "DivisionShape", "UnsupportedViewShape", "analyze_division"]


class UnsupportedViewShape(ViewError):
    """The view's expression has no delta-maintainable form.

    ``reason`` is the human-readable explanation surfaced by
    ``view.explain()`` (``maintained: no (<reason>)``).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class InputShape:
    """One division input normalized to σ/ρ over a base table.

    ``renames`` maps *base* attribute names to the names the division sees
    (identity pairs included, in base-schema order); ``predicate`` is the
    conjunction of all selections, rewritten into base attribute names so
    it can be evaluated directly on table delta rows.
    """

    table: str
    renames: tuple[tuple[str, str], ...]
    predicate: Optional[Predicate]

    def inverse_map(self) -> dict[str, str]:
        """view-side name → base name."""
        return {view: base for base, view in self.renames}


@dataclass(frozen=True)
class DivisionShape:
    """The full delta-routing metadata for a maintainable division view."""

    kind: str  # "small" | "great"
    dividend: InputShape
    divisor: InputShape
    #: View-side attribute names: quotient keys A (dividend order), shared
    #: divisor attributes B (dividend order — both inputs encode B values
    #: in this order so the dictionary bits line up), divisor-only group
    #: keys C (divisor order; empty for small divide).
    a_names: tuple[str, ...]
    b_names: tuple[str, ...]
    c_names: tuple[str, ...]
    #: Output schema names of the quotient, as the expression infers them.
    schema_names: tuple[str, ...]
    #: The view's column order: for each output column, its position in
    #: A+C (the order the counter table emits).
    order: tuple[int, ...]

    @property
    def tables(self) -> frozenset[str]:
        return frozenset({self.dividend.table, self.divisor.table})

    @property
    def in_order(self) -> bool:
        """True when the view answers in A+C order (no permutation)."""
        return self.order == tuple(range(len(self.order)))


def _analyze_input(node: Expression) -> InputShape:
    """Normalize a σ/ρ chain over a base table; raise otherwise."""
    if isinstance(node, RelationRef):
        return InputShape(node.name, tuple((name, name) for name in node.schema.names), None)
    if isinstance(node, Rename):
        inner = _analyze_input(node.child)
        mapping = node.mapping
        renames = tuple((base, mapping.get(view, view)) for base, view in inner.renames)
        return InputShape(inner.table, renames, inner.predicate)
    if isinstance(node, Select):
        inner = _analyze_input(node.child)
        # The predicate references the child's (possibly renamed) names;
        # store it over base names so it applies directly to table deltas.
        rebased = node.predicate.rename(inner.inverse_map())
        combined = rebased if inner.predicate is None else And(inner.predicate, rebased)
        return InputShape(inner.table, inner.renames, combined)
    raise UnsupportedViewShape(
        f"{type(node).__name__} input is not a base table under selections/renames"
    )


def analyze_division(expression: Expression) -> DivisionShape:
    """Extract the :class:`DivisionShape` of a maintainable division view.

    Raises :class:`UnsupportedViewShape` when the expression is not a
    small/great divide over σ/ρ-over-base-table inputs.  A chain of
    top-level ``Rename`` nodes and ``Project`` nodes whose attributes are a
    permutation of their child's (the SQL translator's select-list
    wrapper) is peeled: a rename relabels quotient attributes positionally
    and a permutation keeps every tuple, so the counter table serves the
    outer schema once its A+C tuples are put in the recorded ``order``.
    """
    wrappers: list[Expression] = []
    divide = expression
    while isinstance(divide, Rename) or (
        isinstance(divide, Project)
        and len(divide.attributes) == len(divide.child.schema)
        and divide.attributes.name_set == divide.child.schema.name_set
    ):
        wrappers.append(divide)
        divide = divide.child
    if isinstance(divide, SmallDivide):
        kind = "small"
    elif isinstance(divide, GreatDivide):
        kind = "great"
    else:
        raise UnsupportedViewShape(
            f"top-level operator is {type(divide).__name__}, not a division"
        )
    dividend = _analyze_input(divide.left)
    divisor = _analyze_input(divide.right)

    dividend_schema = divide.left.schema
    divisor_schema = divide.right.schema
    shared = dividend_schema.name_set & divisor_schema.name_set
    a_names = tuple(name for name in dividend_schema.names if name not in shared)
    b_names = tuple(name for name in dividend_schema.names if name in shared)
    c_names = (
        tuple(name for name in divisor_schema.names if name not in shared)
        if kind == "great"
        else ()
    )
    # The divide's own schema is A+C; each peeled projection permutes the
    # positions of its child's columns.
    order = tuple(range(len(a_names) + len(c_names)))
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, Project):
            order = tuple(order[i] for i in wrapper.child.schema.picker(wrapper.attributes))
    return DivisionShape(
        kind=kind,
        dividend=dividend,
        divisor=divisor,
        a_names=a_names,
        b_names=b_names,
        c_names=c_names,
        # The view's output schema: the divide's, through the peeled nodes.
        schema_names=expression.schema.names,
        order=order,
    )
