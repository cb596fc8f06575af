"""JSON payloads for maintained views (manifest persistence).

A maintainable view is fully determined by its :class:`DivisionShape`:
two base tables, each under an optional selection (stored over *base*
attribute names) and a rename, and the view's column order.  That is
what the manifest stores — the counter table itself is rebuilt
deterministically from the reopened base tables on first read, which keeps
``repro.connect(path)`` lazy.

Predicates serialize the small AST of :mod:`repro.algebra.predicates`;
literals must be JSON-representable scalars or the save fails loudly
(the manifest would silently corrupt them otherwise).
"""

from __future__ import annotations

from typing import Any

from repro.algebra import predicates as P
from repro.errors import ViewError
from repro.views.shapes import InputShape
from repro.views.view import MaintainedView, require_persistable

__all__ = ["view_payload", "view_from_payload", "predicate_payload", "predicate_from_payload"]

_JSON_SCALARS = (int, float, str, bool, type(None))


def predicate_payload(predicate: P.Predicate) -> dict[str, Any]:
    """Serialize a predicate AST; raises :class:`ViewError` on non-JSON
    literals or unknown node types."""
    if isinstance(predicate, P.TruePredicate):
        return {"kind": "true"}
    if isinstance(predicate, P.FalsePredicate):
        return {"kind": "false"}
    if isinstance(predicate, P.Not):
        return {"kind": "not", "operand": predicate_payload(predicate.operand)}
    if isinstance(predicate, P.And):
        return {"kind": "and", "operands": [predicate_payload(p) for p in predicate.operands]}
    if isinstance(predicate, P.Or):
        return {"kind": "or", "operands": [predicate_payload(p) for p in predicate.operands]}
    if isinstance(predicate, P.Comparison):
        return {
            "kind": "comparison",
            "operator": predicate.operator,
            "left": _term_payload(predicate.left),
            "right": _term_payload(predicate.right),
        }
    raise ViewError(f"cannot persist predicate node {type(predicate).__name__}")


def _term_payload(term: P.Term) -> dict[str, Any]:
    if isinstance(term, P.AttributeRef):
        return {"term": "attr", "name": term.name}
    if isinstance(term, P.Literal):
        if not isinstance(term.value, _JSON_SCALARS):
            raise ViewError(
                f"cannot persist literal {term.value!r} "
                f"({type(term.value).__name__} is not JSON-representable)"
            )
        return {"term": "lit", "value": term.value}
    raise ViewError(f"cannot persist term {type(term).__name__}")


def predicate_from_payload(payload: dict[str, Any]) -> P.Predicate:
    kind = payload["kind"]
    if kind == "true":
        return P.TRUE
    if kind == "false":
        return P.FALSE
    if kind == "not":
        return P.Not(predicate_from_payload(payload["operand"]))
    if kind == "and":
        return P.And(*[predicate_from_payload(p) for p in payload["operands"]])
    if kind == "or":
        return P.Or(*[predicate_from_payload(p) for p in payload["operands"]])
    if kind == "comparison":
        return P.Comparison(
            _term_from_payload(payload["left"]),
            payload["operator"],
            _term_from_payload(payload["right"]),
        )
    raise ViewError(f"unknown predicate payload kind {kind!r}")


def _term_from_payload(payload: dict[str, Any]) -> P.Term:
    if payload["term"] == "attr":
        return P.AttributeRef(payload["name"])
    if payload["term"] == "lit":
        return P.Literal(payload["value"])
    raise ViewError(f"unknown term payload {payload!r}")


def _input_payload(shape_input: InputShape) -> dict[str, Any]:
    return {
        "table": shape_input.table,
        "renames": [[base, view] for base, view in shape_input.renames],
        "predicate": (
            None if shape_input.predicate is None else predicate_payload(shape_input.predicate)
        ),
    }


def view_payload(view: MaintainedView) -> dict[str, Any]:
    """Manifest payload for one maintained view; loud failure on fallback
    views (no counter-table form exists to persist)."""
    require_persistable(view)
    shape = view.shape
    assert shape is not None
    return {
        "name": view.name,
        "kind": shape.kind,
        "dividend": _input_payload(shape.dividend),
        "divisor": _input_payload(shape.divisor),
        # The view's output attribute names: differ from the divide's own
        # schema when a top-level rename was peeled (SQL output aliases).
        "output": list(shape.schema_names),
        # Positions into A+C of the output columns; a manifest without it
        # answers in A+C order.
        "order": list(shape.order),
    }


def view_from_payload(database: Any, payload: dict[str, Any]) -> MaintainedView:
    """Re-register a view from its manifest payload.

    Rebuilds the expression as σ (over base names) then ρ over each base
    table, divides them, permutes the quotient into the recorded column
    order and renames it to the recorded output names — semantically
    identical to the original definition, and analyzed back into the same
    :class:`DivisionShape`.
    """
    from repro.algebra.expressions import Expression, GreatDivide, Project, Rename, SmallDivide

    dividend = _input_expression(database, payload["dividend"])
    divisor = _input_expression(database, payload["divisor"])
    kind = payload["kind"]
    expression: Expression
    if kind == "small":
        expression = SmallDivide(dividend, divisor)
    elif kind == "great":
        expression = GreatDivide(dividend, divisor)
    else:
        raise ViewError(f"unknown view kind {kind!r} in manifest")
    quotient = expression.schema.names
    order = tuple(payload.get("order") or range(len(quotient)))
    if sorted(order) != list(range(len(quotient))):
        raise ViewError(
            f"view {payload['name']!r} manifest order {order!r} is not a "
            f"permutation of the quotient schema {quotient!r}"
        )
    if order != tuple(range(len(quotient))):
        expression = Project(expression, [quotient[i] for i in order])
    output = tuple(payload.get("output") or expression.schema.names)
    if output != expression.schema.names:
        if len(output) != len(expression.schema.names):
            raise ViewError(
                f"view {payload['name']!r} manifest output {output!r} does not "
                f"fit the quotient schema {expression.schema.names!r}"
            )
        expression = Rename(expression, dict(zip(expression.schema.names, output)))
    view = database.create_view(payload["name"], expression)
    if not view.maintained:  # pragma: no cover - manifest round-trip safety
        raise ViewError(
            f"view {payload['name']!r} reloaded from the manifest is not "
            f"maintainable: {view.unsupported_reason}"
        )
    return view


def _input_expression(database: Any, payload: dict[str, Any]) -> Any:
    expression = database.catalog.ref(payload["table"])
    predicate = payload.get("predicate")
    if predicate is not None:
        from repro.algebra.expressions import Select

        expression = Select(expression, predicate_from_payload(predicate))
    renames = {base: view for base, view in payload.get("renames", []) if base != view}
    if renames:
        from repro.algebra.expressions import Rename

        expression = Rename(expression, renames)
    return expression
