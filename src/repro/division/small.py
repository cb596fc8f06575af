"""The small divide operator (relational division).

The paper uses three equivalent definitions in its proofs; this module
implements all of them, plus two further equivalent formulations from the
literature (footnote 1 of the paper), so that the test-suite can cross-check
them against each other:

* :func:`codd_divide` — Codd's tuple-calculus definition (Definition 1),
* :func:`healy_divide` — Healy's algebraic definition (Definition 2),
* :func:`maier_divide` — Maier's intersection definition (Definition 3),
* :func:`counting_divide` — the counting/grouping formulation,
* :func:`forall_divide` — the direct "for all divisor tuples" check.

:func:`small_divide` is the library's reference implementation (an indexed
variant of Codd's definition, linear in the dividend size for constant group
size).
"""

from __future__ import annotations

from typing import Any

from repro.division.schemas import DivisionSchemas, small_divide_schemas
from repro.relation import aggregates
from repro.relation.relation import Relation

__all__ = [
    "small_divide",
    "codd_divide",
    "healy_divide",
    "maier_divide",
    "counting_divide",
    "forall_divide",
    "SMALL_DIVIDE_DEFINITIONS",
]


def _group_dividend(
    dividend: Relation, schemas: DivisionSchemas
) -> dict[tuple[Any, ...], set[tuple[Any, ...]]]:
    """Group the dividend by its ``A``-values, collecting the ``B``-values."""
    groups: dict[tuple[Any, ...], set[tuple[Any, ...]]] = {}
    for row in dividend:
        groups.setdefault(row.values_for(schemas.a), set()).add(row.values_for(schemas.b))
    return groups


def small_divide(dividend: Relation, divisor: Relation) -> Relation:
    """Reference implementation of ``dividend ÷ divisor``.

    Groups the dividend on the quotient attributes ``A`` and keeps the groups
    whose set of ``B``-values is a superset of the divisor.  This is Codd's
    image-set definition evaluated with a single pass over the dividend.

    Examples
    --------
    >>> r1 = Relation(["a", "b"], [(1, 1), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4),
    ...                            (3, 1), (3, 3), (3, 4)])
    >>> r2 = Relation(["b"], [(1,), (3,)])
    >>> sorted(small_divide(r1, r2).to_set("a"))
    [2, 3]
    """
    schemas = small_divide_schemas(dividend, divisor)
    divisor_values = {row.values_for(schemas.b) for row in divisor}
    groups = _group_dividend(dividend, schemas)
    quotient_rows = [
        dict(zip(schemas.a.names, key))
        for key, values in groups.items()
        if divisor_values <= values
    ]
    return Relation(schemas.quotient, quotient_rows)


def codd_divide(dividend: Relation, divisor: Relation) -> Relation:
    """Definition 1 (Codd): quotient tuples whose image set contains the divisor.

    ``r1 ÷ r2 = {t | t = t1.A ∧ t1 ∈ r1 ∧ r2 ⊆ i_r1(t)}`` where the image set
    ``i_r1(x) = {y | (x, y) ∈ r1}``.
    """
    schemas = small_divide_schemas(dividend, divisor)
    quotient_rows = []
    for candidate in dividend.project(schemas.a):
        image = dividend.image_set(candidate, schemas.b)
        if set(divisor.rows) <= set(image.rows):
            quotient_rows.append(candidate)
    return Relation(schemas.quotient, quotient_rows)


def healy_divide(dividend: Relation, divisor: Relation) -> Relation:
    """Definition 2 (Healy): ``π_A(r1) − π_A((π_A(r1) × r2) − r1)``."""
    schemas = small_divide_schemas(dividend, divisor)
    candidates = dividend.project(schemas.a)
    # Divisor rows restricted to B, as a relation over B only (they already are).
    missing = candidates.product(divisor.project(schemas.b)).difference(
        dividend.project(schemas.a.union(schemas.b))
    )
    return candidates.difference(missing.project(schemas.a))


def maier_divide(dividend: Relation, divisor: Relation) -> Relation:
    """Definition 3 (Maier): ``⋂_{t ∈ r2} π_A(σ_{B=t}(r1))``.

    For an empty divisor the intersection over zero relations is, by
    convention, ``π_A(r1)`` — the same result the other definitions produce.
    """
    schemas = small_divide_schemas(dividend, divisor)
    result = dividend.project(schemas.a)
    for divisor_row in divisor:
        values = divisor_row.values_for(schemas.b)
        matching = dividend.select(lambda row, v=values: row.values_for(schemas.b) == v)
        result = result.intersection(matching.project(schemas.a))
    return result


def counting_divide(dividend: Relation, divisor: Relation) -> Relation:
    """The counting formulation from footnote 1 of the paper.

    ``r1 ÷ r2 = π_A(Aγ_{count(B)→c}(r1 ⋉ r2) ⋈ γ_{count(B)→c}(r2))``:
    count, per quotient candidate, how many of its ``B``-values survive a
    semi-join with the divisor, and keep the candidates whose count equals
    the divisor cardinality.
    """
    schemas = small_divide_schemas(dividend, divisor)
    divisor_count = len(divisor.project(schemas.b))
    if divisor_count == 0:
        return dividend.project(schemas.a)
    restricted = dividend.semijoin(divisor)
    counts = restricted.group_by(schemas.a, {"__c": aggregates.count_distinct(schemas.b.names[0])})
    if len(schemas.b) > 1:
        # count distinct combinations of all B attributes, not just the first
        counts = restricted.group_by(
            schemas.a,
            {
                "__c": (
                    "count(distinct B)",
                    lambda rows: len({row.values_for(schemas.b) for row in rows}),
                )
            },
        )
    matching = counts.select(lambda row: row["__c"] == divisor_count)
    return matching.project(schemas.a)


def forall_divide(dividend: Relation, divisor: Relation) -> Relation:
    """Direct tuple-calculus reading: for every divisor tuple there is a
    dividend tuple with the candidate's ``A``-values and that ``B``-value.

    ``r1 ÷ r2 = {t | ∀t2 ∈ r2 ∃t1 ∈ r1 : t = t1.A ∧ t1.B = t2.B}`` restricted
    to candidates drawn from ``π_A(r1)`` (footnote 1 of the paper).
    """
    schemas = small_divide_schemas(dividend, divisor)
    dividend_pairs = {(row.values_for(schemas.a), row.values_for(schemas.b)) for row in dividend}
    divisor_values = [row.values_for(schemas.b) for row in divisor]
    quotient_rows = []
    for candidate in dividend.project(schemas.a):
        key = candidate.values_for(schemas.a)
        if all((key, value) in dividend_pairs for value in divisor_values):
            quotient_rows.append(candidate)
    return Relation(schemas.quotient, quotient_rows)


#: All equivalent definitions, keyed by the name used in tests and benches.
SMALL_DIVIDE_DEFINITIONS = {
    "reference": small_divide,
    "codd": codd_divide,
    "healy": healy_divide,
    "maier": maier_divide,
    "counting": counting_divide,
    "forall": forall_divide,
}
