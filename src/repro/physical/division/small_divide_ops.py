"""Physical algorithms for the small divide.

The paper motivates treating division as a first-class operator by pointing
at the algorithm repertoire of Graefe [14] and Graefe & Cole [16] and at the
complexity result of Leinders & Van den Bussche [25].  This module provides
that repertoire.  The planner builds :class:`HashDivision`, linear whatever
the estimates say; the others run when ``PlannerOptions`` forces them, for
the comparisons:

* :class:`NestedLoopsDivision` — the naive algorithm: for every quotient
  candidate scan all pairs and check containment;
* :class:`HashDivision` — Graefe's hash-division: one pass over the divisor
  to number its tuples, one pass over the dividend maintaining a bitmap per
  quotient candidate;
* :class:`MergeSortDivision` — merge-/sort-based division: encode, sort the
  dividend pairs, then merge each candidate run in one interleaved scan
  (merge-group division);
* :class:`MergeCountDivision` — the counting variant: a semi-join with the
  divisor followed by per-group counting (stream-aggregation style);
* :class:`AlgebraSimulationDivision` — Healy's expression
  ``π_A(r1) − π_A((π_A(r1) × r2) − r1)`` executed with the basic physical
  operators.  Its intermediate result ``π_A(r1) × r2`` is |π_A(r1)|·|r2|
  tuples — the quadratic blow-up the special-purpose algorithms avoid.

All algorithms read their inputs through the key-column seam
(:func:`~repro.physical.division.keys.encode_keys`), which hands every
operator the same thing: one integer code per dividend tuple for the ``A``
(quotient) and ``B`` (divisor) keys — read straight from the scanned
relation's cached dictionary codes when the input carries them, encoded on
the fly otherwise — plus the code → key lists.  Each divisor value owns one
bit, looked up once per *dictionary entry*; the containment test per
candidate is then one bitmask equality / popcount check in the bitset
kernel instead of per-row set-of-tuples bookkeeping.

Hash, merge-count and merge-sort division answer a dividend that is a
relation's whole or restricted block from its containment bitmap instead
(see :mod:`~repro.physical.division.keys`): the candidates that hold the
divisor are the AND of its values' rows, one kernel intersection scan.
The nested-loops division sweeps on purpose, and the algebra simulation
has no sweep.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce
from typing import Any

from repro.division.schemas import DivisionSchemas
from repro.errors import ExecutionError
from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.physical.basic import DifferenceOp, ProductOp, ProjectOp
from repro.physical.compile.kernels import PythonBitsetKernel
from repro.physical.division.keys import KeyedDivisionOperator, KeySide, encode_keys
from repro.relation.encoding import iter_codes
from repro.relation.schema import Schema

__all__ = [
    "DivisionOperator",
    "NestedLoopsDivision",
    "HashDivision",
    "MergeSortDivision",
    "MergeCountDivision",
    "AlgebraSimulationDivision",
    "SMALL_DIVIDE_ALGORITHMS",
]


def _division_schemas(dividend: PhysicalOperator, divisor: PhysicalOperator) -> DivisionSchemas:
    divisor_schema = divisor.schema
    dividend_schema = dividend.schema
    if len(divisor_schema) == 0:
        raise ExecutionError("small divide: divisor schema must be nonempty")
    if not divisor_schema.is_subset(dividend_schema):
        raise ExecutionError(
            f"small divide: divisor attributes {divisor_schema.names!r} must appear in the "
            f"dividend schema {dividend_schema.names!r}"
        )
    quotient = dividend_schema.difference(divisor_schema)
    if len(quotient) == 0:
        raise ExecutionError("small divide: quotient schema must be nonempty")
    return DivisionSchemas(
        a=quotient,
        b=dividend_schema.intersection(divisor_schema),
        c=Schema(()),
        quotient=quotient,
    )


class DivisionOperator(KeyedDivisionOperator):
    """Common base for all physical small-divide algorithms.

    Drains both inputs once and hands the dividend's codes to the
    algorithm's :meth:`_matches`, or answers from the dividend's
    containment bitmap when ``_reads_bitmap`` and the input allow it.
    """

    #: Answer a whole or restricted block from its containment bitmap.
    _reads_bitmap = True

    def __init__(self, dividend: PhysicalOperator, divisor: PhysicalOperator) -> None:
        schemas = _division_schemas(dividend, divisor)
        super().__init__(schemas.quotient, (dividend, divisor))
        self.schemas = schemas

    def _produce_chunks(self) -> Iterator[Chunk]:
        """The divisor's distinct ``B`` keys are numbered ``0 .. width-1``
        (one bit each, so the all-ones mask ``(1 << width) - 1`` encodes
        "contains the whole divisor"); ``positions[code]`` is the bit of the
        dividend ``B`` key with that code, or ``-1`` when the divisor lacks
        it — one lookup per dictionary entry, not per tuple.  The divisor's
        keys are counted as they occur (``dense``); the dividend's are not,
        except that under an empty divisor every candidate matches, and
        then only the candidates that occur may (so an empty divisor sweeps).
        """
        (divisor,) = encode_keys(self._children[1], self.schemas.b).sides
        divisor = divisor.dense()
        divisor_keys = divisor.keys
        kernel, candidates, values, containment = self._dividend_keys(
            self.schemas.a, self.schemas.b, bitmap=self._reads_bitmap and bool(divisor_keys)
        )
        if containment is not None:  # one set: the whole divisor
            one_set = [0] * len(divisor.codes)
            matches, _ = containment.matches(kernel, one_set, divisor.codes, divisor_keys)
        else:
            position_of = {key: position for position, key in enumerate(divisor_keys)}
            if not position_of:
                candidates = candidates.dense()
            positions = values.table(position_of, -1)
            matches = self._matches(kernel, candidates, values.codes, positions, len(position_of))
        yield from self._emit([candidates], [matches])

    def _matches(
        self,
        kernel: PythonBitsetKernel,
        candidates: KeySide,
        value_codes: Any,
        positions: list[int],
        width: int,
    ) -> Any:
        """The codes of the candidates holding every divisor bit, ascending."""
        raise NotImplementedError


def _pair_bits(
    candidates: KeySide, value_codes: Any, positions: list[int]
) -> Iterator[tuple[int, int]]:
    """``(candidate code, divisor bit)`` per dividend tuple (bit 0: no match)."""
    bits = [1 << position if position >= 0 else 0 for position in positions]
    return zip(iter_codes(candidates.codes), map(bits.__getitem__, iter_codes(value_codes)))


class NestedLoopsDivision(DivisionOperator):
    """Naive division: check every candidate group against the whole divisor.

    Still quadratic (one full pair scan per candidate) — that is its point —
    but each containment check is a bitset subset test over dictionary
    codes, not a set-of-tuples comparison.
    """

    name = "nested_loops_division"
    _reads_bitmap = False

    #: No hash tables beyond the divisor dictionary, but one full pair scan
    #: per quotient candidate — the quadratic ``pairwise`` term.
    properties = PhysicalProperties(
        streaming=False,
        startup_cost=2.0,
        per_input_cost=1.0,
        per_output_cost=1.0,
        pairwise_factor=0.35,
        pairwise_operands=("candidates", "left"),
    )

    def _matches(self, kernel, candidates, value_codes, positions, width):
        pairs = list(_pair_bits(candidates, value_codes, positions))

        # Deliberately quadratic: one full pair scan per candidate that
        # occurs.  Only the final full-mask scan goes through the kernel.
        or_ = int.__or__
        masks = [0] * len(candidates.keys)
        for candidate in set(iter_codes(candidates.codes)):
            masks[candidate] = reduce(
                or_, [bit for pair_candidate, bit in pairs if pair_candidate == candidate], 0
            )
        return kernel.full_matches(masks, (1 << width) - 1)


class HashDivision(DivisionOperator):
    """Graefe's hash-division.

    The divisor is loaded into a hash table assigning each tuple a bit; the
    dividend is swept once, ORing each tuple's divisor bit into one bitmask
    per quotient candidate (candidate codes index a flat mask array).  A
    candidate is output when its bitmask is full.
    """

    name = "hash_division"

    #: Dictionary + candidate hash table builds, then one linear pass.
    properties = PhysicalProperties(
        streaming=False, startup_cost=24.0, per_input_cost=2.0, per_output_cost=1.0
    )

    def _matches(self, kernel, candidates, value_codes, positions, width):
        masks = kernel.gather_sweep(
            len(candidates.keys), candidates.codes, value_codes, positions, width
        )
        return kernel.full_matches(masks, (1 << width) - 1)


class MergeSortDivision(DivisionOperator):
    """Merge-sort division over dictionary codes.

    The dividend pairs are sorted by candidate code — integer sort, no
    ``repr`` keys — and one interleaved merge scan accumulates each
    candidate run's bitmask against the divisor (the kernel's
    ``merge_runs``; vectorized, sort and merge collapse into one order-blind
    gather sweep that builds the same masks)."""

    name = "merge_sort_division"

    #: The n·log2(n) sort of the dividend pairs, then one merge scan.
    properties = PhysicalProperties(
        streaming=False,
        startup_cost=16.0,
        per_input_cost=1.8,
        per_output_cost=1.0,
        sort_factor=0.25,
    )

    def _matches(self, kernel, candidates, value_codes, positions, width):
        masks = kernel.merge_runs(
            len(candidates.keys), candidates.codes, value_codes, positions, width
        )
        return kernel.full_matches(masks, (1 << width) - 1)


class MergeCountDivision(DivisionOperator):
    """Counting division: semi-join the dividend with the divisor, count the
    matched divisor values per candidate (the popcount of the candidate's
    bitmask) and compare with |divisor|."""

    name = "merge_count_division"

    #: Same build structure as hash-division plus the per-candidate popcount.
    properties = PhysicalProperties(
        streaming=False, startup_cost=26.0, per_input_cost=2.0, per_output_cost=1.0
    )

    def _matches(self, kernel, candidates, value_codes, positions, width):
        masks = kernel.gather_sweep(
            len(candidates.keys), candidates.codes, value_codes, positions, width
        )
        return kernel.popcount_matches(masks, width)


class AlgebraSimulationDivision(DivisionOperator):
    """Division simulated by the basic algebra (Healy's Definition 2).

    Builds the physical plan
    ``Difference(Project_A(r1), Project_A(Difference(Product(Project_A(r1), r2), r1)))``
    and streams its result.  Exists to measure the quadratic intermediate
    result the paper (after [25]) argues is unavoidable without a
    first-class division operator; the inner operators' tuple counters are
    exposed through the plan statistics.
    """

    name = "algebra_simulation_division"

    #: The ``π_A(r1) × r2`` blow-up: |candidates| · |divisor| intermediate
    #: tuples, priced through the quadratic ``pairwise`` term.
    properties = PhysicalProperties(
        streaming=False,
        per_input_cost=2.0,
        per_output_cost=1.0,
        pairwise_factor=3.0,
        pairwise_operands=("candidates", "right"),
    )

    def __init__(self, dividend: PhysicalOperator, divisor: PhysicalOperator) -> None:
        super().__init__(dividend, divisor)
        candidates = ProjectOp(dividend, self.schemas.a)
        # A second, independent projection of the dividend for the product
        # (re-scanning the same child keeps the counters honest).
        blow_up = ProductOp(ProjectOp(dividend, self.schemas.a), divisor)
        missing = ProjectOp(DifferenceOp(blow_up, dividend), self.schemas.a)
        self._plan = DifferenceOp(candidates, missing)
        # Expose the sub-plan in ``children`` so statistics include it.
        self._inputs, self._children = self._children, (self._plan,)

    @property
    def inputs(self) -> tuple[PhysicalOperator, ...]:
        return self._inputs

    def _produce_chunks(self) -> Iterator[Chunk]:
        # No bitset loop and no key columns of its own by design (the
        # blow-up *is* the point): the basic operators below do the work.
        return self._plan.chunks()


#: Algorithm registry: :class:`HashDivision` is the planner's, the others
#: are forced through ``PlannerOptions`` (tests, the comparison benchmarks).
SMALL_DIVIDE_ALGORITHMS = {
    "nested_loops": NestedLoopsDivision,
    "hash": HashDivision,
    "merge_sort": MergeSortDivision,
    "merge_count": MergeCountDivision,
    "algebra_simulation": AlgebraSimulationDivision,
}
