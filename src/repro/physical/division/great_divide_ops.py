"""Physical algorithms for the great divide (set containment division).

Three algorithms in the spirit of Rantzau et al. [36].  The planner builds
:class:`NestedLoopsGreatDivision`; the others run when ``PlannerOptions``
forces them:

* :class:`NestedLoopsGreatDivision` — materialize dividend and divisor
  groups as bitmasks over one shared divisor dictionary, then test every
  pair with an ``int`` subset check (quadratic in the number of groups but
  linear in the inputs);
* :class:`HashGreatDivision` — hash-division generalized to many divisor
  groups: each divisor tuple gets a bit within its group; one pass over the
  dividend maintains, per (candidate, group) pair *that is actually
  touched*, an ``int`` bitmask of matched bits;
* :class:`GroupwiseSmallDivision` — the strategy behind Definition 4: loop
  over the divisor groups and run an ordinary hash-division per group
  (pipelines well when the divisor has few groups).

All algorithms read their inputs through the key-column seam
(:func:`~repro.physical.division.keys.encode_keys`): the ``A`` (candidate),
``B`` (shared) and ``C`` (group) keys arrive as one integer code per tuple
plus code → key lists — cached dictionary codes when the input carries
them, encoded on the fly otherwise — so the hot loops manipulate small
ints and every per-key lookup happens once per dictionary entry.

The nested-loops and groupwise algorithms answer a dividend that is a
relation's whole or restricted block from its containment bitmap instead
(see :mod:`~repro.physical.division.keys`): each divisor group is the set
of its values' rows, and the kernel's intersection scan answers every
group in one call.  Hash great division keeps its per-(candidate, group)
sweep.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.errors import ExecutionError
from repro.physical.base import Chunk, PhysicalOperator, PhysicalProperties
from repro.physical.compile.kernels import PythonBitsetKernel
from repro.physical.division.keys import KeyedDivisionOperator, KeySide, encode_keys
from repro.relation.encoding import code_buffer, concatenate_codes, iter_codes, repeat_codes

__all__ = [
    "GreatDivisionOperator",
    "NestedLoopsGreatDivision",
    "HashGreatDivision",
    "GroupwiseSmallDivision",
    "GREAT_DIVIDE_ALGORITHMS",
]


def _great_division_schemas(dividend: PhysicalOperator, divisor: PhysicalOperator):
    """Validated ``(A, B, C)`` schemas of a great divide over two operators.

    Shared between :class:`GreatDivisionOperator` and the partition-parallel
    wrapper, so the two accept and reject exactly the same input shapes.
    """
    shared = dividend.schema.intersection(divisor.schema)
    if len(shared) == 0:
        raise ExecutionError("great divide: dividend and divisor must share attributes")
    quotient_a = dividend.schema.difference(shared)
    if len(quotient_a) == 0:
        raise ExecutionError("great divide: the dividend needs attributes outside B")
    group_c = divisor.schema.difference(shared)
    return quotient_a, shared, group_c


class GreatDivisionOperator(KeyedDivisionOperator):
    """Common base for the physical great-divide algorithms."""

    def __init__(self, dividend: PhysicalOperator, divisor: PhysicalOperator) -> None:
        quotient_a, shared, group_c = _great_division_schemas(dividend, divisor)
        super().__init__(quotient_a.union(group_c), (dividend, divisor))
        self.a = quotient_a
        self.b = shared
        self.c = group_c

    #: Answer a whole or restricted block from its containment bitmap.
    _reads_bitmap = True

    def _divisor_sides(self) -> tuple[KeySide, KeySide]:
        """The divisor's ``C`` and ``B`` sides, ``dense``: only groups that
        still have a tuple are groups, and a divisor value's code doubles as
        its bit position in the shared dictionary."""
        groups, divisor_values = encode_keys(self._children[1], self.c, self.b).sides
        return groups.dense(), divisor_values.dense()

    def _produce_chunks(self) -> Iterator[Chunk]:
        """Drain both inputs once — the divisor's sides, the dividend's
        ``A`` and ``B`` sides as they come — then one match scan per group
        (:meth:`_matches`), or one intersection scan over the containment
        bitmap for all of them."""
        groups, divisor_values = self._divisor_sides()
        kernel, candidates, values, containment = self._dividend_keys(
            self.a, self.b, bitmap=self._reads_bitmap
        )
        if containment is not None:
            codes = containment.matches(
                kernel, groups.codes, divisor_values.codes, divisor_values.keys
            )
        else:
            matches = self._matches(kernel, groups, divisor_values, candidates, values)
            group_codes = repeat_codes(range(len(matches)), list(map(len, matches)))
            codes = (concatenate_codes(matches), group_codes)
        yield from self._emit((candidates, groups), codes)

    def _matches(
        self,
        kernel: PythonBitsetKernel,
        groups: KeySide,
        divisor_values: KeySide,
        candidates: KeySide,
        values: KeySide,
    ) -> list[Any]:
        """Per group code, the codes of the candidates that contain it."""
        raise NotImplementedError


class NestedLoopsGreatDivision(GreatDivisionOperator):
    """Materialize both group collections as bitmasks and test every pair.

    One shared dictionary assigns each distinct divisor ``B``-value a bit;
    dividend groups accumulate the bits of their values (values outside the
    divisor dictionary cannot influence containment and are dropped), and
    the pairwise test ``needed ⊆ available`` is one bitmask AND/compare.
    """

    name = "nested_loops_great_division"

    #: Linear group-bitmask builds plus one subset test per
    #: (candidate group × divisor group) pair — the ``pairwise`` term.
    properties = PhysicalProperties(
        streaming=False,
        startup_cost=8.0,
        per_input_cost=1.2,
        per_output_cost=1.0,
        pairwise_factor=0.3,
        pairwise_operands=("candidates", "divisor_groups"),
    )

    def _matches(self, kernel, groups, divisor_values, candidates, values):
        needed_masks = [0] * len(groups.keys)
        for group, value in zip(iter_codes(groups.codes), iter_codes(divisor_values.codes)):
            needed_masks[group] |= 1 << value

        position_of = {key: position for position, key in enumerate(divisor_values.keys)}
        candidate_masks = kernel.gather_sweep(
            len(candidates.keys),
            candidates.codes,
            values.codes,
            values.table(position_of, -1),
            len(position_of),
        )
        return [kernel.subset_matches(candidate_masks, needed) for needed in needed_masks]


class HashGreatDivision(GreatDivisionOperator):
    """Hash-division generalized to many divisor groups.

    Builds an index ``b-value → [(group, bit)]`` over the divisor, then
    scans the dividend once; for every match it ORs the bit into a bitmask
    keyed by the packed integer ``candidate * num_groups + group``.  Pairs
    whose bitmask reaches the group's full mask are emitted.
    """

    name = "hash_great_division"
    _reads_bitmap = False

    #: Per-(candidate, group) bitmask maintenance on every dividend match.
    properties = PhysicalProperties(
        streaming=False, startup_cost=32.0, per_input_cost=2.2, per_output_cost=1.0
    )

    def _produce_chunks(self) -> Iterator[Chunk]:
        groups, divisor_values = self._divisor_sides()
        kernel, candidates, values, _ = self._dividend_keys(self.a, self.b)
        num_groups = len(groups.keys)
        group_sizes = [0] * num_groups
        hits_of: dict[Any, list[tuple[int, int]]] = {}
        divisor_pairs = zip(iter_codes(groups.codes), iter_codes(divisor_values.codes))
        for group, value in dict.fromkeys(divisor_pairs):  # each (group, value) once
            key = divisor_values.keys[value]
            hits_of.setdefault(key, []).append((group, 1 << group_sizes[group]))
            group_sizes[group] += 1
        group_full = [(1 << size) - 1 for size in group_sizes]

        hits_by_code = values.table(hits_of, None)
        masks: dict[int, int] = {}
        get_mask = masks.get
        for candidate, value in zip(iter_codes(candidates.codes), iter_codes(values.codes)):
            hits = hits_by_code[value]
            if hits:
                base = candidate * num_groups
                for group, bit in hits:
                    code = base + group
                    masks[code] = get_mask(code, 0) | bit

        codes = list(masks)
        fulls = [group_full[code % num_groups] for code in codes]
        hits = kernel.equal_matches(list(masks.values()), fulls).tolist()
        matched = [divmod(codes[hit], num_groups) for hit in hits]
        candidate_codes = code_buffer((candidate for candidate, _ in matched), len(matched))
        group_codes = code_buffer((group for _, group in matched), len(matched))
        yield from self._emit((candidates, groups), (candidate_codes, group_codes))


class GroupwiseSmallDivision(GreatDivisionOperator):
    """Definition 4 as an execution strategy: one hash-division per divisor group.

    The dividend arrives as candidate and ``B``-value codes, so each
    per-group pass is one flat gather sweep: the group's values each get a
    bit, ORed into one mask slot per candidate.
    """

    name = "groupwise_small_division"

    #: One flat sweep over the encoded dividend per divisor group — the
    #: ``pairwise`` term is divisor-groups × dividend tuples.
    properties = PhysicalProperties(
        streaming=False,
        startup_cost=8.0,
        per_input_cost=1.0,
        per_output_cost=1.0,
        pairwise_factor=0.6,
        pairwise_operands=("divisor_groups", "left"),
    )

    def _matches(self, kernel, groups, divisor_values, candidates, values):
        needed_of: list[dict[int, None]] = [{} for _ in groups.keys]
        for group, value in zip(iter_codes(groups.codes), iter_codes(divisor_values.codes)):
            needed_of[group][value] = None
        # Dividend code of each divisor value (-1: the dividend never has it).
        code_of = {key: code for code, key in enumerate(values.keys)}
        dividend_code = divisor_values.table(code_of, -1)
        # The encoded dividend is swept once per divisor group; convert the
        # code columns up front so the kernel reuses them across groups.
        candidate_codes = kernel.prepare_indices(candidates.codes)
        value_codes = kernel.prepare_indices(values.codes)

        matches = []
        for needed in needed_of:
            # hash-division of the encoded dividend by this group: give
            # each needed value (that the dividend knows at all) a bit.
            positions = [-1] * len(values.keys)
            for ordinal, value in enumerate(needed):
                if dividend_code[value] >= 0:
                    positions[dividend_code[value]] = ordinal
            masks = kernel.gather_sweep(
                len(candidates.keys), candidate_codes, value_codes, positions, len(needed)
            )
            matches.append(kernel.full_matches(masks, (1 << len(needed)) - 1))
        return matches


#: Algorithm registry: ``nested_loops`` is the planner's, the others are
#: forced through ``PlannerOptions`` (tests, benches).
GREAT_DIVIDE_ALGORITHMS = {
    "nested_loops": NestedLoopsGreatDivision,
    "hash": HashGreatDivision,
    "groupwise": GroupwiseSmallDivision,
}
