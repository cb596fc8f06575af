"""Bitset-kernel dispatch: python/numpy parity, wide masks, selection.

Results must never depend on the kernel in use: the numpy kernel keeps
masks as multi-word ``uint64`` arrays, so divisors wider than 64 bits stay
vectorized (no per-call Python fallback), and the match scans return
ascending indices — the same emission order as the reference.
"""

import random

import numpy
import pytest

from repro.errors import ExecutionError
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    RelationScan,
    execute_plan,
    use_kernel,
)
from repro.physical.compile.kernels import (
    NumpyBitsetKernel,
    PythonBitsetKernel,
    active_kernel,
    bitmap_rows,
)
from repro.relation.encoding import packed_table
from repro.workloads import make_division_workload, make_great_division_workload


@pytest.fixture(scope="module")
def workload():
    """Big enough (≥32 candidates) to cross the vectorization threshold."""
    return make_division_workload(
        num_groups=80, divisor_size=6, containing_fraction=0.3, extra_values_per_group=5, seed=13
    )


@pytest.fixture(scope="module")
def great_workload():
    return make_great_division_workload(
        dividend_groups=50,
        dividend_group_size=6,
        divisor_groups=9,
        divisor_group_size=3,
        domain_size=24,
        seed=14,
    )


@pytest.fixture(scope="module")
def wide_workload():
    """A 96-value divisor: masks need two ``uint64`` words."""
    workload = make_division_workload(
        num_groups=40, divisor_size=96, containing_fraction=0.3, extra_values_per_group=4, seed=15
    )
    assert len(workload.divisor) > 64
    return workload


class TestKernelSelection:
    @pytest.mark.parametrize("name", ["quantum", "auto", None])
    def test_use_kernel_rejects_an_unknown_name_listing_the_valid_ones(self, name):
        baseline = active_kernel()
        with pytest.raises(ExecutionError) as excinfo:
            with use_kernel(name):
                pass
        message = str(excinfo.value)
        assert f"unknown bitset kernel {name!r}" in message
        assert "'numpy'" in message and "'python'" in message
        assert active_kernel() is baseline

    def test_the_unpinned_kernel_is_numpy(self):
        assert isinstance(active_kernel(), NumpyBitsetKernel)

    def test_use_kernel_restores_the_previous_choice(self):
        baseline = active_kernel()
        with use_kernel("python"):
            assert isinstance(active_kernel(), PythonBitsetKernel)
            assert not isinstance(active_kernel(), NumpyBitsetKernel)
            with use_kernel("numpy"):
                assert isinstance(active_kernel(), NumpyBitsetKernel)
            assert not isinstance(active_kernel(), NumpyBitsetKernel)
        assert active_kernel() is baseline


class TestKernelParity:
    @pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
    def test_small_divide_algorithms(self, workload, algorithm):
        operator_class = SMALL_DIVIDE_ALGORITHMS[algorithm]

        def run():
            return execute_plan(
                operator_class(
                    RelationScan(workload.dividend), RelationScan(workload.divisor)
                )
            )

        with use_kernel("python"):
            reference = run()
        with use_kernel("numpy"):
            vectorized = run()
        assert vectorized.relation == reference.relation
        assert (
            vectorized.statistics.tuples_by_operator
            == reference.statistics.tuples_by_operator
        )
        assert len(reference.relation) == workload.expected_quotient_size

    @pytest.mark.parametrize("algorithm", sorted(GREAT_DIVIDE_ALGORITHMS))
    def test_great_divide_algorithms(self, great_workload, algorithm):
        operator_class = GREAT_DIVIDE_ALGORITHMS[algorithm]

        def run():
            return execute_plan(
                operator_class(
                    RelationScan(great_workload.dividend),
                    RelationScan(great_workload.divisor),
                )
            )

        with use_kernel("python"):
            reference = run()
        with use_kernel("numpy"):
            vectorized = run()
        assert vectorized.relation == reference.relation
        assert (
            vectorized.statistics.tuples_by_operator
            == reference.statistics.tuples_by_operator
        )

    @pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
    def test_wide_divisor_does_not_change_results(self, wide_workload, algorithm):
        """Masks wider than 64 bits span several words — never truncated."""
        operator_class = SMALL_DIVIDE_ALGORITHMS[algorithm]

        def run():
            return execute_plan(
                operator_class(
                    RelationScan(wide_workload.dividend),
                    RelationScan(wide_workload.divisor),
                )
            )

        with use_kernel("python"):
            reference = run()
        with use_kernel("numpy"):
            vectorized = run()
        assert vectorized.relation == reference.relation
        assert len(reference.relation) == wide_workload.expected_quotient_size


class TestKernelPrimitives:
    def test_full_matches_order_is_ascending(self):
        masks = [3, 7, 7, 1, 7] * 10  # ≥32 entries to cross the threshold
        python = PythonBitsetKernel().full_matches(list(masks), 7)
        vectorized = NumpyBitsetKernel().full_matches(list(masks), 7)
        assert list(vectorized) == list(python) == sorted(python)
        # Index arrays, not lists of boxed ints: the quotient's code column.
        assert isinstance(python, numpy.ndarray) and isinstance(vectorized, numpy.ndarray)

    @pytest.mark.parametrize("width", [1, 7, 63, 64, 65, 120, 200, 1100])
    def test_gather_sweep_matches_reference(self, width):
        count = 40
        entries = max(250, width + 7)  # some values outside the divisor
        candidates = [i % count for i in range(400)]
        values = [(i * 7) % entries for i in range(400)]
        positions = [code if code < width else -1 for code in range(entries)]
        python = PythonBitsetKernel().gather_sweep(count, candidates, values, positions, width)
        vectorized = NumpyBitsetKernel().gather_sweep(count, candidates, values, positions, width)
        assert vectorized.shape == (count, -(-width // 64))
        as_ints = [sum(int(word) << (64 * i) for i, word in enumerate(row)) for row in vectorized]
        assert as_ints == python
        full = (1 << width) - 1
        for scan in ("full_matches", "subset_matches"):
            assert list(getattr(NumpyBitsetKernel(), scan)(vectorized, full)) == list(
                getattr(PythonBitsetKernel(), scan)(python, full)
            )
        assert list(NumpyBitsetKernel().popcount_matches(vectorized, 2)) == list(
            PythonBitsetKernel().popcount_matches(python, 2)
        )

    @pytest.mark.parametrize("limit", [None, 0], ids=["int32 indices", "intp indices"])
    @pytest.mark.parametrize("outside", [False, True], ids=["all in divisor", "some outside"])
    def test_scatter_index_widths_agree_across_a_slab_boundary(self, monkeypatch, limit, outside):
        """The scatter computes flag indices in ``int32`` below 2³¹ flags and
        in ``intp`` from there on; a limit of 0 reaches the wide branch
        without a 2 GB flag matrix.  Both equal the reference loop, also
        where the input spans several slabs (the last one partial)."""
        from repro.physical.compile import kernels

        monkeypatch.setattr(kernels, "_SWEEP_SLAB", 1 << 10)
        if limit is not None:
            monkeypatch.setattr(NumpyBitsetKernel, "_NARROW_INDEX_LIMIT", limit)
        count, width, entries, tuples = 50, 70, 90, 2_500 + 37
        candidates = numpy.array([(i * 31) % count for i in range(tuples)], dtype=numpy.int32)
        values = numpy.array([(i * 7) % entries for i in range(tuples)], dtype=numpy.int32)
        positions = [code if code < width else -1 for code in range(entries)]
        if not outside:
            positions = [code % width for code in range(entries)]
        assert count * 128 <= 16 * tuples  # the scatter branch, two words
        python = PythonBitsetKernel().gather_sweep(count, candidates, values, positions, width)
        vectorized = NumpyBitsetKernel().gather_sweep(count, candidates, values, positions, width)
        as_ints = [sum(int(word) << (64 * i) for i, word in enumerate(row)) for row in vectorized]
        assert as_ints == python

    def test_wide_masks_stay_vectorized(self, monkeypatch):
        """No width-based fallback: the Python reference is never consulted."""

        def forbidden(*_args, **_kwargs):
            raise AssertionError("numpy kernel fell back to the Python reference")

        for name in ("full_matches", "subset_matches", "equal_matches", "popcount_matches"):
            monkeypatch.setattr(PythonBitsetKernel, name, forbidden)
        wide = [(1 << 80) - 1] * 39 + [1 << 79]
        full = (1 << 80) - 1
        kernel = NumpyBitsetKernel()
        assert list(kernel.full_matches(wide, full)) == list(range(39))
        assert list(kernel.subset_matches(wide, 1 << 79)) == list(range(40))
        assert list(kernel.equal_matches(wide, [full] * 40)) == list(range(39))
        assert list(kernel.popcount_matches(wide, 1)) == [39]
        assert list(kernel.full_matches(wide, (1 << 200) - 1)) == []

    def test_popcount_matches_reference(self):
        masks = [0b1011, 0b0110, 0b1111, 0b0001] * 10
        python = PythonBitsetKernel().popcount_matches(list(masks), 2)
        vectorized = NumpyBitsetKernel().popcount_matches(list(masks), 2)
        assert list(vectorized) == list(python) == sorted(python)

    def test_subset_and_equal_matches_reference(self):
        masks = [0b101, 0b111, 0b010, 0b110] * 10
        python = PythonBitsetKernel()
        vectorized = NumpyBitsetKernel()
        for needed in (0b100, 0):
            subset = list(python.subset_matches(list(masks), needed))
            assert list(vectorized.subset_matches(list(masks), needed)) == subset == sorted(subset)
        fulls = [0b101, 0b011, 0b010, 0b110] * 10
        equal = list(python.equal_matches(list(masks), fulls))
        assert list(vectorized.equal_matches(list(masks), fulls)) == equal == sorted(equal)


# ----------------------------------------------------------------------
# the intersection scan (a division over a containment bitmap)
# ----------------------------------------------------------------------
#: Candidate counts across the vectorization threshold and the word edges.
INTERSECTION_COUNTS = (1, 31, 32, 33, 63, 64, 65, 200)
#: Value codes: 0 is held by every candidate, 1 by none.
INTERSECTION_VALUES = 80


def containment_input(count: int, seed: int):
    """``(value codes, candidate codes)`` of a relation whose candidate
    ``a`` holds value 0, never value 1, and a random half of the rest —
    at least 32 tuples, so the numpy sweep builds word rows."""
    rng = random.Random(seed)
    pairs = [
        (candidate, value)
        for candidate in range(count)
        for value in [0, *rng.sample(range(2, INTERSECTION_VALUES), INTERSECTION_VALUES // 2)]
    ]
    rng.shuffle(pairs)
    return [value for _, value in pairs], [candidate for candidate, _ in pairs]


def containment_rows(kernel, count, values, candidates):
    """Row ``b``: the candidates holding value ``b`` (the roles swapped)."""
    return kernel.gather_sweep(INTERSECTION_VALUES, values, candidates, range(count), count)


def intersection_sets(seed: int):
    """More than 64 sets: a repeated code, one of more than 64 values, the
    value every candidate holds, the one no candidate does."""
    rng = random.Random(seed)
    sets = [[0], [1], [0, 0], [5, 5, 9, 5], list(range(2, 70)), [0, 1]]
    sets += [rng.sample(range(INTERSECTION_VALUES), rng.randint(1, 4)) for _ in range(64)]
    return sets


def as_pairs(code_sets, seed: int):
    """The sets as ``(set codes, value codes)`` pairs, shuffled."""
    pairs = [(number, code) for number, codes in enumerate(code_sets) for code in codes]
    random.Random(seed).shuffle(pairs)
    return [number for number, _ in pairs], [code for _, code in pairs]


def intersection_definition(count, values, candidates, code_sets, allowed):
    """``(candidate, set)`` pairs by set, candidates ascending."""
    held = set(zip(candidates, values))
    return [
        (a, number)
        for number, codes in enumerate(code_sets)
        for a in range(count)
        if all((a, b) in held for b in codes) and allowed[a]
    ]


def hit_pairs(found):
    candidates, sets = found
    assert isinstance(candidates, numpy.ndarray) and isinstance(sets, numpy.ndarray)
    return list(zip(candidates.tolist(), sets.tolist()))


#: Each value's row is its own code, except value 3: it has no row.
ROW_OF = [code if code != 3 else -1 for code in range(INTERSECTION_VALUES)]


@pytest.mark.parametrize("count", INTERSECTION_COUNTS)
@pytest.mark.parametrize("table", ["none", "random", "no hits", "every candidate"])
def test_intersection_matches_equals_the_python_reference(count, table):
    values, candidates = containment_input(count, seed=count)
    code_sets = intersection_sets(seed=count + 1) + [[3], [0, 3]]
    set_codes, value_codes = as_pairs(code_sets, seed=count + 3)
    rng = random.Random(count + 2)
    allowed = {
        "none": None,
        "random": numpy.array([rng.random() < 0.5 for _ in range(count)]),
        "no hits": numpy.zeros(count, dtype=bool),
        "every candidate": numpy.ones(count, dtype=bool),
    }[table]
    python, vectorized = PythonBitsetKernel(), NumpyBitsetKernel()
    rows = containment_rows(vectorized, count, values, candidates)
    assert rows.shape == (INTERSECTION_VALUES, -(-count // 64))
    reference_rows = containment_rows(python, count, values, candidates)
    assert reference_rows == [
        sum(int(word) << (64 * i) for i, word in enumerate(row)) for row in rows
    ]
    packed = None if allowed is None else packed_table(allowed)
    arguments = (set_codes, value_codes, ROW_OF, count, packed)
    reference = hit_pairs(python.intersection_matches(rows, *arguments))
    found = hit_pairs(vectorized.intersection_matches(rows, *arguments))
    truth = allowed if allowed is not None else [True] * count
    emptied = [[code if code != 3 else 1 for code in codes] for codes in code_sets]
    expected = intersection_definition(count, values, candidates, emptied, truth)
    assert found == reference == expected
    # The value every candidate holds, the one none holds: no padding bit
    # past ``count`` is ever reported.
    assert [a for a, number in found if number == 0] == [a for a in range(count) if truth[a]]
    assert all(a < count for a, _ in found)
    assert not [number for _, number in found if number in (1, 5, 70, 71)]


@pytest.mark.parametrize("count", INTERSECTION_COUNTS)
def test_the_reference_sweep_packed_to_words_is_the_numpy_sweep(count):
    """The Python reference sweep's ``int`` rows, packed into the bitmap's
    one row form, are the numpy sweep's rows word for word, ``⌈count/64⌉``
    words a row; their bytes (a saved store's words) read back in place."""
    values, candidates = containment_input(count, seed=count + 9)
    rows = containment_rows(NumpyBitsetKernel(), count, values, candidates)
    reference_rows = containment_rows(PythonBitsetKernel(), count, values, candidates)
    packed = bitmap_rows(reference_rows, INTERSECTION_VALUES, count)
    assert packed.dtype == rows.dtype == numpy.dtype("<u8")
    assert packed.shape == rows.shape == (INTERSECTION_VALUES, -(-count // 64))
    assert numpy.array_equal(packed, rows)
    assert numpy.array_equal(bitmap_rows(rows.tobytes(), INTERSECTION_VALUES, count), rows)
    empty = (0, rows.shape[1])
    assert bitmap_rows([], 0, count).shape == bitmap_rows(b"", 0, count).shape == empty


@pytest.mark.parametrize("count", [0, 1, 7, 8, 63, 64, 65, 130])
def test_packed_table_is_a_bitmap_row(count):
    """A truth table packs into the words of a containment-bitmap row over
    the same dictionary: bit ``i`` is entry ``i``, the padding is clear."""
    rng = random.Random(count)
    table = numpy.array([rng.random() < 0.5 for _ in range(count)], dtype=bool)
    packed = packed_table(table)
    assert packed.dtype == numpy.dtype("<u8") and packed.shape == (-(-count // 64),)
    as_int = int.from_bytes(packed.tobytes(), "little")
    assert as_int == sum(1 << i for i in range(count) if table[i])


@pytest.mark.parametrize("count", [20, 200])
def test_packed_candidates_restrict_both_kernels_alike(count):
    """A packed candidate table is one more row ANDed into every set, on
    the reference and vectorized."""
    values, candidates = containment_input(count, seed=count + 5)
    code_sets = intersection_sets(seed=count + 6)
    set_codes, value_codes = as_pairs(code_sets, seed=count + 7)
    rng = random.Random(count + 8)
    allowed = numpy.array([rng.random() < 0.3 for _ in range(count)], dtype=bool)
    python, vectorized = PythonBitsetKernel(), NumpyBitsetKernel()
    rows = containment_rows(vectorized, count, values, candidates)
    arguments = (set_codes, value_codes, list(range(INTERSECTION_VALUES)), count)
    expected = intersection_definition(count, values, candidates, code_sets, allowed)
    packed = packed_table(allowed)
    assert hit_pairs(python.intersection_matches(rows, *arguments, packed)) == expected
    assert hit_pairs(vectorized.intersection_matches(rows, *arguments, packed)) == expected


@pytest.mark.parametrize(
    "kernel", [PythonBitsetKernel(), NumpyBitsetKernel()], ids=["python", "numpy"]
)
def test_intersection_matches_over_a_sweep_of_under_32_tuples(kernel):
    """A sweep of under 32 tuples gives the reference's ``int`` rows; packed
    into words, both kernels answer from them."""
    masks = NumpyBitsetKernel().gather_sweep(3, [0, 1, 1, 2], [0, 0, 1, 1], range(2), 2)
    assert masks == [0b01, 0b11, 0b10]
    rows = bitmap_rows(masks, 3, 2)
    found = kernel.intersection_matches(rows, [2, 0, 1, 0, 2], [0, 1, 0, 2, 2], [0, 1, 2], 2)
    assert hit_pairs(found) == [(1, 0), (0, 1)]
    assert hit_pairs(kernel.intersection_matches(rows, [], [], [0, 1, 2], 2)) == []
    assert hit_pairs(kernel.intersection_matches(numpy.zeros((3, 1), "<u8"), [], [], [], 2)) == []


@pytest.mark.parametrize("count", [40, 2500])
def test_few_values_over_short_rows_go_to_the_reference(count, monkeypatch):
    """Under 32 divisor values gathering under ``_MIN_VECTOR_WORDS`` words,
    the numpy kernel hands the scan to the reference, which reads its word
    rows as ``int`` rows; the answer is the vectorized one."""
    values, candidates = containment_input(count, seed=count)
    set_codes, value_codes = as_pairs([[0, 7, 9], [4], [5, 5, 6, 8]], seed=1)
    rows = containment_rows(NumpyBitsetKernel(), count, values, candidates)
    arguments = (rows, set_codes, value_codes, list(range(INTERSECTION_VALUES)), count)
    reference = PythonBitsetKernel.intersection_matches
    handed = []

    def spy(self, rows, *args):
        handed.append(type(rows).__name__)
        return reference(self, rows, *args)

    monkeypatch.setattr(PythonBitsetKernel, "intersection_matches", spy)
    found = hit_pairs(NumpyBitsetKernel().intersection_matches(*arguments))
    assert handed == ["ndarray"]
    from repro.physical.compile import kernels

    monkeypatch.setattr(kernels, "_MIN_VECTOR_WORDS", 0)
    assert hit_pairs(NumpyBitsetKernel().intersection_matches(*arguments)) == found
    assert handed == ["ndarray"]  # vectorized this time
    assert found  # value 0: every candidate


def test_intersection_matches_cut_into_passes(monkeypatch):
    """Sets whose rows outgrow one pass are answered over several."""
    from repro.physical.compile import kernels

    monkeypatch.setattr(kernels, "_MATCH_SLAB", 8)
    count = 200  # four words a row: two rows a pass
    values, candidates = containment_input(count, seed=7)
    code_sets = intersection_sets(seed=8)
    set_codes, value_codes = as_pairs(code_sets, seed=9)
    rows = containment_rows(NumpyBitsetKernel(), count, values, candidates)
    found = NumpyBitsetKernel().intersection_matches(
        rows, set_codes, value_codes, list(range(INTERSECTION_VALUES)), count
    )
    expected = intersection_definition(count, values, candidates, code_sets, [True] * count)
    assert hit_pairs(found) == expected
