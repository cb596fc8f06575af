"""Bitset-kernel dispatch: python/numpy parity, wide masks, selection.

Results must never depend on the kernel in use: the numpy kernel keeps
masks as multi-word ``uint64`` arrays, so divisors wider than 64 bits stay
vectorized (no per-call Python fallback), and the match scans return
ascending indices — the same emission order as the reference.
"""

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
)
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

    @pytest.mark.parametrize("width", [1, 7, 63, 64, 65, 120, 200])
    def test_gather_sweep_matches_reference(self, width):
        count = 40
        candidates = [i % count for i in range(400)]
        values = [(i * 7) % 250 for i in range(400)]
        positions = [code if code < width else -1 for code in range(250)]
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
