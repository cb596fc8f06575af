"""Benchmarks for the physical small-divide algorithms.

* Each algorithm over the same scanned inputs.  A scan with no batch size
  hands the division its relation's whole block, and hash, merge-sort and
  merge-count division all answer that block from the relation's
  containment bitmap: their three timings are one bitmap path under three
  names, not Graefe's comparison of the algorithms.  Nested loops sweeps
  on purpose and the algebra simulation has no sweep, so those two still
  time their own algorithms.
* Leinders & Van den Bussche's result — the algebra simulation produces a
  quadratic intermediate result while the special-purpose operators stay
  linear (measured via the operators' tuple counters).
"""

import pytest

from repro.division import small_divide
from repro.physical import SMALL_DIVIDE_ALGORITHMS, RelationScan, execute_plan


@pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
def test_small_divide_algorithm(benchmark, small_divide_workload, algorithm):
    """Graefe-style algorithm comparison on the same inputs."""
    dividend = small_divide_workload.dividend
    divisor = small_divide_workload.divisor
    operator_class = SMALL_DIVIDE_ALGORITHMS[algorithm]

    def run():
        operator = operator_class(RelationScan(dividend), RelationScan(divisor))
        return operator.execute()

    result = benchmark(run)
    assert len(result) == small_divide_workload.expected_quotient_size


def test_logical_reference_implementation(benchmark, small_divide_workload):
    """The logical (grouping-based) reference evaluation, for calibration."""
    result = benchmark(
        small_divide, small_divide_workload.dividend, small_divide_workload.divisor
    )
    assert len(result) == small_divide_workload.expected_quotient_size


@pytest.mark.parametrize("algorithm", ["hash", "algebra_simulation"])
def test_intermediate_result_size(benchmark, large_divide_workload, algorithm):
    """First-class operator vs algebra simulation: intermediate result sizes.

    The benchmark's return value checks the paper's complexity claim: the
    simulation's largest intermediate is |π_A(r1)| · |r2| tuples (quadratic
    in the input size), the hash-division never exceeds its input.
    """
    dividend = large_divide_workload.dividend
    divisor = large_divide_workload.divisor
    operator_class = SMALL_DIVIDE_ALGORITHMS[algorithm]

    def run():
        operator = operator_class(RelationScan(dividend), RelationScan(divisor))
        return execute_plan(operator)

    outcome = benchmark(run)
    assert len(outcome.relation) == large_divide_workload.expected_quotient_size
    candidates = len(dividend.project(["a"]))
    if algorithm == "algebra_simulation":
        assert outcome.max_intermediate >= candidates * len(divisor)
    else:
        assert outcome.max_intermediate <= len(dividend)
