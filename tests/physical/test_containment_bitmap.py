"""A division answered from the containment bitmap equals the row sweep.

The division operators that sweep the dividend's codes (hash, merge-count
and merge-sort small divides; nested-loops and groupwise great divides)
answer a dividend that is a relation's whole block, or a restricted block a
one-attribute ``Filter`` made of one, from the relation's containment
bitmap.  The reference here is the same algorithm with that path switched
off (``_reads_bitmap = False``: the row sweep every other input takes), so
the two runs differ in nothing but the path.  Quotients and every
operator's ``tuples_out`` must be identical, under both kernels, and the
tests say which path each case must take.
"""

import sys

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algebra import predicates as P
from repro.division import great_divide, small_divide
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    Filter,
    RelationScan,
    execute_plan,
    use_kernel,
)
from repro.physical.compile.kernels import NumpyBitsetKernel, PythonBitsetKernel
from repro.physical.division.keys import _containment_bitmap
from repro.relation import Relation
from repro.relation import encoding
from repro.workloads import make_division_workload, make_great_division_workload

#: The algorithms that read the bitmap, by division kind.
SWEEPING = {
    "small": ("hash", "merge_count", "merge_sort"),
    "great": ("nested_loops", "groupwise"),
}
CASES = [(kind, algorithm) for kind, names in SWEEPING.items() for algorithm in names]
KERNELS = ("python", "numpy")

FILTERS = {
    "none": None,
    "A": P.less_than(P.attr("a"), 14),
    "B": P.not_equals(P.attr("b"), 3),
    "A and B": P.And(P.less_than(P.attr("a"), 14), P.not_equals(P.attr("b"), 3)),
}


def algorithm_class(kind, algorithm, row_sweep=False):
    registry = SMALL_DIVIDE_ALGORITHMS if kind == "small" else GREAT_DIVIDE_ALGORITHMS
    cls = registry[algorithm]
    if row_sweep:
        # The reference: the same algorithm, sweeping the dividend's codes.
        cls = type(f"RowSweep{cls.__name__}", (cls,), {"_reads_bitmap": False})
    return cls


def divide(kind, algorithm, dividend, divisor, predicate, row_sweep=False, batch_size=None):
    """``(plan, relation, tuples_by_operator)`` of one run."""
    left = RelationScan(dividend)
    if predicate is not None:
        left = Filter(left, predicate)
    plan = algorithm_class(kind, algorithm, row_sweep)(left, RelationScan(divisor))
    result = execute_plan(plan, batch_size=batch_size)
    return plan, result.relation, result.statistics.tuples_by_operator


def expected(kind, dividend, divisor, predicate):
    selected = dividend if predicate is None else dividend.select(predicate)
    return (small_divide if kind == "small" else great_divide)(selected, divisor)


def check(kind, algorithm, kernel, dividend, divisor, predicate, bitmap, batch_size=None):
    """Run both paths, compare them and the definition; assert the path."""
    with use_kernel(kernel):
        plan, relation, counts = divide(
            kind, algorithm, dividend, divisor, predicate, batch_size=batch_size
        )
        _, reference, reference_counts = divide(
            kind, algorithm, dividend, divisor, predicate, row_sweep=True, batch_size=batch_size
        )
    assert relation == reference == expected(kind, dividend, divisor, predicate)
    assert counts == reference_counts
    assert (plan._bitmap_source is not None) == bitmap, plan._bitmap_source
    return plan


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
PAIRS = st.tuples(st.integers(0, 24), st.integers(0, 9))
#: Divisor values reach past the dividend's domain (10, 11: never in it).
DIVISOR_VALUES = st.integers(0, 11)


@st.composite
def inputs(draw, kind):
    dividend = Relation(["a", "b"], draw(st.lists(PAIRS, min_size=0, max_size=120)))
    if kind == "small":
        divisor = Relation(["b"], [(b,) for b in draw(st.lists(DIVISOR_VALUES, max_size=5))])
    else:
        rows = draw(st.lists(st.tuples(DIVISOR_VALUES, st.integers(0, 3)), max_size=10))
        divisor = Relation(["b", "c"], rows)
    return dividend, divisor


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("kind, algorithm", CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bitmap_equals_the_row_sweep(kind, algorithm, kernel, data):
    dividend, divisor = data.draw(inputs(kind))
    name = data.draw(st.sampled_from(sorted(FILTERS)))
    # An A∧B filter that drops a tuple restricts two attributes: the row
    # path (one that keeps every tuple hands the whole block on).  So does
    # a small divide by an empty divisor (every candidate that occurs).  An
    # empty (or emptied) dividend hands the division no chunk at all.
    selected = dividend if FILTERS[name] is None else dividend.select(FILTERS[name])
    whole = name != "A and B" or len(selected) == len(dividend)
    bitmap = whole and (kind == "great" or len(divisor) > 0) and len(selected) > 0
    check(kind, algorithm, kernel, dividend, divisor, FILTERS[name], bitmap)


# ----------------------------------------------------------------------
# the named cases
# ----------------------------------------------------------------------
def grid(candidates, values, holds):
    pairs = [(a, b) for a in range(candidates) for b in range(values)]
    return Relation(["a", "b"], [(a, b) for a, b in pairs if holds(a, b)])


#: 40 candidates over 10 values: candidate ``a`` lacks value ``a % 10``
#: unless ``a`` is a multiple of 3, so containment differs per candidate.
DIVIDEND = grid(40, 10, lambda a, b: b != a % 10 or a % 3 == 0)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("kind, algorithm", CASES)
@pytest.mark.parametrize("name", sorted(FILTERS))
def test_each_filter(kind, algorithm, kernel, name):
    divisor = (
        Relation(["b"], [(0,), (3,), (7,)])
        if kind == "small"
        else Relation(["b", "c"], [(0, "x"), (3, "x"), (7, "y"), (1, "y")])
    )
    plan = check(kind, algorithm, kernel, DIVIDEND, divisor, FILTERS[name], name != "A and B")
    if name in ("A", "B"):
        assert plan._bitmap_source.endswith(
            "σ on a masks candidates" if name == "A" else "σ on b masks values"
        )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("algorithm", SWEEPING["small"])
def test_a_selection_on_b_that_drops_a_divisor_value_empties_the_quotient(algorithm, kernel):
    divisor = Relation(["b"], [(0,), (3,)])
    assert len(small_divide(DIVIDEND, divisor)) > 0
    check("small", algorithm, kernel, DIVIDEND, divisor, FILTERS["B"], True)
    assert len(expected("small", DIVIDEND, divisor, FILTERS["B"])) == 0


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("algorithm", SWEEPING["small"])
@pytest.mark.parametrize("name", ["none", "A", "B"])
def test_an_empty_divisor_sweeps(algorithm, kernel, name):
    """Every candidate that occurs divides by nothing: the row path."""
    quotient = expected("small", DIVIDEND, Relation(["b"], []), FILTERS[name])
    assert len(quotient) > 0
    check("small", algorithm, kernel, DIVIDEND, Relation(["b"], []), FILTERS[name], False)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("kind, algorithm", CASES)
def test_divisor_values_missing_from_the_dictionary(kind, algorithm, kernel):
    if kind == "small":
        divisor = Relation(["b"], [(0,), (42,)])
    else:  # group "x" holds a value the dividend never has, group "y" does not
        divisor = Relation(["b", "c"], [(0, "x"), (42, "x"), (0, "y"), (5, "y")])
    for name in ("none", "A", "B"):
        check(kind, algorithm, kernel, DIVIDEND, divisor, FILTERS[name], True)
    if kind == "great":
        assert expected(kind, DIVIDEND, divisor, None).to_set("c") == {"y"}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("algorithm", SWEEPING["great"])
def test_groups_that_share_values(algorithm, kernel):
    groups = [(0, 1), (1, 2), (0, 1, 2), (2,), (9, 0)]
    divisor = Relation(["b", "c"], [(b, c) for c, values in enumerate(groups) for b in values])
    for name in ("none", "A", "B"):
        check("great", algorithm, kernel, DIVIDEND, divisor, FILTERS[name], True)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("kind, algorithm", CASES)
@pytest.mark.parametrize("batch_size", [1, 7, 1024])
def test_a_set_batch_size_sweeps(kind, algorithm, kernel, batch_size):
    if kind == "small":
        divisor = Relation(["b"], [(0,), (3,)])
    else:
        divisor = Relation(["b", "c"], [(0, 1), (3, 2)])
    for name in ("none", "A"):
        check(kind, algorithm, kernel, DIVIDEND, divisor, FILTERS[name], False, batch_size)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("kind, algorithm", CASES)
def test_a_bitmap_over_the_size_bound_falls_back(kind, algorithm, kernel):
    """100 candidates with one value each over 100 values: two words a row
    (1 600 bytes) against 800 bytes of codes, so no bitmap is built."""
    dividend = Relation(["a", "b"], [(i, i) for i in range(100)])
    divisor = Relation(["b"], [(7,)]) if kind == "small" else Relation(["b", "c"], [(7, 0), (8, 1)])
    for name in ("none", "A"):
        check(kind, algorithm, kernel, dividend, divisor, FILTERS[name], False)
    assert dividend._summaries is not None  # asked, and refused
    asked = [value for key, value in dividend._summaries.items() if key[0] == "containment"]
    assert asked == [None]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("kind, algorithm", CASES)
def test_a_folded_value_builds_its_own_bitmap(kind, algorithm, kernel):
    """Edits fold into a new value; its bitmap is its own.  The edits move
    candidates in and out of the quotient, so a bitmap carried over from
    the parent value would answer wrongly."""
    dividend = "(SELECT a, b FROM r1 WHERE a < 14) AS x"
    if kind == "small":
        divisor = Relation(["b"], [(0,), (3,)])
        text = f"SELECT a FROM {dividend} DIVIDE BY r2 AS y ON x.b = y.b"
    else:
        divisor = Relation(["b", "c"], [(0, "x"), (3, "x"), (4, "y")])
        text = f"SELECT a, c FROM {dividend} DIVIDE BY r2 AS y ON x.b = y.b"
    db = repro.connect({"r1": DIVIDEND, "r2": divisor}, result_cache_size=0)
    query = db.sql(text)
    with use_kernel(kernel):
        first = query.run().relation
        parent = db.relation("r1")
        # Candidates in and out of the quotient (of group "x"): the edits
        # swap them.
        members = {values[0] for values in first.to_tuples() if values[1:] in ((), ("x",))}
        member = min(a for a in members if (a, 0) in DIVIDEND.to_tuples())
        outsider = min(a for a in range(14) if a not in members)
        db.delete("r1", [(member, 0)])
        db.insert("r1", [(outsider, b) for b in range(10)])
        second = query.run().relation
        folded = db.relation("r1")
    assert folded is not parent
    assert second == expected(kind, folded, divisor, FILTERS["A"]) != first
    key = ("containment", 0, 1)  # over (a, b)
    assert parent._summaries[key] is not None and folded._summaries[key] is not None
    assert folded._summaries[key] is not parent._summaries[key]


# ----------------------------------------------------------------------
# the trap: a warm division over a large table reads no codes
# ----------------------------------------------------------------------
@pytest.fixture
def large_reads(monkeypatch):
    """``(call, codes)`` for every ``gather_sweep``, ``take`` and
    ``mask_positions`` call the engine makes over 1 000 codes or more."""
    reads = []

    def counted(function, name, codes_at):
        def wrapper(*args):
            if len(args[codes_at]) >= 1000:
                reads.append((name, len(args[codes_at])))
            return function(*args)

        return wrapper

    for name, codes_at in (("take", 1), ("mask_positions", 0)):
        original = getattr(encoding, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("repro") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(original, name, codes_at))
    for cls in (PythonBitsetKernel, NumpyBitsetKernel):
        monkeypatch.setattr(cls, "gather_sweep", counted(cls.gather_sweep, "gather_sweep", 2))
    return reads


@pytest.mark.parametrize("kind", ["small", "great"])
def test_a_warm_division_over_a_large_table_reads_no_codes(kind, large_reads):
    """The second run of ``σ_A(r1) ÷ r2`` and of ``r1 ÷* r2`` over a 100k
    table: the filter sums frequencies and the division reads the cached
    bitmap, so nothing gathers, takes or sweeps the table's codes."""
    if kind == "small":
        workload = make_division_workload(
            num_groups=9000, divisor_size=10, containing_fraction=0.2,
            extra_values_per_group=6, seed=11,
        )  # fmt: skip
        text = (
            "SELECT a FROM (SELECT a, b FROM r1 WHERE a < 4500) AS x DIVIDE BY r2 AS y ON x.b = y.b"
        )
    else:
        workload = make_great_division_workload(
            dividend_groups=9000, dividend_group_size=12, divisor_groups=8,
            divisor_group_size=3, domain_size=24, seed=12,
        )  # fmt: skip
        text = "SELECT a, c FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b"
    assert len(workload.dividend) >= 100_000
    db = repro.connect({"r1": workload.dividend, "r2": workload.divisor}, result_cache_size=0)
    first = db.sql(text).run()
    assert large_reads, "the first run builds the bitmap (and the trap sees it)"
    large_reads.clear()
    second = db.sql(text).run()
    assert large_reads == []
    assert second.relation == first.relation and len(second.relation) > 0
    assert second.statistics.tuples_by_operator == first.statistics.tuples_by_operator
    explained = db.sql(text).explain(analyze=True)
    assert ("hash_division" if kind == "small" else "_great_division") in explained
    assert "· keys: cached codes (1 chunk) → coded quotient, kernel: numpy" in explained
    assert "· bitmap: a → b, " in explained and " rows × 9000 bits, " in explained


# ----------------------------------------------------------------------
# one row form: whatever the kernel, the bitmap is uint64 word rows
# ----------------------------------------------------------------------
#: Under and over the 32 tuples below which the numpy sweep hands its input
#: to the Python reference.
SIZES = {"under 32 tuples": 6, "32 tuples or more": 40}
ONE_FORM_DIVISORS = {
    "small": Relation(["b"], [(0,), (1,)]),
    "great": Relation(["b", "c"], [(0, "x"), (1, "x"), (2, "y")]),
}


def small_table(candidates):
    """``candidates`` × four values, a third of the pairs left out."""
    pairs = [(a, b) for a in range(candidates) for b in range(4) if (a + 2 * b) % 3]
    return Relation(["a", "b"], pairs)


def assert_word_rows(relation):
    """The relation holds one containment bitmap, as ``(|B|, ⌈|A|/64⌉)`` words."""
    held = {key: value for key, value in relation._summaries.items() if key[0] == "containment"}
    assert list(held) == [("containment", 0, 1)]
    rows, candidates, values, _origin = held["containment", 0, 1]
    assert isinstance(rows, numpy.ndarray) and rows.dtype == numpy.dtype("<u8")
    assert rows.shape == (len(values), max(1, -(-len(candidates) // 64)))
    return rows


@pytest.mark.parametrize("kind, algorithm", [("small", "hash"), ("great", "groupwise")])
@pytest.mark.parametrize("size", SIZES.values(), ids=SIZES.keys())
def test_the_python_kernel_builds_the_word_rows_the_numpy_kernel_reads(
    kind, algorithm, size, monkeypatch
):
    """Pinned to the Python kernel, a division builds the bitmap as word
    rows; a later numpy-kernel division reads that bitmap and sweeps
    nothing, for the same quotient."""
    dividend, divisor = small_table(size), ONE_FORM_DIVISORS[kind]
    assert (len(dividend) < 32) == (size == SIZES["under 32 tuples"])
    with use_kernel("python"):
        plan, first, _ = divide(kind, algorithm, dividend, divisor, None)
    assert plan.kernel_name == "python" and plan._bitmap_source is not None
    rows = assert_word_rows(dividend)
    sweeps = []
    for cls in (PythonBitsetKernel, NumpyBitsetKernel):
        sweep = cls.gather_sweep
        monkeypatch.setattr(
            cls, "gather_sweep", lambda *args, sweep=sweep: sweeps.append(1) or sweep(*args)
        )
    with use_kernel("numpy"):
        plan, second, _ = divide(kind, algorithm, dividend, divisor, None)
    assert plan.kernel_name == "numpy" and plan._bitmap_source is not None
    assert sweeps == []
    assert second == first == expected(kind, dividend, divisor, None)
    assert assert_word_rows(dividend) is rows


@pytest.mark.parametrize("size", SIZES.values(), ids=SIZES.keys())
@pytest.mark.parametrize("kernel", KERNELS)
def test_a_fold_under_either_kernel_patches_the_bitmap_to_a_fresh_build(kernel, size):
    dividend, divisor = small_table(size), ONE_FORM_DIVISORS["small"]
    removed = [values for values in dividend.aligned_tuples() if values[0] == 1]
    added = [(size, 0), (size, 1), (size + 1, 5)]  # a new candidate, a new value
    rows = lambda tuples: [tuple(values) for values in tuples]
    with use_kernel(kernel):
        divide("small", "hash", dividend, divisor, None)
        folded = dividend.with_delta(rows(added), rows(removed))
        plan, quotient, _ = divide("small", "hash", folded, divisor, None)
    patched = folded._summaries["containment", 0, 1]
    assert patched[3] == f"patched by a {len(removed) + len(added)}-row edit"
    assert plan._bitmap_source.endswith(patched[3])
    assert_word_rows(folded)
    fresh = _containment_bitmap(
        0, 1, Relation._from_block(folded.schema, list(folded.aligned_tuples()))
    )
    assert numpy.array_equal(patched[0], fresh[0]) and patched[1:3] == fresh[1:3]
    assert quotient == expected("small", folded, divisor, None)
