"""The key-column seam: cached codes ≡ on-the-fly encoding, everywhere.

A division operator's input either carries code columns (a scan of an
in-memory relation: the keys are read from the relation's cached
dictionary codes) or it does not (a ``PartitionSource`` over plain tuples,
join output: the keys are encoded on the fly).  The two must be
indistinguishable: same quotient, same per-operator tuple counts — for
every algorithm, kernel, batch size and divisor width, for single and
composite keys, mixed-type columns, ``1 == 1.0 == True`` key collisions
and the empty divisor.

A cached single-attribute side is the column *as it is* — codes over the
column's own dictionary, where a selection below the division leaves keys no
tuple carries — so the second half of this file filters dividend and
divisor every way that matters (on ``A``, on ``B``, down to nothing, down to
one group fewer) and holds every algorithm to the definition.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import predicates as P
from repro.division import great_divide, small_divide
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    Filter,
    PartitionSource,
    PhysicalOperator,
    RelationScan,
    execute_plan,
    use_kernel,
)
from repro.physical.compile.kernels import PythonBitsetKernel, active_kernel
from repro.physical.division.keys import encode_keys
from repro.relation import Relation
from repro.relation.schema import Schema

BATCH_SIZES = (1, 3, 1024)
DIVISOR_WIDTHS = (1, 63, 64, 65, 120, 200)
ALGORITHMS = [("small", name) for name in sorted(SMALL_DIVIDE_ALGORITHMS)] + [
    ("great", name) for name in sorted(GREAT_DIVIDE_ALGORITHMS)
]

#: How a key's integer identity is dressed up as a value.
FLAVOURS = {
    "ints": lambda i: i,
    "strings": lambda i: f"v{i:04d}",
    # ints and strings in one column: min/max and ``<`` raise on it
    "mixed": lambda i: i if i % 2 else f"v{i:04d}",
    # 1, 1.0 and True are one key: equal and hash-equal
    "colliding": lambda i: (i, float(i), i == 1)[i % 3] if i < 2 else i,
}


def plain(relation: Relation) -> PartitionSource:
    """The same tuples as a leaf without code columns (an un-encoded copy)."""
    return PartitionSource(relation.schema.names, list(relation.aligned_tuples()))


@st.composite
def divisions(draw, kind: str, width: int):
    """A dividend/divisor pair whose divisor has ``width`` distinct values
    (``width`` split over a few groups for the great divide)."""
    candidates = draw(st.integers(min_value=1, max_value=40))
    composite = draw(st.booleans())
    value_of = FLAVOURS[draw(st.sampled_from(sorted(FLAVOURS)))]
    key_of = FLAVOURS[draw(st.sampled_from(sorted(FLAVOURS)))]
    empty_divisor = draw(st.integers(min_value=0, max_value=9)) == 0
    # Candidates below `complete` own every divisor value; the others own a
    # drawn share of the value domain (which is wider than the divisor).
    complete = draw(st.integers(min_value=0, max_value=min(candidates, 3)))
    share = draw(st.sampled_from([0.0, 0.3, 0.9]))
    picks = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    domain = width + 5
    rows = []
    for candidate in range(candidates):
        if candidate < complete:
            owned = range(domain)
        else:
            owned = [value for value in range(domain) if picks.random() < share] or [domain - 1]
        key = (key_of(candidate), f"g{candidate % 3}") if composite else (key_of(candidate),)
        rows.extend(key + (value_of(value),) for value in owned)
    names = ("a1", "a2", "b") if composite else ("a1", "b")
    dividend = Relation(names, rows)
    values = [] if empty_divisor else range(width)
    if kind == "small":
        divisor = Relation(["b"], [(value_of(value),) for value in values])
    else:
        divisor = Relation(["b", "c"], [(value_of(value), f"c{value % 4}") for value in values])
    return dividend, divisor


def operator_class(kind: str, algorithm: str):
    return (SMALL_DIVIDE_ALGORITHMS if kind == "small" else GREAT_DIVIDE_ALGORITHMS)[algorithm]


@pytest.mark.parametrize("width", DIVISOR_WIDTHS)
@pytest.mark.parametrize("kind,algorithm", ALGORITHMS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_cached_codes_equal_on_the_fly_encoding(kind, algorithm, width, data):
    dividend, divisor = data.draw(divisions(kind, width))
    build = operator_class(kind, algorithm)
    reference = None
    for kernel in ("python", "numpy"):
        for batch_size in BATCH_SIZES:
            with use_kernel(kernel):
                coded_plan = build(RelationScan(dividend), RelationScan(divisor))
                coded = execute_plan(coded_plan, batch_size=batch_size)
                plain_plan = build(plain(dividend), plain(divisor))
                uncoded = execute_plan(plain_plan, batch_size=batch_size)
            if algorithm != "algebra_simulation":  # it has no key columns of its own
                assert coded_plan.key_source.startswith("cached codes (")
                assert plain_plan.key_source.startswith("encoded on the fly → ")
                emitted = coded_plan.key_source.rpartition(" → ")[2]
                assert emitted == ("tuples" if len(dividend.schema) > 2 else "coded quotient")
            assert coded.relation == uncoded.relation
            counts = [
                list(outcome.statistics.tuples_by_operator.values()) for outcome in (coded, uncoded)
            ]
            assert counts[0] == counts[1]  # labels differ only in the leaf's name
            if reference is None:
                reference = coded
            assert coded.relation == reference.relation
            assert (
                coded.statistics.tuples_by_operator == reference.statistics.tuples_by_operator
            )


class TestEncodeKeys:
    """The seam itself: codes index keys, ``dense()`` on demand, composite keys."""

    def test_cached_and_on_the_fly_sides_decode_to_the_same_keys(self):
        relation = Relation(["a", "b", "c"], [(i % 5, f"x{i % 3}", i % 2) for i in range(60)])
        schemas = (Schema(["a"]), Schema(["b", "c"]))
        cached = encode_keys(RelationScan(relation), *schemas)
        fresh = encode_keys(plain(relation), *schemas)
        assert (cached.source, fresh.source) == ("cached codes (1 chunk)", "encoded on the fly")
        for coded, uncoded in zip(cached.sides, fresh.sides):
            decode = [coded.keys[code] for code in list(coded.codes)]
            assert decode == [uncoded.keys[code] for code in uncoded.codes]
            assert coded.single == uncoded.single == (not isinstance(decode[0], tuple))
            assert sorted(set(map(int, coded.codes))) == list(range(len(coded.keys)))

    def test_a_single_attribute_side_is_the_column_as_it_is_until_asked_dense(self):
        """A selection leaves dictionary entries no tuple carries: the side
        is the column's own codes over its own dictionary (a key may not
        occur), ``dense()`` renumbers onto the keys that do — and returns
        the side itself where that is already known."""
        relation = Relation(["a", "b"], [(i % 6, f"x{i}") for i in range(60)])
        scan = RelationScan(relation)
        column = relation.encoded_columns()[0]
        (whole,) = encode_keys(scan, Schema(["a"])).sides
        assert whole.codes is column.codes and whole.keys is column.dictionary
        assert whole.dense().keys is column.dictionary  # every entry occurs: nothing to do

        class Kept(PhysicalOperator):
            name = "kept"

            def _produce_chunks(self):
                for chunk in self.children[0].chunks():
                    mask = flag_table((values[0] % 2 for values in chunk.tuples), len(chunk))
                    yield chunk.selected(mask, mask_count(mask))

        from repro.relation.encoding import flag_table, mask_count

        (side,) = encode_keys(Kept(relation.schema, (scan,)), Schema(["a"])).sides
        assert side.keys is column.dictionary and len(side.codes) == 30
        dense = side.dense()
        assert sorted(dense.keys) == [1, 3, 5] and dense.dense() is dense
        assert [dense.keys[code] for code in list(dense.codes)] == [
            side.keys[code] for code in list(side.codes)
        ]
        for composite in encode_keys(scan, Schema(["a", "b"])).sides + encode_keys(
            plain(relation), Schema(["a"])
        ).sides:
            assert composite.dense() is composite

    @pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
    def test_an_empty_divisor_yields_the_candidates_that_occur(self, algorithm):
        """``width == 0``: every mask matches, so the candidates must be
        asked ``dense()`` — under a dictionary filter the table-wide
        dictionary holds suppliers the surviving tuples no longer carry,
        and they are not in the quotient.  (The divisor is emptied by a
        selection too: its keys are all still in ``parts``' dictionary.)"""
        import repro
        from repro.optimizer.planner import PlannerOptions

        supplies = Relation(
            ["s", "p"], [(f"s{i:02d}", f"p{j}") for i in range(40) for j in range(1 + i % 3)]
        )
        parts = Relation(["p", "color"], [(f"p{j}", "red") for j in range(4)])
        db = repro.connect(
            {"supplies": supplies, "parts": parts},
            planner_options=PlannerOptions(small_divide_algorithm=algorithm),
        )
        query = db.sql(
            "SELECT s FROM (SELECT s, p FROM supplies WHERE s < 's20') AS d "
            "DIVIDE BY (SELECT p FROM parts WHERE color = 'blue') AS w ON d.p = w.p"
        )
        assert query.run().relation.to_tuples(["s"]) == {(f"s{i:02d}",) for i in range(20)}
        if algorithm != "algebra_simulation":
            assert "· keys: cached codes (1 chunk) → coded quotient" in query.explain(analyze=True)

    @pytest.mark.parametrize("algorithm", sorted(GREAT_DIVIDE_ALGORITHMS))
    def test_a_divisor_group_selected_away_is_no_group(self, algorithm):
        """``σ`` on the divisor removes every red part: ``red`` stays in
        ``parts``' dictionary but must not be a group — it would need
        nothing, and every supplier in the dictionary (selected away or
        not) would supply all of it."""
        import repro
        from repro.optimizer.planner import PlannerOptions

        supplies = Relation(
            ["s", "p"], [(f"s{i:02d}", f"p{j}") for i in range(40) for j in range(6) if (i + j) % 5]
        )
        parts = Relation(["p", "color"], [(f"p{j}", ("red", "blue", "green")[j % 3]) for j in range(6)])
        db = repro.connect(
            {"supplies": supplies, "parts": parts},
            planner_options=PlannerOptions(great_divide_algorithm=algorithm),
        )
        query = db.sql(
            "SELECT s, color FROM (SELECT s, p FROM supplies WHERE s < 's20') AS d "
            "DIVIDE BY (SELECT p, color FROM parts WHERE color <> 'red') AS w ON d.p = w.p"
        )
        expected = great_divide(
            supplies.select(lambda row: row["s"] < "s20"),
            parts.select(lambda row: row["color"] != "red"),
        )
        assert query.run().relation == expected
        assert 0 < len(expected) and "red" not in expected.to_set("color")
        assert "· keys: cached codes (1 chunk) → coded quotient" in query.explain(analyze=True)

    def test_mixed_chunk_streams_encode_on_the_fly(self):
        """Coded chunks over *different* dictionaries (two scans passed
        through unchanged) cannot share cached codes; the seam must notice
        and encode the values."""

        class Concatenation(PhysicalOperator):
            name = "concatenation"

            def _produce_chunks(self):
                for child in self.children:
                    yield from child.chunks()

        left = Relation(["a", "b"], [(1, 1), (1, 2)])
        right = Relation(["a", "b"], [(2, 1), (2, 2), (3, 1)])
        divisor = Relation(["b"], [(1,), (2,)])
        both = Concatenation(left.schema, (RelationScan(left), RelationScan(right)))
        plan = SMALL_DIVIDE_ALGORITHMS["hash"](both, RelationScan(divisor))
        assert execute_plan(plan).relation.to_tuples(["a"]) == {(1,), (2,)}
        assert plan.key_source == "encoded on the fly → coded quotient"

    @pytest.mark.parametrize("kind", ["small", "great"])
    def test_a_composite_key_past_int64_merges_through_a_dict(self, kind, monkeypatch):
        """Five key attributes of 8 192 values each: their mixed-radix
        composite (2⁶⁵) overflows int64, so the candidate side is merged as
        code tuples (``_merge_by_dict``).  Through the front door the
        quotient is still the definition's."""
        from repro.api import connect
        from repro.relation import encoding

        wide = 1 << 13
        rows = [(i,) * 5 + (x,) for i in range(wide) for x in range(3) if (i + x) % 4]
        dividend = Relation([*"abcde", "x"], rows)
        if kind == "small":
            divisor, reference = Relation(["x"], [(0,), (1,), (2,)]), small_divide
        else:
            divisor = Relation(["x", "g"], [(0, 0), (1, 0), (1, 1), (2, 1)])
            reference = great_divide
        merged = []
        by_dict = encoding._merge_by_dict

        def counted(columns, dictionaries):
            merged.append(len(dictionaries))
            return by_dict(columns, dictionaries)

        monkeypatch.setattr(encoding, "_merge_by_dict", counted)
        db = connect({"r1": dividend, "r2": divisor})
        query = getattr(db.table("r1"), "divide" if kind == "small" else "great_divide")("r2")
        expected = reference(dividend, divisor)
        assert len(expected) >= wide // 4
        assert query.run().relation == expected
        assert 5 in merged
        assert "→ tuples" in query.explain(analyze=True)


@pytest.mark.parametrize("kind,algorithm", ALGORITHMS)
def test_120_bit_divisor_runs_the_numpy_kernel_without_python_fallback(
    kind, algorithm, monkeypatch
):
    """A 120-value divisor needs two mask words; every sweep and match scan
    must stay in the numpy kernel (the reference methods are booby-trapped)."""
    rows = [(candidate, value) for candidate in range(50) for value in range(125 - candidate % 9)]
    dividend = Relation(["a", "b"], rows)
    if kind == "small":
        divisor = Relation(["b"], [(value,) for value in range(120)])
    else:
        divisor = Relation(["b", "c"], [(value, 0) for value in range(120)])
    with use_kernel("python"):
        expected = execute_plan(
            operator_class(kind, algorithm)(RelationScan(dividend), RelationScan(divisor))
        ).relation
    assert len(expected) == sum(1 for candidate in range(50) if 125 - candidate % 9 >= 120)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("numpy kernel fell back to the Python reference")

    for name in (
        "gather_sweep",
        "merge_runs",
        "full_matches",
        "popcount_matches",
        "subset_matches",
        "equal_matches",
    ):
        monkeypatch.setattr(PythonBitsetKernel, name, forbidden)
    with use_kernel("numpy"):
        plan = operator_class(kind, algorithm)(RelationScan(dividend), RelationScan(divisor))
        assert execute_plan(plan).relation == expected


#: The algorithms that answer a whole block from its containment bitmap.
BITMAP_READERS = [
    ("small", "hash"), ("small", "merge_count"), ("small", "merge_sort"),
    ("great", "groupwise"), ("great", "nested_loops"),
]  # fmt: skip


@pytest.mark.parametrize("kind,algorithm", BITMAP_READERS)
def test_a_bitmap_division_runs_the_numpy_intersection_scan_without_python_fallback(
    kind, algorithm, monkeypatch
):
    """The same 120-value divisor over the table's whole block: the division
    reads the containment bitmap, and its intersection scan stays in the
    numpy kernel (the reference method is booby-trapped)."""
    rows = [(candidate, value) for candidate in range(50) for value in range(125 - candidate % 9)]
    dividend = Relation(["a", "b"], rows)
    if kind == "small":
        divisor = Relation(["b"], [(value,) for value in range(120)])
    else:
        divisor = Relation(["b", "c"], [(value, value % 2) for value in range(120)])
    with use_kernel("python"):
        expected = execute_plan(
            operator_class(kind, algorithm)(RelationScan(dividend), RelationScan(divisor))
        ).relation
    assert len(expected) > 0

    def forbidden(*_args, **_kwargs):
        raise AssertionError("numpy kernel fell back to the Python reference")

    monkeypatch.setattr(PythonBitsetKernel, "intersection_matches", forbidden)
    with use_kernel("numpy"):
        plan = operator_class(kind, algorithm)(RelationScan(dividend), RelationScan(divisor))
        assert execute_plan(plan).relation == expected
    assert plan._bitmap_source is not None


# ----------------------------------------------------------------------
# the run-merge kernel (merge-sort division)
# ----------------------------------------------------------------------
MERGE_WIDTHS = (1, 63, 64, 65, 200)


def mask_ints(masks) -> list[int]:
    """Kernel masks (Python ints, or rows of little-endian uint64 words)."""
    if isinstance(masks, list):
        return masks
    return [sum(int(word) << (64 * index) for index, word in enumerate(row)) for row in masks]


def merge_input(width: int, order: str, seed: int):
    """``(count, candidate codes, value codes, positions)``: 40 candidates
    over ``width + 5`` value codes, five of them outside the divisor."""
    rng = random.Random(seed)
    count, values = 40, width + 5
    pairs = [
        (candidate, value)
        for candidate in range(count)
        for value in rng.sample(range(values), rng.randint(0, values))
    ]
    if order == "clustered":
        pairs.sort(key=lambda pair: pair[0])
    elif order == "descending":
        pairs.sort(key=lambda pair: -pair[0])
    else:
        rng.shuffle(pairs)
    bits = list(range(width)) + [-1] * 5
    rng.shuffle(bits)  # positions[value code] = divisor bit, or -1
    return count, [c for c, _ in pairs], [v for _, v in pairs], bits


def reference_masks(count, candidates, values, positions):
    """The definition: OR every tuple's divisor bit into its candidate."""
    masks = [0] * count
    for candidate, value in zip(candidates, values):
        if positions[value] >= 0:
            masks[candidate] |= 1 << positions[value]
    return masks


@pytest.mark.parametrize("kernel", ("python", "numpy"))
@pytest.mark.parametrize("width", MERGE_WIDTHS)
@pytest.mark.parametrize("order", ["clustered", "descending", "unclustered"])
def test_merge_runs_equals_the_definition(kernel, width, order):
    from repro.relation.encoding import code_buffer

    count, candidates, values, positions = merge_input(width, order, seed=width)
    expected = reference_masks(count, candidates, values, positions)
    assert any(expected) and len(candidates) >= 32
    with use_kernel(kernel):
        active = active_kernel()
        for buffers in (list, lambda codes: code_buffer(codes, len(codes))):
            merged = active.merge_runs(
                count, buffers(candidates), buffers(values), positions, width
            )
            assert mask_ints(merged) == expected
            swept = active.gather_sweep(count, buffers(candidates), buffers(values), positions, width)
            assert mask_ints(swept) == expected
        # Below the vector threshold the numpy kernel takes the Python body.
        few = active.merge_runs(count, candidates[:20], values[:20], positions, width)
        assert mask_ints(few) == reference_masks(count, candidates[:20], values[:20], positions)
        assert mask_ints(active.merge_runs(count, [], [], positions, width)) == [0] * count


@pytest.mark.parametrize("kernel", ("python", "numpy"))
def test_runs_cut_by_a_slab_boundary_land_in_one_slot(kernel, monkeypatch):
    from repro.physical.compile import kernels

    monkeypatch.setattr(kernels, "_SWEEP_SLAB", 7)
    count, candidates, values, positions = merge_input(65, "clustered", seed=5)
    with use_kernel(kernel):
        merged = active_kernel().merge_runs(count, candidates, values, positions, 65)
    assert mask_ints(merged) == reference_masks(count, candidates, values, positions)


# ----------------------------------------------------------------------
# the gather sweep: byte flags scattered and packed, or ``bitwise_or.at``
# ----------------------------------------------------------------------
SWEEP_WIDTHS = (0, 1, 63, 64, 65, 130)


def sweep_input(width: int, missing: str, candidates: int, seed: int):
    """400 ``(candidate, value)`` pairs drawn with replacement — pairs
    repeat, as a join's output does — over ``candidates`` candidates;
    ``missing`` says how many value codes sit outside the divisor."""
    rng = random.Random(seed)
    positions = {
        "all": [-1] * (width + 5),
        "some": list(range(width)) + [-1] * 5,
        "none": list(range(width)),
    }[missing]
    rng.shuffle(positions)
    pairs = [(rng.randrange(candidates), rng.randrange(len(positions))) for _ in range(400)]
    assert len(set(pairs)) < len(pairs)
    return [c for c, _ in pairs], [v for _, v in pairs], positions


@pytest.mark.parametrize("slab", [1 << 16, 50], ids=["one-slab", "eight-slabs"])
@pytest.mark.parametrize("candidates", [5, 300], ids=["scatter", "ufunc.at"])
@pytest.mark.parametrize(
    "width,missing",
    [  # an empty divisor leaves no value inside it: no (0, "none")
        (width, missing)
        for width in SWEEP_WIDTHS
        for missing in ("all", "some", "none")
        if width or missing != "none"
    ],
)
def test_gather_sweep_equals_the_python_reference(
    width, missing, candidates, slab, monkeypatch, ufunc_at_calls
):
    """Both routes of the numpy sweep, on either side of their rule (the
    flag matrix against 16 bytes a tuple: 5 candidates scatter, 300 go
    through ``ufunc.at``), build the masks of the Python loop bit for bit."""
    from repro.physical.compile import kernels
    from repro.relation.encoding import code_buffer

    monkeypatch.setattr(kernels, "_SWEEP_SLAB", slab)
    codes, values, positions = sweep_input(width, missing, candidates, seed=width + candidates)
    expected = PythonBitsetKernel().gather_sweep(candidates, codes, values, positions, width)
    assert mask_ints(expected) == reference_masks(candidates, codes, values, positions)
    with use_kernel("numpy"):
        swept = active_kernel().gather_sweep(
            candidates,
            code_buffer(codes, len(codes)),
            code_buffer(values, len(values)),
            positions,
            width,
        )
    assert swept.shape == (candidates, max(1, -(-width // 64)))
    assert mask_ints(swept) == expected
    scatter = candidates * swept.shape[1] * 64 <= 16 * len(codes)
    assert scatter == (candidates == 5)
    assert bool(ufunc_at_calls) != scatter
    if not scatter:
        assert len(ufunc_at_calls) == -(-len(codes) // slab)


def test_a_selected_dividend_is_divided_without_a_slice_or_a_ufunc_at(monkeypatch, ufunc_at_calls):
    """``σ(r1) ÷ r2`` through the front door at 100k tuples: the scan hands
    up its block, the selection gathers it by position and the sweep
    scatters — the dividend's code columns are never cut into chunks (the
    quotient's are: 1 800 candidates in pieces of 1 024), and no
    ``bitwise_or.at`` walks the pairs."""
    from repro.api import connect
    from repro.division import small_divide
    from repro.relation.encoding import CodeColumn
    from repro.workloads import make_division_workload

    workload = make_division_workload(
        num_groups=9000, divisor_size=10, containing_fraction=0.2,
        extra_values_per_group=6, seed=11,
    )  # fmt: skip
    assert len(workload.dividend) >= 100_000
    db = connect({"r1": workload.dividend, "r2": workload.divisor})
    query = db.sql(
        "SELECT a FROM (SELECT a, b FROM r1 WHERE a < 4500) AS x DIVIDE BY r2 AS y ON x.b = y.b"
    )
    slices = []
    cut = CodeColumn.slice

    def counted_slice(self, start, stop):
        slices.append(len(self))
        return cut(self, start, stop)

    monkeypatch.setattr(CodeColumn, "slice", counted_slice)
    result = query.run()
    assert [size for size in slices if size > len(result.relation)] == []
    assert ufunc_at_calls == []
    assert result.statistics.max_intermediate == len(workload.dividend)
    assert "· keys: cached codes (1 chunk) → coded quotient, kernel: numpy" in query.explain(analyze=True)
    half = workload.dividend.select(lambda row: row["a"] < 4500)
    assert 0 < len(half) < len(workload.dividend)
    assert result.relation == small_divide(half, workload.divisor)


@pytest.mark.parametrize("kind", ["small", "great"])
def test_a_quotient_stays_columns_until_the_result(kind, monkeypatch):
    """``σ(r1) ÷ r2`` and ``σ(r1) ÷* r2`` at 100k tuples through the front
    door, plans warm: between the match scan and the result nothing counts
    the dividend's codes to renumber them (``bincount``), nothing builds a
    key tuple per quotient row, and the rows are built and hashed as one
    block — a handful of calls, none sized by the dividend or the quotient."""
    import numpy

    from repro.api import connect
    from repro.physical.division.keys import KeySide
    from repro.relation.row import Row
    from repro.workloads import make_division_workload, make_great_division_workload

    if kind == "small":
        workload = make_division_workload(
            num_groups=9000, divisor_size=10, containing_fraction=0.2,
            extra_values_per_group=6, seed=11,
        )  # fmt: skip
        text = "SELECT a FROM (SELECT a, b FROM r1 WHERE a < 4500) AS x DIVIDE BY r2 AS y ON x.b = y.b"
    else:
        workload = make_great_division_workload(
            dividend_groups=9000, dividend_group_size=12, divisor_groups=8,
            divisor_group_size=3, domain_size=24, seed=12,
        )  # fmt: skip
        text = "SELECT a, c FROM (SELECT a, b FROM r1 WHERE a < 4500) AS x DIVIDE BY r2 AS y ON x.b = y.b"
    assert len(workload.dividend) >= 100_000
    db = connect({"r1": workload.dividend, "r2": workload.divisor}, result_cache_size=0)
    expected = db.sql(text).run().relation  # statistics, plan and caches warm
    half = workload.dividend.select(lambda row: row["a"] < 4500)
    assert expected == (small_divide if kind == "small" else great_divide)(half, workload.divisor)
    assert len(expected) > 500

    counted = {"bincount": [], "from_schema": 0, "value_tuple": 0, "hash_values": 0}
    bincount, from_schema, hash_values = numpy.bincount, Row.from_schema.__func__, Schema.hash_values
    value_tuple = getattr(KeySide, "value_tuple", None)  # gone; trapped should it return

    def counted_bincount(codes, *args, **kwargs):
        counted["bincount"].append(len(codes))
        return bincount(codes, *args, **kwargs)

    def counted_from_schema(cls, schema, values):
        counted["from_schema"] += 1
        return from_schema(cls, schema, values)

    def counted_value_tuple(self, code):
        counted["value_tuple"] += 1
        return value_tuple(self, code)

    def counted_hash_values(self, values):
        counted["hash_values"] += 1
        return hash_values(self, values)

    monkeypatch.setattr(numpy, "bincount", counted_bincount)
    monkeypatch.setattr(Row, "from_schema", classmethod(counted_from_schema))
    monkeypatch.setattr(KeySide, "value_tuple", counted_value_tuple, raising=False)
    monkeypatch.setattr(Schema, "hash_values", counted_hash_values)
    result = db.sql(text).run()
    monkeypatch.undo()
    assert result.relation == expected
    assert result.statistics.max_intermediate == len(workload.dividend)
    assert [size for size in counted["bincount"] if size > len(workload.divisor)] == []
    assert (counted["from_schema"], counted["value_tuple"], counted["hash_values"]) == (0, 0, 0)


@pytest.mark.parametrize("clustered", [True, False])
def test_merge_sort_division_never_iterates_pairs_in_python(clustered, monkeypatch):
    """From 32 tuples up the sort and the merge are one array sweep in the
    kernel, no ``for candidate, bit in pairs``, whatever the scan order."""
    from repro.physical.division import small_divide_ops

    dividend = Relation(["a", "b"], [(a, b) for a in range(40) for b in range(70) if (a + b) % 11])
    if clustered:
        dividend = dividend.clustered(["a"])
    divisor = Relation(["b"], [(b,) for b in range(0, 70, 2) if b % 11])
    merge_sort = SMALL_DIVIDE_ALGORITHMS["merge_sort"]
    with use_kernel("python"):
        expected = execute_plan(merge_sort(RelationScan(dividend), RelationScan(divisor))).relation
    assert expected.to_tuples(["a"]) == {(0,), (11,), (22,), (33,)}

    def forbidden(*_args, **_kwargs):
        raise AssertionError("merge-sort division walked its pairs in Python")

    monkeypatch.setattr(PythonBitsetKernel, "merge_runs", forbidden)
    monkeypatch.setattr(small_divide_ops, "_pair_bits", forbidden)
    with use_kernel("numpy"):
        plan = merge_sort(RelationScan(dividend), RelationScan(divisor))
        assert execute_plan(plan).relation == expected
        assert plan.key_source == "cached codes (1 chunk) → coded quotient"
        assert plan.kernel_name == "numpy"


# ----------------------------------------------------------------------
# the seam's contract under selections: a key may not occur
# ----------------------------------------------------------------------
SELECTIONS = ("none", "on A", "on B", "empty dividend", "empty divisor", "a divisor group")
SET_BATCH_SIZES = (None, 1, 7, 1024)


def selected_division(kind, algorithm, selection, dividend, divisor, leaf):
    """``(plan, expected)``: the plan ``σ(dividend) ÷ σ(divisor)``
    over ``leaf`` scans — literal comparisons, so the filters run on the
    dictionaries and hand the division selected code columns — and the
    quotient the definition gives for the same selections."""
    half = max(dividend.to_set("a")) // 2
    kept_a = (P.less_equal(P.attr("a"), half), lambda row: row["a"] <= half)
    on_dividend = {
        "on A": kept_a,
        "on B": (P.greater_than(P.attr("b"), 1), lambda row: row["b"] > 1),
        "empty dividend": (P.less_than(P.attr("a"), -1), lambda row: False),
        # the divisor's selections meet a dividend whose candidates do not
        # all occur either
        "empty divisor": kept_a,
        "a divisor group": kept_a,
    }.get(selection)
    group = (
        (P.not_equals(P.attr("c"), "c0"), lambda row: row["c"] != "c0")
        if kind == "great"
        else (P.not_equals(P.attr("b"), 0), lambda row: row["b"] != 0)
    )
    on_divisor = {
        "empty divisor": (P.less_than(P.attr("b"), -1), lambda row: False),
        "a divisor group": group,
    }.get(selection)
    inputs, expected = [], []
    for relation, choice in ((dividend, on_dividend), (divisor, on_divisor)):
        scan = leaf(relation)
        inputs.append(scan if choice is None else Filter(scan, choice[0]))
        expected.append(relation if choice is None else relation.select(choice[1]))
    plan = operator_class(kind, algorithm)(*inputs)
    return plan, (small_divide if kind == "small" else great_divide)(*expected)


@st.composite
def filtered_divisions(draw, kind: str):
    """Up to 45 candidates (both sides of the kernels' vector threshold)
    over eight ``b`` values; the divisor takes a drawn few of them."""
    candidates = draw(st.integers(min_value=2, max_value=45))
    picks = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    share = draw(st.sampled_from([0.4, 0.8, 1.0]))
    rows = [
        (candidate, value)
        for candidate in range(candidates)
        for value in range(8)
        if candidate % 4 == 0 or picks.random() < share
    ]
    wanted = sorted(picks.sample(range(8), draw(st.integers(min_value=1, max_value=5))))
    if kind == "small":
        divisor = Relation(["b"], [(value,) for value in wanted])
    else:
        divisor = Relation(["b", "c"], [(value, f"c{value % 3}") for value in wanted])
    return Relation(["a", "b"], rows), divisor


def stored_leaf(directory: Path):
    """A leaf that writes the relation as a table file of 16-tuple blocks
    and scans that: one coded chunk per block over table-wide dictionaries."""
    from repro.storage import StoredRelation, StoredScan, TableReader
    from tests.storage.tables import write_tuples

    def leaf(relation):
        path = directory / f"t{len(list(directory.iterdir()))}.rpb"
        write_tuples(path, "t", relation.schema.names, relation.aligned_tuples(), block_size=16)
        return StoredScan(StoredRelation(TableReader(path)))

    return leaf


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("kind,algorithm", ALGORITHMS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_selected_inputs_divide_by_the_definition(kind, algorithm, selection, data):
    dividend, divisor = data.draw(filtered_divisions(kind))
    with tempfile.TemporaryDirectory() as directory:
        for leaf in (RelationScan, stored_leaf(Path(directory))):
            counts = None
            for batch_size in SET_BATCH_SIZES:
                plan, expected = selected_division(
                    kind, algorithm, selection, dividend, divisor, leaf
                )
                outcome = execute_plan(plan, batch_size=batch_size)
                assert outcome.relation == expected
                statistics = outcome.statistics
                run = (list(statistics.tuples_by_operator.values()), statistics.max_intermediate)
                assert counts in (None, run)  # where chunks are cut moves no count
                counts = run
            assert counts[0][0] == len(expected)


#: Per-operator counts of three fixed plans as the parent of the PR that made
#: the quotient a coded chunk produced them (walk order; the last number is
#: ``max_intermediate``).
FIXED_COUNTS = {
    # division, filter, scan, divisor scan
    ("small", "hash", "on A"): (14, 176, 352, 3, 352),
    # division, filter, scan, divisor filter, divisor scan
    ("great", "nested_loops", "a divisor group"): (44, 176, 352, 3, 5, 352),
    ("great", "groupwise", "on B"): (88, 264, 352, 5, 352),
}


@pytest.mark.parametrize("kind,algorithm,selection", sorted(FIXED_COUNTS))
def test_per_operator_counts_are_the_recorded_ones(kind, algorithm, selection):
    dividend = Relation(
        ["a", "b"], [(a, b) for a in range(60) for b in range(8) if a % 5 == 0 or (a + b) % 3]
    )
    if kind == "small":
        divisor = Relation(["b"], [(b,) for b in (0, 2, 5)])
    else:
        divisor = Relation(["b", "c"], [(b, f"c{b % 3}") for b in (0, 2, 3, 5, 7)])
    for batch_size in SET_BATCH_SIZES:
        plan, expected = selected_division(
            kind, algorithm, selection, dividend, divisor, RelationScan
        )
        outcome = execute_plan(plan, batch_size=batch_size)
        assert outcome.relation == expected
        statistics = outcome.statistics
        counts = (*statistics.tuples_by_operator.values(), statistics.max_intermediate)
        assert counts == FIXED_COUNTS[kind, algorithm, selection]
