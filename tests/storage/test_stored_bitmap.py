"""A division over a stored table reads the table's summaries, not its pages.

The planner sets a stored dividend's scan, whole or under one
single-attribute filter, to hand up one deferred block; the division then
answers from the containment bitmap the ``StoredRelation`` builds from one
checked read of its pages and keeps.  Three arms must agree on every
quotient, every operator's ``tuples_out`` and every scan's
``blocks_skipped``: the stored table, the same table in memory, and the
stored table with the bitmap switched off (``_reads_bitmap = False``: one
chunk per block, swept) — over the five bitmap-reading algorithms, both
kernels, four filters, and zone-map skipping on and off.
"""

import pytest

import repro
from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.algebra.catalog import Catalog
from repro.division import great_divide, small_divide
from repro.optimizer.planner import PhysicalPlanner, PlannerOptions
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    Filter,
    HashDivision,
    PartitionedDivision,
    RelationScan,
    execute_plan,
    use_kernel,
)
from repro.physical.base import Chunk
from repro.relation import Relation
from repro.storage.format import TableReader
from repro.storage.scan import StoredScan
from repro.storage.store import load_catalog, save_database

#: The algorithms that read the bitmap, by division kind.
READERS = {
    "small": ("hash", "merge_count", "merge_sort"),
    "great": ("nested_loops", "groupwise"),
}
CASES = [(kind, algorithm) for kind, names in READERS.items() for algorithm in names]
KERNELS = ("python", "numpy")
FILTERS = {
    "none": None,
    "A": P.less_than(P.attr("a"), 14),
    "B": P.not_equals(P.attr("b"), 3),
    "A and B": P.And(P.less_than(P.attr("a"), 14), P.not_equals(P.attr("b"), 3)),
}
BLOCK_SIZE = 25


def grid(candidates, values, holds):
    pairs = [(a, b) for a in range(candidates) for b in range(values)]
    return Relation(["a", "b"], [(a, b) for a, b in pairs if holds(a, b)])


#: 40 candidates over 10 values, clustered on ``a`` so a filter on ``a``
#: lets the zone maps skip blocks: candidate ``a`` lacks value ``a % 10``
#: unless ``a`` is a multiple of 3.
DIVIDEND = grid(40, 10, lambda a, b: b != a % 10 or a % 3 == 0).clustered(["a"])
DIVISORS = {
    "small": Relation(["b"], [(0,), (4,), (7,)]),
    "great": Relation(["b", "c"], [(0, "x"), (4, "x"), (7, "y"), (1, "y"), (42, "z")]),
}


def tables():
    return {"r": DIVIDEND, "small": DIVISORS["small"], "great": DIVISORS["great"]}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("stored-bitmap")
    catalog = Catalog()
    for name, relation in tables().items():
        catalog.add_table(name, relation)
    save_database(path, catalog, block_size=BLOCK_SIZE)
    return path


def expression(kind, predicate):
    dividend = B.ref("r", ["a", "b"])
    if predicate is not None:
        dividend = B.select(dividend, predicate)
    if kind == "small":
        return B.divide(dividend, B.ref("small", ["b"]))
    return B.great_divide(dividend, B.ref("great", ["b", "c"]))


def run(database, kind, algorithm, predicate, skipping):
    """``(plan, quotient, tuples_out per operator, blocks_skipped per scan)``."""
    option = "small_divide_algorithm" if kind == "small" else "great_divide_algorithm"
    planner = PhysicalPlanner(database, PlannerOptions(**{option: algorithm}))
    plan = planner.plan(expression(kind, predicate))
    scans = [operator for operator in plan.walk() if isinstance(operator, StoredScan)]
    if not skipping:
        for scan in scans:
            scan.skip_predicate = None
    result = execute_plan(plan)
    counts = list(result.statistics.tuples_by_operator.values())
    return plan, result.relation, counts, [scan.blocks_skipped for scan in scans]


def reference(kind, predicate):
    selected = DIVIDEND if predicate is None else DIVIDEND.select(predicate)
    return (small_divide if kind == "small" else great_divide)(selected, DIVISORS[kind])


@pytest.mark.parametrize("skipping", [True, False], ids=["skipping", "no-skipping"])
@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("kind, algorithm", CASES)
def test_stored_in_memory_and_swept_agree(
    store, monkeypatch, kind, algorithm, kernel, name, skipping
):
    predicate = FILTERS[name]
    stored = load_catalog(store)
    registry = SMALL_DIVIDE_ALGORITHMS if kind == "small" else GREAT_DIVIDE_ALGORITHMS
    with use_kernel(kernel):
        plan, quotient, counts, skipped = run(stored, kind, algorithm, predicate, skipping)
        _, in_memory, memory_counts, _ = run(tables(), kind, algorithm, predicate, skipping)
        with monkeypatch.context() as patch:
            patch.setattr(registry[algorithm], "_reads_bitmap", False)
            swept_plan, swept, swept_counts, swept_skipped = run(
                stored, kind, algorithm, predicate, skipping
            )
    assert quotient == in_memory == swept == reference(kind, predicate)
    assert counts == swept_counts and skipped == swept_skipped
    assert (skipped[0] > 0) == (skipping and name in ("A", "A and B"))
    # An in-memory scan has no blocks to skip: its count is the table's.
    operators = list(plan.walk())
    dividend_scan = next(op for op in operators if isinstance(op, StoredScan))
    position = operators.index(dividend_scan)
    assert memory_counts[position] == len(DIVIDEND)
    memory_counts[position] = counts[position]
    assert counts == memory_counts
    # Which path each arm took: the bitmap unless the filter reads two
    # attributes; the swept arm streams block by block.
    one_attribute = name != "A and B"
    assert dividend_scan.one_block == one_attribute
    assert (plan._bitmap_source is not None) == one_attribute
    assert not any(op.one_block for op in swept_plan.walk() if isinstance(op, StoredScan))
    assert swept_plan._bitmap_source is None


@pytest.mark.parametrize("kind, algorithm", CASES)
def test_a_bitmap_read_never_reads_a_page(store, monkeypatch, kind, algorithm):
    """Warm, a division answered from the bitmap reads no page of the
    dividend (its scan's ``bytes_read`` stays 0), and a filter above it
    counts from the frequencies summary."""
    stored = load_catalog(store)
    run(stored, kind, algorithm, FILTERS["A"], True)  # builds the summaries
    calls = count_reads(monkeypatch)
    plan, *_ = run(stored, kind, algorithm, FILTERS["A"], True)
    dividend_scan = next(op for op in plan.walk() if isinstance(op, StoredScan))
    assert calls["r"] == 0 and dividend_scan.bytes_read == 0
    assert plan._bitmap_source.endswith("σ on a masks candidates")


@pytest.mark.parametrize("skipping", [True, False], ids=["skipping", "no-skipping"])
@pytest.mark.parametrize("algorithm", READERS["small"])
def test_a_sweep_over_one_block_reads_the_kept_blocks(store, monkeypatch, algorithm, skipping):
    """A small divide by an empty divisor sweeps (every candidate that
    occurs): the one block's pages are read then — the kept blocks only,
    checked, as the streaming scan reads them — and the counts agree."""
    stored = load_catalog(store)
    empty = Relation(["b"], [])
    stored_tables = {**stored, "small": empty}
    predicate = FILTERS["A"]
    plan, quotient, counts, skipped = run(stored_tables, "small", algorithm, predicate, skipping)
    with monkeypatch.context() as patch:
        patch.setattr(SMALL_DIVIDE_ALGORITHMS[algorithm], "_reads_bitmap", False)
        swept_plan, swept, swept_counts, swept_skipped = run(
            stored_tables, "small", algorithm, predicate, skipping
        )
    assert quotient == swept == small_divide(DIVIDEND.select(predicate), empty)
    assert counts == swept_counts and skipped == swept_skipped
    scan, swept_scan = (
        next(op for op in p.walk() if isinstance(op, StoredScan)) for p in (plan, swept_plan)
    )
    assert scan.one_block and plan._bitmap_source is None
    assert scan.bytes_read == swept_scan.bytes_read > 0


@pytest.mark.parametrize("name", ["none", "A", "B"])
def test_a_stored_value_scanned_in_memory_agrees_with_its_summaries(store, name):
    """A stored value scanned as a relation (a literal operand) is encoded
    from its pages, over the same dictionaries its summaries read, so the
    restriction's truth table indexes the chunk's codes."""
    stored = load_catalog(store)["r"]
    left = RelationScan(stored)
    if FILTERS[name] is not None:
        left = Filter(left, FILTERS[name])
    plan = HashDivision(left, RelationScan(DIVISORS["small"]))
    assert execute_plan(plan).relation == reference("small", FILTERS[name])
    assert plan._bitmap_source is not None
    pages = stored.reader.dictionary_pages
    assert all(c.dictionary is page for c, page in zip(stored.encoded_columns(), pages))
    assert not stored.is_loaded


def count_reads(monkeypatch):
    """Count ``TableReader.iter_block_columns`` calls by table."""
    calls = {"r": 0, "small": 0, "great": 0}
    original = TableReader.iter_block_columns

    def counted(self, *args, **kwargs):
        calls[self.table] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TableReader, "iter_block_columns", counted)
    return calls


DIVISION = "SELECT a FROM r AS x DIVIDE BY small AS y ON x.b = y.b"
#: Great divides: their rewrites inspect no data, so every read is the plan's.
GREAT = "SELECT a, c FROM r AS x DIVIDE BY great AS y ON x.b = y.b"
FILTERED = (
    "SELECT a, c FROM (SELECT a, b FROM r WHERE a < 14) AS x "
    "DIVIDE BY great AS y ON x.b = y.b"
)


def test_the_bitmap_is_read_once_per_opened_table(store, monkeypatch):
    """The first division of a session reads the dividend's pages once (one
    checked read per summary it builds); a second warm division reads
    none; a fresh ``connect(path)`` builds the bitmap again."""
    calls = count_reads(monkeypatch)
    db = repro.connect(store, result_cache_size=0)
    first = db.sql(GREAT).run()
    assert calls["r"] == 1
    second = db.sql(GREAT).run()
    assert calls["r"] == 1
    assert first.relation == second.relation == great_divide(DIVIDEND, DIVISORS["great"])
    stored = db.relation("r")
    assert ("containment", 0, 1) in stored._summaries
    assert not stored.is_loaded and stored._encoding is None  # neither pages nor tuples kept
    db.sql(FILTERED).run()  # the frequencies of ``a``: one more read
    assert calls["r"] == 2
    assert db.sql(FILTERED).run().relation == reference("great", FILTERS["A"])
    assert calls["r"] == 2
    fresh = repro.connect(store, result_cache_size=0)
    assert fresh.sql(GREAT).run().relation == first.relation
    assert calls["r"] == 3
    assert calls["great"] == 5  # the divisor streams its blocks every time


def chunk_lengths(monkeypatch):
    """Record the length of every chunk a stored scan hands up."""
    lengths = []
    original = StoredScan._produce_chunks

    def recorded(self):
        for chunk in original(self):
            lengths.append(len(chunk))
            yield chunk

    monkeypatch.setattr(StoredScan, "_produce_chunks", recorded)
    one_blocks = []
    base_block = Chunk.base_block
    monkeypatch.setattr(
        Chunk, "base_block", lambda *args: one_blocks.append(args) or base_block(*args)
    )
    return lengths, one_blocks


QUERIES = {
    "join": lambda db: db.table("r").join(db.table("great")),
    "group-by": lambda db: db.table("r").group_by(["b"], n=("count", "a")),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_joins_and_aggregates_still_stream_blocks(store, monkeypatch, name):
    lengths, one_blocks = chunk_lengths(monkeypatch)
    db = repro.connect(store, result_cache_size=0)
    expected = QUERIES[name](repro.connect(tables())).run().relation
    assert QUERIES[name](db).run().relation == expected
    assert one_blocks == []
    assert len(lengths) > 2 and max(lengths) <= BLOCK_SIZE


def test_a_budgeted_exchange_still_streams_blocks(store, monkeypatch):
    lengths, one_blocks = chunk_lengths(monkeypatch)
    db = repro.connect(store, result_cache_size=0, memory_budget_mb=0.0005)
    result = db.sql(DIVISION)
    plan_text = result.explain()
    assert "PartitionedDivision" in plan_text
    assert result.run().relation == small_divide(DIVIDEND, DIVISORS["small"])
    assert one_blocks == []
    assert len(lengths) > 2 and max(lengths) <= BLOCK_SIZE


def test_a_set_batch_size_slices_blocks(store, monkeypatch):
    """``batch_size`` slices a one-block scan block by block, as any scan."""
    lengths, one_blocks = chunk_lengths(monkeypatch)
    db = repro.connect(store, result_cache_size=0, batch_size=10)
    assert db.sql(DIVISION).run().relation == small_divide(DIVIDEND, DIVISORS["small"])
    assert one_blocks == [] and max(lengths) <= 10


def test_an_exchange_dividend_is_not_one_block(store):
    """The planner marks a dividend only where no exchange routes it."""
    catalog = load_catalog(store)
    planner = PhysicalPlanner(catalog, memory_budget_mb=0.0005)
    plan = planner.plan(expression("small", None))
    assert isinstance(plan, PartitionedDivision)
    assert not any(op.one_block for op in plan.walk() if isinstance(op, StoredScan))


# ----------------------------------------------------------------------
# the summary section: a store saved after warm divisions carries the bitmap
# ----------------------------------------------------------------------
def table_files(path):
    """Table file contents by table index (names differ by generation tag)."""
    return {file.name.split(".")[0]: file.read_bytes() for file in sorted(path.glob("*.rpb"))}


@pytest.fixture(scope="module")
def sectioned(store, tmp_path_factory):
    """The store re-saved by a session whose divisions built ``r``'s bitmap."""
    path = tmp_path_factory.mktemp("sectioned")
    db = repro.connect(store, result_cache_size=0)
    for kernel in KERNELS:
        with use_kernel(kernel):
            db.sql(GREAT).run()
            db.sql(FILTERED).run()
    db.save(path, block_size=BLOCK_SIZE)
    return path


def test_a_save_writes_the_bitmaps_the_session_holds(store, sectioned):
    plain, carried = load_catalog(store)["r"], load_catalog(sectioned)["r"]
    assert plain.stored_bitmaps() == {}  # saved before any division
    bitmaps = carried.stored_bitmaps()
    assert list(bitmaps) == [(0, 1)]  # one bitmap for both kernels' summaries
    candidates, values = carried.reader.dictionary_pages
    assert len(bitmaps[0, 1]) == 8 * len(values) * -(-len(candidates) // 64)
    # The divisors never divide: no section, their files as the source's.
    for name in ("small", "great"):
        assert load_catalog(sectioned)[name].stored_bitmaps() == {}


@pytest.mark.parametrize("skipping", [True, False], ids=["skipping", "no-skipping"])
@pytest.mark.parametrize("name", ["none", "A", "B"])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("kind, algorithm", CASES)
def test_a_read_bitmap_agrees_with_a_built_one(
    store, sectioned, kind, algorithm, kernel, name, skipping
):
    """The same quotient and every operator's ``tuples_out`` from a store
    with the section, one without, and the tables in memory."""
    predicate = FILTERS[name]
    with use_kernel(kernel):
        plan, quotient, counts, skipped = run(
            load_catalog(sectioned), kind, algorithm, predicate, skipping
        )
        built_plan, built, built_counts, built_skipped = run(
            load_catalog(store), kind, algorithm, predicate, skipping
        )
        _, in_memory, memory_counts, _ = run(tables(), kind, algorithm, predicate, skipping)
    assert quotient == built == in_memory == reference(kind, predicate)
    assert counts == built_counts and skipped == built_skipped
    position = next(i for i, op in enumerate(plan.walk()) if isinstance(op, StoredScan))
    memory_counts[position] = counts[position]  # an in-memory scan skips no block
    assert counts == memory_counts
    assert ", read from the store" in plan._bitmap_source
    blocks = len(load_catalog(store)["r"].reader.blocks)
    assert f", built from {blocks} blocks" in built_plan._bitmap_source


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_cold_first_division_reads_no_dividend_block(sectioned, monkeypatch, kernel):
    calls = count_reads(monkeypatch)
    db = repro.connect(sectioned, result_cache_size=0)
    stored = db.relation("r")
    with use_kernel(kernel):
        result = db.sql(GREAT).run()
        explained = db.sql(GREAT).explain(analyze=True)
    assert result.relation == great_divide(DIVIDEND, DIVISORS["great"])
    assert calls["r"] == 0
    assert "read 0 bytes" in explained
    assert "· bitmap: a → b, 10 rows × 40 bits, read from the store" in explained
    rows = stored._summaries[("containment", 0, 1)][0]
    assert rows.dtype.str == "<u8"  # word rows, whatever the kernel
    assert not stored.is_loaded and stored._encoding is None


def test_explain_says_where_the_bitmap_came_from(store):
    in_memory = repro.connect(tables(), result_cache_size=0)
    explained = in_memory.sql(GREAT).explain(analyze=True)
    assert "10 rows × 40 bits, built from the encoding\n" in explained
    blocks = -(-len(DIVIDEND) // BLOCK_SIZE)
    explained = repro.connect(store, result_cache_size=0).sql(GREAT).explain(analyze=True)
    assert f"10 rows × 40 bits, built from {blocks} blocks\n" in explained


def test_a_resave_keeps_a_section_it_never_loaded(sectioned, tmp_path, monkeypatch):
    calls = count_reads(monkeypatch)
    repro.connect(sectioned).save(tmp_path / "copy", block_size=BLOCK_SIZE)
    assert table_files(tmp_path / "copy") == table_files(sectioned)
    assert calls["r"] == 0


def test_a_resave_after_reading_the_section_writes_it_again(sectioned, tmp_path):
    db = repro.connect(sectioned, result_cache_size=0)
    for kernel in KERNELS:
        with use_kernel(kernel):
            db.sql(GREAT).run()
    db.save(tmp_path / "copy", block_size=BLOCK_SIZE)
    assert table_files(tmp_path / "copy") == table_files(sectioned)
    # Re-cut to another block size, the bitmap (over dictionary codes) is kept.
    db.save(tmp_path / "recut", block_size=BLOCK_SIZE * 2)
    recut = load_catalog(tmp_path / "recut")["r"]
    assert recut.stored_bitmaps() == load_catalog(sectioned)["r"].stored_bitmaps()
    assert repro.connect(tmp_path / "recut").sql(GREAT).run().relation == great_divide(
        DIVIDEND, DIVISORS["great"]
    )


def test_a_bitmap_over_the_bound_is_never_written(tmp_path):
    """One tuple per candidate over many values: the bitmap would outgrow
    the code buffers, so the session holds ``None`` and the file no section."""
    wide = Relation(["a", "b"], [(a, a) for a in range(300)])
    divisor = Relation(["b", "c"], [(1, "x"), (2, "y")])
    db = repro.connect({"r": wide, "great": divisor}, result_cache_size=0)
    assert db.sql(GREAT).run().relation == great_divide(wide, divisor)
    assert db.relation("r")._summaries == {("containment", 0, 1): None}
    db.save(tmp_path / "wide")
    assert load_catalog(tmp_path / "wide")["r"].stored_bitmaps() == {}
