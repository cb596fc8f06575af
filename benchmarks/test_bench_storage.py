"""Benchmarks for the persistent columnar store (zone maps + metadata).

The acceptance contract of the storage subsystem:

* a **selective scan over a clustered stored table** with a zone-map skip
  predicate reads exactly the one block that can match (1 of 79, its
  payload bytes and no more) and skips the other 78 — and skipping never
  costs time (the ``zone-map-skip`` row of ``gates.py``: its execution
  takes at most the full stored scan's; each store is opened off the
  clock, since the cold open is the same for both arms);
* ``ANALYZE`` on a **cold-opened store** is a metadata read — save-time
  statistics from the table-file header — and costs at most the
  ``metadata-analyze`` row's fraction of a full statistics scan (decode
  every block + columnar pass);
* ``explain(analyze=True)`` reports the skipped block count.

The counters and result-equality assertions always run;
``gates.check_gate`` times the arms unless ``--benchmark-disable``.
"""

from functools import partial

import pytest

import repro
from gates import check_gate
from repro.algebra import predicates as P
from repro.algebra.catalog import Catalog
from repro.optimizer.statistics import TableStatistics
from repro.physical import Filter, execute_plan
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.storage.scan import StoredScan

#: Stored-table shape: clustered on ``k`` so the zone maps partition the
#: key range cleanly across blocks.
ROWS = 160_000
BLOCK_SIZE = 2048
#: The selective predicate keeps one block's worth of keys.
SELECTIVE_HIGH = BLOCK_SIZE
#: Blocks of the stored table: ``ROWS / BLOCK_SIZE`` rounded up.
BLOCKS = -(-ROWS // BLOCK_SIZE)

SCAN_MODES = ("full", "skipping")
ANALYZE_MODES = ("fullscan", "metadata")


def _table_rows():
    return [(i, i % 97, f"s{i % 13}") for i in range(ROWS)]


@pytest.fixture(scope="session")
def store_path(tmp_path_factory):
    """A saved store with one big clustered table (``k`` ascending)."""
    schema = Schema.interned(("k", "g", "s"))
    relation = Relation.from_aligned(schema, _table_rows()).clustered(["k"])
    catalog = Catalog()
    catalog.add_table("big", relation, key=["k"])
    path = tmp_path_factory.mktemp("store") / "bench-db"
    repro.connect(catalog).save(path, block_size=BLOCK_SIZE)
    return str(path)


def _selective_predicate():
    return P.less_than(P.attr("k"), SELECTIVE_HIGH)


def _scan_plan(path: str, skipping: bool):
    """Filter over a cold StoredScan; ``skipping`` arms the zone maps."""
    stored = repro.connect(path).catalog["big"]
    scan = StoredScan(stored, "big")
    if skipping:
        scan.set_skip_predicate(_selective_predicate())
    return Filter(scan, _selective_predicate())


def _metadata_analyze(path: str):
    """Cold open + ANALYZE: reads save-time statistics, decodes no block."""
    return repro.connect(path).analyze()


def _fullscan_statistics(path: str):
    """Cold open + full statistics pass: decode every block, then scan.

    ``clustered(["k"])`` restores the stored scan order (``from_aligned``
    rebuilds it from a row set) so the sortedness figures are comparable.
    """
    stored = repro.connect(path).catalog["big"]
    relation = Relation.from_aligned(stored.schema, stored.aligned_tuples()).clustered(["k"])
    return TableStatistics.from_relation(relation)


@pytest.mark.parametrize(
    "mode", [pytest.param(mode, id=f"selective-{mode}") for mode in SCAN_MODES]
)
def test_selective_scan(benchmark, store_path, mode):
    """Selective filter over the stored table, with and without zone maps."""
    skipping = mode == "skipping"
    result = benchmark(lambda: execute_plan(_scan_plan(store_path, skipping)))
    reference = execute_plan(_scan_plan(store_path, not skipping))
    assert result.relation == reference.relation
    assert len(result.relation) == SELECTIVE_HIGH


@pytest.mark.parametrize(
    "mode", [pytest.param(mode, id=f"cold-{mode}") for mode in ANALYZE_MODES]
)
def test_cold_analyze(benchmark, store_path, mode):
    """ANALYZE of a cold-opened store: metadata read vs full scan."""
    if mode == "metadata":
        report = benchmark(lambda: _metadata_analyze(store_path))
        statistics = report.tables["big"]
    else:
        statistics = benchmark(lambda: _fullscan_statistics(store_path))
    assert statistics.cardinality == ROWS
    assert statistics.minimum("k") == 0
    assert statistics.maximum("k") == ROWS - 1
    assert statistics.is_sorted("k")


def test_block_skipping_speedup_bound(request, store_path):
    """Same-run gate: zone-map skipping reads one block of 79, its payload
    bytes only, and never costs time over the full scan; the skipped block
    count shows up in ``explain(analyze=True)``."""
    full_plan, skipping_plan = _scan_plan(store_path, False), _scan_plan(store_path, True)
    assert execute_plan(full_plan).relation == execute_plan(skipping_plan).relation
    full, skipping = full_plan.children[0], skipping_plan.children[0]
    assert (full.blocks_total, full.blocks_skipped) == (BLOCKS, 0)
    assert (skipping.blocks_total, skipping.blocks_skipped) == (BLOCKS, BLOCKS - 1)
    assert skipping.bytes_read == skipping.relation.reader.blocks[0]["length"]

    db = repro.connect(store_path, cost_based=True)
    text = db.sql(f"SELECT k, g FROM big WHERE k < {SELECTIVE_HIGH}").explain(analyze=True)
    assert f"skipped={BLOCKS - 1}" in text, text

    def execution(skipping):
        """Open the store and build the plan off the clock; time the run."""
        return partial(execute_plan, _scan_plan(store_path, skipping))

    check_gate(request, "zone-map-skip", partial(execution, True), partial(execution, False))


def test_metadata_analyze_speedup_bound(request, store_path):
    """Same-run gate: metadata ANALYZE costs a fraction of the full
    statistics scan and reports the same figures."""
    via_metadata = _metadata_analyze(store_path).tables["big"]
    via_fullscan = _fullscan_statistics(store_path)
    assert via_metadata.cardinality == via_fullscan.cardinality
    assert dict(via_metadata.distinct_values) == dict(via_fullscan.distinct_values)
    assert dict(via_metadata.minima) == dict(via_fullscan.minima)
    assert dict(via_metadata.maxima) == dict(via_fullscan.maxima)
    assert via_metadata.sorted_attributes == via_fullscan.sorted_attributes
    assert via_metadata.lexicographic_prefix == via_fullscan.lexicographic_prefix

    check_gate(
        request,
        "metadata-analyze",
        lambda: partial(_metadata_analyze, store_path),
        lambda: partial(_fullscan_statistics, store_path),
    )
