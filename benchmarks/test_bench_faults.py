"""Benchmarks for the fault-tolerance machinery's no-fault overhead.

The reliability layer must be close to free when nothing fails: per-block
CRC32 checksums on the storage read path, checksummed writes on the save
path, and the fault-point consultations sprinkled through pool/storage/
spill code (a single module-level ``None`` check with no plan armed).

Each scenario times a **same-run pair** over one file layout (format 3):
the ``plain`` arm is written with ``checksums=False`` — no per-block CRCs,
nothing to verify on read — the ``guarded`` arm is the default checksummed
file.  (For the query scenario both are the same engine with no plan armed
— the fault points are always compiled in, which is exactly the overhead
being measured.)  The table is written from its code columns, encoded once
outside the timed region, as ``Database.save`` writes it.
``scripts/bench_compare.py --faults`` runs this file once and gates
``guarded / plain`` at ≤5% overhead
(:data:`FAULTS_OVERHEAD_BOUND` there), with an absolute jitter floor so
micro-scenarios cannot trip the gate on scheduler noise.
"""

import pytest

from repro.faults import active_plan
from repro.physical import SMALL_DIVIDE_ALGORITHMS, RelationScan, execute_plan
from repro.relation.encoding import encode_columns
from repro.relation.relation import Relation
from repro.storage.format import TableReader, column_blocks, write_table_file

ROWS = 120_000
BLOCK_SIZE = 2048

MODES = ("plain", "guarded")

ATTRIBUTES = ("k", "g", "s")


@pytest.fixture(scope="module")
def table_columns():
    """The table as code columns (what a relation caches and a save writes)."""
    return encode_columns([(i, i % 97, f"s{i % 13}") for i in range(ROWS)], len(ATTRIBUTES))


def _write(path, columns, mode):
    return write_table_file(
        path,
        "big",
        ATTRIBUTES,
        [column.dictionary for column in columns],
        column_blocks([column.codes for column in columns], BLOCK_SIZE),
        block_size=BLOCK_SIZE,
        checksums=(mode == "guarded"),
    )


@pytest.fixture(scope="module")
def table_files(tmp_path_factory, table_columns):
    """The same table written twice: without (plain) and with block CRCs."""
    directory = tmp_path_factory.mktemp("fault-bench")
    return {mode: _write(directory / f"table-{mode}.rpb", table_columns, mode) for mode in MODES}


def _decode_all(path):
    reader = TableReader(path)
    total = 0
    for _meta, block in reader.iter_blocks():
        total += len(block)
    return total


@pytest.mark.parametrize("mode", MODES)
def test_stored_read(benchmark, table_files, mode):
    """Full decode of every block: the guarded arm pays one CRC32 per block
    payload."""
    assert active_plan() is None  # measuring the disarmed fast path
    total = benchmark(_decode_all, table_files[mode])
    assert total == ROWS


@pytest.mark.parametrize("mode", MODES)
def test_table_write(benchmark, tmp_path, table_columns, mode):
    """Full table save: the guarded arm pays one CRC32 per block (both arms
    checksum the header and fsync, so the delta is the block checksums)."""
    counter = iter(range(1_000_000))

    def save():
        return _write(tmp_path / f"write-{mode}-{next(counter)}.rpb", table_columns, mode)

    benchmark(save)


def test_query_fault_points_disarmed(benchmark):
    """A serial division with no plan armed: every fault-point check on the
    execution path must amount to a module-load + ``None`` test.  There is
    no pairless gate for this scenario — it is recorded so the committed
    baseline tracks drift in the disarmed path itself."""
    assert active_plan() is None
    dividend = Relation(
        ("a", "b"), [(a, b) for a in range(2_000) for b in ((1, 2, 3) if a % 2 else (1, 3))]
    )
    divisor = Relation(("b",), [(1,), (2,), (3,)])

    def run():
        plan = SMALL_DIVIDE_ALGORITHMS["hash"](RelationScan(dividend), RelationScan(divisor))
        return len(execute_plan(plan).relation)

    assert benchmark(run) == 1_000
