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
outside the timed region, as ``Database.save`` writes it.  The
``checksum-read`` and ``checksum-write`` rows of ``gates.py`` bound
``guarded`` at ≤5% over ``plain``, with an absolute jitter floor so
scheduler noise cannot trip them.  The read gate times the engine's read
path (``iter_block_columns``: read, verify, cut into code pages), not the
decode into tuples, whose spread alone exceeded the 5% it bounds.  The
write gate times the CRC against the page encoding: its arms write with
``block_zones`` patched to hand back the zone maps computed off the clock,
and skip the fsync, both the same work in both arms (the zone maps three
quarters of a save, the fsync its widest spread), and their spread alone
exceeded the 5% too.
"""

import itertools
from functools import partial

import pytest

import repro.storage.format
from gates import check_gate
from repro.faults import active_plan
from repro.physical import SMALL_DIVIDE_ALGORITHMS, RelationScan, execute_plan
from repro.relation.encoding import encode_columns
from repro.relation.relation import Relation
from repro.storage.format import TableReader, block_zones, column_blocks, write_table_file

ROWS = 120_000
BLOCK_SIZE = 2048

MODES = ("plain", "guarded")

ATTRIBUTES = ("k", "g", "s")


@pytest.fixture(scope="module")
def table_columns():
    """The table as code columns (what a relation caches and a save writes)."""
    return encode_columns([(i, i % 97, f"s{i % 13}") for i in range(ROWS)], len(ATTRIBUTES))


def _write(path, columns, mode, fsync=True):
    return write_table_file(
        path,
        "big",
        ATTRIBUTES,
        [column.dictionary for column in columns],
        column_blocks([column.codes for column in columns], BLOCK_SIZE),
        block_size=BLOCK_SIZE,
        checksums=(mode == "guarded"),
        fsync=fsync,
    )


def _zones(columns):
    """Every block's zone map, as ``write_table_file`` computes them."""
    pages = [column.dictionary for column in columns]
    blocks = column_blocks([column.codes for column in columns], BLOCK_SIZE)
    return [block_zones(ATTRIBUTES, block, pages) for block in blocks]


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


def _read_columns(path):
    """The engine's read path (``StoredScan``): verify and cut every block
    into its code pages, decoding nothing -- the work a CRC is a share of."""
    total = 0
    for meta, _columns in TableReader(path).iter_block_columns():
        total += meta["count"]
    return total


def _blocks(path):
    return [block for _meta, block in TableReader(path).iter_blocks()]


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


def test_checksum_read_overhead(request, table_files):
    """Same-run gate: checking one CRC32 per block costs ≤5% on a full read
    of the code pages (decoding them into tuples is the same work in both
    arms and about 50 times the CRC's)."""
    assert _blocks(table_files["guarded"]) == _blocks(table_files["plain"])
    assert _read_columns(table_files["guarded"]) == ROWS
    check_gate(
        request,
        "checksum-read",
        lambda: partial(_read_columns, table_files["guarded"]),
        lambda: partial(_read_columns, table_files["plain"]),
    )


def test_checksum_write_overhead(request, monkeypatch, tmp_path, table_columns):
    """Same-run gate: writing one CRC32 per block costs ≤5% on a save
    whose zone maps were computed before the clock started, without the
    fsync."""
    paths = (tmp_path / f"gate-{number}.rpb" for number in itertools.count())
    computed = {mode: _write(next(paths), table_columns, mode) for mode in MODES}
    assert _blocks(computed["guarded"]) == _blocks(computed["plain"])
    zones = _zones(table_columns)
    given = iter(zones)
    monkeypatch.setattr(repro.storage.format, "block_zones", lambda *_block: next(given))

    def save(mode):
        """Pick a fresh file and rewind the zone maps off the clock; time the write."""
        nonlocal given
        given = iter(zones)
        return partial(_write, next(paths), table_columns, mode, fsync=False)

    written = save("guarded")()
    assert TableReader(written).blocks == TableReader(computed["guarded"]).blocks
    check_gate(request, "checksum-write", partial(save, "guarded"), partial(save, "plain"))
