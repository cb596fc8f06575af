"""Spill files: writer/handle units and exchange integration."""

import pytest

from repro.errors import StorageError
from repro.physical import RelationScan
from repro.physical.parallel.exchange import HashPartitionExchange, PartitionSource
from repro.relation.relation import Relation
from repro.storage.spill import SPILL_BLOCK_TUPLES, SpilledPartition, SpillWriter

ATTRIBUTES = ("a", "b")


def rows(count: int):
    return [(i, f"v{i % 5}") for i in range(count)]


class TestSpillWriter:
    def test_roundtrip(self, tmp_path):
        writer = SpillWriter(tmp_path, "p0", ATTRIBUTES)
        tuples = rows(100)
        writer.spill(tuples)
        handle = writer.finish()
        assert handle.read_all() == tuples
        assert len(handle) == 100
        assert bool(handle)

    def test_spill_slices_into_blocks(self, tmp_path):
        writer = SpillWriter(tmp_path, "p0", ATTRIBUTES)
        writer.spill(rows(SPILL_BLOCK_TUPLES * 2 + 1))
        assert writer.spilled_blocks == 3
        handle = writer.finish()
        assert [len(block) for block in handle.iter_blocks()] == [
            SPILL_BLOCK_TUPLES,
            SPILL_BLOCK_TUPLES,
            1,
        ]

    def test_appends_accumulate(self, tmp_path):
        writer = SpillWriter(tmp_path, "p0", ATTRIBUTES)
        writer.spill(rows(10))
        writer.spill(rows(5))
        handle = writer.finish()
        assert handle.read_all() == rows(10) + rows(5)
        assert writer.tuple_count == 15

    def test_empty_append_is_a_noop(self, tmp_path):
        writer = SpillWriter(tmp_path, "p0", ATTRIBUTES)
        writer.append([])
        handle = writer.finish()
        assert not handle
        assert handle.read_all() == []

    def test_unwritable_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            SpillWriter(tmp_path / "absent", "p0", ATTRIBUTES)


class TestSpilledPartition:
    def test_missing_file_raises_on_read(self, tmp_path):
        writer = SpillWriter(tmp_path, "p0", ATTRIBUTES)
        writer.spill(rows(5))
        handle = writer.finish()
        handle.path = str(tmp_path / "gone.spill")
        with pytest.raises(StorageError):
            handle.read_all()


class TestExchangeSpilling:
    def partition(self, count: int, budget, tmp_path):
        relation = Relation.from_aligned(ATTRIBUTES, rows(count))
        exchange = HashPartitionExchange(
            ["a"],
            partitions=4,
            memory_budget_mb=budget,
            spill_directory=str(tmp_path) if budget is not None else None,
        )
        buckets = exchange.partition(RelationScan(relation))
        return relation, exchange, buckets

    def test_budget_forces_spill_without_changing_buckets(self, tmp_path):
        relation, exchange, spilled = self.partition(5000, 1e-6, tmp_path)
        _relation, _exchange, in_memory = self.partition(5000, None, tmp_path)
        assert exchange.spilled_tuples > 0
        assert exchange.spilled_blocks > 0
        assert exchange.spilled_partitions > 0
        assert exchange.budget_tuples >= 1
        # The flush runs after each chunk is appended, so the high-water
        # mark may overshoot the budget by at most one input chunk.
        assert exchange.peak_buffered_tuples <= exchange.budget_tuples + 1024
        # Spilling never changes a bucket's content or order.
        gathered = [PartitionSource(ATTRIBUTES, bucket).drain() for bucket in spilled]
        assert gathered == [PartitionSource(ATTRIBUTES, bucket).drain() for bucket in in_memory]
        assert [len(bucket) for bucket in spilled] == [len(bucket) for bucket in gathered]
        assert sum(len(bucket) for bucket in gathered) == len(relation)
        assert any(
            isinstance(piece, SpilledPartition) for bucket in spilled for piece in bucket.pieces
        )

    def test_no_budget_means_no_spill(self, tmp_path):
        _relation, exchange, buckets = self.partition(5000, None, tmp_path)
        assert exchange.spilled_tuples == 0
        assert not any(
            isinstance(piece, SpilledPartition) for bucket in buckets for piece in bucket.pieces
        )

    def test_budget_without_directory_is_rejected(self):
        from repro.errors import ExecutionError

        relation = Relation.from_aligned(ATTRIBUTES, rows(10))
        exchange = HashPartitionExchange(["a"], partitions=2, memory_budget_mb=1.0)
        with pytest.raises(ExecutionError):
            exchange.partition(RelationScan(relation))

    def test_non_positive_budget_is_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            HashPartitionExchange(["a"], partitions=2, memory_budget_mb=0)
