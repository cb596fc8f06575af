"""Partitioned plans: hash-partition exchange + per-partition serial plans.

Division, natural joins and grouped aggregation are all independent per
key group (quotient key, join key, grouping key), so they run unchanged
over key-disjoint partitions of their input: split the input by a hash of
the key, run the existing *serial* algorithm over each partition in turn
and concatenate.  No key spans two partitions, so the concatenated result
is the unpartitioned one and needs no merge step.  What this buys is
memory: a partition, not the whole input, is what one sub-plan holds, and
an exchange under a memory budget spills the partitions it buffers.
"""

from repro.physical.parallel.exchange import HashPartitionExchange, PartitionSource
from repro.physical.parallel.operators import (
    PartitionedAggregate,
    PartitionedDivision,
    PartitionedHashJoin,
    PartitionedOperator,
)

__all__ = [
    "HashPartitionExchange",
    "PartitionSource",
    "PartitionedOperator",
    "PartitionedDivision",
    "PartitionedHashJoin",
    "PartitionedAggregate",
]


def shutdown_pool() -> None:
    """Does nothing: there is no worker pool.

    ``bench/`` reads it; the [benchmark] PR (ROADMAP item 1) deletes it.
    """
