"""Pin the planner's exchange partition count, for the matrices that sweep it."""

import contextlib
from unittest import mock

from repro.optimizer.physical_cost import PhysicalCostModel

#: The partition counts the equivalence matrices sweep: 1 plans no
#: exchange, 4 puts every partitionable operator behind one.
PARTITION_COUNTS = (1, 4)


@contextlib.contextmanager
def planned_partitions(count):
    """Plan every division, natural join and grouped aggregation inside the
    block over ``count`` partitions (1: none), whatever the memory budget."""
    with mock.patch.object(PhysicalCostModel, "exchange_partitions", lambda _self, _input: count):
        yield
