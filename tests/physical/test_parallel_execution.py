"""Partitioned execution: the exchange and the partitioned wrappers.

The load-bearing property: for every division algorithm and every partition
count, the partitioned run returns *exactly* the serial quotient (tuples
and wrapper counts), because hash partitioning on the quotient attributes
never splits a candidate group.  The same holds for hash joins partitioned
on the join key and aggregation partitioned on the grouping key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    HashAggregate,
    HashJoin,
    HashPartitionExchange,
    PartitionSource,
    PartitionedAggregate,
    PartitionedDivision,
    PartitionedHashJoin,
    RelationScan,
    execute_plan,
)
from repro.physical.base import Chunk, PhysicalOperator
from repro.relation import Relation
from repro.relation.encoding import CodeColumn, code_buffer, route_codes, stable_hash
from repro.relation.aggregates import count, sum_of
from repro.workloads import make_division_workload, make_great_division_workload
from tests.strategies import dividends, divisors, great_divisors

PARTITION_COUNTS = (1, 2, 7)


def serial_small(dividend, divisor, algorithm):
    operator = SMALL_DIVIDE_ALGORITHMS[algorithm](RelationScan(dividend), RelationScan(divisor))
    return execute_plan(operator)


def partitioned_small(dividend, divisor, algorithm, partitions):
    operator = PartitionedDivision(
        RelationScan(dividend), RelationScan(divisor), algorithm=algorithm, partitions=partitions
    )
    return execute_plan(operator), operator


# ----------------------------------------------------------------------
# the partitioning == serial property (all algorithms, K ∈ {1, 2, 7})
# ----------------------------------------------------------------------
class TestPartitionedDivisionEqualsSerial:
    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    @pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
    @settings(max_examples=25, deadline=None)
    @given(dividend=dividends(), divisor=divisors())
    def test_small_divide_property(self, algorithm, partitions, dividend, divisor):
        serial = serial_small(dividend, divisor, algorithm)
        result, operator = partitioned_small(dividend, divisor, algorithm, partitions)
        assert result.relation == serial.relation
        # The wrapper emits exactly the serial operator's tuple count.
        assert result.statistics["00:partitioned_division"] == len(serial.relation)

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    @pytest.mark.parametrize("algorithm", sorted(GREAT_DIVIDE_ALGORITHMS))
    @settings(max_examples=25, deadline=None)
    @given(dividend=dividends(), divisor=great_divisors())
    def test_great_divide_property(self, algorithm, partitions, dividend, divisor):
        serial_op = GREAT_DIVIDE_ALGORITHMS[algorithm](
            RelationScan(dividend), RelationScan(divisor)
        )
        serial = execute_plan(serial_op)
        operator = PartitionedDivision(
            RelationScan(dividend),
            RelationScan(divisor),
            algorithm=algorithm,
            kind="great",
            partitions=partitions,
        )
        result = execute_plan(operator)
        assert result.relation == serial.relation

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_empty_divisor(self, partitions):
        """Empty divisor: every candidate qualifies, in every partition."""
        dividend = Relation(["a", "b"], [(i, i % 3) for i in range(20)])
        divisor = Relation(["b"], [])
        for algorithm in sorted(SMALL_DIVIDE_ALGORITHMS):
            serial = serial_small(dividend, divisor, algorithm)
            result, _ = partitioned_small(dividend, divisor, algorithm, partitions)
            assert result.relation == serial.relation
            assert len(result.relation) == 20

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_single_group(self, partitions):
        """One candidate group: all partitions but one are empty."""
        dividend = Relation(["a", "b"], [(1, 0), (1, 1), (1, 2)])
        divisor = Relation(["b"], [(0,), (1,)])
        for algorithm in sorted(SMALL_DIVIDE_ALGORITHMS):
            serial = serial_small(dividend, divisor, algorithm)
            result, _ = partitioned_small(dividend, divisor, algorithm, partitions)
            assert result.relation == serial.relation
            assert len(result.relation) == 1

    def test_empty_dividend(self):
        dividend = Relation(["a", "b"], [])
        divisor = Relation(["b"], [(1,)])
        result, operator = partitioned_small(dividend, divisor, "hash", 4)
        assert len(result.relation) == 0
        assert operator.partition_input_sizes == [0, 0, 0, 0]


@pytest.fixture(scope="module")
def workload():
    return make_division_workload(
        num_groups=120, divisor_size=6, containing_fraction=0.3, extra_values_per_group=4, seed=11
    )


class TestStatisticsAccounting:
    def test_counts_match_serial_run(self, workload):
        """Scans and wrapper output are charged exactly like the serial run."""
        serial = serial_small(workload.dividend, workload.divisor, "hash")
        result, _ = partitioned_small(workload.dividend, workload.divisor, "hash", 4)
        serial_counts = serial.statistics.tuples_by_operator
        partitioned_counts = result.statistics.tuples_by_operator
        assert partitioned_counts["00:partitioned_division"] == serial_counts["00:hash_division"]
        assert partitioned_counts["01:relation_scan"] == serial_counts["01:relation_scan"]
        assert partitioned_counts["02:relation_scan"] == serial_counts["02:relation_scan"]
        assert result.statistics.total_tuples == serial.statistics.total_tuples

    def test_max_intermediate_is_max_over_partitions_not_sum(self, workload):
        """The algebra simulation's quadratic blow-up shrinks ~K× when
        partitioned: the per-partition products are concurrent alternatives,
        not one big intermediate, so the plan-level metric takes their max."""
        serial = serial_small(workload.dividend, workload.divisor, "algebra_simulation")
        serial_product = next(
            value
            for label, value in serial.statistics.tuples_by_operator.items()
            if label.endswith(":product")
        )
        result, operator = partitioned_small(
            workload.dividend, workload.divisor, "algebra_simulation", 4
        )
        assert result.relation == serial.relation
        peaks = operator.partition_peaks()
        per_partition_products = [
            counters.get("06:product", 0) for counters in operator.partition_statistics
        ]
        # Total work is unchanged: partition products sum to the serial one.
        assert sum(per_partition_products) == serial_product
        # ... but the *peak* is the max over partitions, so the largest
        # single intermediate shrinks roughly by the partition count.
        assert peaks["06:product"] == max(per_partition_products)
        assert peaks["06:product"] < serial_product
        assert result.max_intermediate < serial.max_intermediate
        assert result.max_intermediate >= max(per_partition_products)

    def test_partition_peaks_feed_plan_statistics(self, workload):
        result, operator = partitioned_small(
            workload.dividend, workload.divisor, "algebra_simulation", 4
        )
        peak_labels = [
            label for label in result.statistics.partition_peaks if "partitioned_division" in label
        ]
        assert peak_labels, result.statistics.partition_peaks
        # partition peaks do not inflate the plan-level totals
        assert result.statistics.total_tuples == sum(
            result.statistics.tuples_by_operator.values()
        )


class TestPartitionedJoinAndAggregate:
    def test_custom_aggregate_functions_run_per_partition(self):
        source = Relation(["g", "v"], [(i % 4, i) for i in range(40)])
        aggregations = {"peak": ("max", lambda rows: max(row["v"] for row in rows))}
        serial = execute_plan(HashAggregate(RelationScan(source), ["g"], aggregations))
        operator = PartitionedAggregate(RelationScan(source), ["g"], aggregations, partitions=4)
        result = execute_plan(operator)
        assert result.relation == serial.relation

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    @pytest.mark.parametrize("algorithm", ["hash", "nested_loops"])
    def test_partitioned_join_equals_serial(self, algorithm, partitions):
        left = Relation(["a", "b"], [(i, i % 9) for i in range(60)])
        right = Relation(["b", "c"], [(i % 9, i) for i in range(30)])
        serial = execute_plan(HashJoin(RelationScan(left), RelationScan(right)))
        operator = PartitionedHashJoin(
            RelationScan(left), RelationScan(right), algorithm=algorithm, partitions=partitions
        )
        result = execute_plan(operator)
        assert result.relation == serial.relation

    def test_partitioned_join_requires_shared_attributes(self):
        left = Relation(["a"], [(1,)])
        right = Relation(["b"], [(2,)])
        with pytest.raises(ExecutionError, match="shared attributes"):
            PartitionedHashJoin(RelationScan(left), RelationScan(right))

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_partitioned_aggregate_equals_serial(self, partitions):
        source = Relation(["g", "h", "v"], [(i % 5, i % 3, i) for i in range(50)])
        aggregations = {"n": count(), "total": sum_of("v")}
        serial = execute_plan(HashAggregate(RelationScan(source), ["g", "h"], aggregations))
        operator = PartitionedAggregate(
            RelationScan(source), ["g", "h"], aggregations, partitions=partitions
        )
        result = execute_plan(operator)
        assert result.relation == serial.relation

    def test_partitioned_aggregate_requires_grouping(self):
        source = Relation(["v"], [(1,)])
        with pytest.raises(ExecutionError, match="grouping"):
            PartitionedAggregate(RelationScan(source), [], {"n": count()})


# ----------------------------------------------------------------------
# streams for the exchange property: what a chunk stream can be made of
# ----------------------------------------------------------------------
class Uncoded(PhysicalOperator):
    """The child's stream with the code columns stripped (the tuple route)."""

    name = "uncoded"

    def __init__(self, child):
        super().__init__(child.schema, (child,))

    def _produce_chunks(self):
        for chunk in self._children[0].chunks():
            yield Chunk(chunk.schema, chunk.tuples)


class Padded(PhysicalOperator):
    """The child's coded stream over dictionaries with entries no tuple
    carries (what a filter leaves behind)."""

    name = "padded"

    def __init__(self, child):
        super().__init__(child.schema, (child,))

    def _produce_chunks(self):
        padded = {}
        for chunk in self._children[0].chunks():
            columns = []
            for column in chunk.columns:
                dictionary = padded.setdefault(
                    id(column.dictionary), ["unused", -7, *column.dictionary, ("never",)]
                )
                shifted = (code + 2 for code in column.codes.tolist())
                columns.append(CodeColumn(dictionary, code_buffer(shifted, len(column.codes))))
            yield Chunk.coded(chunk.schema, tuple(columns))


class Concatenated(PhysicalOperator):
    """One stream after the other (same schema, their own dictionaries)."""

    name = "concatenated"

    def __init__(self, *children):
        super().__init__(children[0].schema, children)

    def _produce_chunks(self):
        for child in self._children:
            yield from child.chunks()


class BoobyTrapped(PhysicalOperator):
    """The child's coded stream; asking a chunk for its tuples raises."""

    name = "booby_trapped"

    def __init__(self, child):
        super().__init__(child.schema, (child,))

    def _produce_chunks(self):
        def explode():
            raise AssertionError("the exchange decoded a coded chunk")

        for chunk in self._children[0].chunks():
            yield Chunk.deferred(chunk.schema, chunk.columns, len(chunk), explode)


EXCHANGE_ALGORITHMS = [("small", name) for name in sorted(SMALL_DIVIDE_ALGORITHMS)] + [
    ("great", name) for name in sorted(GREAT_DIVIDE_ALGORITHMS)
]

#: 1, 1.0 and True are one key (equal and hash-equal); 2.0 and 2 as well.
COLLIDING = st.sampled_from([0, 1, 1.0, True, 2, 2.0, "x", "y", None])


def partitioned(kind, algorithm, dividend, divisor, partitions):
    return PartitionedDivision(
        dividend, RelationScan(divisor), algorithm=algorithm, kind=kind, partitions=partitions
    )


@st.composite
def exchange_streams(draw, kind):
    """A dividend stream factory (scans, padded dictionaries, uncoded
    chunks, dictionary changes mid-way — in drawn order) and a divisor."""
    composite = draw(st.booleans())
    names = ("a1", "a2", "b") if composite else ("a1", "b")
    keys = st.tuples(COLLIDING, st.integers(0, 1)) if composite else st.tuples(COLLIDING)
    row = st.tuples(keys, st.integers(0, 3)).map(lambda pair: pair[0] + (pair[1],))
    parts = draw(
        st.lists(
            st.tuples(st.sampled_from(["scan", "padded", "uncoded"]), st.lists(row, max_size=10)),
            min_size=1,
            max_size=4,
        )
    )
    seen = set()
    relations = []
    for form, rows in parts:  # one tuple must not arrive twice in one stream
        fresh = [values for values in dict.fromkeys(rows) if values not in seen]
        seen.update(fresh)
        relations.append((form, Relation(names, fresh)))
    wrap = {"scan": lambda scan: scan, "padded": Padded, "uncoded": Uncoded}
    if kind == "small":
        divisor = draw(divisors())
    else:
        divisor = draw(great_divisors())
    return (
        lambda: Concatenated(*(wrap[form](RelationScan(relation)) for form, relation in relations)),
        divisor,
    )


def bucket_tuples(source, partitions):
    """Each partition of one exchange pass over ``source``, as tuple lists."""
    names = source.schema.names
    return [PartitionSource(names, partition).drain() for partition in partitions]


class TestExchange:
    def test_partitions_are_key_disjoint_and_complete(self, workload):
        exchange = HashPartitionExchange(["a"], 5)
        scan = RelationScan(workload.dividend)
        buckets = bucket_tuples(scan, exchange.partition(scan))
        assert len(buckets) == 5
        all_tuples = [values for bucket in buckets for values in bucket]
        assert sorted(all_tuples) == sorted(workload.dividend.aligned_tuples())
        keys_per_bucket = [{values[0] for values in bucket} for bucket in buckets]
        for index, keys in enumerate(keys_per_bucket):
            for other in keys_per_bucket[index + 1 :]:
                assert keys.isdisjoint(other)

    def test_single_partition_is_passthrough(self, workload):
        exchange = HashPartitionExchange(["a"], 1)
        scan = RelationScan(workload.dividend)
        (bucket,) = bucket_tuples(scan, exchange.partition(scan))
        assert bucket == workload.dividend.aligned_tuples()

    def test_partitioning_preserves_clustered_runs(self):
        """Contiguous equal-key runs stay contiguous inside their bucket, so
        the streaming merge-group division stays valid per partition."""
        clustered = Relation(
            ["a", "b"], [(group, value) for group in range(30) for value in range(3)]
        ).clustered(["a"])
        exchange = HashPartitionExchange(["a"], 4)
        scan = RelationScan(clustered)
        for bucket in bucket_tuples(scan, exchange.partition(scan)):
            seen: list[int] = []
            for values in bucket:
                if not seen or seen[-1] != values[0]:
                    assert values[0] not in seen, "group split across runs in one bucket"
                    seen.append(values[0])

    def test_merge_sort_per_partition_of_a_clustered_dividend(self):
        workload = make_division_workload(
            num_groups=100, divisor_size=5, containing_fraction=0.4, extra_values_per_group=3, seed=13
        )
        clustered = workload.dividend.clustered(["a"])
        serial = serial_small(clustered, workload.divisor, "merge_sort")
        operator = PartitionedDivision(
            RelationScan(clustered),
            RelationScan(workload.divisor),
            algorithm="merge_sort",
            partitions=3,
        )
        result = execute_plan(operator)
        assert result.relation == serial.relation
        assert operator.describe().startswith("PartitionedDivision[merge_sort, partitions=3")

    def test_invalid_configuration_raises(self, workload):
        scan = RelationScan(workload.dividend)
        divisor = RelationScan(workload.divisor)
        with pytest.raises(ExecutionError, match="partition"):
            HashPartitionExchange(["a"], 0)
        with pytest.raises(ExecutionError, match="partition-key"):
            HashPartitionExchange([], 2)
        with pytest.raises(ExecutionError, match="partitions"):
            PartitionedDivision(scan, divisor, partitions=0)
        with pytest.raises(ExecutionError, match="algorithm"):
            PartitionedDivision(scan, divisor, algorithm="bogus")
        with pytest.raises(ExecutionError, match="kind"):
            PartitionedDivision(scan, divisor, kind="medium")

    def test_partition_source_slices_by_batch_size(self):
        source = PartitionSource(("a", "b"), [(i, i) for i in range(10)])
        source.set_batch_size(3)
        sizes = [len(chunk) for chunk in source.chunks()]
        assert sizes == [3, 3, 3, 1]
        assert source.tuples_out == 10

    def test_coded_partition_holds_codes_not_tuples(self, workload):
        """What a partition holds: per attribute a dictionary and one code
        buffer — and a partition source over it yields coded chunks."""
        exchange = HashPartitionExchange(["a"], 2)
        scan = RelationScan(workload.dividend)
        partitions = exchange.partition(scan)
        assert exchange.input_forms == {"code columns"}
        for partition in partitions:
            (piece,) = partition.pieces
            assert all(isinstance(column, CodeColumn) for column in piece)
            assert partition.coded_size == len(partition) == len(piece[0].codes)
            source = PartitionSource(scan.schema.names, partition)
            assert all(chunk.columns is not None for chunk in source.chunks())

    def test_dictionary_larger_than_partition_is_compacted(self):
        """A partition is O(partition): it never holds a dictionary bigger
        than its own code buffer."""
        relation = Relation(["a", "b"], [(f"k{i:03d}", i) for i in range(200)])
        exchange = HashPartitionExchange(["a"], 4)
        for partition in exchange.partition(RelationScan(relation)):
            for piece in partition.pieces:
                for column in piece:
                    assert len(column.dictionary) <= len(column.codes)

    def test_route_table_is_kept_across_executions(self, workload):
        """One ``stable_hash(value) % K`` per dictionary entry, once per plan: a
        re-executed plan routes by the table it built the first time."""
        _result, operator = partitioned_small(workload.dividend, workload.divisor, "hash", 3)
        ((dictionary, routes),) = operator._route_tables.values()
        assert dictionary is workload.dividend.encoded_columns()[0].dictionary
        assert list(routes) == [stable_hash(value) % 3 for value in dictionary]
        execute_plan(operator)
        ((_dictionary, again),) = operator._route_tables.values()
        assert again is routes

    def test_route_is_chosen_per_chunk(self):
        """Coded, uncoded, coded over other dictionaries: three pieces per
        partition, in stream order."""
        first = Relation(["a", "b"], [(i, 0) for i in range(40)])
        second = Relation(["a", "b"], [(i, 1) for i in range(40)])
        third = Relation(["a", "b"], [(i, 2) for i in range(40)])
        stream = Concatenated(
            RelationScan(first), Uncoded(RelationScan(second)), RelationScan(third)
        )
        exchange = HashPartitionExchange(["a"], 2)
        partitions = exchange.partition(stream)
        assert exchange.input_forms == {"code columns", "tuples"}
        for partition in partitions:
            assert [type(piece) for piece in partition.pieces] == [tuple, list, tuple]
            assert partition.coded_size == len(partition) - len(partition.pieces[1])
        expected = [[], []]
        for relation in (first, second, third):
            for values in relation.aligned_tuples():
                expected[stable_hash(values[0]) % 2].append(values)
        assert bucket_tuples(stream, partitions) == expected

    @pytest.mark.parametrize("key", [["a"], ["a", "b"]], ids=["one attribute", "composite"])
    def test_both_routes_send_a_string_key_to_one_partition(self, key):
        """The coded route (one route per dictionary entry) and the tuple
        route (one per tuple) hash alike, strings and tuples included, and
        ``stable_hash`` keeps equal values together as ``hash`` does."""
        relation = Relation(
            ["a", "b", "c"], [(f"k{i % 53}", ("x", "y", None)[i % 3], i) for i in range(400)]
        )
        buckets = []
        for source in (RelationScan(relation), Uncoded(RelationScan(relation))):
            exchange = HashPartitionExchange(key, 5)
            buckets.append(bucket_tuples(source, exchange.partition(source)))
        assert buckets[0] == buckets[1]
        get = relation.schema.tuple_getter(key)
        for route, bucket in enumerate(buckets[0]):
            keys = [get(values) if len(key) > 1 else values[0] for values in bucket]
            assert list(route_codes(keys, 5)) == [route] * len(keys)
        assert len({stable_hash(value) for value in (1, 1.0, True)}) == 1
        assert stable_hash(("k1", None)) == stable_hash(("k1", None)) != stable_hash(("k1", "x"))

    @pytest.mark.parametrize("kind,algorithm", EXCHANGE_ALGORITHMS)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_coded_exchange_equals_tuple_route(self, kind, algorithm, data):
        """Coded exchange ≡ ``hash(key) % K`` per tuple on the same stream:
        bucket contents and order, input sizes, quotient, per-partition
        counters — whatever the stream is made of."""
        stream, divisor = data.draw(exchange_streams(kind))
        key = [name for name in stream().schema.names if name.startswith("a")]
        serial = execute_plan(partitioned(kind, algorithm, Uncoded(stream()), divisor, 1))
        for partitions in (2, 3, 5):
            for batch_size in (1, 3, 1024):
                buckets = []
                for source in (stream(), Uncoded(stream())):
                    source.set_batch_size(batch_size)
                    exchange = HashPartitionExchange(key, partitions)
                    buckets.append(bucket_tuples(source, exchange.partition(source)))
                assert buckets[0] == buckets[1]
                runs = []
                for source in (stream(), Uncoded(stream())):
                    operator = partitioned(kind, algorithm, source, divisor, partitions)
                    result = execute_plan(operator, batch_size=batch_size)
                    assert result.relation == serial.relation
                    runs.append(
                        (
                            operator.partition_input_sizes,
                            operator.partition_statistics,
                            list(result.statistics.tuples_by_operator.values())[0],
                        )
                    )
                assert runs[0] == runs[1]
                assert runs[0][0] == [len(bucket) for bucket in buckets[0]]

    def test_coded_dividend_is_never_decoded(self, workload):
        """Booby trap: every chunk of the dividend raises when its tuples
        are asked for; the exchange must route it by its codes alone."""
        operator = PartitionedDivision(
            BoobyTrapped(RelationScan(workload.dividend)), RelationScan(workload.divisor), partitions=3
        )
        result = execute_plan(operator)
        assert result.relation == serial_small(workload.dividend, workload.divisor, "hash").relation
        assert operator.exchange_input == "code columns"
        assert operator.key_source == "cached codes (1 chunk) → coded quotient"

    def test_partitions_read_cached_codes(self, workload):
        result, operator = partitioned_small(workload.dividend, workload.divisor, "hash", 4)
        assert operator.key_source == "cached codes (1 chunk) → coded quotient"
        assert operator.exchange_input == "code columns"
        assert result.relation == serial_small(workload.dividend, workload.divisor, "hash").relation

    def test_uncoded_input_is_encoded_on_the_fly(self, workload):
        operator = PartitionedDivision(
            Uncoded(RelationScan(workload.dividend)), RelationScan(workload.divisor), partitions=3
        )
        execute_plan(operator)
        assert operator.exchange_input == "tuples"
        assert operator.key_source == "encoded on the fly → coded quotient"
