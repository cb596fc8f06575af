"""Chunked (columnar) execution invariants.

Every physical operator streams via ``_produce_chunks()``; the chunk size
is an execution detail that must never change the produced relation or the
per-operator tuple counts.  These tests sweep batch sizes 1, 3 and 1024
over randomized and property-generated division workloads for every small-
and great-divide algorithm, pin the Chunk↔Row round-trip invariants, and
check the dictionary-encoded divisor is consumed exactly once per open.
With no batch size set a scan's chunk is its whole block (a stored scan's:
one stored block); ``TestBlockAtATime`` holds that run to the sliced ones.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import predicates as P
from repro.division import great_divide, small_divide
from repro.errors import ReproError
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    Chunk,
    Filter,
    RelationScan,
    execute_plan,
)
from repro.relation import Relation, Row
from repro.relation.schema import Schema
from repro.storage import StoredRelation, StoredScan, TableReader

from tests import strategies  # noqa: E402  (repo-root import, like tests.division)
from tests.storage.tables import write_tuples

BATCH_SIZES = (1, 3, 1024)


def _random_small_workload(seed):
    rng = random.Random(seed)
    dividend = Relation(
        ["a", "b"],
        [(rng.randrange(12), rng.randrange(6)) for _ in range(rng.randrange(1, 120))],
    )
    divisor = Relation(["b"], [(value,) for value in rng.sample(range(6), rng.randrange(1, 5))])
    return dividend, divisor


def _random_great_workload(seed):
    rng = random.Random(seed)
    dividend = Relation(
        ["a", "b"],
        [(rng.randrange(10), rng.randrange(6)) for _ in range(rng.randrange(1, 100))],
    )
    divisor = Relation(
        ["b", "c"],
        [(rng.randrange(6), rng.randrange(4)) for _ in range(rng.randrange(1, 30))],
    )
    return dividend, divisor


def _outcomes_across_batch_sizes(operator_class, dividend, divisor):
    outcomes = []
    for batch_size in BATCH_SIZES:
        plan = operator_class(RelationScan(dividend), RelationScan(divisor))
        outcomes.append(execute_plan(plan, batch_size=batch_size))
    return outcomes


class TestBatchSizeInvariance:
    """Identical quotients *and* identical per-operator tuple counts for
    batch sizes {1, 3, 1024} across every division algorithm."""

    @pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
    @pytest.mark.parametrize("seed", range(5))
    def test_small_divide(self, algorithm, seed):
        dividend, divisor = _random_small_workload(seed)
        reference, *others = _outcomes_across_batch_sizes(
            SMALL_DIVIDE_ALGORITHMS[algorithm], dividend, divisor
        )
        for outcome in others:
            assert outcome.relation == reference.relation
            assert (
                outcome.statistics.tuples_by_operator
                == reference.statistics.tuples_by_operator
            )

    @pytest.mark.parametrize("algorithm", sorted(GREAT_DIVIDE_ALGORITHMS))
    @pytest.mark.parametrize("seed", range(5))
    def test_great_divide(self, algorithm, seed):
        dividend, divisor = _random_great_workload(seed)
        reference, *others = _outcomes_across_batch_sizes(
            GREAT_DIVIDE_ALGORITHMS[algorithm], dividend, divisor
        )
        for outcome in others:
            assert outcome.relation == reference.relation
            assert (
                outcome.statistics.tuples_by_operator
                == reference.statistics.tuples_by_operator
            )

    @pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
    @settings(max_examples=25, deadline=None)
    @given(dividend=strategies.dividends(), divisor=strategies.divisors())
    def test_small_divide_property(self, algorithm, dividend, divisor):
        """Property form: edge shapes (empty inputs, empty divisor) included."""
        from repro.division import small_divide

        if not len(dividend.schema.difference(divisor.schema)):
            return  # not a valid small divide (quotient schema empty)
        reference, *others = _outcomes_across_batch_sizes(
            SMALL_DIVIDE_ALGORITHMS[algorithm], dividend, divisor
        )
        assert reference.relation == small_divide(dividend, divisor)
        for outcome in others:
            assert outcome.relation == reference.relation
            assert (
                outcome.statistics.tuples_by_operator
                == reference.statistics.tuples_by_operator
            )


#: How the dividend is selected (``a < threshold``) below the division, as
#: ``(predicate of the threshold, the mode the filter must report)``.
FILTERS = {
    "no filter": (None, None),
    # an AST comparison with a literal: once per dictionary entry, then a mask
    "dictionary filter": (lambda t: P.less_than(P.attr("a"), t), "dictionary"),
    # an opaque callable: one Row per tuple
    "per-tuple filter": (lambda t: (lambda row: row["a"] < t), "per tuple"),
    "filter that empties the input": (lambda t: P.less_than(P.attr("a"), -1), "dictionary"),
}
ALGORITHMS = [(SMALL_DIVIDE_ALGORITHMS, name) for name in sorted(SMALL_DIVIDE_ALGORITHMS)] + [
    (GREAT_DIVIDE_ALGORITHMS, name) for name in sorted(GREAT_DIVIDE_ALGORITHMS)
]


class TestBlockAtATime:
    """Batch size unset (whole blocks) ≡ batch sizes 1, 2, 7 and 1 024, for
    every division algorithm over every way a selection reaches it, from
    in-memory and from stored scans (three-tuple blocks): the same quotient,
    the same ``tuples_out`` operator by operator, the same
    ``max_intermediate``."""

    @pytest.mark.parametrize("selection", sorted(FILTERS))
    @pytest.mark.parametrize(
        "registry,algorithm", ALGORITHMS, ids=[f"{name}-{len(r)}" for r, name in ALGORITHMS]
    )
    @settings(max_examples=8, deadline=None)
    @given(
        dividend=strategies.dividends(max_rows=14),
        divisor_rows=st.lists(st.tuples(strategies.VALUES, strategies.VALUES), max_size=6),
        threshold=st.integers(min_value=0, max_value=4),
    )
    def test_every_batch_size_and_scan_agree(
        self, registry, algorithm, selection, dividend, divisor_rows, threshold
    ):
        great = registry is GREAT_DIVIDE_ALGORITHMS
        divisor = Relation(
            ["b", "c"] if great else ["b"], divisor_rows if great else [r[:1] for r in divisor_rows]
        )
        predicate_of, mode = FILTERS[selection]
        predicate = None if predicate_of is None else predicate_of(threshold)
        with tempfile.TemporaryDirectory() as directory:
            scans = {"memory": RelationScan}
            if len(dividend) and len(divisor):  # a table file wants a tuple to take its types from
                scans["stored"] = lambda relation: self.stored(relation, directory)
            seen = set()
            for build_scan in scans.values():
                for batch_size in (None, 1, 2, 7, 1024):
                    source = build_scan(dividend)
                    filtered = source if predicate is None else Filter(source, predicate)
                    plan = registry[algorithm](filtered, build_scan(divisor))
                    outcome = execute_plan(plan, batch_size=batch_size)
                    assert getattr(filtered, "_filter_mode", None) == mode
                    counts = outcome.statistics.tuples_by_operator
                    seen.add(
                        (
                            frozenset(outcome.relation.to_tuples(outcome.relation.schema.names)),
                            tuple(counts[label] for label in sorted(counts)),  # leaf names differ
                            outcome.max_intermediate,
                        )
                    )
            ((quotient, _counts, _largest),) = seen
        kept = {
            "no filter": lambda row: True,
            "filter that empties the input": lambda row: False,
        }.get(selection, lambda row: row["a"] < threshold)
        divide = great_divide if great else small_divide
        expected = divide(dividend.select(kept), divisor)
        assert quotient == expected.to_tuples(expected.schema.names)

    @staticmethod
    def stored(relation, directory):
        path = Path(directory) / f"{'_'.join(relation.schema.names)}.rpb"
        if not path.exists():
            names = relation.schema.names
            write_tuples(path, path.stem, names, relation.aligned_tuples(), block_size=3)
        return StoredScan(StoredRelation(TableReader(path)))

    def test_an_unset_batch_size_reads_blocks_and_a_set_one_slices_them(self, tmp_path):
        relation = Relation(["a", "b"], [(i % 4, i) for i in range(10)])
        path = write_tuples(tmp_path / "t.rpb", "t", ("a", "b"), relation.aligned_tuples(), 4)
        for scan, blocks in (
            (RelationScan(relation), [10]),
            (StoredScan(StoredRelation(TableReader(path))), [4, 4, 2]),
        ):
            assert [len(chunk) for chunk in scan.chunks()] == blocks
            scan.set_batch_size(3)
            sliced = [len(chunk) for chunk in scan.chunks()]
            assert sliced == [n for block in blocks for n in [3] * (block // 3) + [block % 3] if n]
        # the in-memory block is the relation's cached list and columns themselves
        (chunk,) = RelationScan(relation).chunks()
        assert chunk.tuples is relation.aligned_tuples()
        assert chunk.columns is relation.encoded_columns()


class TestChunkRowRoundTrip:
    """Chunk ↔ Row conversion invariants."""

    def test_rows_round_trip(self):
        schema = Schema.interned(("a", "b"))
        rows = [Row({"a": i, "b": -i}) for i in range(5)]
        chunk = Chunk.from_rows(schema, rows)
        assert chunk.rows() == rows
        assert len(chunk) == 5

    def test_from_rows_realigns_permuted_schemas(self):
        schema = Schema.interned(("a", "b"))
        permuted = [Row({"b": 2, "a": 1}), Row({"a": 3, "b": 4})]
        chunk = Chunk.from_rows(schema, permuted)
        assert chunk.tuples == [(1, 2), (3, 4)]
        assert chunk.rows() == permuted  # Row equality is order-insensitive

    def test_aligned_is_zero_copy_for_same_order(self):
        schema = Schema.interned(("a", "b"))
        chunk = Chunk(schema, [(1, 2)])
        assert chunk.aligned(schema) is chunk
        assert chunk.aligned(Schema.interned(("a", "b"))) is chunk

    def test_aligned_permutes_tuples(self):
        chunk = Chunk(Schema.interned(("a", "b")), [(1, 2), (3, 4)])
        flipped = chunk.aligned(Schema.interned(("b", "a")))
        assert flipped.tuples == [(2, 1), (4, 3)]
        back = flipped.aligned(Schema.interned(("a", "b")))
        assert back.tuples == chunk.tuples

    def test_column_access(self):
        chunk = Chunk(Schema.interned(("a", "b")), [(1, 2), (3, 4)])
        assert chunk.column("a") == [1, 3]
        assert chunk.column("b") == [2, 4]

    @settings(max_examples=30, deadline=None)
    @given(relation=strategies.relations(("a", "b", "c")))
    def test_relation_chunk_round_trip(self, relation):
        """Relation → chunks → Relation.from_aligned is the identity."""
        scan = RelationScan(relation)
        scan.set_batch_size(3)
        tuples = [values for chunk in scan.chunks() for values in chunk.tuples]
        rebuilt = Relation.from_aligned(relation.schema, tuples)
        assert rebuilt == relation
        assert scan.tuples_out == len(relation)


class TestExecutorChunkConsumption:
    """The executor's hot loop consumes chunks into a tuple block."""

    def test_execute_holds_the_drained_block(self):
        dividend, divisor = _random_small_workload(3)
        plan = SMALL_DIVIDE_ALGORITHMS["hash"](RelationScan(dividend), RelationScan(divisor))
        via_chunks = plan.execute()
        twin = SMALL_DIVIDE_ALGORITHMS["hash"](RelationScan(dividend), RelationScan(divisor))
        drained = twin.drain()
        assert via_chunks.aligned_tuples() == drained  # a quotient is a set already
        assert via_chunks == Relation(twin.schema, drained)

    def test_emptiness_probe_charges_one_tuple(self):
        relation = Relation(["a"], [(i,) for i in range(10)])
        scan = RelationScan(relation)
        unset = scan.batch_size
        assert scan.produces_any()
        assert scan.tuples_out == 1  # partial consumption charges per tuple
        assert scan.batch_size == unset  # the probe restores the batch size

    def test_divisor_scanned_once_per_execution(self):
        """Dictionary encoding happens at operator open: the divisor side is
        consumed exactly once (its scan emits exactly |divisor| tuples)."""
        dividend, divisor = _random_small_workload(4)
        for name, operator_class in SMALL_DIVIDE_ALGORITHMS.items():
            divisor_scan = RelationScan(divisor)
            plan = operator_class(RelationScan(dividend), divisor_scan)
            execute_plan(plan)
            assert divisor_scan.tuples_out == len(divisor), name

    def test_execute_plan_batch_size_argument(self):
        dividend, divisor = _random_small_workload(5)
        plan = SMALL_DIVIDE_ALGORITHMS["hash"](RelationScan(dividend), RelationScan(divisor))
        outcome = execute_plan(plan, batch_size=7)
        assert all(operator.batch_size == 7 for operator in plan.walk())
        assert outcome.relation == execute_plan(plan, batch_size=1024).relation


class TestBatchSizePlumbing:
    """repro.connect(batch_size=...) reaches the physical plan."""

    def test_connect_forwards_batch_size(self):
        import repro
        from repro.experiments.queries import Q2

        from repro.workloads import textbook_catalog

        db = repro.connect(textbook_catalog, batch_size=2)
        query = db.sql(Q2)
        result = query.run()
        assert len(result.relation)
        prepared, _hit = db._prepare(query.expression)
        assert all(operator.batch_size == 2 for operator in prepared.plan.walk())

    def test_connect_batch_size_does_not_change_counts(self):
        import repro
        from repro.experiments.queries import Q2 as sql

        from repro.workloads import textbook_catalog

        reference = repro.connect(textbook_catalog).sql(sql).run()
        for batch_size in BATCH_SIZES:
            db = repro.connect(textbook_catalog, batch_size=batch_size)
            outcome = db.sql(sql).run()
            assert outcome.relation == reference.relation
            assert (
                outcome.statistics.tuples_by_operator
                == reference.statistics.tuples_by_operator
            )

    def test_connect_rejects_nonpositive_batch_size(self):
        import repro

        with pytest.raises(ReproError):
            repro.connect(batch_size=0)

    def test_explain_analyze_respects_session_batch_size(self):
        import repro
        from repro.experiments.queries import Q2

        from repro.workloads import textbook_catalog

        db = repro.connect(textbook_catalog, batch_size=2)
        query = db.sql(Q2)
        assert "actual=" in query.explain(analyze=True)
        prepared, _hit = db._prepare(query.expression)
        assert all(operator.batch_size == 2 for operator in prepared.plan.walk())
