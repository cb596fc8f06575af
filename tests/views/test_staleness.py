"""Satellite 1 regressions: mutations invalidate plans and statistics.

The two staleness bugs this file pins down:

* a **stale plan** — physical scans pin relation contents at plan-build
  time, so a cached plan from before a mutation would serve pre-mutation
  rows forever — and, while it sits in the cache, pins that whole
  relation value in memory, so the first query after an edit sweeps out
  *every* plan and result built against the table's other versions;
* **stale statistics** — mutations defer statistics recollection to
  prepare time, so a query planned right after a big mutation must see
  the new cardinalities, not the build-time snapshot.
"""

import gc
import weakref

import pytest

from repro.api import connect
from repro.relation import Relation


@pytest.fixture
def db():
    database = connect()
    database.add_table(
        "r1", Relation(["a", "b"], [(1, 1), (1, 2), (2, 1), (3, 1), (3, 2)])
    )
    database.add_table("r2", Relation(["b"], [(1,), (2,)]))
    return database


def q(db):
    return db.table("r1").divide(db.table("r2"), on=["b"])


class TestStalePlans:
    def test_cached_plan_does_not_serve_premutation_rows(self, db):
        before = q(db).run()
        assert set(before.relation.aligned_tuples()) == {(1,), (3,)}
        db.insert("r1", [(2, 2)])
        after = q(db).run()
        assert set(after.relation.aligned_tuples()) == {(1,), (2,), (3,)}

    def test_stale_plan_lookup_counts_an_invalidation(self, db):
        q(db).run()
        assert db.cache_info().invalidations == 0
        db.insert("r1", [(2, 2)])
        q(db).run()
        info = db.cache_info()
        assert info.invalidations == 1
        # The evicted entry was replaced by the replan, so a third run hits.
        assert q(db).run().cache_hit

    def test_first_query_after_an_edit_sweeps_every_stale_plan_once(self, db):
        """Eight plans over ``r1`` are cached; after an edit the first
        query evicts all of them (not only its own fingerprint), counts
        each once, and nothing keeps the pre-edit value alive."""
        db.add_table("other", Relation(["x"], [(1,)]))
        queries = [q(db).where(a=value) for value in range(8)]
        for query in queries:
            query.run()
        db.table("other").run()
        assert (db.cache_info().size, db.cache_info().result_size) == (9, 9)
        # Relation has __slots__ and takes no weak reference; its row set does.
        before = weakref.ref(db.relation("r1").rows)
        db.insert("r1", [(2, 2)])
        assert db.cache_info().size == 9  # the edit path sweeps nothing
        queries[0].run()
        info = db.cache_info()
        assert info.invalidations == 8
        assert (info.size, info.result_size) == (2, 2)  # the replan + `other`
        gc.collect()
        assert before() is None, "a cached plan still pins the pre-edit table value"
        for query in queries[1:]:
            assert not query.run().cache_hit
        assert db.cache_info().invalidations == 8  # a swept plan is not counted again
        assert db.table("other").run().result_cache_hit

    def test_prepared_plan_records_build_versions(self, db):
        db.insert("r1", [(9, 1)])
        prepared, _ = db._prepare(q(db).expression)
        assert dict(prepared.table_versions) == {"r1": 1, "r2": 0}

    def test_explicit_prepare_then_mutate_then_run(self, db):
        query = db.prepare(q(db))
        db.delete("r1", [(1, 1)])
        result = query.run()
        assert set(result.relation.aligned_tuples()) == {(3,)}

    def test_deletion_invalidates_too(self, db):
        q(db).run()
        db.delete("r1", [(3, 2)])
        assert set(q(db).run().relation.aligned_tuples()) == {(1,)}


class TestStaleStatistics:
    def test_statistics_refresh_lazily_at_prepare_time(self, db):
        db._prepare(q(db).expression)
        assert db._optimizer.statistics.table("r1").cardinality == 5
        db.insert("r1", [(10 + i, 1) for i in range(20)])
        # Deferred: the mutation itself does not recollect ...
        assert db._optimizer.statistics.table("r1").cardinality == 5
        db._prepare(q(db).expression)
        # ... but the next prepare over r1 does.
        assert db._optimizer.statistics.table("r1").cardinality == 25

    def test_unreferenced_tables_stay_deferred(self, db):
        db.add_table("other", Relation(["x"], [(1,)]))
        db.insert("other", [(i,) for i in range(2, 30)])
        db._prepare(q(db).expression)  # does not read `other`
        assert db._optimizer.statistics.table("other").cardinality == 1

    def test_analyze_marks_statistics_fresh(self, db):
        db.insert("r1", [(10, 1)])
        db.analyze("r1")
        assert db._optimizer.statistics.table("r1").cardinality == 6
        assert db._stats_versions["r1"] == db.table_version("r1")

    def test_noop_mutation_does_not_dirty_statistics(self, db):
        db._prepare(q(db).expression)
        db.insert("r1", [(1, 1)])  # already present
        assert db._stats_versions["r1"] == db.table_version("r1") == 0
