"""Booby traps on the edit path: an edit is O(delta), the fold happens once.

``Database.insert`` / ``delete`` record a delta in the catalog; no
whole-table set operation, no scan block and no encode may run until
something reads the table — and then the scan block is carried over, not
rebuilt.  The traps below fail loudly the moment one of them creeps back.

The re-query right after an edit is held to the same standard: translating
and fingerprinting it folds nothing, and preparing it (statistics, law
preconditions, costing, planning) reads the edited table's code columns —
no projection of the table, no ``Row`` per tuple.
"""

import random

import pytest

import repro.relation.relation as relation_module
from repro.algebra.catalog import Catalog
from repro.api import connect
from repro.division import small_divide
from repro.relation import Relation
from repro.relation.row import Row
from repro.workloads import make_division_workload

EDITS = 1000


@pytest.fixture(scope="module")
def workload():
    """A dividend of more than 100k tuples (the IVM benchmark's shape)."""
    workload = make_division_workload(
        num_groups=9000, divisor_size=10, containing_fraction=0.2,
        extra_values_per_group=6, seed=11,
    )
    assert len(workload.dividend) >= 100_000
    return workload


def test_edits_touch_nothing_but_the_delta_and_the_first_read_folds_once(workload, monkeypatch):
    db = connect({"r1": workload.dividend, "r2": workload.divisor})
    db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"])).run()
    rng = random.Random(5)
    present = rng.sample(sorted(workload.dividend.aligned_tuples()), EDITS // 2)
    base = db.relation("r1")

    def trap(name):
        def sprung(*_args, **_kwargs):
            raise AssertionError(f"{name} ran on the edit path")

        return sprung

    folds = []
    encoded = []
    fold, encode = Relation.with_delta, relation_module.encode_columns
    with monkeypatch.context() as patch:
        for name in ("union", "difference", "intersection", "aligned_tuples", "with_delta"):
            patch.setattr(Relation, name, trap(f"Relation.{name}"))
        patch.setattr(relation_module, "encode_columns", trap("encode_columns"))
        for step, row in enumerate(present):
            assert db.delete("r1", [row]).changed
            assert db.insert("r1", [(10**6 + step, step)]).changed
            # none of the session's own bookkeeping reads may fold either
            assert "r1" in db.catalog and "r1" in db.tables
            assert db.versions["r1"] == db.table_version("r1") == 2 * (step + 1)
        assert db.catalog._tables["r1"] is base

    def counted_fold(self, added, removed):
        folds.append((len(added), len(removed)))
        return fold(self, added, removed)

    def counted_encode(tuples, width):
        encoded.append(len(tuples))
        return encode(tuples, width)

    monkeypatch.setattr(Relation, "with_delta", counted_fold)
    monkeypatch.setattr(relation_module, "encode_columns", counted_encode)
    result = db.table("r1").divide(db.table("r2"), on=["b"]).run()
    assert folds == [(EDITS // 2, EDITS // 2)]
    assert not [size for size in encoded if size > 1000], "the edited table was re-encoded"
    assert result.relation == small_divide(db.relation("r1"), db.relation("r2"))
    assert result.relation == db.view("q").relation()
    assert folds == [(EDITS // 2, EDITS // 2)]  # later reads find nothing pending


def test_delete_only_edits_keep_a_clustered_table_sorted(workload):
    renamed = workload.dividend.rename({"a": "s_no", "b": "p_no"})
    divisor = workload.divisor.rename({"b": "p_no"})
    db = connect({"supplies": renamed.clustered(["s_no"]), "parts": divisor})
    query = db.table("supplies").divide(db.table("parts"), on=["p_no"])

    def choice():
        decision = query.run().decisions[0].chosen
        return decision.name, decision.clustered

    assert choice() == ("merge_sort", True)
    rng = random.Random(6)
    for row in rng.sample(sorted(renamed.aligned_tuples()), 40):
        db.delete("supplies", [row])
    result = query.run()
    assert db.optimizer.statistics.table("supplies").is_sorted("s_no")
    assert choice() == ("merge_sort", True)
    assert "merge_sort_division(streaming)" in query.explain()
    assert result.relation == small_divide(db.relation("supplies"), db.relation("parts"))
    # an insert lands at the tail of the scan: the order is gone, and the
    # statistics say so
    db.insert("supplies", [(-1, 0)])
    assert choice() != ("merge_sort", True)
    assert not db.optimizer.statistics.table("supplies").is_sorted("s_no")


DIVIDE_BY_COLOUR = (
    "SELECT a FROM r1 DIVIDE BY (SELECT b FROM parts WHERE color = 'blue') AS p ON r1.b = p.b"
)


def coloured_session(workload):
    parts = [(b, "blue" if b % 2 else "red") for (b,) in workload.divisor.aligned_tuples()]
    return connect({"r1": workload.dividend, "parts": Relation(["b", "color"], parts)})


def blue_quotient(db):
    blue = db.relation("parts").select(lambda row: row["color"] == "blue").project(["b"])
    return small_divide(db.relation("r1"), blue)


def test_translating_and_fingerprinting_after_an_edit_folds_nothing(workload, monkeypatch):
    db = coloured_session(workload)
    db.sql(DIVIDE_BY_COLOUR).run()
    db.insert("r1", [(-1, -1)])
    db.insert("parts", [(-1, "blue")])

    def sprung(self, name):
        raise AssertionError(f"the front door folded {name!r} to read its schema")

    with monkeypatch.context() as patch:
        patch.setattr(Catalog, "_fold", sprung)
        query = db.sql(DIVIDE_BY_COLOUR)
        assert query.schema.names == ("a",)
        assert query.fingerprint() and query.expression is not None
        # the double-NOT-EXISTS front door reads two schemas the same way
        assert db.sql(
            "SELECT DISTINCT a FROM r1 AS s1 WHERE NOT EXISTS (SELECT * FROM parts AS p2 "
            "WHERE p2.color = 'blue' AND NOT EXISTS (SELECT * FROM r1 AS s2 "
            "WHERE s2.b = p2.b AND s2.a = s1.a))"
        ).fingerprint()
    assert set(db.catalog._pending) == {"r1", "parts"}
    assert query.run().relation == blue_quotient(db)
    assert not db.catalog._pending  # the fold happened where the tables were read


def test_requery_after_an_edit_builds_no_row_of_the_edited_table(workload, monkeypatch):
    db = coloured_session(workload)
    query = db.sql(DIVIDE_BY_COLOUR)
    before = query.run()
    assert db.insert("r1", [(10**6, 1)]).changed
    project, from_schema = Relation.project, Row.from_schema.__func__
    built = []

    def guarded_project(self, attributes):
        assert len(self) < 1000, "Relation.project ran on the edited table"
        return project(self, attributes)

    def counted_from_schema(cls, schema, values):
        built.append(schema)
        return from_schema(cls, schema, values)

    with monkeypatch.context() as patch:
        patch.setattr(Relation, "project", guarded_project)
        patch.setattr(Row, "from_schema", classmethod(counted_from_schema))
        prepared, cached = db._prepare(query.expression)
    assert not cached and prepared.table_versions == (("parts", 0), ("r1", 1))
    assert len(built) < 100, f"{len(built)} Rows were built while preparing the re-query"
    assert prepared.rules_fired == list(before.rules_fired)
    assert query.run().relation == blue_quotient(db)


def test_maintained_read_after_an_edit_builds_only_the_rows_that_changed(workload, monkeypatch):
    db = connect({"r1": workload.dividend, "r2": workload.divisor})
    view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
    quotient = view.relation()
    assert len(quotient) > 1000
    member = min(quotient.aligned_tuples())[0]
    (b,) = min(workload.divisor.aligned_tuples())
    from_schema = Row.from_schema.__func__
    built = []

    def counted_from_schema(cls, schema, values):
        built.append(values)
        return from_schema(cls, schema, values)

    monkeypatch.setattr(Row, "from_schema", classmethod(counted_from_schema))
    assert db.delete("r1", [(member, b)]).changed  # member leaves the quotient
    without = view.relation()
    assert db.insert("r1", [(member, b)]).changed  # ... and comes back
    restored = view.relation()
    # one Row per edited tuple on the way in, one per quotient tuple that moved
    assert len(built) <= 4, f"{len(built)} Rows were built by two maintained reads"
    assert without == quotient.difference(Relation(["a"], [(member,)]))
    assert restored == quotient == small_divide(db.relation("r1"), db.relation("r2"))
