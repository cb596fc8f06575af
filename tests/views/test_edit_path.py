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

import numpy as np
import pytest

import repro.relation.encoding as encoding_module
import repro.relation.relation as relation_module
from repro.algebra import predicates as P
from repro.algebra.catalog import Catalog
from repro.api import connect
from repro.division import small_divide
from repro.optimizer import TableStatistics
from repro.relation import Relation
from repro.relation.encoding import CodeColumn
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

    aligned = Relation.aligned_tuples

    def guarded_aligned(self):
        # An edit's own delta is read as tuples; the table's block is not.
        assert len(self) < 1000, "Relation.aligned_tuples ran on the table on the edit path"
        return aligned(self)

    folds = []
    encoded = []
    fold, encode = Relation.with_delta, relation_module.encode_columns
    with monkeypatch.context() as patch:
        for name in ("union", "difference", "intersection", "with_delta"):
            patch.setattr(Relation, name, trap(f"Relation.{name}"))
        patch.setattr(Relation, "aligned_tuples", guarded_aligned)
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


def test_edits_to_a_clustered_table_keep_hash_division_and_true_statistics(workload):
    """Deletes keep a clustered table's scan order and an insert lands at
    its tail; neither moves the plan (hash division) or leaves the
    statistics other than a fresh relation's."""
    renamed = workload.dividend.rename({"a": "s_no", "b": "p_no"})
    divisor = workload.divisor.rename({"b": "p_no"})
    db = connect({"supplies": renamed.clustered(["s_no"]), "parts": divisor})
    query = db.table("supplies").divide(db.table("parts"), on=["p_no"])

    def check():
        result = query.run()
        assert list(result.tuple_counts)[0] == "00:hash_division"
        supplies = db.relation("supplies")
        fresh = Relation.from_aligned(supplies.schema, supplies.aligned_tuples())
        statistics = db.optimizer.statistics.table("supplies")
        assert statistics == TableStatistics.from_relation(fresh)
        assert result.relation == small_divide(supplies, db.relation("parts"))

    check()
    rng = random.Random(6)
    for row in rng.sample(sorted(renamed.aligned_tuples()), 40):
        db.delete("supplies", [row])
    check()
    db.insert("supplies", [(-1, 0)])
    check()


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


def test_the_fold_and_the_edits_after_it_copy_no_row_set(workload, monkeypatch):
    """A folded table is a scan block: the re-query's fold patches the
    parent's block and encoding without reading its row set, and the next
    edits test membership against the catalog's live set, not a row set of
    the folded value."""
    db = connect({"r1": workload.dividend, "r2": workload.divisor})
    view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
    view.run()
    query = db.table("r1").divide(db.table("r2"), on=["b"])
    query.run()
    rng = random.Random(7)
    present = rng.sample(sorted(workload.dividend.aligned_tuples()), 12)
    for step, row in enumerate(present[:10]):
        assert db.delete("r1", [row]).changed
        assert db.insert("r1", [(10**6 + step, step)]).changed
    schema = db.catalog.schema("r1")
    row_set, block, from_schema = Relation._rows, Row.block.__func__, Row.from_schema.__func__
    built = []

    def guarded_rows(self):
        assert len(self) < 1000, "a row set of the edited table was read or built"
        return row_set.fget(self)

    def counted_block(cls, block_schema, tuples):
        rows = block(cls, block_schema, tuples)
        built.extend(rows if block_schema == schema else ())
        return rows

    def counted_from_schema(cls, row_schema, values):
        built.extend([values] if row_schema == schema else ())
        return from_schema(cls, row_schema, values)

    with monkeypatch.context() as patch:
        patch.setattr(Relation, "_rows", property(guarded_rows))
        patch.setattr(Row, "block", classmethod(counted_block))
        patch.setattr(Row, "from_schema", classmethod(counted_from_schema))
        result = query.run()
        folded = db.catalog._tables["r1"]
        assert folded.cached_encoding is not None and not db.catalog._pending
        assert not built, f"the re-query built {len(built)} Rows of the edited table"
        assert db.delete("r1", [present[10]]).changed
        assert db.insert("r1", [present[10], present[11]]).changed  # one is held
        assert not db.delete("r1", [(-5, -5)]).changed
        assert db.catalog._tables["r1"] is folded
        assert len(built) <= 5, f"{len(built)} Rows were built by three one-row edits"
    assert db.catalog._tables["r1"]._set is None  # nothing asked for the rows
    current = db.relation("r1")
    expected = set(workload.dividend.aligned_tuples()) - set(present[:10])
    expected |= {(10**6 + step, step) for step in range(10)}
    assert current.to_tuples() == expected and len(current) == len(expected)
    assert result.relation == small_divide(folded, db.relation("r2"))
    assert query.run().relation == view.relation() == small_divide(current, db.relation("r2"))


def count_table_rows(monkeypatch, names):
    """Count every ``Row`` built over the attribute set ``names`` (both
    builders trapped); the list of their value tuples is returned."""
    block, from_schema = Row.block.__func__, Row.from_schema.__func__
    built = []

    def counted_block(cls, schema, tuples):
        rows = block(cls, schema, tuples)
        built.extend(row.values_tuple for row in rows if schema.name_set == names)
        return rows

    def counted_from_schema(cls, schema, values):
        built.extend([values] if schema.name_set == names else ())
        return from_schema(cls, schema, values)

    monkeypatch.setattr(Row, "block", classmethod(counted_block))
    monkeypatch.setattr(Row, "from_schema", classmethod(counted_from_schema))
    return built


def test_no_row_of_the_table_on_the_edit_and_view_path(workload, monkeypatch):
    """Opening a session, two maintained views over the unfiltered dividend
    and their first reads, ten inserts and ten deletes by value, a
    re-query and its fold, an AST-predicate delete and ``replace_table``
    build no ``Row`` of the table: deltas, the live set and every value
    hold value tuples.  A value read before later edits still answers its
    rows, from its own block."""
    rng = random.Random(8)
    present = rng.sample(sorted(workload.dividend.aligned_tuples()), 11)
    doomed = {values for values in workload.dividend.aligned_tuples() if values[0] == present[10][0]}
    replacement = Relation(["b", "a"], [(b, a) for a, b in present[:5]] + [(0, -1)])
    with monkeypatch.context() as patch:
        built = count_table_rows(patch, frozenset({"a", "b"}))
        db = connect({"r1": workload.dividend, "r2": workload.divisor})
        views = [
            db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"])),
            db.create_view("p", "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b"),
        ]
        assert all(view.maintained for view in views)
        first = [view.relation() for view in views]
        for step, values in enumerate(present[:10]):
            assert db.insert("r1", [(10**6 + step, step)]).changed
            assert db.delete("r1", [values]).changed
        query = db.table("r1").divide(db.table("r2"), on=["b"])
        result = query.run()
        assert not db.catalog._pending
        held = db.relation("r1")
        deleted = db.delete("r1", P.equals(P.attr("a"), present[10][0]))
        db.replace_table("r1", replacement)
        replaced = [view.relation() for view in views]
    assert not built, f"{len(built)} Rows of the table were built"
    assert first[0] == first[1] == small_divide(workload.dividend, workload.divisor)
    edited = set(workload.dividend.aligned_tuples()) - set(present[:10])
    edited |= {(10**6 + step, step) for step in range(10)}
    assert held.to_tuples() == edited and len(held) == len(edited)
    assert {row.values_tuple for row in held.rows} == set(held.aligned_tuples())
    assert result.relation == small_divide(held, db.relation("r2"))
    assert deleted.deleted.to_tuples() == doomed - set(present[:10])
    assert db.relation("r1").to_tuples(["a", "b"]) == {(a, b) for a, b in present[:5]} | {(-1, 0)}
    expected = small_divide(db.relation("r1"), db.relation("r2"))
    assert replaced[0] == replaced[1] == query.run().relation == expected


def test_creating_and_reading_a_view_builds_no_row_of_the_dividend(workload, monkeypatch):
    """A maintained view's extractor reads the dividend's value tuples;
    only a filtered input tests its predicate on a ``Row``, one per tuple
    of that input."""
    cut = sorted(workload.divisor.to_set("b"))[len(workload.divisor) // 2]
    low = P.less_than(P.attr("b"), cut)
    with monkeypatch.context() as patch:
        built = count_table_rows(patch, frozenset({"a", "b"}))
        tested = count_table_rows(patch, frozenset({"b"}))
        db = connect({"r1": workload.dividend, "r2": workload.divisor})
        view = db.create_view("q", db.table("r1").divide(db.table("r2").where(low), on=["b"]))
        assert view.maintained
        quotient = view.relation()
    assert not built, f"{len(built)} Rows of the dividend were built"
    assert len(tested) == len(workload.divisor)
    assert quotient == small_divide(workload.dividend, workload.divisor.select(low))


def test_the_requery_after_edits_decodes_nothing(workload, monkeypatch):
    """The re-query's fold patches code columns and its statistics and
    execution read them: no column is decoded, the edited table's tuples
    are never asked for, no value → code table is rebuilt over a dictionary
    that did not change and no membership test runs over the whole table."""
    db = connect({"r1": workload.dividend, "r2": workload.divisor})
    view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
    view.run()
    query = db.table("r1").divide(db.table("r2"), on=["b"])
    query.run()
    rng = random.Random(9)
    present = rng.sample(sorted(workload.dividend.aligned_tuples()), 12)
    for step, row in enumerate(present):
        assert db.delete("r1", [row]).changed
        assert db.insert("r1", [(10**6 + step, step)]).changed
    parent = db.catalog._tables["r1"]
    dictionaries = [column.dictionary for column in parent.encoded_columns()]
    code_table, isin, aligned = encoding_module._code_table, np.isin, Relation.aligned_tuples

    def sprung(*_args, **_kwargs):
        raise AssertionError("CodeColumn.values decoded a column on the re-query")

    def guarded_code_table(dictionary):
        assert all(dictionary is not kept for kept in dictionaries), "a code table was rebuilt"
        return code_table(dictionary)

    def guarded_isin(element, *args, **kwargs):
        assert len(element) < 1000, "np.isin ran over the whole table"
        return isin(element, *args, **kwargs)

    def guarded_aligned(self):
        assert len(self) < 1000, "the edited table's tuples were read"
        return aligned(self)

    with monkeypatch.context() as patch:
        patch.setattr(CodeColumn, "values", sprung)
        patch.setattr(encoding_module, "_code_table", guarded_code_table)
        patch.setattr(np, "isin", guarded_isin)
        patch.setattr(Relation, "aligned_tuples", guarded_aligned)
        result = query.run()
        folded = db.catalog._tables["r1"]
        assert folded is not parent and not db.catalog._pending
        assert folded.code_columns is not None
        assert db.optimizer.statistics.table("r1").cardinality == len(parent)
    assert result.relation == view.relation() == small_divide(folded, db.relation("r2"))


def test_reading_a_folded_tables_tuples_drops_the_parents_list(workload, monkeypatch):
    """A folded value whose parent's tuple list had been built gets its
    own by dropping the removed tuples from that list — once, for a join
    over the table and ``aligned_tuples`` alike — and decodes no column."""
    db = connect({"r1": workload.dividend, "r2": workload.divisor})
    db.table("r1").divide(db.table("r2"), on=["b"]).run()
    parent = db.relation("r1")
    order = list(parent.aligned_tuples())  # built when the scan encoded it
    rng = random.Random(10)
    present = rng.sample(order, 10)
    for step, row in enumerate(present):
        assert db.delete("r1", [row]).changed
        assert db.insert("r1", [(10**6 + step, step)]).changed
    values, drop = CodeColumn.values, relation_module.drop_positions
    decoded, dropped = [], []

    def counted_values(self):
        decoded.append(len(self))
        return values(self)

    def counted_drop(items, positions):
        dropped.append(len(items))
        return drop(items, positions)

    with monkeypatch.context() as patch:
        patch.setattr(CodeColumn, "values", counted_values)
        patch.setattr(relation_module, "drop_positions", counted_drop)
        folded = db.relation("r1")
        assert folded.code_columns is not None and not dropped
        joined = db.table("r1").join(db.table("r2")).run().relation
        tuples = folded.aligned_tuples()
    assert not decoded, f"{len(decoded)} columns were decoded"
    assert dropped == [len(order)]
    gone = set(present)
    assert tuples == [v for v in order if v not in gone] + [(10**6 + i, i) for i in range(10)]
    assert joined == folded.natural_join(db.relation("r2"))
