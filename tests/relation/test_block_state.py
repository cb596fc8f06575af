"""One relation, two states: a row set, or a de-duplicated tuple block.

A plan's result and a stored table hold their tuples as a block and build
their ``Row`` objects only when something asks.  Every public method must
answer exactly as the row-set state built from the same tuples does —
pickling included — and the block-reading methods must not build the set.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RelationError
from repro.physical import RelationScan, execute_plan
from repro.relation import Relation, Row
from repro.relation.aggregates import collect_set, count
from repro.relation.schema import Schema
from repro.storage import StoredRelation, TableReader

from tests.storage.tables import write_tuples

#: ``1`` / ``1.0`` / ``True`` are one value to a set; which one a state keeps
#: shows in the types of what it hands out.
VALUES = st.sampled_from([0, 1, 1.0, True, 2, "x", None])
TUPLES = st.lists(st.tuples(VALUES, VALUES), max_size=12)
SCHEMA = Schema.interned(("a", "b"))


def block(tuples):
    return Relation._from_block(SCHEMA, list(tuples))


def typed(values):
    """A value set that tells ``1``, ``1.0`` and ``True`` apart."""
    return {
        (value, tuple(map(type, value)) if isinstance(value, tuple) else type(value))
        for value in values
    }


def block_reads(relation):
    """What the block state answers without building a Row."""
    tuples = relation.aligned_tuples()
    decoded = list(zip(*(column.values() for column in relation.encoded_columns())))
    return {
        "len": len(relation),
        "bool": bool(relation),
        "empty": relation.is_empty(),
        "aligned": typed(tuples),
        "aligned_len": len(tuples),
        "decodes": decoded == tuples or not tuples,
        "to_tuples": typed(relation.to_tuples()),
        "to_tuples_ba": typed(relation.to_tuples(["b", "a"])),
        # Across tuples, which of 1 / 1.0 / True stands for the value follows
        # the scan order, each state's own: equal, not typed.
        "dictionaries": [set(column.dictionary) for column in relation.encoded_columns()],
        "to_set": relation.to_set("a"),
    }


def row_reads(relation, other):
    """What the row set answers: iteration, membership, the algebra."""
    some = next(iter(relation), None)
    a_is_one = lambda row: row["a"] == 1  # noqa: E731
    renamed = other.rename({"a": "c", "b": "d"})
    return {
        "rows": relation.rows,
        "iterated": typed(row.values_tuple for row in relation),
        "member": some is None or (some in relation and dict(some) in relation),
        "stranger": Row({"a": "absent", "b": 0}) in relation,
        "sorted": [row.values_tuple for row in relation.sorted_rows()],
        "hash": hash(relation),
        "repr": repr(relation),
        "project": relation.project(["a"]),
        "select": relation.select(a_is_one),
        "rename": relation.rename({"a": "z"}),
        "union": relation | other,
        "intersection": relation & other,
        "difference": relation - other,
        "product": relation * renamed,
        "join": relation.natural_join(other.rename({"b": "c"})),
        "semijoin": relation.semijoin(other.project(["a"])),
        "antijoin": relation.antijoin(other.project(["b"])),
        "group_by": relation.group_by(["a"], {"n": count(), "bs": collect_set("b")}),
        "clustered": relation.clustered(["a"]),
        "image": relation.image_set({"a": 1}, ["b"]),
    }


@settings(max_examples=150, deadline=None)
@given(tuples=TUPLES, others=TUPLES)
def test_block_state_equals_eager_state(tuples, others):
    eager, lazy = Relation(SCHEMA, tuples), block(tuples)
    other = Relation(SCHEMA, others)
    assert block_reads(lazy) == block_reads(eager)
    assert lazy._set is None  # none of those built a Row
    assert lazy.aligned_tuples() == list(dict.fromkeys(tuples))
    assert row_reads(lazy, other) == row_reads(eager, other)
    # a block on the other side of the algebra answers the same too
    assert row_reads(eager, block(others)) == row_reads(eager, other)
    assert lazy == eager and eager == lazy and lazy == block(tuples)


@settings(max_examples=100, deadline=None)
@given(tuples=TUPLES)
def test_the_row_set_is_built_once_in_the_eager_iteration_order(tuples):
    eager, lazy = Relation(SCHEMA, tuples), block(tuples)
    assert lazy.aligned_tuples() == [values for values in dict.fromkeys(tuples)]
    rows = lazy.rows
    assert lazy.rows is rows
    assert [row.values_tuple for row in lazy] == [row.values_tuple for row in eager]
    assert typed(row.values_tuple for row in lazy) == typed(row.values_tuple for row in eager)


@settings(max_examples=100, deadline=None)
@given(tuples=TUPLES, built=st.booleans())
def test_pickling_sends_the_block(tuples, built):
    lazy = block(tuples)
    lazy.encoded_columns()
    if built:  # the set is derived; the block still travels alone
        assert len(lazy.rows) == len(lazy)
    clone = pickle.loads(pickle.dumps(lazy))
    assert clone._set is None and clone._encoding is None
    assert clone.aligned_tuples() == lazy.aligned_tuples()
    assert clone == lazy == Relation(SCHEMA, tuples)
    eager = Relation(SCHEMA, tuples)
    assert pickle.loads(pickle.dumps(eager)) == eager


def test_an_unhashable_value_raises_in_both_states():
    with pytest.raises(RelationError, match="hashable"):
        Relation(SCHEMA, [(1, 2), ([3], 4)])
    with pytest.raises(RelationError, match="hashable"):
        block([(1, 2), ([3], 4)])


def test_a_plan_result_is_a_block():
    eager = Relation(SCHEMA, [(1, 2), (1.0, 2), (True, 3), (None, "x")])
    result = execute_plan(RelationScan(eager)).relation
    assert result._set is None
    assert result.aligned_tuples() == eager.aligned_tuples()
    assert result == eager and result.rows == eager.rows


def test_a_stored_relation_is_a_block_read_on_demand(tmp_path):
    tuples = [(i % 7, f"v{i % 5}") for i in range(60)]
    eager = Relation(SCHEMA, tuples)
    path = write_tuples(tmp_path / "t.rpb", "t", ("a", "b"), eager.aligned_tuples(), block_size=16)
    stored, other = StoredRelation(TableReader(path)), Relation(SCHEMA, tuples[:20] + [(9, "w")])
    assert len(stored) == len(eager) and not stored.is_loaded
    assert block_reads(stored) == block_reads(eager)
    assert stored.is_loaded and stored._set is None
    assert stored.aligned_tuples() == eager.aligned_tuples()
    stored_reads, eager_reads = row_reads(stored, other), row_reads(eager, other)
    assert stored_reads.pop("repr").startswith("<StoredRelation 't'")
    eager_reads.pop("repr")
    assert stored_reads == eager_reads
    assert stored == eager and pickle.loads(pickle.dumps(stored)) == eager
