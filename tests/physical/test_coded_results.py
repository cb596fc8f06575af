"""A plan's result held as code columns is the same relation as its tuples.

When every chunk a plan emits carries code columns over one shared
dictionary per attribute, :meth:`PhysicalOperator.execute` hands the joined
code buffers to the relation and decodes nothing.  For every root that
emits such chunks — a scan, a dictionary filter, a permuting projection, a
rename, all eight division algorithms, an exchange partition and a stored
table reopened from disk — and for a division over two partitions (whose
partitions each carry their own dictionaries), the result must be the relation the
parent's tuple path builds, ``Relation._from_block(schema, plan.drain())``:
same tuples in the same scan order, no duplicate, ``len`` answered without
decoding, an encoding identical to a fresh encode of its tuples, a pickle
round trip, and the same edits and statistics as that twin.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.algebra import predicates as P
from repro.optimizer.statistics import TableStatistics
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    Filter,
    HashPartitionExchange,
    PartitionedDivision,
    PartitionSource,
    ProjectOp,
    RelationScan,
    RenameOp,
)
from repro.relation import Relation
from repro.relation.encoding import CodeColumn, encode_columns
from repro.storage.scan import StoredScan
from repro.storage.store import load_store
from tests.strategies import dividends, divisors, great_divisors

EXAMPLES = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def stored(relation, directory):
    """``relation`` saved as table ``r`` and reopened: a StoredScan of it."""
    repro.connect({"r": relation}).save(directory)
    catalog, _versions, _views = load_store(directory)
    return StoredScan(catalog["r"], "r")


#: root name → (plan builder over (dividend, small divisor, great divisor,
#: a directory of its own), whether its non-empty result is held as code
#: columns; ``None``: it depends on the data)
ROOTS = {
    "scan": (lambda r1, r2, g2, _: RelationScan(r1), True),
    "dictionary filter": (
        lambda r1, r2, g2, _: Filter(RelationScan(r1), P.less_equal(P.attr("a"), 1)),
        True,
    ),
    "permuting projection": (lambda r1, r2, g2, _: ProjectOp(RelationScan(r1), ["b", "a"]), True),
    "rename": (lambda r1, r2, g2, _: RenameOp(RelationScan(r1), {"a": "x"}), True),
    "stored scan": (lambda r1, r2, g2, directory: stored(r1, directory), True),
    "exchange partition": (
        lambda r1, r2, g2, _: PartitionSource(
            r1.schema.names, HashPartitionExchange(["a"], 2).partition(RelationScan(r1))[0]
        ),
        True,
    ),
    # Coded when one partition holds the whole quotient: each partition's
    # quotient carries that partition's own dictionaries.
    "exchange of two partitions": (
        lambda r1, r2, g2, _: PartitionedDivision(
            RelationScan(r1), RelationScan(r2), algorithm="hash", partitions=2
        ),
        None,
    ),
}
ROOTS.update(
    {
        f"small divide: {name}": (
            lambda r1, r2, g2, _, divide=algorithm: divide(RelationScan(r1), RelationScan(r2)),
            name != "algebra_simulation",  # the basic operators' tuples, by design
        )
        for name, algorithm in SMALL_DIVIDE_ALGORITHMS.items()
    }
)
ROOTS.update(
    {
        f"great divide: {name}": (
            lambda r1, r2, g2, _, divide=algorithm: divide(RelationScan(r1), RelationScan(g2)),
            True,
        )
        for name, algorithm in GREAT_DIVIDE_ALGORITHMS.items()
    }
)


def test_every_division_algorithm_is_covered():
    assert len(SMALL_DIVIDE_ALGORITHMS) + len(GREAT_DIVIDE_ALGORITHMS) == 8
    assert sum(name.startswith(("small", "great")) for name in ROOTS) == 8


def codes_of(columns):
    return [(column.dictionary, list(column.codes.tolist())) for column in columns]


@pytest.mark.parametrize("root", sorted(ROOTS))
@EXAMPLES
@given(r1=dividends(), r2=divisors(), g2=great_divisors())
def test_a_result_is_the_relation_its_tuples_make(monkeypatch, tmp_path_factory, root, r1, r2, g2):
    build, coded = ROOTS[root]
    plan = build(r1, r2, g2, tmp_path_factory.mktemp("store"))
    decoded = []
    values = CodeColumn.values
    with monkeypatch.context() as patch:
        patch.setattr(CodeColumn, "values", lambda self: decoded.append(self) or values(self))
        result = plan.execute()
        during_execute = len(decoded)
        size = len(result)
    # A coded result decodes nothing to exist, and no result to say its size.
    assert len(decoded) == during_execute
    assert result.code_columns is None or during_execute == 0
    twin = Relation._from_block(plan.schema, plan.drain())
    if coded is not None:
        assert (result.code_columns is not None) == (coded and size > 0)
    if root == "dictionary filter":
        assert plan._filter_mode == "dictionary"

    tuples = result.aligned_tuples()
    assert size == len(tuples) == len(set(tuples)) == len(twin)
    assert tuples == twin.aligned_tuples() and result == twin
    assert codes_of(result.encoded_columns()) == codes_of(encode_columns(tuples, len(plan.schema)))
    assert codes_of(result.encoded_columns()) == codes_of(twin.encoded_columns())

    again = pickle.loads(pickle.dumps(plan.execute()))
    assert again == twin and again.aligned_tuples() == tuples

    # Registered as a table, a result must plan as its twin does: the same
    # statistics, and the same value, scan order and encoding after an edit
    # — fresh (nothing cached to carry) and after both were read.
    removed = sorted(twin.aligned_tuples(), key=repr)[:1]
    added = [(9,) * len(plan.schema)]
    fresh_twin = Relation._from_block(plan.schema, plan.drain())
    for value, reference in ((plan.execute(), fresh_twin), (result, twin)):
        assert TableStatistics.from_relation(value) == TableStatistics.from_relation(reference)
        edited, expected = value.with_delta(added, removed), reference.with_delta(added, removed)
        assert edited == expected and edited.aligned_tuples() == expected.aligned_tuples()
        assert codes_of(edited.encoded_columns()) == codes_of(expected.encoded_columns())
        assert TableStatistics.from_relation(edited) == TableStatistics.from_relation(expected)
