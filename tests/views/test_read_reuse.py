"""A maintained view's read after an edit: reused while the quotient stands.

An edit that moves no quotient member leaves the last read's result the
answer (the same ``QueryResult``), one that moves a member — or notes a
delta rule the last read did not name — makes the next read scan the
counter table again, and that read hands out each quotient tuple once.
"""

from repro.api import connect
from repro.division import small_divide
from repro.relation import Relation


def session():
    dividend = Relation(["a", "b"], [(a, b) for a in range(6) for b in range(4) if a + b != 5])
    db = connect({"r1": dividend, "r2": Relation(["b"], [(1,), (2,)])})
    view = db.create_view("q", db.table("r1").divide(db.table("r2"), on=["b"]))
    return db, view


def test_an_edit_that_moves_no_member_keeps_the_last_read():
    db, view = session()
    assert db.insert("r1", [(9, 3)]).changed  # notes the insert rule: a new read
    first = view.run()
    assert db.insert("r1", [(8, 3)]).changed  # 8 does not hold b = 1 or 2
    assert db.delete("r1", [(0, 0)]).changed  # 0 keeps 1 and 2; notes the delete rule
    second = view.run()
    assert second is not first and "delta_dividend_delete" in second.rules_fired
    assert db.delete("r1", [(1, 3)]).changed  # 1 keeps 1 and 2
    assert view.run() is second
    assert view.relation() == small_divide(db.relation("r1"), db.relation("r2"))


def test_an_edit_that_moves_a_member_reads_again():
    db, view = session()
    first = view.run()
    assert (3,) not in first.relation.to_tuples()  # 3 lacks b = 2
    assert db.insert("r1", [(3, 2)]).changed
    joined = view.run()
    assert joined is not first and (3,) in joined.relation.to_tuples()
    assert db.delete("r1", [(0, 1)]).changed
    left = view.run()
    assert left is not joined and (0,) not in left.relation.to_tuples()
    tuples = left.relation.aligned_tuples()
    assert len(tuples) == len(set(tuples)) == len(left.relation)
    assert left.relation == small_divide(db.relation("r1"), db.relation("r2"))
