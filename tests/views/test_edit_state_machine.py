"""One state machine over a session's write side.

Three tables (a dividend, a small and a great divisor), two maintained
views, and every way a table's value moves: bursts of inserts and deletes
by value with no read in between (so the pending delta accumulates and
cancels), deletes by predicate, ``replace_table``, ``analyze``, and a save
followed by ``connect(path)``.  The model is plain Python sets.  After
every step the session must agree with it on contents, on the carried scan
block (``encoded_columns()`` decodes to ``aligned_tuples()`` position by
position), on statistics, on both views and on the version counters; held
relation values never change.  A key check (``attribute_is_key``, which
reads the carried dictionaries) on the folded table gives the model's
answer.

Values include ``1`` / ``1.0`` / ``True`` (one dictionary entry) and
``None`` (unorderable next to numbers).  The file must also pass with
numpy blocked (``array('i')`` code buffers).
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.api import connect
from repro.division import great_divide, small_divide
from repro.laws.conditions import attribute_is_key
from repro.optimizer.statistics import TableStatistics
from repro.relation import Relation

SCHEMAS = {"r1": ("a", "b"), "r2": ("b",), "r3": ("b", "c")}
TABLES = st.sampled_from(sorted(SCHEMAS))
VALUES = st.sampled_from([0, 1, 1.0, True, 2, 3, None])


@st.composite
def table_and_rows(draw, max_rows=3):
    table = draw(TABLES)
    row = st.tuples(*[VALUES] * len(SCHEMAS[table]))
    return table, draw(st.lists(row, max_size=max_rows))


@st.composite
def bursts(draw):
    """Edits applied back to back, nothing reading the tables in between."""
    edit = st.tuples(st.sampled_from(["insert", "delete"]), table_and_rows())
    return draw(st.lists(edit, min_size=1, max_size=5))


def fresh(table, tuples):
    return Relation(SCHEMAS[table], tuples)


class EditSession(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.workdir = Path(tempfile.mkdtemp(prefix="repro-edit-machine-"))
        self.saves = 0
        self.model = {
            "r1": {(1, 1), (1, 2), (2, 1), (3, None)},
            "r2": {(1,), (2,)},
            "r3": {(1, 0), (2, 0), (1, 1)},
        }
        self.db = connect({name: fresh(name, rows) for name, rows in self.model.items()})
        self.db.create_view("small", self.db.table("r1").divide(self.db.table("r2"), on=["b"]))
        self.db.create_view("great", self.db.table("r1").great_divide(self.db.table("r3")))
        self.versions = dict.fromkeys(SCHEMAS, 0)
        self.held = []

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _bump(self, table, changed):
        if changed:
            self.versions[table] += 1
        assert self.db.table_version(table) == self.versions[table]

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @rule(burst=bursts())
    def edit_by_value(self, burst):
        for kind, (table, rows) in burst:
            current = self.model[table]
            if kind == "insert":
                effective = set(rows) - current
                result = self.db.insert(table, rows)
                assert result.inserted.to_tuples() == effective and not len(result.deleted)
                current |= effective
            else:
                effective = set(rows) & current
                result = self.db.delete(table, rows)
                assert result.deleted.to_tuples() == effective and not len(result.inserted)
                current -= effective
            self._bump(table, effective)
            assert result.version == self.versions[table]
            assert result.changed == bool(effective)

    @rule(table=TABLES, value=VALUES)
    def delete_by_predicate(self, table, value):
        name = SCHEMAS[table][0]
        doomed = {row for row in self.model[table] if row[0] == value}
        result = self.db.delete(table, lambda row: row[name] == value)
        assert result.deleted.to_tuples() == doomed
        self.model[table] -= doomed
        self._bump(table, doomed)

    @rule(contents=table_and_rows(max_rows=6), cluster=st.booleans())
    def replace_table(self, contents, cluster):
        table, rows = contents
        relation = fresh(table, rows)
        self.db.replace_table(table, relation.clustered() if cluster else relation)
        changed = set(rows) != self.model[table]
        self.model[table] = set(rows)
        self._bump(table, changed)

    @rule(table=TABLES)
    def hold_a_snapshot(self, table):
        if len(self.held) < 6:
            self.held.append((self.db.relation(table), frozenset(self.model[table])))

    @rule()
    def adhoc_divide(self):
        result = self.db.table("r1").divide(self.db.table("r2"), on=["b"]).run()
        assert result.relation == small_divide(fresh("r1", self.model["r1"]), fresh("r2", self.model["r2"]))

    @rule(table=TABLES, positions=st.lists(st.integers(0, 1), unique=True))
    def key_check(self, table, positions):
        positions = [p for p in positions if p < len(SCHEMAS[table])]
        rows = self.model[table]
        distinct = {tuple(row[p] for p in positions) for row in rows}
        names = [SCHEMAS[table][p] for p in positions]
        assert attribute_is_key(self.db.relation(table), names) == (len(distinct) == len(rows))

    @rule()
    def analyze(self):
        self.db.analyze()

    @rule()
    def save_and_reopen(self):
        path = self.workdir / f"store-{self.saves}"
        self.saves += 1
        self.db.save(path)
        self.db = connect(path)
        assert set(self.db.views) == {"small", "great"}

    # ------------------------------------------------------------------
    # what must hold after every step
    # ------------------------------------------------------------------
    @invariant()
    def tables_and_scan_blocks_agree_with_the_model(self):
        for table, expected in self.model.items():
            relation = self.db.relation(table)
            assert relation.to_tuples() == expected
            aligned = relation.aligned_tuples()
            assert len(aligned) == len(expected) and set(aligned) == expected
            columns = [column.values() for column in relation.encoded_columns()]
            assert list(zip(*columns)) == aligned or not aligned

    @invariant()
    def statistics_are_those_of_a_fresh_relation(self):
        for table, expected in self.model.items():
            relation = self.db.relation(table)
            carried = TableStatistics.from_relation(relation)
            rebuilt = TableStatistics.from_relation(fresh(table, expected))
            for field in ("cardinality", "distinct_values", "minima", "maxima", "top_frequencies"):
                assert getattr(carried, field) == getattr(rebuilt, field), (table, field)
            # Order-dependent fields: truthful about this value's own scan order.
            twin = Relation.from_aligned(SCHEMAS[table], relation.aligned_tuples())
            twin._tuples = list(relation.aligned_tuples())
            reordered = TableStatistics.from_relation(twin)
            assert carried.sorted_attributes == reordered.sorted_attributes, table
            assert carried.lexicographic_prefix == reordered.lexicographic_prefix, table

    @invariant()
    def views_equal_a_recompute(self):
        r1, r2, r3 = (fresh(name, self.model[name]) for name in ("r1", "r2", "r3"))
        assert self.db.view("small").relation() == small_divide(r1, r2)
        assert self.db.view("great").relation() == great_divide(r1, r3)

    @invariant()
    def versions_move_only_on_effective_edits(self):
        assert self.db.versions == self.versions

    @invariant()
    def held_values_never_change(self):
        for relation, expected in self.held:
            assert relation.to_tuples() == expected
            assert set(relation.aligned_tuples()) == expected


EditSession.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestEditSession = EditSession.TestCase
