"""``Filter`` / ``ProjectOp`` / ``RenameOp`` stacks against the logical reference.

The oracle is not the code under test: ``Relation.select`` / ``project`` /
``rename`` (one predicate call per ``Row``), ``small_divide`` /
``great_divide`` by definition and ``Expression.evaluate``.  Every case runs
at batch sizes 1, 3 and 1024 × 1 and 4 partitions (a division runs behind
an exchange at 4) and must return the reference's relation with the same
per-operator ``tuples_out`` in every configuration; where the reference
raises ``TypeError`` (a comparison the values do not support) the engine
raises ``PredicateError`` chained from it.

A ``Filter`` runs on the dictionary when its chunk has code columns and its
predicate compares attributes with literals; everything else — an opaque
callable, attribute against attribute, literal against literal, a chunk
without code columns, a predicate that raises on some entry of the chunk's
dictionary — runs the positional tuple test.  Which path ran never shows in
a result, a count or an error, only in ``_filter_mode``.
"""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algebra import predicates as P
from repro.division import great_divide, small_divide
from repro.errors import PredicateError
from repro.experiments import Q1, Q2, Q3, Q2_NOT_EXISTS
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    Filter,
    HashDivision,
    PartitionedDivision,
    PartitionSource,
    ProjectOp,
    RelationScan,
    RenameOp,
    execute_plan,
)
from repro.relation import Relation
from repro.workloads import make_division_workload, make_great_division_workload, textbook_catalog
from tests.partitioning import PARTITION_COUNTS, planned_partitions
from tests.strategies import VALUES as SMALL_INTS
from tests.strategies import relations

BATCH_SIZES = (1, 3, 1024)
CONFIGURATIONS = list(itertools.product(BATCH_SIZES, PARTITION_COUNTS))

DIVISIONS = [("small", name, op) for name, op in SMALL_DIVIDE_ALGORITHMS.items()] + [
    ("great", name, op) for name, op in GREAT_DIVIDE_ALGORITHMS.items()
]


def partitioned(plan, partitions):
    """``plan`` with its root division run over ``partitions`` partitions
    (one partition, or any other root: ``plan`` itself)."""
    for kind, name, operator in DIVISIONS:
        if partitions > 1 and type(plan) is operator:
            return PartitionedDivision(
                *plan.inputs, algorithm=name, kind=kind, partitions=partitions
            )
    return plan


def assert_matches_reference(build, reference):
    """Run ``build()`` in every configuration against ``reference()``.

    Returns the last plan run (``None`` when the reference raised).  Every
    operator's count agrees across batch sizes; across partition counts the
    root's does (a partitioned division runs its algorithm's own operators
    per partition, and reads each input once where the algebra simulation
    reads its dividend three times).
    """
    try:
        expected = reference()
    except TypeError:
        for batch_size, partitions in CONFIGURATIONS:
            with pytest.raises(PredicateError) as raised:
                execute_plan(partitioned(build(), partitions), batch_size=batch_size)
            assert isinstance(raised.value.__cause__, TypeError)
        return None
    counts: dict[int, set] = {}
    roots = set()
    for batch_size, partitions in CONFIGURATIONS:
        plan = partitioned(build(), partitions)
        result = execute_plan(plan, batch_size=batch_size)
        assert result.relation == expected, (batch_size, partitions)
        counts.setdefault(partitions, set()).add(tuple(result.statistics.tuples_by_operator.items()))
        roots.add(plan.tuples_out)
    assert all(len(seen) == 1 for seen in counts.values()), counts
    assert len(roots) == 1, roots
    return plan


def filters(plan):
    return [operator for operator in plan.walk() if isinstance(operator, Filter)]


SUPPLIES = Relation(["s", "p", "n"], [(f"s{i % 7}", f"p{i % 5}", i % 4) for i in range(60)])
#: ``n >= 2`` raises on the string entries; ``k < 100`` keeps every tuple
#: that carries one away from it.
MIXED = Relation(
    ["k", "n"], [(i, i % 5) for i in range(20)] + [(100 + i, f"x{i}") for i in range(5)]
)
PAIRS = Relation(["a", "b"], [(i % 4, i % 3) for i in range(30)])


def plain_source(relation):
    """A leaf whose chunks have no code columns."""
    return PartitionSource(relation.schema.names, list(relation.aligned_tuples()))


#: name → (plan builder, reference, expected ``_filter_mode`` of every Filter)
CASES = {
    "range on one attribute": (
        lambda: Filter(
            RelationScan(SUPPLIES),
            P.conjunction([P.greater_equal(P.attr("s"), "s2"), P.less_than(P.attr("s"), "s5")]),
        ),
        lambda: SUPPLIES.select(lambda row: "s2" <= row["s"] < "s5"),
        ["dictionary"],
    ),
    "connectives over several attributes, literal on the left": (
        lambda: Filter(
            RelationScan(SUPPLIES),
            P.Or(
                P.And(P.equals(P.attr("p"), "p1"), P.Not(P.equals(P.attr("n"), 0))),
                P.Comparison(P.Literal("s5"), "<=", P.attr("s")),
            ),
        ),
        lambda: SUPPLIES.select(
            lambda row: (row["p"] == "p1" and row["n"] != 0) or "s5" <= row["s"]
        ),
        ["dictionary"],
    ),
    "rename and permuting projection move the columns": (
        lambda: Filter(
            ProjectOp(
                Filter(
                    RenameOp(RelationScan(SUPPLIES), {"s": "supplier"}),
                    P.equals(P.attr("supplier"), "s3"),
                ),
                ["n", "p", "supplier"],
            ),
            P.less_than(P.attr("n"), 3),
        ),
        lambda: SUPPLIES.rename({"s": "supplier"})
        .select(lambda row: row["supplier"] == "s3")
        .project(["n", "p", "supplier"])
        .select(lambda row: row["n"] < 3),
        ["dictionary", "dictionary"],
    ),
    "duplicate-eliminating projection": (
        lambda: ProjectOp(Filter(RelationScan(SUPPLIES), P.equals(P.attr("n"), 1)), ["p"]),
        lambda: SUPPLIES.select(lambda row: row["n"] == 1).project(["p"]),
        ["dictionary"],
    ),
    "opaque callable": (
        lambda: Filter(RelationScan(SUPPLIES), lambda row: row["n"] > 1),
        lambda: SUPPLIES.select(lambda row: row["n"] > 1),
        ["per tuple"],
    ),
    "attribute against attribute": (
        lambda: Filter(RelationScan(PAIRS), P.Comparison(P.attr("a"), "<", P.attr("b"))),
        lambda: PAIRS.select(lambda row: row["a"] < row["b"]),
        ["per tuple"],
    ),
    "literal against literal": (
        lambda: Filter(RelationScan(PAIRS), P.Comparison(P.Literal(1), "<", P.Literal(2))),
        lambda: PAIRS,
        ["per tuple"],
    ),
    "incomparable literals": (
        lambda: Filter(RelationScan(PAIRS), P.Comparison(P.Literal(1), "<", P.Literal("a"))),
        lambda: PAIRS.select(P.Comparison(P.Literal(1), "<", P.Literal("a"))),
        None,
    ),
    "chunk without code columns": (
        lambda: Filter(plain_source(SUPPLIES), P.equals(P.attr("p"), "p2")),
        lambda: SUPPLIES.select(lambda row: row["p"] == "p2"),
        ["per tuple"],
    ),
    "comparison that raises": (
        lambda: Filter(RelationScan(MIXED), P.greater_equal(P.attr("n"), 2)),
        lambda: MIXED.select(P.greater_equal(P.attr("n"), 2)),
        None,
    ),
    "comparison that raises on a chunk without code columns": (
        lambda: Filter(plain_source(MIXED), P.greater_equal(P.attr("n"), 2)),
        lambda: MIXED.select(P.greater_equal(P.attr("n"), 2)),
        None,
    ),
    "short-circuit that protects a later conjunct": (
        lambda: Filter(
            RelationScan(MIXED),
            P.And(P.less_than(P.attr("k"), 100), P.greater_equal(P.attr("n"), 2)),
        ),
        lambda: MIXED.select(lambda row: row["k"] < 100 and row["n"] >= 2),
        ["per tuple"],
    ),
    "earlier filter that protects a later one": (
        lambda: Filter(
            RenameOp(Filter(RelationScan(MIXED), P.less_than(P.attr("k"), 100)), {"n": "m"}),
            P.greater_equal(P.attr("m"), 2),
        ),
        lambda: MIXED.select(lambda row: row["k"] < 100)
        .rename({"n": "m"})
        .select(lambda row: row["m"] >= 2),
        ["per tuple", "dictionary"],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stack_matches_the_reference(name):
    build, reference, modes = CASES[name]
    plan = assert_matches_reference(build, reference)
    if modes is not None:
        assert [operator._filter_mode for operator in filters(plan)] == modes


class TestDictionaryPath:
    def test_filtered_chunks_keep_codes_and_defer_tuples(self):
        plan = Filter(RelationScan(SUPPLIES), P.equals(P.attr("p"), "p2"))
        chunks = list(plan.chunks())
        assert chunks and all(chunk.columns is not None for chunk in chunks)
        assert all(chunk._tuples is None for chunk in chunks)  # nobody asked yet
        tuples = [values for chunk in chunks for values in chunk.tuples]
        assert sorted(tuples) == sorted(t for t in SUPPLIES.aligned_tuples() if t[1] == "p2")
        for chunk in chunks:
            decoded = [column.dictionary[code] for column in chunk.columns for code in column.codes]
            assert decoded == [t[i] for i in range(3) for t in chunk.tuples]

    def test_each_dictionary_entry_is_evaluated_once_per_plan(self):
        """The first chunk over a dictionary evaluates every entry, however
        short the chunk; later chunks and a re-run evaluate nothing."""
        evaluated = []

        class Key(int):
            def __lt__(self, other):
                evaluated.append(int(self))
                return int(self) < other

        relation = Relation(["k", "v"], [(Key(i), i % 3) for i in range(40)])
        plan = Filter(
            Filter(RelationScan(relation), P.equals(P.attr("v"), 0)), P.less_than(P.attr("k"), 25)
        )
        runs = []
        for _ in range(2):
            evaluated.clear()
            assert len(execute_plan(plan, batch_size=7).relation) == 9
            runs.append(sorted(evaluated))
        assert runs == [list(range(40)), []]
        assert plan._filter_mode == "dictionary"

    def test_a_permuting_projection_keeps_the_code_columns(self):
        kept = Filter(RelationScan(SUPPLIES), P.equals(P.attr("p"), "p2"))
        plan = ProjectOp(kept, ["n", "s", "p"])
        chunks = list(plan.chunks())
        assert chunks and all(chunk.columns is not None for chunk in chunks)
        assert plan.tuples_out == sum(1 for t in SUPPLIES.aligned_tuples() if t[1] == "p2")

    def test_division_reads_the_filtered_codes(self):
        divisor = Relation(["p"], [("p0",), ("p1",)])

        def build():
            dividend = ProjectOp(
                Filter(RelationScan(SUPPLIES), P.less_than(P.attr("s"), "s4")), ["p", "s", "n"]
            )
            return HashDivision(dividend, RelationScan(divisor))

        plan = assert_matches_reference(
            build, lambda: small_divide(SUPPLIES.select(lambda row: row["s"] < "s4"), divisor)
        )
        assert plan.key_source == "cached codes (1 chunk) → tuples"

    @pytest.mark.parametrize("great", [False, True], ids=["small divide", "great divide"])
    def test_selection_above_a_division_runs_on_the_dictionary(self, great):
        """Law 3's left-hand side, ``σ_p(A)(r1 ÷ r2)``, planned as written
        (no rule may push the selection down): the quotient is a coded
        chunk over the dividend's own dictionary, so the filter above it
        evaluates ``p`` once per dictionary entry."""
        from repro.algebra import Catalog, GreatDivide, Select, SmallDivide
        from repro.optimizer import Optimizer

        r1 = Relation(["a", "b"], [(a, b) for a in range(50) for b in range(6) if (a + b) % 4])
        if great:
            r2 = Relation(["b", "c"], [(b, b % 2) for b in (1, 2, 5)])
        else:
            r2 = Relation(["b"], [(1,), (2,)])
        catalog = Catalog()
        catalog.add_table("r1", r1)
        catalog.add_table("r2", r2)
        divide = GreatDivide if great else SmallDivide
        quotient_expression = divide(catalog.ref("r1"), catalog.ref("r2"))
        expression = Select(quotient_expression, P.less_than(P.attr("a"), 20))
        plan = Optimizer(catalog, rules=[]).plan(expression)
        assert plan.name == "filter" and "division" in plan.children[0].name
        quotient = (great_divide if great else small_divide)(r1, r2)
        expected = quotient.select(lambda row: row["a"] < 20)
        assert execute_plan(plan).relation == expected
        assert 0 < len(expected) < len(quotient)
        assert plan._filter_mode == "dictionary"
        assert plan.children[0].key_source == "cached codes (1 chunk) → coded quotient"


class TestIncomparableValues:
    """A comparison the values do not support is a ``PredicateError``
    naming the comparison and both operand types, through the front door."""

    def test_a_coded_input(self):
        table = Relation.from_aligned(["a", "b"], [(1, "x"), (2, "y"), (None, "z")])
        db = repro.connect({"t": table})
        with pytest.raises(PredicateError, match=r"a > 1: NoneType > int") as raised:
            db.sql("SELECT a FROM t WHERE a > 1").run()
        assert isinstance(raised.value.__cause__, TypeError)

    def test_an_inserted_value_of_another_type(self):
        db = repro.connect({"t": Relation.from_aligned(["a", "b"], [(1, "x"), (2, "y")])})
        db.insert("t", [(3, 5)])
        with pytest.raises(PredicateError, match=r"b < 'x': int < str"):
            db.sql("SELECT a FROM t WHERE b < 'x'").run()

    def test_a_chunk_without_code_columns(self):
        """A disjunction over both sides of a product stays above it, where
        the chunks carry tuples only."""
        other = Relation(["k2", "m"], [(i, i % 2) for i in range(0, 120, 3)])
        db = repro.connect({"t": MIXED, "u": other})
        query = db.sql("SELECT k FROM t, u WHERE k = k2 AND (n >= 2 OR m < 0)")
        prepared, _cached = db._prepare(query.expression)
        (above,) = filters(prepared.plan)
        assert above.children[0].name == "product"
        with pytest.raises(PredicateError, match=r"n >= 2: str >= int"):
            query.run()
        assert above._filter_mode == "per tuple"

    def test_the_dictionary_path_never_raises_what_no_tuple_reaches(self):
        db = repro.connect({"t": MIXED})
        result = db.sql("SELECT k, n FROM t WHERE k < 100 AND n >= 2").run()
        assert result.relation == MIXED.select(lambda row: row["k"] < 100 and row["n"] >= 2)
        assert len(result.relation) == 12


# ----------------------------------------------------------------------
# every comparison operator, on both paths
# ----------------------------------------------------------------------
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
#: shape → predicate builder over ``PAIRS``'s ``a`` / ``b``
SHAPES = {
    "attribute on the left": lambda operator: P.Comparison(P.attr("a"), operator, 2),
    "literal on the left": lambda operator: P.Comparison(P.Literal(2), operator, P.attr("a")),
    "two attributes": lambda operator: P.Comparison(P.attr("a"), operator, P.attr("b")),
}
#: leaf name → leaf builder: chunks with code columns, or tuples only
LEAVES = {"coded": RelationScan, "plain": plain_source}


@pytest.mark.parametrize("leaf", sorted(LEAVES))
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("operator", OPERATORS)
def test_every_comparison_on_both_paths(operator, shape, leaf):
    """The dictionary's entry tables and the positional test agree with the
    reference for every operator, with the attribute on either side."""
    predicate = SHAPES[shape](operator)
    expected = PAIRS.select(predicate)
    assert 0 < len(expected) < len(PAIRS)
    plan = assert_matches_reference(
        lambda: Filter(LEAVES[leaf](PAIRS), predicate), lambda: expected
    )
    on_the_dictionary = leaf == "coded" and shape != "two attributes"
    assert plan._filter_mode == ("dictionary" if on_the_dictionary else "per tuple")


@pytest.mark.parametrize("leaf", sorted(LEAVES))
@pytest.mark.parametrize("operator", ["<", "<=", ">", ">="])
def test_an_unsupported_ordering_names_both_operand_types(operator, leaf):
    relation = Relation(["a", "b"], [(1, "x"), (2, 5), (3, "y")])
    predicate = P.Comparison(P.attr("b"), operator, "x")
    message = re.escape(f"b {operator} 'x': int {operator} str")
    with pytest.raises(PredicateError, match=message) as raised:
        execute_plan(Filter(LEAVES[leaf](relation), predicate))
    assert isinstance(raised.value.__cause__, TypeError)


@pytest.mark.parametrize("leaf", sorted(LEAVES))
@pytest.mark.parametrize("predicate", [P.TRUE, P.FALSE], ids=["true", "false"])
def test_a_constant_predicate_runs_per_tuple(predicate, leaf):
    plan = assert_matches_reference(
        lambda: Filter(LEAVES[leaf](PAIRS), predicate), lambda: PAIRS.select(predicate)
    )
    assert plan._filter_mode == "per tuple"


# ----------------------------------------------------------------------
# property sweeps
# ----------------------------------------------------------------------
MIXED_VALUES = st.sampled_from([0, 1, 2, 3, 1.0, True, "a", "b"])
COMPARISONS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        attribute = P.attr(draw(st.sampled_from(["a", "b"])))
        literal = P.Literal(draw(MIXED_VALUES))
        operands = (attribute, literal) if draw(st.booleans()) else (literal, attribute)
        return P.Comparison(operands[0], draw(COMPARISONS), operands[1])
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return P.Not(draw(predicates(depth=depth - 1)))
    operands = draw(st.lists(predicates(depth=depth - 1), min_size=2, max_size=3))
    return P.And(*operands) if kind == "and" else P.Or(*operands)


@settings(max_examples=120, deadline=None)
@given(rows=st.lists(st.tuples(MIXED_VALUES, MIXED_VALUES), max_size=12), predicate=predicates())
def test_random_predicates_match_the_reference(rows, predicate):
    """Over columns that mix ints, equal-but-differently-typed numbers and
    strings (so many predicates raise on some dictionary entry), on coded
    and on plain chunks."""
    relation = Relation(["a", "b"], rows)
    for leaf in (RelationScan, plain_source):
        assert_matches_reference(
            lambda: Filter(RenameOp(leaf(relation), {}), predicate),
            lambda: relation.select(predicate),
        )


_STACK_COMPARISONS = (P.equals, P.not_equals, P.less_equal, P.greater_than)


@st.composite
def streaming_stacks(draw):
    """A random relation plus a random select/project/rename recipe, each
    step drawn against the attribute names live at that point."""
    relation = draw(relations(("a", "b", "c"), min_rows=0, max_rows=8))
    names = list(relation.schema.names)
    steps = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["where", "project", "rename"]))
        if kind == "where":
            comparison = draw(st.sampled_from(_STACK_COMPARISONS))
            attribute = P.attr(draw(st.sampled_from(names)))
            steps.append(("where", comparison(attribute, draw(SMALL_INTS))))
        elif kind == "project":
            names = draw(st.lists(st.sampled_from(names), min_size=1, unique=True).map(sorted))
            steps.append(("project", tuple(names)))
        else:
            attribute = draw(st.sampled_from(names))
            renamed = f"r{index}_{attribute}"
            steps.append(("rename", {attribute: renamed}))
            names[names.index(attribute)] = renamed
    return relation, steps


def _apply(value, steps):
    """The recipe on a fluent query (``where``) or on a relation (``select``)."""
    select = "where" if hasattr(value, "where") else "select"
    for kind, payload in steps:
        value = getattr(value, select if kind == "where" else kind)(payload)
    return value


@given(stack=streaming_stacks())
@settings(max_examples=30, deadline=None)
def test_random_streaming_stacks_match_the_reference(stack):
    """Through the session, at every batch size and partition count."""
    relation, steps = stack
    expected = _apply(relation, steps)
    counts = set()
    for batch_size, partitions in CONFIGURATIONS:
        with planned_partitions(partitions):
            db = repro.connect({"t": relation}, batch_size=batch_size)
            result = _apply(db.table("t"), steps).run()
        assert result.relation == expected, (batch_size, partitions, steps)
        counts.add(tuple(sorted(result.tuple_counts.items())))
    assert len(counts) == 1, (steps, counts)


# ----------------------------------------------------------------------
# whole queries and every division algorithm
# ----------------------------------------------------------------------
PAPER_QUERIES = {"Q1": Q1, "Q2": Q2, "Q3": Q3, "Q2_NOT_EXISTS": Q2_NOT_EXISTS}


@pytest.mark.parametrize(
    "batch_size,partitions",
    CONFIGURATIONS,
    ids=[f"batch {size}, partitions {partitions}" for size, partitions in CONFIGURATIONS],
)
@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_paper_queries_match_the_logical_plan(name, batch_size, partitions):
    """Each configuration returns the logical plan's relation with the
    per-operator counts (in walk order) of an unpartitioned run at the
    default batch size."""
    serial = repro.connect(textbook_catalog).sql(PAPER_QUERIES[name]).run()
    with planned_partitions(partitions):
        db = repro.connect(textbook_catalog, batch_size=batch_size)
        query = db.sql(PAPER_QUERIES[name])
        result = query.run()
    assert result.relation == query.expression.evaluate(db.catalog)
    assert list(result.tuple_counts.values()) == list(serial.tuple_counts.values())


def _keep_all():
    """A dictionary-evaluable predicate that keeps every (a, b) tuple."""
    return P.conjunction([P.greater_equal(P.attr("a"), 0), P.not_equals(P.attr("b"), -1)])


SMALL = make_division_workload(
    num_groups=60, divisor_size=5, containing_fraction=0.3, extra_values_per_group=4, seed=11
)
GREAT = make_great_division_workload(
    dividend_groups=40,
    dividend_group_size=6,
    divisor_groups=8,
    divisor_group_size=3,
    domain_size=20,
    seed=12,
)
ALGORITHMS = [("small", name) for name in sorted(SMALL_DIVIDE_ALGORITHMS)] + [
    ("great", name) for name in sorted(GREAT_DIVIDE_ALGORITHMS)
]


@pytest.mark.parametrize("kind,algorithm", ALGORITHMS, ids=[f"{k}-{a}" for k, a in ALGORITHMS])
def test_a_filter_below_every_division_algorithm(kind, algorithm):
    workload, registry, divide = (
        (SMALL, SMALL_DIVIDE_ALGORITHMS, small_divide)
        if kind == "small"
        else (GREAT, GREAT_DIVIDE_ALGORITHMS, great_divide)
    )

    def build():
        return registry[algorithm](
            Filter(RelationScan(workload.dividend), _keep_all()), RelationScan(workload.divisor)
        )

    plan = assert_matches_reference(build, lambda: divide(workload.dividend, workload.divisor))
    assert {operator._filter_mode for operator in filters(plan)} == {"dictionary"}
