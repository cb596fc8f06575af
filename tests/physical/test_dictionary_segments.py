"""Compiled segments that filter on dictionaries instead of tuples.

A fused ``Filter`` whose predicate compares attributes with literals is
evaluated once per *dictionary entry* of the scanned code columns and
applied as a mask over the codes; renames relabel and permuting
projections reorder the columns.  Everything else — opaque callables,
attribute-vs-attribute comparisons, duplicate-eliminating projections,
input without code columns, a predicate that raises on some dictionary
entry — runs the generated per-tuple function, so results, errors and
per-operator tuple counts never depend on which path ran.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import predicates as P
from repro.physical import (
    Filter,
    HashDivision,
    PartitionSource,
    ProjectOp,
    RelationScan,
    RenameOp,
    compile_plan,
    execute_plan,
)
from repro.relation import Relation

BATCH_SIZES = (1, 3, 1024)


def outcome(build, compiled, batch_size=1024):
    """(result or raised exception, per-operator counts, root) of one run."""
    plan = build()
    if compiled:
        compile_plan(plan)
    try:
        result = execute_plan(plan, batch_size=batch_size)
    except Exception as error:  # the comparison of interest *is* the error
        return (type(error), str(error)), None, plan
    return result.relation, result.statistics.tuples_by_operator, plan


def assert_same_as_interpreter(build, mode):
    for batch_size in BATCH_SIZES:
        expected, expected_counts, _plan = outcome(build, compiled=False, batch_size=batch_size)
        actual, counts, plan = outcome(build, compiled=True, batch_size=batch_size)
        assert actual == expected
        assert counts == expected_counts
        assert plan._filter_mode == mode
    return plan


@pytest.fixture
def supplies():
    return Relation(
        ["s", "p", "n"], [(f"s{i % 7}", f"p{i % 5}", i % 4) for i in range(60)]
    )


class TestDictionaryPath:
    def test_range_filter_runs_on_the_dictionary(self, supplies):
        predicate = P.conjunction([P.greater_equal(P.attr("s"), "s2"), P.less_than(P.attr("s"), "s5")])
        plan = assert_same_as_interpreter(
            lambda: Filter(RelationScan(supplies), predicate), "dictionary"
        )
        assert plan.tuples_out == sum(1 for t in supplies.aligned_tuples() if "s2" <= t[0] < "s5")

    def test_connectives_over_several_attributes(self, supplies):
        predicate = P.Or(
            P.And(P.equals(P.attr("p"), "p1"), P.Not(P.equals(P.attr("n"), 0))),
            P.Comparison(P.Literal("s5"), "<=", P.attr("s")),  # literal on the left
        )
        assert_same_as_interpreter(lambda: Filter(RelationScan(supplies), predicate), "dictionary")

    def test_rename_and_permuting_projection_move_the_columns(self, supplies):
        def build():
            renamed = RenameOp(RelationScan(supplies), {"s": "supplier"})
            kept = Filter(renamed, P.equals(P.attr("supplier"), "s3"))
            flipped = ProjectOp(kept, ["n", "p", "supplier"])
            return Filter(flipped, P.less_than(P.attr("n"), 3))

        plan = assert_same_as_interpreter(build, "dictionary")
        assert plan.schema.names == ("n", "p", "supplier")

    def test_filtered_chunks_keep_codes_and_defer_tuples(self, supplies):
        plan = Filter(RelationScan(supplies), P.equals(P.attr("p"), "p2"))
        compile_plan(plan)
        chunks = list(plan.chunks())
        assert chunks and all(chunk.columns is not None for chunk in chunks)
        assert all(chunk._tuples is None for chunk in chunks)  # nobody asked yet
        tuples = [values for chunk in chunks for values in chunk.tuples]
        assert sorted(tuples) == sorted(t for t in supplies.aligned_tuples() if t[1] == "p2")
        for chunk in chunks:
            decoded = [column.dictionary[code] for column in chunk.columns for code in column.codes]
            assert decoded == [t[i] for i in range(3) for t in chunk.tuples]

    def test_division_reads_the_filtered_codes(self, supplies):
        divisor = Relation(["p"], [("p0",), ("p1",)])

        def build():
            dividend = ProjectOp(
                Filter(RelationScan(supplies), P.less_than(P.attr("s"), "s4")), ["p", "s", "n"]
            )
            return HashDivision(dividend, RelationScan(divisor))

        expected, counts, _plan = outcome(build, compiled=False)
        actual, compiled_counts, plan = outcome(build, compiled=True)
        assert actual == expected and compiled_counts == counts
        assert plan.key_source == "cached codes (1 chunk) → tuples"

    @pytest.mark.parametrize("great", [False, True], ids=["small divide", "great divide"])
    def test_selection_above_a_division_runs_on_the_dictionary(self, great):
        """Law 3's left-hand side, ``σ_p(A)(r1 ÷ r2)``, planned as written
        (no rule may push the selection down): the quotient is a coded
        chunk over the dividend's own dictionary, so the segment above it
        evaluates ``p`` once per dictionary entry."""
        from repro.algebra import Catalog, GreatDivide, Select, SmallDivide
        from repro.division import great_divide, small_divide
        from repro.optimizer import Optimizer

        r1 = Relation(["a", "b"], [(a, b) for a in range(50) for b in range(6) if (a + b) % 4])
        r2 = Relation(["b", "c"], [(b, b % 2) for b in (1, 2, 5)]) if great else Relation(["b"], [(1,), (2,)])
        catalog = Catalog()
        catalog.add_table("r1", r1)
        catalog.add_table("r2", r2)
        divide = GreatDivide if great else SmallDivide
        expression = Select(
            divide(catalog.ref("r1"), catalog.ref("r2")), P.less_than(P.attr("a"), 20)
        )
        plan = Optimizer(catalog, rules=[]).plan(expression)
        assert plan.name == "filter" and "division" in plan.children[0].name
        result = execute_plan(plan)
        quotient = (great_divide if great else small_divide)(r1, r2)
        assert result.relation == quotient.select(lambda row: row["a"] < 20)
        assert 0 < len(result.relation) < len(quotient)
        assert plan._filter_mode == "dictionary"
        assert plan.children[0].key_source == "cached codes (1 chunk) → coded quotient"


class TestPerTupleFallback:
    def test_opaque_callable(self, supplies):
        assert_same_as_interpreter(
            lambda: Filter(RelationScan(supplies), lambda row: row["n"] > 1), "per tuple"
        )

    def test_attribute_against_attribute(self):
        relation = Relation(["a", "b"], [(i % 4, i % 3) for i in range(30)])
        predicate = P.Comparison(P.attr("a"), "<", P.attr("b"))
        assert_same_as_interpreter(lambda: Filter(RelationScan(relation), predicate), "per tuple")

    def test_duplicate_eliminating_projection(self, supplies):
        def build():
            return ProjectOp(Filter(RelationScan(supplies), P.equals(P.attr("n"), 1)), ["p"])

        assert_same_as_interpreter(build, "per tuple")

    def test_input_without_code_columns(self, supplies):
        def build():
            source = PartitionSource(supplies.schema.names, list(supplies.aligned_tuples()))
            return Filter(source, P.equals(P.attr("p"), "p2"))

        assert_same_as_interpreter(build, "per tuple")


class TestPredicatesThatRaise:
    """Mixed-type columns: ``n >= 2`` raises on the string entries."""

    @pytest.fixture
    def mixed(self):
        rows = [(i, i % 5) for i in range(20)] + [(100 + i, f"x{i}") for i in range(5)]
        return Relation(["k", "n"], rows)

    def test_error_is_the_per_tuple_error(self, mixed):
        build = lambda: Filter(RelationScan(mixed), P.greater_equal(P.attr("n"), 2))  # noqa: E731
        expected, _counts, _plan = outcome(build, compiled=False)
        actual, _counts, plan = outcome(build, compiled=True)
        assert expected[0] is TypeError
        assert actual == expected
        assert plan._filter_mode == "per tuple"

    def test_short_circuit_that_protects_the_per_tuple_path(self, mixed):
        """``k < 100 AND n >= 2`` never compares a string per tuple (the
        first conjunct filters those rows out), but the dictionary of ``n``
        holds them: the segment must notice and stay per tuple."""
        predicate = P.And(P.less_than(P.attr("k"), 100), P.greater_equal(P.attr("n"), 2))
        plan = assert_same_as_interpreter(
            lambda: Filter(RelationScan(mixed), predicate), "per tuple"
        )
        assert plan.tuples_out == sum(1 for k, n in mixed.aligned_tuples() if k < 100 and n >= 2)

    def test_earlier_filter_that_protects_a_later_one(self, mixed):
        def build():
            numeric = Filter(RelationScan(mixed), P.less_than(P.attr("k"), 100))
            return Filter(RenameOp(numeric, {"n": "m"}), P.greater_equal(P.attr("m"), 2))

        assert_same_as_interpreter(build, "per tuple")


VALUES = st.sampled_from([0, 1, 2, 3, 1.0, True, "a", "b"])
COMPARISONS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        attribute, literal = P.attr(draw(st.sampled_from(["a", "b"]))), P.Literal(draw(VALUES))
        operands = (attribute, literal) if draw(st.booleans()) else (literal, attribute)
        return P.Comparison(operands[0], draw(COMPARISONS), operands[1])
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return P.Not(draw(predicates(depth=depth - 1)))
    operands = draw(st.lists(predicates(depth=depth - 1), min_size=2, max_size=3))
    return P.And(*operands) if kind == "and" else P.Or(*operands)


@settings(max_examples=120, deadline=None)
@given(
    rows=st.lists(st.tuples(VALUES, VALUES), max_size=12),
    predicate=predicates(),
    batch_size=st.sampled_from(BATCH_SIZES),
)
def test_random_predicates_match_the_interpreter(rows, predicate, batch_size):
    """Results, per-operator counts *and errors* equal the interpreter's,
    over columns that mix ints, equal-but-differently-typed numbers and
    strings (so many predicates raise on some dictionary entry)."""
    relation = Relation(["a", "b"], rows)
    build = lambda: Filter(RenameOp(RelationScan(relation), {}), predicate)  # noqa: E731
    expected, expected_counts, _plan = outcome(build, compiled=False, batch_size=batch_size)
    actual, counts, _plan = outcome(build, compiled=True, batch_size=batch_size)
    assert actual == expected
    assert counts == expected_counts
