"""Law preconditions answered by the physical engine agree with the interpreter.

A session's :class:`RewriteContext` plans a composite operand and executes
it; the logical interpreter (``Expression.evaluate``) stays the reference
semantics.  For every rule of the default registry, over small random
databases, ``matches()`` and ``apply()`` must give the same verdicts and the
same right-hand sides under the session's context as under a context that
interprets every operand.  Operands are selections over base tables, so
they take the planned path; a cut of 0 empties them, and a cut inside the
domain empties some quotient groups and not others.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algebra import predicates as P
from repro.algebra.catalog import Catalog
from repro.algebra.expressions import Project, RelationRef, Rename, Select, SmallDivide
from repro.errors import PredicateError
from repro.laws.base import RewriteContext
from repro.laws.registry import all_rules
from repro.optimizer import Optimizer, PhysicalPlanner, Rewriter
from repro.relation import Relation
from tests.strategies import VALUES, relations

#: Every table the rule shapes below read, with its attributes.
TABLES = {
    "r1": ("a", "b"),
    "s1": ("a", "b"),
    "r2": ("b",),
    "s2": ("b",),
    "g2": ("b", "c"),
    "h2": ("b", "c"),
    "w1": ("a", "b1", "b2"),
    "k": ("k",),
}
#: The one-column domain where ``1``, ``1.0`` and ``True`` are one value.
MIXED = st.sampled_from([0, 1, 1.0, True, 2, 3])


class InterpretingContext(RewriteContext):
    """The reference: every operand evaluated by the logical interpreter."""

    def evaluate(self, expression):
        return expression.evaluate(self.database)


def below(name, attribute, cut):
    """``σ_{attribute < cut}(name)``: empty at a cut of 0."""
    return Select(ref(name), P.less_than(P.attr(attribute), cut))


def ref(name):
    return RelationRef(name, TABLES[name])


def operand_table(cut, other):
    """Per rule of the registry, the operands of one left-hand side."""
    r1, s1 = below("r1", "a", cut), below("s1", "a", other)
    r2, s2 = below("r2", "b", cut), below("s2", "b", other)
    g2, h2 = below("g2", "c", cut), below("h2", "c", other)
    w1, k = below("w1", "b1", cut), below("k", "k", other)
    on_a, on_b, on_c = (P.less_than(P.attr(name), other) for name in "abc")
    keep, divisor = Project(w1, ["a", "b1"]), Project(w1, ["b1", "b2"])
    return {
        "law_01_divisor_union_split": (r1, r2, s2),
        "law_02_dividend_union_split": (r1, s1, r2),
        "law_03_selection_pushdown": (r1, r2, on_a),
        "law_04_replicate_selection": (r1, r2, on_b),
        "example_1_dividend_restriction": (r1, r2, on_b),
        "law_05_intersection_pushdown": (r1, s1, r2),
        "law_06_difference_pushdown": (
            ref("r1"), on_a, P.And(on_a, P.greater_equal(P.attr("a"), cut)), r2
        ),
        "law_07_disjoint_difference_elimination": (r1, s1, r2),
        "law_08_product_factor_out": (k, r1, r2),
        "law_09_product_elimination": (keep, Project(w1, ["b2"]), divisor),
        "example_2_common_factor_cancellation": (r1, r2, k),
        "law_10_semijoin_commute": (r1, r2, Project(s1, ["a"])),
        "example_3_join_elimination": (
            keep,
            Project(below("w1", "b2", other), ["b2"]),
            divisor,
            P.less_than(P.attr("b1"), P.attr("b2")),
        ),
        "law_11_grouped_dividend": (r1, r2),
        "law_12_grouped_divisor_key": (r1, r2),
        "law_13_divisor_partitioning": (r1, g2, h2),
        "law_14_quotient_selection_pushdown": (r1, g2, on_a),
        "law_15_group_selection_pushdown": (r1, g2, on_c),
        "law_16_shared_selection_replication": (r1, g2, on_b),
        "law_17_product_factor_out": (k, r1, g2),
        "example_4_join_pushdown": (
            Rename(Project(s1, ["a"]), {"a": "a1"}),
            Rename(r1, {"a": "a2"}),
            g2,
            P.equals(P.attr("a1"), P.attr("a2")),
        ),
    }


def shapes(cut, other):
    """One left-hand side per rule of the registry, over selected operands."""
    parts = operand_table(cut, other)
    found = {}
    for rule in all_rules():
        sides = type(rule).sides(*parts[rule.name])
        # sides() builds both sides of a law; Laws 11 and 12 build the left only.
        found[rule.name] = sides[0] if isinstance(sides, tuple) else sides
    return found


def databases(values=VALUES):
    return st.fixed_dictionaries(
        {name: relations(attributes, values=values) for name, attributes in TABLES.items()}
    )


def catalog_of(tables):
    catalog = Catalog()
    for name, relation in tables.items():
        catalog.add_table(name, relation)
    return catalog


def assert_same_answers(catalog, cut, other):
    """Every rule's verdict and rewrite, and the fixpoint's, on both engines."""
    session = Optimizer(catalog)._rewriter.context
    reference = InterpretingContext.from_catalog(catalog)
    bare = RewriteContext.from_catalog(catalog)
    fired, left_hand_sides = 0, shapes(cut, other)
    for rule in all_rules():
        expression = left_hand_sides[rule.name]
        verdict = rule.matches(expression, reference)
        assert rule.matches(expression, session) is verdict, rule.name
        assert rule.matches(expression, bare) is verdict, rule.name
        if verdict:
            fired += 1
            rewritten = rule.apply(expression, reference)
            assert rule.apply(expression, session) == rewritten, rule.name
            assert rule.apply(expression, bare) == rewritten, rule.name
        interpreted = Rewriter(context=reference).rewrite(expression)
        planned = Rewriter(context=session).rewrite(expression)
        assert planned.rules_fired == interpreted.rules_fired, rule.name
        assert planned.result == interpreted.result, rule.name
    return fired


CUTS = st.integers(min_value=0, max_value=4)


@settings(max_examples=60, deadline=None)
@given(databases(), CUTS, CUTS)
def test_every_rule_answers_alike_on_both_engines(tables, cut, other):
    assert_same_answers(catalog_of(tables), cut, other)


@settings(max_examples=40, deadline=None)
@given(databases(MIXED), CUTS, CUTS)
def test_one_and_one_point_zero_and_true_are_one_value_on_both_engines(tables, cut, other):
    assert_same_answers(catalog_of(tables), cut, other)


def fixed_tables():
    return {
        "r1": Relation(["a", "b"], [(0, 0), (0, 1), (1, 0), (2, 1), (3, 2), (3, 3)]),
        "s1": Relation(["a", "b"], [(0, 0), (1, 1), (2, 2)]),
        "r2": Relation(["b"], [(0,), (1,)]),
        "s2": Relation(["b"], [(1,), (2,)]),
        "g2": Relation(["b", "c"], [(0, 0), (1, 0), (1, 1), (2, 2)]),
        "h2": Relation(["b", "c"], [(0, 3), (3, 3)]),
        "w1": Relation(["a", "b1", "b2"], [(0, 0, 3), (0, 1, 3), (1, 0, 2), (2, 2, 3)]),
        "k": Relation(["k"], [(0,), (1,)]),
    }


@pytest.mark.parametrize("cut, other", [(0, 0), (0, 4), (2, 3), (4, 4)])
def test_empty_operands_and_emptied_groups(cut, other):
    """A cut of 0 empties an operand; a cut of 2 drops r1's groups a = 2
    and a = 3 whole and leaves a = 0 and a = 1."""
    assert_same_answers(catalog_of(fixed_tables()), cut, other)


def test_a_leaf_is_the_catalogs_own_value():
    """A base table keeps its cached dictionary; a composite is a block."""
    catalog = catalog_of(fixed_tables())
    session = Optimizer(catalog)._rewriter.context
    assert session.evaluate(ref("r1")) is catalog["r1"]
    selected = session.evaluate(below("r1", "a", 2))
    assert selected._set is None and selected == catalog["r1"].select(P.less_than(P.attr("a"), 2))


def test_stored_tables_answer_alike():
    with tempfile.TemporaryDirectory() as directory:
        repro.connect(fixed_tables()).save(directory)
        catalog = repro.connect(directory).catalog
        fired = sum(assert_same_answers(catalog, cut, 3) for cut in range(5))
    assert fired > 0


def test_an_operand_error_propagates_typed():
    """A σ comparing text with a number fails inside the operand: the
    condition does not turn the error into a refusal.  The interpreter
    raises the comparison's own ``TypeError``; the engine names it."""
    tables = fixed_tables()
    tables["r1"] = Relation(["a", "b"], [("x", 0), ("y", 1)])
    catalog = catalog_of(tables)
    law_11 = next(rule for rule in all_rules() if rule.name == "law_11_grouped_dividend")
    expression = shapes(2, 2)[law_11.name]
    with pytest.raises(TypeError):
        law_11.matches(expression, InterpretingContext.from_catalog(catalog))
    with pytest.raises(PredicateError, match="cannot evaluate a < 2"):
        law_11.matches(expression, Optimizer(catalog)._rewriter.context)


def test_an_operand_plan_is_planned_apart_from_the_query():
    """Law 11 asks about a dividend that is itself a division: the operand's
    own planner builds that division, and the query's planner is not asked."""
    tables = fixed_tables()
    tables["w1"] = tables["w1"].union(Relation(["a", "b1", "b2"], [(0, 0, 2)]))  # no Law 11
    optimizer = Optimizer(catalog_of(tables))
    operand_planner, operand_operators, query_plans = optimizer._rewriter.context._planner, [], []
    assert operand_planner is not optimizer._planner

    def plan(expression):
        operator = PhysicalPlanner.plan(operand_planner, expression)
        operand_operators.extend(op.name for op in operator.walk())
        return operator

    operand_planner.plan = plan
    optimizer._planner.plan = query_plans.append
    inner = SmallDivide(ref("w1"), Project(below("w1", "b2", 4), ["b2"]))
    optimizer.rewrite(SmallDivide(inner, Rename(below("s2", "b", 3), {"b": "b1"})))
    assert "hash_division" in operand_operators
    assert query_plans == []


# ----------------------------------------------------------------------
# one run per operand and rewrite: errors and scope stay right
# ----------------------------------------------------------------------
SUPPLIERS = "(SELECT s_no, p_no FROM supplies WHERE s_no < 8) AS s"


def supplier_tables():
    """Suppliers 0-7 hold one part each (``s_no`` keys the σ-dividend, so
    Law 11 fires on it); suppliers 10-13 hold every part."""
    supplies = [(s, s % 4) for s in range(8)] + [(s, p) for s in range(10, 14) for p in range(4)]
    return {
        "supplies": Relation(["s_no", "p_no"], supplies),
        "parts": Relation(["p_no", "color"], [(p, ("red", "blue")[p % 2]) for p in range(4)]),
        "wanted": Relation(["p_no"], [(1,)]),
    }


def test_a_divisor_law_12_skips_still_raises_typed_from_the_query():
    """Law 12 refuses a dividend whose divisor attributes are no key before
    it runs the divisor, so a σ comparing text with a number there fails
    in the query's own execution instead of the rewrite: still typed."""
    tables = supplier_tables()
    tables["supplies"] = tables["supplies"].union(Relation(["s_no", "p_no"], [(0, 1)]))
    db = repro.connect(tables, result_cache_size=0)
    operand_planner, planned = db.optimizer._rewriter.context._planner, []
    plan = operand_planner.plan
    operand_planner.plan = lambda expression: planned.append(expression) or plan(expression)
    text = (
        "SELECT s_no FROM (SELECT s_no, p_no FROM supplies WHERE s_no < 12) AS s DIVIDE BY "
        "(SELECT p_no FROM parts WHERE color < 3) AS p ON s.p_no = p.p_no"
    )
    with pytest.raises(PredicateError, match="cannot evaluate color < 3"):
        db.sql(text).run()
    assert planned and all(expression.relation_names() == {"supplies"} for expression in planned)
    assert db.optimizer._rewriter.context._operands is None


def test_an_insert_between_two_identical_queries_is_seen():
    """The operand memo lives for one rewrite: after an insert gives
    supplier 0 a second part, the same text asks Law 11 again, on the new
    σ-dividend, and the law refuses."""
    db = repro.connect(supplier_tables(), result_cache_size=0)
    text = f"SELECT s_no FROM {SUPPLIERS} DIVIDE BY wanted AS p ON s.p_no = p.p_no"
    before = db.sql(text).run()
    assert "law_11_grouped_dividend" in before.rules_fired
    assert sorted(before.to_tuples()) == [(1,), (5,)]
    db.insert("supplies", [(0, 1)])
    after = db.sql(text).run()
    assert "law_11_grouped_dividend" not in after.rules_fired
    assert sorted(after.to_tuples()) == [(0,), (1,), (5,)]
    assert db.optimizer._rewriter.context._operands is None


def test_an_operand_error_leaves_no_memo_behind():
    tables = fixed_tables()
    tables["r1"] = Relation(["a", "b"], [("x", 0), ("y", 1)])
    session = Optimizer(catalog_of(tables))._rewriter.context
    with pytest.raises(PredicateError):
        Rewriter(context=session).rewrite(SmallDivide(below("r1", "a", 2), ref("r2")))
    assert session._operands is None
