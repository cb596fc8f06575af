"""Each law is stated once: its pattern, bindings and rewrite are derived.

A rule states ``lhs``, ``rhs`` and ``holds``; ``RewriteRule`` derives the
pattern, ``bind``, ``matches`` and ``apply`` from them.  For all 21 rules,
over the operand table of ``test_physical_preconditions``, binding a left
side returns its operands and ``apply`` is ``rhs`` wherever ``holds``.  The
near misses: a wrong child class is refused before any data is read,
unequal subtrees under a repeated operand name are refused, and the
rewriter offers a node only the rules rooted at its class.
"""

import pytest

from repro.algebra import predicates as P
from repro.algebra.expressions import Difference, Product, Select, SmallDivide
from repro.errors import RewriteError
from repro.laws.base import Hole, RewriteContext, RewriteRule
from repro.laws.registry import all_rules, get_rule, pushdown_rules
from repro.optimizer import Rewriter
from tests.laws.test_physical_preconditions import (
    below,
    catalog_of,
    fixed_tables,
    operand_table,
    ref,
    shapes,
)

CUTS = [(0, 0), (0, 4), (2, 3), (4, 4)]


def data_context():
    return RewriteContext.from_catalog(catalog_of(fixed_tables()))


@pytest.fixture
def evaluations(monkeypatch):
    """Every operand a rule asks the context for, in order."""
    asked = []
    evaluate = RewriteContext.evaluate

    def counting(self, expression):
        asked.append(expression)
        return evaluate(self, expression)

    monkeypatch.setattr(RewriteContext, "evaluate", counting)
    return asked


@pytest.mark.parametrize("cut, other", CUTS)
def test_every_law_binds_its_left_side_and_applies_its_right(cut, other):
    context, table, held = data_context(), operand_table(cut, other), 0
    for rule in all_rules():
        parts = table[rule.name]
        expression = rule.lhs(*parts)
        operands = rule.bind(expression)
        assert operands == dict(zip(rule.operands, parts)), rule.name
        if rule.holds(context, **operands):
            held += 1
            # Laws 11 and 12 read the right side's branch from the data.
            reads_data = not isinstance(type(rule).sides(*parts), tuple)
            expected = rule.rhs(*parts, context) if reads_data else rule.rhs(*parts)
            assert rule.apply(expression, context) == expected, rule.name
        else:
            with pytest.raises(RewriteError, match=rule.name) as refused:
                rule.apply(expression, context)
            assert all(text in str(refused.value) for text in rule.conditions), rule.name
    assert held > 0


def test_operands_are_the_builders_parameters():
    law_6 = get_rule("law_06_difference_pushdown")
    assert law_6.operands == ("relation", "predicate_outer", "predicate_inner", "divisor")
    assert law_6.root is SmallDivide
    assert {rule.root.__name__ for rule in all_rules()} == {
        "SmallDivide", "GreatDivide", "Select", "Difference", "SemiJoin", "ThetaJoin"
    }


def test_a_wrong_child_class_is_refused_before_any_data_is_read(evaluations):
    context, table, refused = data_context(), operand_table(2, 3), 0
    for rule in all_rules():
        expression = rule.lhs(*table[rule.name])
        if all(isinstance(child, Hole) for child in rule.pattern.children):
            continue  # Laws 11 and 12: any two operands are a left side
        # The root's class, with a base table wherever the pattern wants an operator.
        wrong = expression.with_children(
            *(
                child if isinstance(pattern, Hole) else ref("r1")
                for pattern, child in zip(rule.pattern.children, expression.children)
            )
        )
        assert type(wrong) is rule.root
        assert rule.bind(wrong) is None, rule.name
        assert not rule.matches(wrong, context), rule.name
        assert rule.try_apply(wrong, context) is None, rule.name
        refused += 1
    assert refused == 19
    assert evaluations == []


def test_unequal_subtrees_under_a_repeated_name_are_refused(evaluations):
    context = data_context()
    r1, s1 = below("r1", "a", 2), below("s1", "a", 2)
    r2, s2, k = below("r2", "b", 2), below("s2", "b", 2), below("k", "k", 2)
    on_a = P.less_than(P.attr("a"), 3)
    near_misses = {
        "law_06_difference_pushdown": SmallDivide(
            Difference(Select(r1, on_a), Select(s1, on_a)), r2
        ),
        "law_07_disjoint_difference_elimination": Difference(
            SmallDivide(r1, r2), SmallDivide(s1, s2)
        ),
        "example_2_common_factor_cancellation": SmallDivide(
            Product(r1, k), Product(r2, below("k", "k", 3))
        ),
    }
    for name, expression in near_misses.items():
        rule = get_rule(name)
        assert rule.bind(expression) is None, name
        assert not rule.matches(expression, context), name
    assert evaluations == []
    # Equal subtrees that are distinct objects do bind.
    law_7 = get_rule("law_07_disjoint_difference_elimination")
    twin = Difference(SmallDivide(r1, below("r2", "b", 2)), SmallDivide(s1, below("r2", "b", 2)))
    assert law_7.bind(twin) == {"part1": r1, "part2": s1, "divisor": r2}


def test_the_rewriter_offers_a_node_only_the_rules_of_its_class(monkeypatch):
    offered = []
    try_apply = RewriteRule.try_apply

    def recording(self, expression, context=None):
        offered.append((self.root, type(expression)))
        return try_apply(self, expression, context)

    monkeypatch.setattr(RewriteRule, "try_apply", recording)
    monkeypatch.setattr(RewriteRule, "matches", None)  # the rewriter asks once, by try_apply
    rewriter = Rewriter(context=data_context())
    for expression in shapes(2, 3).values():
        rewriter.rewrite(expression)
    assert offered
    assert all(root is node for root, node in offered)


def test_a_rule_that_requires_no_data_reads_none(evaluations):
    """``pushdown_rules`` selects on ``requires_data``: with a database at
    hand, their conditions still read only schemas.  Law 6 asks the data
    when ``p'' ⇒ p'`` is not syntactic, so it requires data."""
    context, table = data_context(), operand_table(2, 3)
    below_2, below_3 = (P.less_than(P.attr("a"), cut) for cut in (2, 3))
    law_6 = get_rule("law_06_difference_pushdown")
    assert law_6.matches(law_6.lhs(ref("r1"), below_3, below_2, ref("r2")), context)
    assert evaluations and law_6.requires_data
    evaluations.clear()
    for rule in pushdown_rules():
        rule.matches(rule.lhs(*table[rule.name]), context)
    assert evaluations == []
