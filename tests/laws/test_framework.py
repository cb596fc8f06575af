"""Tests for the rewrite-rule framework and the registry."""

import pytest

from repro.algebra import builders as B
from repro.algebra.catalog import Catalog
from repro.errors import RewriteError
from repro.laws import (
    RewriteContext,
    all_rules,
    find_applicable,
    get_rule,
    great_divide_rules,
    pushdown_rules,
    rules_by_reference,
    small_divide_rules,
)


class TestRegistry:
    def test_every_law_of_the_paper_is_implemented(self):
        references = set(rules_by_reference())
        expected_laws = {f"Law {i}" for i in range(1, 18)}
        expected_examples = {f"Example {i}" for i in range(1, 5)}
        assert expected_laws <= references
        assert expected_examples <= references

    def test_rule_counts(self):
        assert len(small_divide_rules()) == 15  # Laws 1-12 + Examples 1-3
        assert len(great_divide_rules()) == 6  # Laws 13-17 + Example 4
        assert len(all_rules()) == 21

    def test_names_are_unique(self):
        names = [rule.name for rule in all_rules()]
        assert len(names) == len(set(names))

    def test_get_rule_by_name(self):
        rule = get_rule("law_03_selection_pushdown")
        assert rule.paper_reference == "Law 3"

    def test_get_rule_unknown_name(self):
        with pytest.raises(RewriteError):
            get_rule("law_99_does_not_exist")

    def test_pushdown_rules_are_static(self):
        assert all(not rule.requires_data for rule in pushdown_rules())
        assert len(pushdown_rules()) >= 8

    def test_every_rule_has_documentation(self):
        for rule in all_rules():
            assert rule.paper_reference, rule.name
            assert rule.description, rule.name


class TestRewriteContext:
    def test_from_catalog(self, figure1_dividend):
        catalog = Catalog()
        catalog.add_table("r1", figure1_dividend)
        context = RewriteContext.from_catalog(catalog)
        assert context.evaluate(catalog.ref("r1")) == figure1_dividend

    def test_a_catalog_without_a_database_refuses_data_checks(self, figure1_dividend):
        catalog = Catalog()
        catalog.add_table("r1", figure1_dividend)
        context = RewriteContext(catalog=catalog)
        with pytest.raises(RewriteError):
            context.evaluate(catalog.ref("r1"))
        # A data-dependent law reads the refusal as "does not hold".
        expr = B.difference(
            B.divide(catalog.ref("r1"), B.ref("r2", ["b"])),
            B.divide(catalog.ref("r1"), B.ref("r2", ["b"])),
        )
        assert not get_rule("law_07_disjoint_difference_elimination").matches(expr, context)

    def test_empty_context_refuses_data_checks(self):
        with pytest.raises(RewriteError):
            RewriteContext().evaluate(B.ref("r1", ["a"]))


class TestRuleProtocol:
    def test_try_apply_returns_none_on_mismatch(self, figure1_dividend):
        rule = get_rule("law_03_selection_pushdown")
        expr = B.literal(figure1_dividend)
        assert rule.try_apply(expr) is None

    def test_apply_raises_on_mismatch(self, figure1_dividend):
        rule = get_rule("law_03_selection_pushdown")
        expr = B.literal(figure1_dividend)
        with pytest.raises(RewriteError):
            rule.apply(expr)

    def test_find_applicable(self, figure1_dividend, figure1_divisor):
        from repro.algebra import predicates as P

        expr = B.select(
            B.divide(B.literal(figure1_dividend), B.literal(figure1_divisor)),
            P.equals(P.attr("a"), 2),
        )
        applicable = find_applicable(expr)
        assert any(rule.paper_reference == "Law 3" for rule in applicable)

    def test_repr_mentions_reference(self):
        assert "Law 3" in repr(get_rule("law_03_selection_pushdown"))
