"""Tests for the predicate AST."""

import pytest

from repro.algebra import predicates as P
from repro.errors import PredicateError
from repro.relation import Row


class TestComparison:
    def test_attribute_vs_literal(self):
        predicate = P.less_than(P.attr("b"), 3)
        assert predicate(Row({"b": 2}))
        assert not predicate(Row({"b": 3}))

    def test_attribute_vs_attribute(self):
        predicate = P.equals(P.attr("x"), P.attr("y"))
        assert predicate(Row({"x": 1, "y": 1}))
        assert not predicate(Row({"x": 1, "y": 2}))

    def test_every_operator(self):
        row = Row({"v": 5})
        assert P.equals(P.attr("v"), 5)(row)
        assert P.not_equals(P.attr("v"), 4)(row)
        assert P.less_than(P.attr("v"), 6)(row)
        assert P.less_equal(P.attr("v"), 5)(row)
        assert P.greater_than(P.attr("v"), 4)(row)
        assert P.greater_equal(P.attr("v"), 5)(row)

    def test_unknown_operator_rejected(self):
        with pytest.raises(PredicateError):
            P.Comparison(P.attr("a"), "~", 1)

    def test_attributes_property(self):
        assert P.equals(P.attr("a"), P.attr("b")).attributes == {"a", "b"}
        assert P.equals(P.attr("a"), 1).attributes == {"a"}

    def test_negate_flips_operator(self):
        predicate = P.less_than(P.attr("b"), 3)
        negated = predicate.negate()
        assert negated(Row({"b": 3}))
        assert not negated(Row({"b": 2}))
        assert negated.negate() == predicate

    def test_is_equi_comparison(self):
        assert P.equals(P.attr("a"), P.attr("b")).is_equi_comparison
        assert not P.equals(P.attr("a"), 1).is_equi_comparison
        assert not P.less_than(P.attr("a"), P.attr("b")).is_equi_comparison

    def test_rename(self):
        predicate = P.equals(P.attr("a"), P.attr("b")).rename({"a": "x"})
        assert predicate.attributes == {"x", "b"}


class TestBooleanConnectives:
    def test_and_or_not(self):
        p = P.And(P.greater_than(P.attr("v"), 1), P.less_than(P.attr("v"), 4))
        assert p(Row({"v": 2}))
        assert not p(Row({"v": 5}))
        q = P.Or(P.equals(P.attr("v"), 1), P.equals(P.attr("v"), 9))
        assert q(Row({"v": 9}))
        assert not q(Row({"v": 2}))
        assert P.Not(q)(Row({"v": 2}))

    def test_operator_overloads(self):
        p = (P.greater_than(P.attr("v"), 1) & P.less_than(P.attr("v"), 4)) | P.equals(P.attr("v"), 0)
        assert p(Row({"v": 0}))
        assert p(Row({"v": 2}))
        assert not p(Row({"v": 7}))
        assert (~P.equals(P.attr("v"), 0))(Row({"v": 1}))

    def test_de_morgan_negation(self):
        p = P.And(P.equals(P.attr("a"), 1), P.equals(P.attr("b"), 2))
        negated = p.negate()
        assert isinstance(negated, P.Or)
        assert negated(Row({"a": 1, "b": 3}))
        assert not negated(Row({"a": 1, "b": 2}))

    def test_attributes_are_unioned(self):
        p = P.And(P.equals(P.attr("a"), 1), P.equals(P.attr("b"), 2))
        assert p.attributes == {"a", "b"}

    def test_requires_two_operands(self):
        with pytest.raises(PredicateError):
            P.And(P.TRUE)
        with pytest.raises(PredicateError):
            P.Or(P.TRUE)

    def test_true_false_constants(self):
        row = Row({"a": 1})
        assert P.TRUE(row)
        assert not P.FALSE(row)
        assert P.TRUE.negate() == P.FALSE
        assert P.FALSE.negate() == P.TRUE

    def test_structural_equality(self):
        assert P.equals(P.attr("a"), 1) == P.equals(P.attr("a"), 1)
        assert P.And(P.TRUE, P.FALSE) == P.And(P.TRUE, P.FALSE)
        assert P.And(P.TRUE, P.FALSE) != P.Or(P.TRUE, P.FALSE)


class TestHelpers:
    def test_conjunction_of_none_is_true(self):
        assert P.conjunction([]) == P.TRUE

    def test_conjunction_of_one(self):
        p = P.equals(P.attr("a"), 1)
        assert P.conjunction([p]) == p

    def test_conjunction_drops_true(self):
        p = P.equals(P.attr("a"), 1)
        assert P.conjunction([P.TRUE, p]) == p

    def test_disjunction_of_none_is_false(self):
        assert P.disjunction([]) == P.FALSE

    def test_attribute_equality_builder(self):
        p = P.attribute_equality([("a", "x"), ("b", "y")])
        assert p(Row({"a": 1, "x": 1, "b": 2, "y": 2}))
        assert not p(Row({"a": 1, "x": 1, "b": 2, "y": 3}))
