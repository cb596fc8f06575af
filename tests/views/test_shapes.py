"""``analyze_division``: the one test of whether a view is maintained, and
the column order it records."""

import pytest

from repro.algebra import builders as B
from repro.algebra import predicates as P
from repro.algebra.expressions import GreatDivide, Rename, SmallDivide
from repro.errors import RewriteError
from repro.laws import get_rule
from repro.views.shapes import UnsupportedViewShape, analyze_division


def great():
    return GreatDivide(B.ref("r1", ["a1", "a2", "b"]), B.ref("r2", ["b", "c"]))


class TestColumnOrder:
    def test_a_division_answers_in_a_plus_c_order(self):
        shape = analyze_division(great())
        assert shape.order == (0, 1, 2) and shape.in_order
        assert shape.schema_names == ("a1", "a2", "c")

    def test_a_permuting_projection_records_positions_into_a_plus_c(self):
        shape = analyze_division(B.project(great(), ["c", "a2", "a1"]))
        assert shape.order == (2, 1, 0) and not shape.in_order
        assert shape.schema_names == ("c", "a2", "a1")

    def test_stacked_projections_compose(self):
        inner = B.project(great(), ["c", "a2", "a1"])
        shape = analyze_division(B.project(inner, ["a2", "c", "a1"]))
        assert shape.order == (1, 2, 0)

    def test_a_rename_above_a_projection_relabels_without_moving(self):
        expression = Rename(B.project(great(), ["c", "a1", "a2"]), {"c": "z"})
        shape = analyze_division(expression)
        assert shape.order == (2, 0, 1)
        assert shape.schema_names == ("z", "a1", "a2")

    def test_a_small_divide_permutes_its_quotient_keys(self):
        divide = SmallDivide(B.ref("r1", ["a1", "a2", "b"]), B.ref("r2", ["b"]))
        assert analyze_division(B.project(divide, ["a2", "a1"])).order == (1, 0)

    def test_the_order_is_part_of_the_shape(self):
        assert analyze_division(great()) != analyze_division(
            B.project(great(), ["a2", "a1", "c"])
        )


class TestRefusals:
    def test_a_projection_that_drops_a_column_is_no_division(self):
        with pytest.raises(UnsupportedViewShape, match="Project"):
            analyze_division(B.project(great(), ["a1", "c"]))

    def test_a_projected_input_is_refused(self):
        dividend = B.project(B.ref("r1", ["a", "b", "x"]), ["a", "b"])
        with pytest.raises(UnsupportedViewShape, match="Project input"):
            analyze_division(SmallDivide(dividend, B.ref("r2", ["b"])))

    def test_selections_over_renames_are_stored_over_base_names(self):
        dividend = B.select(
            Rename(B.ref("r1", ["x", "b"]), {"x": "a"}), P.Comparison(P.attr("a"), "<", 3)
        )
        shape = analyze_division(SmallDivide(dividend, B.ref("r2", ["b"])))
        assert shape.dividend.predicate == P.Comparison(P.attr("x"), "<", 3)


def test_delta_rule_names_are_no_rewrite_rules():
    """The four delta equations are counter updates, not tree rewrites."""
    with pytest.raises(RewriteError):
        get_rule("delta_dividend_insert")
