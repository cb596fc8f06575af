"""Regression tests: PlanningError messages name the failing option.

An unknown value in :class:`PlannerOptions` used to report only the
operator kind ("unknown small divide algorithm ..."); with three algorithm
overrides on the same dataclass, the message must say *which attribute* to
fix.
"""

import pytest

from repro.algebra import builders as B
from repro.algebra.catalog import Catalog
from repro.errors import PlanningError
from repro.optimizer import PhysicalPlanner, PlannerOptions
from repro.relation import Relation


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.add_table("r1", Relation(["a", "b"], [(1, 1)]))
    catalog.add_table("r2", Relation(["b"], [(1,)]))
    return catalog


def plan_with(catalog, **options):
    planner = PhysicalPlanner(catalog, PlannerOptions(**options))
    planner.plan(B.divide(catalog.ref("r1"), catalog.ref("r2")))


class TestAlgorithmOptionNaming:
    def test_small_divide_names_its_attribute(self, catalog):
        with pytest.raises(PlanningError) as excinfo:
            plan_with(catalog, small_divide_algorithm="quantum")
        message = str(excinfo.value)
        assert "PlannerOptions.small_divide_algorithm" in message
        assert "quantum" in message and "small divide" in message

    def test_great_divide_names_its_attribute(self, catalog):
        with pytest.raises(PlanningError) as excinfo:
            plan_with(catalog, great_divide_algorithm="quantum")
        assert "PlannerOptions.great_divide_algorithm" in str(excinfo.value)

    def test_join_names_its_attribute(self, catalog):
        with pytest.raises(PlanningError) as excinfo:
            plan_with(catalog, join_algorithm="sort_merge")
        assert "PlannerOptions.join_algorithm" in str(excinfo.value)

    def test_choices_and_escape_hatch_are_listed(self, catalog):
        with pytest.raises(PlanningError) as excinfo:
            plan_with(catalog, small_divide_algorithm="quantum")
        message = str(excinfo.value)
        assert "hash" in message and "merge_sort" in message
        assert "None for the default" in message
