"""Synthetic workload and data generators used by tests, examples and benches."""

from repro.workloads.generators import (
    DivisionWorkload,
    make_dividend,
    make_division_workload,
    make_divisor,
    make_great_division_workload,
    make_great_divisor,
    split_dividend_by_quotient,
    split_horizontal,
)
from repro.workloads.suppliers_parts import COLORS, generate_catalog, textbook_catalog

__all__ = [
    "DivisionWorkload",
    "make_divisor",
    "make_dividend",
    "make_division_workload",
    "make_great_divisor",
    "make_great_division_workload",
    "split_horizontal",
    "split_dividend_by_quotient",
    "textbook_catalog",
    "generate_catalog",
    "COLORS",
]
