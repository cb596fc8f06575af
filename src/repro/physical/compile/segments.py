"""Stubs for the benchmark replay's segment-compilation entry points.

Plans are no longer compiled: ``Filter`` evaluates its predicate on the
dictionary or with a positional tuple test itself (see
:mod:`repro.physical.basic`).  ``bench/layers.py`` still resolves these two
names and reports the three ``physical.compile*`` metrics from them.
"""

from __future__ import annotations

from typing import Any

__all__ = ["compile_plan", "code_cache_size"]


def compile_plan(plan: Any, mode: str = "auto") -> None:
    """Does nothing: there is nothing to compile (the replay still times it)."""
    # Deleted, with the physical.compile* metrics, by the [benchmark] change
    # that rewrites bench/layers.py (ROADMAP item 1).
    return None


def code_cache_size() -> int:
    """Always 0: no code is generated (the replay still reads it)."""
    # Deleted, with the physical.compile* metrics, by the [benchmark] change
    # that rewrites bench/layers.py (ROADMAP item 1).
    return 0
