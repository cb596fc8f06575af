"""Shared fixtures: the example relations from the paper's figures."""

from __future__ import annotations

import os

import pytest

from repro.relation import Relation


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: the process may run on ``n`` CPUs (its affinity mask),
    so a parallel plan does not depend on the machine the suite runs on."""

    def pin(count: int) -> None:
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
        )

    return pin


@pytest.fixture
def ufunc_at_calls(monkeypatch):
    """A list that receives ``(ufunc name, indices)`` for every
    ``numpy.<ufunc>.at`` call the engine makes.  A ufunc's attributes cannot
    be patched, so the two modules that import numpy see a stand-in whose
    ufuncs record ``.at`` and pass everything else through."""
    numpy = pytest.importorskip("numpy")
    from repro.physical.compile import kernels
    from repro.relation import encoding

    calls = []

    class Ufunc:
        def __init__(self, ufunc):
            self._ufunc = ufunc

        def __call__(self, *args, **kwargs):
            return self._ufunc(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._ufunc, name)

        def at(self, target, indices, *operands):
            calls.append((self._ufunc.__name__, len(indices)))
            return self._ufunc.at(target, indices, *operands)

    class Numpy:
        def __getattr__(self, name):
            value = getattr(numpy, name)
            return Ufunc(value) if isinstance(value, numpy.ufunc) else value

    for module in (encoding, kernels):
        monkeypatch.setattr(module, "_np", Numpy())
    return calls


@pytest.fixture
def figure1_dividend() -> Relation:
    """Relation r1 of Figure 1 (also used in Figure 2)."""
    return Relation(
        ["a", "b"],
        [(1, 1), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 3), (3, 4)],
    )


@pytest.fixture
def figure1_divisor() -> Relation:
    """Relation r2 of Figure 1."""
    return Relation(["b"], [(1,), (3,)])


@pytest.fixture
def figure1_quotient() -> Relation:
    """Relation r3 of Figure 1."""
    return Relation(["a"], [(2,), (3,)])


@pytest.fixture
def figure2_divisor() -> Relation:
    """Relation r2 of Figure 2 (great divide divisor with groups c=1, c=2)."""
    return Relation(["b", "c"], [(1, 1), (2, 1), (4, 1), (1, 2), (3, 2)])


@pytest.fixture
def figure2_quotient() -> Relation:
    """Relation r3 of Figure 2."""
    return Relation(["a", "c"], [(2, 1), (2, 2), (3, 2)])


@pytest.fixture
def figure4_dividend() -> Relation:
    """Relation r1 of Figure 4 (Law 1 example)."""
    return Relation(
        ["a", "b"],
        [
            (1, 1), (1, 4),
            (2, 1), (2, 2), (2, 3), (2, 4),
            (3, 1), (3, 3), (3, 4),
            (4, 1), (4, 3),
        ],
    )


@pytest.fixture
def figure7_relations() -> dict[str, Relation]:
    """Relations of Figure 7 (Law 8 example)."""
    return {
        "r1_star": Relation(["a1"], [(1,), (2,)]),
        "r1_star_star": Relation(
            ["a2", "b"], [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 2), (3, 3)]
        ),
        "r2": Relation(["b"], [(2,), (3,)]),
        "quotient": Relation(["a1", "a2"], [(1, 1), (1, 3), (2, 1), (2, 3)]),
    }


@pytest.fixture
def figure8_relations() -> dict[str, Relation]:
    """Relations of Figure 8 (Law 9 example)."""
    return {
        "r1_star": Relation(
            ["a", "b1"],
            [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 1), (3, 3), (3, 4)],
        ),
        "r1_star_star": Relation(["b2"], [(1,), (2,)]),
        "r2": Relation(["b1", "b2"], [(1, 2), (3, 1), (3, 2)]),
        "quotient": Relation(["a"], [(1,), (3,)]),
    }


@pytest.fixture
def figure9_relations() -> dict[str, Relation]:
    """Relations of Figure 9 (Example 3 illustration)."""
    return {
        "r1_star": Relation(
            ["a", "b1"],
            [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 1), (3, 3), (3, 4)],
        ),
        "r1_star_star": Relation(["b2"], [(1,), (2,), (4,)]),
        "r2": Relation(["b1", "b2"], [(1, 4), (3, 4)]),
        "quotient": Relation(["a"], [(1,), (3,)]),
    }


@pytest.fixture
def figure10_relations() -> dict[str, Relation]:
    """Relations of Figure 10 (Law 11 example)."""
    return {
        "r0": Relation(
            ["a", "x"],
            [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 3), (3, 4)],
        ),
        "r1": Relation(["a", "b"], [(1, 6), (2, 4), (3, 8)]),
        "r2": Relation(["b"], [(4,)]),
        "quotient": Relation(["a"], [(2,)]),
    }


@pytest.fixture
def figure11_relations() -> dict[str, Relation]:
    """Relations of Figure 11 (Law 12 example)."""
    return {
        "r0": Relation(
            ["x", "b"],
            [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 3), (3, 4)],
        ),
        "r1": Relation(["a", "b"], [(6, 1), (1, 2), (6, 3), (3, 4)]),
        "r2": Relation(["b"], [(1,), (3,)]),
        "quotient": Relation(["a"], [(6,)]),
    }
