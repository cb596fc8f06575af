"""Each node computes its signature and hash once, and that changes nothing.

Nodes are immutable, so :meth:`Expression._cached_signature` keeps the first
:meth:`Expression._signature` and nests each child's cached tuple by
reference.  The cached signature, hash and ``==`` must equal what the
uncached recursion computes, and the canonical fingerprints of a fixed
corpus (the ``adhoc_small`` and ``repeat_hot`` texts of ``bench/``, the
paper's queries, fluent queries) must stay the digests recorded before the
cache existed.
"""

import json
import pickle
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

import repro
from repro.algebra import predicates as P
from repro.algebra.expressions import Expression
from repro.experiments import queries
from repro.relation import Relation
from repro.workloads import textbook_catalog
from tests.strategies import expressions

CORPUS = json.loads((Path(__file__).parent / "fingerprint_corpus.json").read_text(encoding="utf-8"))


def rebuilt(node):
    """A structurally equal copy sharing no node (and so no cache) with ``node``."""
    if not node.children:
        copy = object.__new__(type(node))
        copy.__dict__.update({k: v for k, v in vars(node).items() if k not in ("_sig", "_hash")})
        return copy
    return node.with_children(*map(rebuilt, node.children))


def uncached_signature(node):
    """The signature as the recursion computes it with no cache at all."""
    with mock.patch.object(Expression, "_cached_signature", lambda self: self._signature()):
        return node._signature()


@settings(max_examples=150, deadline=None)
@given(expressions(), expressions())
def test_cached_signature_hash_and_equality_match_the_uncached_ones(first, second):
    fresh = uncached_signature(first)
    assert first._cached_signature() == fresh
    assert first._cached_signature() is first._cached_signature()
    assert hash(first) == hash(fresh)
    twin = rebuilt(first)
    assert twin == first and hash(twin) == hash(first)
    assert (first == second) == (fresh == uncached_signature(second))
    for node in first.walk():
        for child in node.children:
            # Nested by reference: a tree's signature touches each node once.
            assert any(part is child._cached_signature() for part in node._cached_signature())


@settings(max_examples=50, deadline=None)
@given(expressions())
def test_a_pickled_expression_rehashes(expression):
    hash(expression)
    clone = pickle.loads(pickle.dumps(expression))
    assert "_hash" not in vars(clone)
    assert clone == expression and hash(clone) == hash(expression)


def corpus_database():
    return repro.connect(
        {
            "supplies": Relation(["s_no", "p_no"], [("s1", "p1")]),
            "parts": Relation(["p_no", "color"], [("p1", "red")]),
            "wanted": Relation(["p_no"], [("p1",)]),
        }
    )


def fluent_queries(db):
    """Fluent spellings over the textbook catalog (digests in the corpus)."""
    supplies, parts = db.table("supplies"), db.table("parts")
    blue = parts.where(color="blue").project(["p_no"])
    red = parts.where(color="red").project(["p_no"])
    return {
        "q1": supplies.great_divide(parts),
        "q2": supplies.divide(blue),
        "q2_selected": supplies.where(P.less_than(P.attr("s_no"), "s3")).divide(blue),
        "renamed": supplies.rename({"s_no": "who"}).divide(blue).project(["who"]),
        "set_ops": supplies.project(["p_no"]).union(blue).difference(blue.intersect(blue)),
        "joins": supplies.join(parts).semijoin(blue).antijoin(red),
        "grouped": supplies.group_by(["s_no"], n=("count", "p_no")),
    }


@pytest.mark.parametrize("group", sorted(set(CORPUS) - {"experiments", "fluent"}))
def test_bench_texts_keep_their_recorded_fingerprints(group):
    db = corpus_database()
    assert {text: db.sql(text).fingerprint() for text in CORPUS[group]} == CORPUS[group]


def test_paper_and_fluent_queries_keep_their_recorded_fingerprints():
    db = repro.connect(textbook_catalog())
    paper = {name: db.sql(getattr(queries, name)).fingerprint() for name in CORPUS["experiments"]}
    assert paper == CORPUS["experiments"]
    fluent = {name: query.fingerprint() for name, query in fluent_queries(db).items()}
    assert fluent == CORPUS["fluent"]
