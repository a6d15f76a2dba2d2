"""Property tests for Id-free extensions and cross-twin store sharing.

The ISSUE-9 acceptance bar: on random p-documents and their isomorphic
twins, marker-free extensions (a) assign the *same* structural digests to
shared subtrees — equal to the base document's own digests and equal
across twins, (b) answer rewriting plans identically with and without a
memo store (bit-exactly on ``exact``, within ``1e-9`` on ``array``), and
(c) let the second twin's *first, cold* store-backed plan evaluation hit
entries warmed by the first twin.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.rewrite import probabilistic_tp_plan
from repro.store import InMemoryStore
from repro.tp import parse_pattern
from repro.views import View, probabilistic_extension
from repro.workloads.synthetic import isomorphic_twin, random_pdocument

LABELS = ("a", "b", "c", "d")
QUERY = "a//b[c]/d"
VIEW = "a//b[c]"
TOLERANCE = 1e-9
TWIN_OFFSET = 10_000_000


def make_doc(seed: int):
    rng = random.Random(seed)
    return random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)


def make_view() -> View:
    return View("v", parse_pattern(VIEW))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_twin_extensions_share_structural_digests(seed):
    # Marker-free copying preserves subtree structure bit-for-bit: every
    # result subtree keeps its base-document digest, and the twin's
    # extension — built from disjoint node Ids — is digest-identical.
    p1 = make_doc(seed)
    p2 = isomorphic_twin(p1, TWIN_OFFSET)
    view = make_view()
    e1 = probabilistic_extension(p1, view)
    e2 = probabilistic_extension(p2, view)
    assert e1.pdocument.document_digest == e2.pdocument.document_digest
    for original, copy_root in e1.subtree_roots.items():
        digest = e1.pdocument.structural_digest(copy_root)
        assert digest == p1.structural_digest(original)
        assert digest == e2.pdocument.structural_digest(
            e2.subtree_roots[original + TWIN_OFFSET]
        )
    # ...and the provenance rank paths agree across the twins.
    for original in e1.provenance.copy_index:
        assert e1.provenance.anchor_positions(original) == (
            e2.provenance.anchor_positions(original + TWIN_OFFSET)
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_store_backed_plan_matches_store_free_across_twins(seed):
    # One store serves the plan over an extension and over its twin's
    # extension: answers must equal fresh store-free evaluation (any
    # unsound cross-twin key share would surface as a wrong exact
    # answer), and — since the extensions are digest-identical — the
    # twin's first pass must already hit the warmed entries.
    p1 = make_doc(seed)
    p2 = isomorphic_twin(p1, TWIN_OFFSET)
    q = parse_pattern(QUERY)
    view = make_view()
    plan_free = probabilistic_tp_plan(q, view)
    assert plan_free is not None
    e1 = probabilistic_extension(p1, view)
    e2 = probabilistic_extension(p2, view)
    baseline = plan_free.evaluate(e1)

    store = InMemoryStore()
    plan_store = probabilistic_tp_plan(q, view, store=store)
    assert plan_store.evaluate(e1) == baseline
    before = store.stats()["hits"]
    assert plan_store.evaluate(e2) == {
        node_id + TWIN_OFFSET: probability
        for node_id, probability in baseline.items()
    }
    if baseline:
        # the twin's first, cold pass hits the first twin's entries
        assert store.stats()["hits"] > before


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_store_backed_array_plan_within_tolerance(seed):
    p = make_doc(seed)
    q = parse_pattern(QUERY)
    view = make_view()
    exact_plan = probabilistic_tp_plan(q, view)
    assert exact_plan is not None
    ext = probabilistic_extension(p, view)
    exact = exact_plan.evaluate(ext)
    array_plan = probabilistic_tp_plan(
        q, view, backend="array", store=InMemoryStore()
    )
    approximate = array_plan.evaluate(ext)
    assert set(approximate) == set(exact)
    for node_id, value in exact.items():
        assert math.isclose(
            float(approximate[node_id]), float(value), rel_tol=TOLERANCE
        )
