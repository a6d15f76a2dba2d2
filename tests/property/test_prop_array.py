"""Property tests for the vectorized ``array`` backend.

The PR-6 acceptance invariant: on random p-documents and random query
batches, the ``array`` backend agrees with ``exact`` within ``1e-9`` —
for ``answer_many`` (the stacked blocked/pinned pass) and
``boolean_many`` (the stacked unpinned pass, plain and anchored),
store-backed and store-free, cold and warm alike.  A width-threshold of
one forces the exact per-subtree fallback on every kernel and must
change nothing but the arithmetic domain.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.probability_array import ArrayBackend
from repro.prob import EvaluationEngine, QuerySession, query_answer
from repro.prob.engine import boolean_probability, node_probability
from repro.store import InMemoryStore
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9

seeds = st.integers(min_value=0, max_value=10**6)


def make_batch(seed: int, max_queries: int = 3):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    queries = [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
        for _ in range(rng.randint(1, max_queries))
    ]
    return p, queries


def assert_close(exact: dict, got: dict):
    keys = set(exact) | {k for k, v in got.items() if float(v) > 1e-12}
    for k in keys:
        assert abs(float(exact.get(k, 0)) - float(got.get(k, 0.0))) < TOLERANCE


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_answer_many_matches_exact(seed):
    p, queries = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    session = QuerySession(p, backend="array")
    for _ in range(2):  # cold pass, then the plan-memoized warm repeat
        got = session.answer_many(queries)
        for d_exact, d_got in zip(expected, got):
            assert_close(d_exact, d_got)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_answer_many_store_free(seed):
    # Store-less array engines: the same DP walk without a memo store.
    p, queries = make_batch(seed)
    for q in queries:
        engine = EvaluationEngine(p, [q], backend="array")
        assert_close(query_answer(p, q), engine.answer())


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_answer_many_shared_store(seed):
    # Two sessions sharing one store: the second warms from the first's
    # combined stacked entries and must agree identically.
    p, queries = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    store = InMemoryStore()
    for _ in range(2):
        got = QuerySession(p, backend="array", store=store).answer_many(
            queries
        )
        for d_exact, d_got in zip(expected, got):
            assert_close(d_exact, d_got)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_boolean_many_matches_exact(seed):
    p, queries = make_batch(seed)
    session = QuerySession(p, backend="array")
    items = []
    expected = []
    for q in queries:
        items.append(q)
        expected.append(float(boolean_probability(p, q)))
        candidates = sorted(query_answer(p, q))
        if candidates:
            items.append((q, {q.out: candidates[0]}))
            expected.append(float(node_probability(p, q, candidates[0])))
    for _ in range(2):  # cold + warm (anchored entries probe the store)
        got = session.boolean_many(items)
        for e, g in zip(expected, got):
            assert abs(e - float(g)) < TOLERANCE


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_width_threshold_fallback_is_transparent(seed):
    p, queries = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    backend = ArrayBackend(width_threshold=1)
    got = QuerySession(p, backend=backend).answer_many(queries)
    for d_exact, d_got in zip(expected, got):
        assert_close(d_exact, d_got)
