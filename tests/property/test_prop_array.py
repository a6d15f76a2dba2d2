"""Property tests for the vectorized ``array`` backend.

The acceptance invariant: on random p-documents and random query
batches, the ``array`` backend agrees with ``exact`` within a relative
error of ``1e-9`` — for ``answer_many`` (the stacked blocked/pinned
pass) and ``boolean_many`` (the stacked unpinned pass, plain and
anchored), store-backed and store-free, cold and warm alike.  Batches
of queries that differ in one label (with duplicates) exercise the lane
group's row sharing by lane class.  A width-threshold of one forces the
exact per-subtree fallback on every kernel and must change nothing but
the arithmetic domain.
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


def rel_close(exact, got) -> bool:
    """``got`` within a relative ``TOLERANCE`` of the exact value."""
    exact = float(exact)
    return abs(exact - float(got)) <= TOLERANCE * abs(exact)


def assert_close(exact: dict, got: dict):
    keys = set(exact) | {k for k, v in got.items() if float(v) > 1e-12}
    for k in keys:
        assert rel_close(exact.get(k, 0), got.get(k, 0.0))


def boolean_items(p, queries):
    """Plain and anchored Boolean items with their exact oracles."""
    items = []
    expected = []
    for q in queries:
        items.append(q)
        expected.append(boolean_probability(p, q))
        candidates = sorted(query_answer(p, q))
        if candidates:
            items.append((q, {q.out: candidates[0]}))
            expected.append(node_probability(p, q, candidates[0]))
    return items, expected


def make_label_family(seed: int):
    """One query shape in several variants differing in one label, plus
    the same query object twice and an equal copy of it."""
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    shape = rng.randrange(10**6)
    mb_length = rng.randint(1, 3)

    def variant(label):
        q = random_tree_pattern(
            random.Random(shape), labels=LABELS, mb_length=mb_length
        )
        nodes = list(q.root.iter_subtree())
        if len(nodes) > 1:
            nodes[1 + shape % (len(nodes) - 1)].label = label
        return q

    # "d" never occurs in the document: its lanes go neutral early.
    labels = rng.sample(LABELS + ("d",), rng.randint(2, 4))
    queries = [variant(label) for label in labels]
    queries += [queries[0], variant(labels[0])]
    return p, queries


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
    items, expected = boolean_items(p, queries)
    for _ in range(2):  # cold + warm (anchored entries probe the store)
        got = session.boolean_many(items)
        for e, g in zip(expected, got):
            assert rel_close(e, g)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_width_threshold_fallback_is_transparent(seed):
    p, queries = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    backend = ArrayBackend(width_threshold=1)
    got = QuerySession(p, backend=backend).answer_many(queries)
    for d_exact, d_got in zip(expected, got):
        assert_close(d_exact, d_got)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_label_family_batches_match_exact(seed):
    # Lanes of one class share rows: answers and Boolean masses must
    # still equal the exact oracles, cold, warm, and from a shared store.
    p, queries = make_label_family(seed)
    expected = [query_answer(p, q) for q in queries]
    items, expected_bool = boolean_items(p, queries)
    store = InMemoryStore()
    sessions = [
        QuerySession(p, backend="array"),
        QuerySession(p, backend="array", store=store),
        QuerySession(p, backend="array", store=store),
    ]
    for session in sessions:
        for _ in range(2):  # cold, then warm
            got = session.answer_many(queries)
            for d_exact, d_got in zip(expected, got):
                assert_close(d_exact, d_got)
            masses = session.boolean_many(items)
            for e, g in zip(expected_bool, masses):
                assert rel_close(e, g)
