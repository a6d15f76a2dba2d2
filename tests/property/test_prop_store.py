"""Property tests for structural-store memoization.

The ISSUE-3 acceptance bar: session results with structural-store
memoization equal store-free sequential evaluation — exactly on the
``exact`` backend, within ``1e-9`` on ``fast`` — on random p-documents
and query batches, with the store *shared across two different random
documents* (where an unsound structural key would leak a distribution
between lookalike subtrees), and across interleaved in-place mutations
that must invalidate digests and memo entries.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.prob import EvaluationEngine, QuerySession, query_answer
from repro.pxml.pdocument import PDocument
from repro.store import InMemoryStore, SqliteStore
from repro.workloads.synthetic import (
    churn_workload,
    isomorphic_twin,
    random_pdocument,
    random_tree_pattern,
)

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9
TWIN_OFFSET = 10_000_000


def make_batch(seed: int, max_queries: int = 3):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    queries = [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
        for _ in range(rng.randint(1, max_queries))
    ]
    return p, queries, rng


def mutate_in_place(p: PDocument, rng: random.Random) -> None:
    """A random in-place edit followed by ``mark_all_mutated()``."""
    distributional = p.distributional_nodes()
    ordinary_nodes = [
        n for n in p.ordinary_nodes() if n is not p.root
    ]
    if distributional and (not ordinary_nodes or rng.random() < 0.5):
        node = rng.choice(distributional)
        child = rng.choice(node.children)
        assert node.probabilities is not None
        node.probabilities[child.node_id] *= Fraction(rng.choice((0, 1, 2)), 2)
    elif ordinary_nodes:
        rng.choice(ordinary_nodes).label = rng.choice(LABELS)
    p.mark_all_mutated()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_shared_store_matches_sequential_exactly(seed):
    # One store serves two documents and repeated (warm) batches: any
    # cross-document or cross-subtree key collision would surface as a
    # wrong exact answer.
    p1, queries1, rng = make_batch(seed)
    p2, queries2, _ = make_batch(seed + 1)
    store = InMemoryStore()
    for p, queries in ((p1, queries1), (p2, queries2), (p1, queries1)):
        session = QuerySession(p, store=store)
        for _ in range(2):
            assert session.answer_many(queries) == [
                query_answer(p, q) for q in queries
            ]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_store_backed_fast_within_tolerance(seed):
    p, queries, _ = make_batch(seed)
    exact = [query_answer(p, q) for q in queries]
    fast = QuerySession(p, backend="fast", store=InMemoryStore()).answer_many(
        queries
    )
    for d_exact, d_fast in zip(exact, fast):
        for node_id in set(d_exact) | set(d_fast):
            assert abs(
                d_fast.get(node_id, 0.0) - float(d_exact.get(node_id, 0))
            ) < TOLERANCE


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_mutations_invalidate_digests_and_memo(seed):
    # Interleave queries and in-place mutations on one store-backed
    # session: after every mutation the structural digests change on the
    # touched path, so stale entries must stop matching and answers must
    # equal fresh store-free evaluation of the *mutated* document.
    p, queries, rng = make_batch(seed)
    session = QuerySession(p, store=InMemoryStore())
    for _ in range(3):
        assert session.answer_many(queries) == [
            query_answer(p, q) for q in queries
        ]
        mutate_in_place(p, rng)
    assert session.answer_many(queries) == [
        query_answer(p, q) for q in queries
    ]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_sqlite_store_round_trip_matches(tmp_path_factory, seed):
    # Cold evaluation fills a SQLite store; a fresh session over a fresh
    # store instance (same file — a simulated restart) must reproduce
    # the answers bit-exactly from disk.
    p, queries, _ = make_batch(seed)
    path = tmp_path_factory.mktemp("store") / f"memo_{seed}.db"
    store = SqliteStore(path)
    first = QuerySession(p, store=store).answer_many(queries)
    store.close()
    reopened = SqliteStore(path)
    second = QuerySession(p, store=reopened).answer_many(queries)
    reopened.close()
    assert first == second == [query_answer(p, q) for q in queries]


def _anchor_targets(p: PDocument, q) -> list[int]:
    """A few document nodes carrying the query's output label."""
    return sorted(
        n.node_id
        for n in p.ordinary_nodes()
        if n.label == q.out.label
    )[:3]


def _check_anchored(session, p, queries, offset, backend, tolerance):
    """Anchored store-backed answers ≡ fresh store-free engine runs."""
    for q in queries:
        targets = _anchor_targets(p, q)
        if not targets:
            continue
        got = session.boolean_many(
            [(q, {q.out: n + offset}) for n in targets]
        )
        for n, value in zip(targets, got):
            expected = EvaluationEngine(
                session.p, [q], {q.out: n + offset}, backend=backend
            ).match_probability()
            if tolerance is None:
                assert value == expected
            else:
                assert abs(value - expected) < tolerance


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_anchored_store_backed_matches_store_free_across_twins(seed):
    # The ISSUE-5 satellite: anchored evaluations keyed by canonical
    # anchor positions, shared through one store across two isomorphic
    # documents with disjoint node Ids, must equal fresh store-free
    # anchored engine runs — exactly on "exact", within 1e-9 on "fast" —
    # including after in-place mutations bump the epoch.  An unsound
    # position encoding would leak a distribution between lookalike
    # subtrees with differently-placed anchors and surface here.
    p1, queries, rng = make_batch(seed)
    p2 = isomorphic_twin(p1, TWIN_OFFSET)
    store = InMemoryStore()
    for backend, tolerance in (("exact", None), ("fast", TOLERANCE)):
        s1 = QuerySession(p1, backend=backend, store=store)
        s2 = QuerySession(p2, backend=backend, store=store)
        before = store.anchored_hits
        _check_anchored(s1, p1, queries, 0, backend, tolerance)
        _check_anchored(s2, p1, queries, TWIN_OFFSET, backend, tolerance)
        if any(_anchor_targets(p1, q) for q in queries):
            # the twin's first, cold pass hits p1's anchored entries
            assert store.anchored_hits > before
    mutate_in_place(p1, rng)
    s1 = QuerySession(p1, store=store)
    _check_anchored(s1, p1, queries, 0, "exact", None)
    # the untouched twin keeps matching its (and p1's pre-mutation) keys
    _check_anchored(s2, p1, queries, TWIN_OFFSET, "fast", TOLERANCE)


def test_churn_workload_store_equivalence():
    # The full churn plan (satellite): batches interleaved with epoch-
    # bumping mutations, against one persistent session + shared store.
    p, steps = churn_workload(persons=4, projects=2, rounds=2, seed=13)
    store = InMemoryStore()
    session = QuerySession(p, store=store)
    for kind, payload in steps:
        if kind == "mutate":
            payload()
        else:
            assert session.answer_many(payload) == [
                query_answer(p, q) for q in payload
            ]
    # Node-scoped mutations are absorbed as spine refreshes, not resets.
    assert session.stats.spine_refreshes == 4  # one per mutation epoch
    assert session.stats.invalidations == 0
    assert store.stats()["hits"] > 0
    assert store.stats()["spine_recomputes"] == 4
