"""Property tests for the QuerySession batch layer.

The central invariant (ISSUE 2's acceptance bar): ``answer_many`` over a
random batch equals per-query :meth:`EvaluationEngine.answer` *exactly*
on the ``exact`` backend and within ``1e-9`` on ``array`` — on random
p-documents, random query batches, cold and warm sessions alike (warm
runs exercise cross-call memo reuse, where a stale or over-shared
distribution would surface immediately).
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.prob import EvaluationEngine, QuerySession, query_answer
from repro.prob.engine import boolean_probability, node_probability
from repro.probability_array import ArrayBackend
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9


def make_batch(seed: int, max_queries: int = 3):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    queries = [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
        for _ in range(rng.randint(1, max_queries))
    ]
    return p, queries


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_answer_many_matches_sequential_exactly(seed):
    p, queries = make_batch(seed)
    session = QuerySession(p)
    batch = session.answer_many(queries)
    assert batch == [query_answer(p, q) for q in queries]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_answer_many_fast_within_tolerance(seed):
    p, queries = make_batch(seed)
    exact = [query_answer(p, q) for q in queries]
    fast = QuerySession(p, backend="array").answer_many(queries)
    for d_exact, d_fast in zip(exact, fast):
        assert set(d_fast) == set(d_exact)
        for node_id, value in d_exact.items():
            assert math.isclose(
                d_fast[node_id], float(value), rel_tol=TOLERANCE
            )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_warm_session_stays_exact(seed):
    # Memo reuse across calls must never change an answer: repeat the same
    # batch, then a permuted batch, on one session.
    p, queries = make_batch(seed)
    session = QuerySession(p)
    sequential = [query_answer(p, q) for q in queries]
    assert session.answer_many(queries) == sequential
    assert session.answer_many(queries) == sequential
    reversed_queries = list(reversed(queries))
    assert session.answer_many(reversed_queries) == list(reversed(sequential))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_boolean_many_matches_engine(seed):
    p, queries = make_batch(seed)
    session = QuerySession(p)
    items = []
    expected = []
    for q in queries:
        items.append(q)
        expected.append(boolean_probability(p, q))
        candidates = sorted(query_answer(p, q))
        if candidates:
            items.append((q, {q.out: candidates[0]}))
            expected.append(node_probability(p, q, candidates[0]))
    assert session.boolean_many(items) == expected
    # Warm repeat (memo) must agree too.
    assert session.boolean_many(items) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_single_query_session_equals_query_answer(seed):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    q = random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
    assert QuerySession(p).answer(q) == query_answer(p, q)


def _rel_close(value, expected) -> bool:
    return abs(value - expected) <= TOLERANCE * abs(expected)


#: Width-threshold escapes over one run of the lane-group property, by
#: path (engine passes, lane groups).
_ESCAPES = {"engine": 0, "group": 0}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["exact", "array", "escape"]),
    st.integers(min_value=1, max_value=8),
)
def _lane_group_matches_engine(seed, arm, width):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    queries = [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
        for _ in range(width)
    ]
    backend = ArrayBackend(width_threshold=1) if arm == "escape" else arm
    session = QuerySession(p, backend=backend)
    answers = session.answer_many(queries)
    oracles = [query_answer(p, q) for q in queries]
    items, bindings, expected = [], [], []
    for q, oracle in zip(queries, oracles):
        items.append(q)
        bindings.append((q, None))
        expected.append(EvaluationEngine(p, [q]).match_probability())
        anchors = sorted(oracle)[:2] + [p.root.node_id]
        for n in anchors:
            items.append((q, {q.out: n}))
            bindings.append((q, {q.out: n}))
            expected.append(
                EvaluationEngine(p, [q], {q.out: n}).match_probability()
            )
    masses = session.boolean_many(items)
    if arm == "exact":
        assert answers == oracles
        assert masses == expected
        return
    if arm == "escape":
        # Engine passes on an escaping backend of their own.
        engine_backend = ArrayBackend(width_threshold=1)
        answers += [query_answer(p, q, backend=engine_backend) for q in queries]
        masses += [
            EvaluationEngine(p, [q], anchors, engine_backend).match_probability()
            for q, anchors in bindings
        ]
        oracles = oracles * 2
        expected = expected * 2
        _ESCAPES["engine"] += engine_backend.fallbacks
        _ESCAPES["group"] += backend.fallbacks
    for got, oracle in zip(answers, oracles):
        assert set(got) == set(oracle)
        assert all(_rel_close(got[n], oracle[n]) for n in oracle)
    assert all(_rel_close(m, e) for m, e in zip(masses, expected))


def test_lane_group_matches_engine_on_both_backends():
    # Every batch — of either backend and any width, 1 included — runs
    # as one lane group: answers and anchored Boolean items equal the
    # engine's single-lane passes bit for bit on "exact", and within
    # 1e-9 relative on "array".  The "escape" arm is "array" with
    # width_threshold 1, where engine passes (query_answer,
    # match_probability) and lane groups alike take the engine's one
    # exact-fallback rule; over the run both paths must escape.
    _ESCAPES.update(engine=0, group=0)
    _lane_group_matches_engine()
    assert _ESCAPES["engine"] > 0
    assert _ESCAPES["group"] > 0
