"""Property tests for the telemetry layer (ISSUE-8).

The observer-effect invariant: turning tracing on — or asking for cost
profiles — must never change an answer.  On random p-documents and
random query batches, a traced ``answer_many`` equals the untraced one
*exactly* on the ``exact`` backend and within ``1e-9`` on ``array``
(which routes through the stacked vectorized pass), and the profiles of
a traced call always sum back to the traced wall time.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.obs import disable_tracing, enable_tracing, take_spans
from repro.prob import QuerySession
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")


def make_batch(seed: int, max_queries: int = 3):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    queries = [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
        for _ in range(rng.randint(1, max_queries))
    ]
    return p, queries


def traced_answers(p, queries, backend):
    enable_tracing()
    try:
        return QuerySession(p, backend=backend).answer_many(queries)
    finally:
        disable_tracing()
        take_spans()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_tracing_never_changes_exact_answers(seed):
    p, queries = make_batch(seed)
    plain = QuerySession(p).answer_many(queries)
    assert traced_answers(p, queries, "exact") == plain


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_tracing_never_changes_array_answers(seed):
    p, queries = make_batch(seed)
    plain = QuerySession(p, backend="array").answer_many(queries)
    traced = traced_answers(p, queries, "array")
    assert traced == plain  # bit-equal: tracing never touches a value


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_profiles_sum_to_traced_wall_time(seed):
    p, queries = make_batch(seed)
    session = QuerySession(p)
    plain = session.answer_many(queries)
    answers, profiles = session.answer_many(queries, profile=True)
    assert answers == plain  # profiling is tracing: answers unchanged
    assert len(profiles) == len(queries)
    total = sum(
        entry["duration_s"] for entry in profiles[0].spans
    ) if profiles else 0.0
    assert math.isclose(
        sum(profile.wall_s for profile in profiles),
        total,
        rel_tol=1e-12,
        abs_tol=1e-15,
    )
    assert math.isclose(sum(profile.share for profile in profiles), 1.0)
