"""Property tests for the single-pass engine and its numeric backends.

Two invariants on random p-documents and patterns:

* the single-pass engine (all candidates in one traversal) agrees
  *exactly* with the per-candidate anchored DP (``node_probability``);
* the ``fast`` float backend agrees with ``exact`` within ``1e-9``.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.prob import EvaluationEngine, node_probability, query_answer
from repro.prob.engine import boolean_probability, intersection_answer
from repro.prob.evaluator import intersection_node_probability
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9


def make_instance(seed: int):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    q = random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
    return p, q


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_single_pass_matches_per_candidate_exactly(seed):
    p, q = make_instance(seed)
    engine = EvaluationEngine(p, [q])
    candidates = engine.candidate_ids()
    answer = engine.answer(candidates)
    expected = {
        n: pr
        for n in sorted(candidates)
        if (pr := node_probability(p, q, n)) > 0
    }
    assert answer == expected
    if candidates:  # the single traversal, asserted on every instance
        table_labels = engine.table_labels
        assert engine.visits == sum(
            1 for labels in p.label_index().values() if labels & table_labels
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fast_backend_agrees_with_exact(seed):
    p, q = make_instance(seed)
    exact = query_answer(p, q)
    fast = query_answer(p, q, backend="fast")
    for node_id in set(exact) | set(fast):
        assert abs(fast.get(node_id, 0.0) - float(exact.get(node_id, 0))) < TOLERANCE


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fast_boolean_probability_agrees(seed):
    p, q = make_instance(seed)
    exact = boolean_probability(p, q)
    fast = boolean_probability(p, q, backend="fast")
    assert abs(fast - float(exact)) < TOLERANCE


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_intersection_single_pass_matches_per_candidate(seed):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    q1 = random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 3))
    q2 = random_tree_pattern(rng, labels=LABELS, mb_length=q1.main_branch_length())
    answer = intersection_answer(p, [q1, q2])
    engine = EvaluationEngine(p, [q1, q2])
    expected = {}
    for n in sorted(engine.candidate_ids()):
        pr = intersection_node_probability(p, [q1, q2], n)
        if pr > 0:
            expected[n] = pr
    assert answer == expected
