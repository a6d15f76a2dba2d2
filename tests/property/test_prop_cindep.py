"""Property tests: soundness of the syntactic c-independence test.

Whenever ``c_independent(q1, q2)`` holds, the defining product equation
must hold *exactly* on every sampled p-document and node.  (The converse —
completeness — cannot be certified by sampling; the definitive direction is
checked: an empirical counterexample implies the syntactic test said
"dependent".)
"""

import random

from hypothesis import given, settings, strategies as st

from repro.prob import (
    intersection_node_probability,
    node_probability,
)
from repro.rewrite import c_independent
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_syntactic_independence_implies_product_rule(seed):
    rng = random.Random(seed)
    length = rng.randint(1, 3)
    q1 = random_tree_pattern(
        rng, labels=LABELS, mb_length=length, predicate_probability=0.5
    )
    q2 = random_tree_pattern(
        rng, labels=LABELS, mb_length=rng.randint(1, 3), predicate_probability=0.5
    )
    if not c_independent(q1, q2):
        return
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    for n in list(p.ordinary_nodes())[:6]:
        appearance = p.appearance_probability(n.node_id)
        if appearance == 0:
            continue
        joint = intersection_node_probability(p, [q1, q2], n.node_id)
        p1 = node_probability(p, q1, n.node_id)
        p2 = node_probability(p, q2, n.node_id)
        assert joint * appearance == p1 * p2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_empirical_counterexample_implies_syntactic_dependence(seed):
    rng = random.Random(seed)
    q1 = random_tree_pattern(
        rng, labels=LABELS, mb_length=rng.randint(1, 2), predicate_probability=0.7
    )
    q2 = random_tree_pattern(
        rng, labels=LABELS, mb_length=rng.randint(1, 2), predicate_probability=0.7
    )
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    violated = False
    for n in list(p.ordinary_nodes())[:6]:
        appearance = p.appearance_probability(n.node_id)
        if appearance == 0:
            continue
        joint = intersection_node_probability(p, [q1, q2], n.node_id)
        p1 = node_probability(p, q1, n.node_id)
        p2 = node_probability(p, q2, n.node_id)
        if joint * appearance != p1 * p2:
            violated = True
            break
    if violated:
        assert not c_independent(q1, q2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_symmetry(seed):
    rng = random.Random(seed)
    q1 = random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 3))
    q2 = random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 3))
    assert c_independent(q1, q2) == c_independent(q2, q1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_predicate_free_always_independent(seed):
    rng = random.Random(seed)
    q1 = random_tree_pattern(
        rng, labels=LABELS, mb_length=rng.randint(1, 3), predicate_probability=0.0
    )
    q2 = random_tree_pattern(
        rng, labels=LABELS, mb_length=rng.randint(1, 3), predicate_probability=0.9
    )
    assert c_independent(q1, q2)
