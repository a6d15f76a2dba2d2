"""Property tests: the goal-set DP equals the possible-world semantics."""

import random

from hypothesis import given, settings, strategies as st

from repro.prob import (
    boolean_probability,
    brute_force_boolean_probability,
    brute_force_query_answer,
    intersection_node_probability,
    query_answer,
)
from repro.prob.bruteforce import brute_force_intersection_node_probability
from repro.pxml.worlds import enumerate_worlds
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")


def make_instance(seed: int):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    q = random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 3))
    return p, q


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_query_answer_matches_brute_force(seed):
    p, q = make_instance(seed)
    assert query_answer(p, q) == brute_force_query_answer(p, q)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_boolean_probability_matches_brute_force(seed):
    p, q = make_instance(seed)
    assert boolean_probability(p, q) == brute_force_boolean_probability(p, q)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_intersection_matches_brute_force(seed):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    q1 = random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 2))
    q2 = random_tree_pattern(rng, labels=LABELS, mb_length=q1.main_branch_length())
    for n in list(p.ordinary_nodes())[:6]:
        expected = brute_force_intersection_node_probability(p, [q1, q2], n.node_id)
        got = intersection_node_probability(p, [q1, q2], n.node_id)
        assert got == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_worlds_form_probability_space(seed):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    worlds = enumerate_worlds(p)
    assert sum(pr for _, pr in worlds) == 1
    assert all(pr > 0 for _, pr in worlds)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_appearance_probability_matches_worlds(seed):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    worlds = enumerate_worlds(p)
    for n in list(p.ordinary_nodes())[:5]:
        from_worlds = sum(
            pr for world, pr in worlds if world.has_node(n.node_id)
        )
        assert p.appearance_probability(n.node_id) == from_worlds
