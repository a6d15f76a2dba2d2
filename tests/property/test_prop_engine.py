"""Property tests for the single-pass engine and its numeric backends.

Three invariants on random p-documents and patterns:

* the single-pass engine (all candidates in one traversal) agrees
  *exactly* with the per-candidate anchored DP (``node_probability``);
* the ``array`` float backend agrees with ``exact`` within ``1e-9``;
* the one-walk candidate discovery (``candidate_sets``) equals the
  per-query deterministic evaluation over the maximal world, also when
  deep label-disjoint subtrees (which the walk skips) hang off it.
"""

import itertools
import math
import random

from hypothesis import given, settings, strategies as st

from repro.prob import (
    EvaluationEngine,
    intersection_node_probability,
    node_probability,
    query_answer,
)
from repro.prob.engine import (
    boolean_probability,
    candidate_sets,
    intersection_answer,
)
from repro.pxml.builder import ind, ordinary
from repro.tp.embedding import evaluate
from repro.tp.parser import parse_pattern
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
    fast = query_answer(p, q, backend="array")
    assert set(fast) == set(exact)
    for node_id, value in exact.items():
        assert math.isclose(fast[node_id], float(value), rel_tol=TOLERANCE)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fast_boolean_probability_agrees(seed):
    p, q = make_instance(seed)
    exact = boolean_probability(p, q)
    fast = boolean_probability(p, q, backend="array")
    assert math.isclose(fast, float(exact), rel_tol=TOLERANCE)


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


# Fixed shapes the random generator rarely or never builds: ``//``
# chains, branching predicates, predicates under predicates, repeated
# labels along one branch, and a root label that never matches.
FIXED_PATTERNS = (
    "a//b//c",
    "a//a//a",
    "a/b[c][//a]/b",
    "a[b[c][.//b]]//c",
    "a//b[.//c/a]",
    "b//c",
    "a",
)


def _draw_patterns(rng: random.Random) -> list:
    patterns = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if patterns and roll < 0.2:
            patterns.append(rng.choice(patterns))  # the same object twice
        elif roll < 0.4:
            patterns.append(parse_pattern(rng.choice(FIXED_PATTERNS)))
        else:
            # A shuffled label tuple moves the root label (mismatches).
            labels = rng.sample(LABELS, len(LABELS)) if roll < 0.6 else LABELS
            patterns.append(
                random_tree_pattern(
                    rng,
                    labels=labels,
                    mb_length=rng.randint(1, 4),
                    desc_probability=rng.choice((0.3, 0.8)),
                    max_predicate_size=rng.randint(1, 3),
                )
            )
    return patterns


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_candidate_sets_equal_per_query_max_world_oracle(seed):
    rng = random.Random(seed)
    p = random_pdocument(
        rng, labels=LABELS, max_depth=rng.randint(1, 5), max_children=3
    )
    patterns = _draw_patterns(rng)
    world = p.max_world()
    assert candidate_sets(p, patterns) == [evaluate(q, world) for q in patterns]


#: Labels no pattern uses: subtrees over them alone are label-disjoint.
FOREIGN = ("x", "y")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_candidate_sets_skip_label_disjoint_subtrees_soundly(seed):
    # Deep chains over foreign labels hang off random nodes.  Most are
    # label-disjoint from every pattern (the walks skip them); the others
    # end in a pattern label, so a foreign-looking prefix must still be
    # entered.
    rng = random.Random(seed)
    p = random_pdocument(
        rng, labels=LABELS, max_depth=rng.randint(1, 4), max_children=3
    )
    counter = itertools.count(max(n.node_id for n in p.nodes()) + 1)
    for _ in range(rng.randint(1, 4)):
        parent = rng.choice(p.ordinary_nodes())
        node = ordinary(next(counter), rng.choice(FOREIGN * 2 + LABELS))
        for _ in range(rng.randint(5, 60)):
            if rng.random() < 0.3:
                node = ind(next(counter), (node, "0.5"))
            node = ordinary(next(counter), rng.choice(FOREIGN), node)
        parent.add_child(node)
        p.mark_mutated(parent)
    patterns = _draw_patterns(rng)
    world = p.max_world()
    assert candidate_sets(p, patterns) == [evaluate(q, world) for q in patterns]
