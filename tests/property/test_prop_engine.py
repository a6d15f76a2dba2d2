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
    brute_force_query_answer,
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
from repro.tp.pattern import Axis
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


def _live_goals(patterns) -> tuple[int, dict]:
    """The one live goal bit per pattern node, numbered ``1 << i`` in
    pattern order: ``(bits that propagate upward, label -> bits)``.
    Only a ``//`` child's bit propagates; the root's and every ``/``
    child's bit are read one level up and stop there."""
    propagating = 0
    by_label: dict = {}
    nodes = [u for q in patterns for u in q.root.iter_subtree()]
    for index, u in enumerate(nodes):
        bit = 1 << index
        if u.parent is not None and u.axis is Axis.DESC:
            propagating |= bit
        by_label[u.label] = by_label.get(u.label, 0) | bit
    return propagating, by_label


def _top_labels(node, memo: dict) -> frozenset:
    """The labels of the ordinary nodes a row at ``node`` speaks for:
    its own, or its children's through distributional nodes."""
    labels = memo.get(node.node_id)
    if labels is None:
        if node.label is not None:
            labels = frozenset((node.label,))
        else:
            labels = frozenset().union(
                *(_top_labels(child, memo) for child in node.children)
            )
        memo[node.node_id] = labels
    return labels


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_rows_carry_only_live_goal_bits(seed):
    # Mixed-axis shapes (FIXED_PATTERNS) and random patterns: every mask
    # of every blocked, pinned and unpinned row holds only the bits that
    # propagate plus the match bits of the node's own label(s).
    rng = random.Random(seed)
    p = random_pdocument(
        rng, labels=LABELS, max_depth=rng.randint(1, 3), max_children=2
    )
    patterns = _draw_patterns(rng)
    engine = EvaluationEngine(p, patterns)
    rows = []
    combine_pinned = engine.combine_pinned
    combine_row = engine.combine_row

    def spy_pinned(node, entries, candidate_set, exact_below=True):
        result = combine_pinned(node, entries, candidate_set, exact_below)
        rows.append((node, result[0]))
        if node.parent is not None:  # the root's pins are its readout
            rows.extend((node, pin) for pin in result[1].values())
        return result

    def spy_row(node, memo, gate, exact_below=True):
        row = combine_row(node, memo, gate, exact_below)
        rows.append((node, row))
        return row

    engine.combine_pinned = spy_pinned
    engine.combine_row = spy_row
    answer = engine.answer()
    engine.match_probability()
    propagating, by_label = _live_goals(patterns)
    memo: dict = {}
    for node, row in rows:
        live = propagating
        for label in _top_labels(node, memo):
            live |= by_label.get(label, 0)
        assert all(mask & ~live == 0 for mask in row), (node.node_id, row)
    if len({id(q) for q in patterns}) == 1:
        assert answer == brute_force_query_answer(p, patterns[0])
    for q in patterns:
        assert query_answer(p, q) == brute_force_query_answer(p, q)
