"""Property tests: probabilistic rewritings recover exact ground truth.

For random p-documents and (query, view) pairs where ``TPrewrite`` builds a
plan, the plan — evaluated against the *view extension only* — must equal the
direct evaluation of the query on the p-document.  This is Definition 4
verified end-to-end, and it exercises Theorem 1 (restricted) and Theorem 2
(inclusion-exclusion with α-patterns) on thousands of node probabilities.
"""

import itertools
import math
import random

from hypothesis import example, given, settings, strategies as st

from repro.prob import query_answer
from repro.probability import get_backend
from repro.rewrite import probabilistic_tp_plan
from repro.tp import ops, parse_pattern
from repro.views import View, probabilistic_extension
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_prefix_view_plans_are_exact(seed):
    rng = random.Random(seed)
    q = random_tree_pattern(
        rng, labels=LABELS, mb_length=rng.randint(2, 3), predicate_probability=0.4
    )
    k = rng.randint(1, q.main_branch_length())
    view = View("v", ops.prefix(q, k))
    plan = probabilistic_tp_plan(q, view)
    if plan is None:
        return
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    ext = probabilistic_extension(p, view)
    assert plan.evaluate(ext) == query_answer(p, q)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_view_plans_are_exact(seed):
    rng = random.Random(seed)
    q = random_tree_pattern(
        rng, labels=LABELS, mb_length=rng.randint(1, 3), predicate_probability=0.5
    )
    v = random_tree_pattern(
        rng, labels=LABELS, mb_length=rng.randint(1, 3), predicate_probability=0.3
    )
    plan = probabilistic_tp_plan(q, View("v", v))
    if plan is None:
        return
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    ext = probabilistic_extension(p, View("v", v))
    assert plan.evaluate(ext) == query_answer(p, q)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_unrestricted_nested_images_exact(seed):
    """Deep chains with nested view images force the inclusion-exclusion
    machinery (multiple selected ancestors, joint α-events)."""
    rng = random.Random(seed)
    q = parse_pattern("a//b/c//d")
    view = View("v", parse_pattern("a//b/c"))
    plan = probabilistic_tp_plan(q, view)
    assert plan is not None and not plan.restricted
    p = random_pdocument(
        rng, labels=("a", "b", "c", "d"), max_depth=5, max_children=2
    )
    ext = probabilistic_extension(p, view)
    assert plan.evaluate(ext) == query_answer(p, q)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_prefix_suffix_token_views_exact(seed):
    """Views whose last token has a non-trivial prefix-suffix (u ≥ 1)."""
    rng = random.Random(seed)
    q = parse_pattern("a//b/c/b/c//d")
    view = View("v", parse_pattern("a//b/c/b/c"))
    plan = probabilistic_tp_plan(q, view)
    assert plan is not None and plan.u == 2
    p = random_pdocument(
        rng, labels=("a", "b", "c", "d"), max_depth=6, max_children=2,
        distributional_bias=0.4,
    )
    ext = probabilistic_extension(p, view)
    assert plan.evaluate(ext) == query_answer(p, q)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(seed=841413)  # a float selection probability of 1 + 2⁻⁵²
def test_fast_backend_restricted_plans_agree_with_exact(seed):
    """The cache's float backend (``array``) flows through Theorem 1's
    quotients."""
    rng = random.Random(seed)
    q = random_tree_pattern(
        rng, labels=LABELS, mb_length=rng.randint(2, 3), predicate_probability=0.4
    )
    k = rng.randint(1, q.main_branch_length())
    view = View("v", ops.prefix(q, k))
    plan = probabilistic_tp_plan(q, view, backend="array")
    if plan is None:
        return
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    fast = plan.evaluate(probabilistic_extension(p, view, backend="array"))
    exact = query_answer(p, q)
    assert set(fast) == set(exact)
    for node_id in exact:
        assert math.isclose(fast[node_id], float(exact[node_id]), rel_tol=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fast_backend_inclusion_exclusion_agrees_with_exact(seed):
    """... and through Theorem 2's α-pattern inclusion-exclusion."""
    rng = random.Random(seed)
    q = parse_pattern("a//b/c//d")
    view = View("v", parse_pattern("a//b/c"))
    plan = probabilistic_tp_plan(q, view, backend="array")
    assert plan is not None and not plan.restricted
    p = random_pdocument(
        rng, labels=("a", "b", "c", "d"), max_depth=5, max_children=2
    )
    fast = plan.evaluate(probabilistic_extension(p, view, backend="array"))
    exact = query_answer(p, q)
    assert set(fast) == set(exact)
    for node_id in exact:
        assert math.isclose(fast[node_id], float(exact[node_id]), rel_tol=1e-9)


def _nested_holder_pdocument(rng, max_depth=5):
    """Random ``b``/``c`` trees under an ``r`` root, half the edges ``ind``:
    ``r//b`` selects ``b`` nodes below other ``b`` nodes, so the ``c``
    answers of ``r//b/c`` have one copy per ``b`` ancestor."""
    from repro.pxml import ind, ordinary, pdoc

    counter = itertools.count(1)

    def build(depth):
        children = []
        if depth < max_depth:
            for _ in range(rng.randint(1, 2)):
                child = build(depth + 1)
                if rng.random() < 0.5:
                    child = ind(
                        next(counter), (child, rng.choice(["0.25", "0.5", "0.75"]))
                    )
                children.append(child)
        return ordinary(next(counter), rng.choice("bc"), *children)

    return pdoc(ordinary(0, "r", build(1), build(1)))


def _anchored_lane_oracle(plan, ext):
    """Theorem 1 the per-candidate way: one anchored ``boolean_many`` lane
    per candidate for the numerators, ``_denominator`` per holder."""
    from repro.prob import QuerySession

    backend = get_backend(plan.backend)
    candidates = plan._candidates(ext)
    numerators = QuerySession(ext.pdocument, backend=plan.backend).boolean_many(
        [(plan.qr, {plan.qr.out: ext.occurrence_copies(n)}) for n in candidates]
    )
    answer = {}
    for node_id, numerator in zip(candidates, numerators):
        holders = ext.selected_ancestors_or_self(node_id)
        n_a = plan._relevant_holder(ext, node_id, holders)
        if n_a is None:
            continue
        denominator = plan._denominator(ext, n_a, backend)
        if denominator and numerator / denominator > 0:
            answer[node_id] = numerator / denominator
    return answer


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_nested_holder_copies_union_exactly(seed):
    """Theorem 1 with multi-copy candidates: the one-pass numerators
    (independent union over an original's copies) match direct
    evaluation, the per-candidate anchored oracle, and — within 1e-9
    relative error, without flipping any answer in or out — the float
    backend."""
    rng = random.Random(seed)
    q = parse_pattern("r//b/c")
    view = View("v", parse_pattern("r//b"))
    p = _nested_holder_pdocument(rng)
    plan = probabilistic_tp_plan(q, view)
    assert plan is not None and plan.restricted
    ext = probabilistic_extension(p, view)
    exact = plan.evaluate(ext)
    assert exact == query_answer(p, q)
    assert exact == _anchored_lane_oracle(plan, ext)
    plan = probabilistic_tp_plan(q, view, backend="array")
    got = plan.evaluate(probabilistic_extension(p, view, backend="array"))
    assert set(got) == set(exact)
    for node_id, want in exact.items():
        assert abs(got[node_id] - float(want)) <= 1e-9 * float(want)
