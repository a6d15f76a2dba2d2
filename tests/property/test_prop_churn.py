"""Spine-only maintenance ≡ rebuilding from scratch (ISSUE-7 tentpole).

After a random sequence of node-scoped in-place mutations — probability
scalings, relabelings, fresh-subtree attachments — every derived index
spliced by ``PDocument.mark_mutated(node)`` must equal what a document
rebuilt from scratch over the same tree computes cold: structural
digests, subtree sizes, world digests, canonical anchor positions,
label sets, the identity digest — and query answers through a resident
:class:`QuerySession` (exactly on the ``exact`` backend; within ``1e-9``
*relative* error on the ``array`` backend).  Any unsound splice (a
missed ancestor, a stale sibling rank, an un-restamped node) surfaces
as a mismatch.

The ``array`` session's stacked answer plan keeps its live-spine
entries across probability-only edits and recombines only the dirty
path; streams of such edits over a wide root of isomorphic children —
over an in-memory and a write-behind SQLite store — must read exactly
what a fresh evaluation of a scratch copy reads.

Edits that move the maximal world — relabels, leaf attaches,
zero-probability flips — keep a plan only when the labels they touch
miss every lane's goal table.  Mixed streams of such edits must keep
the resident session equal to fresh exact evaluation, drop exactly the
plans whose labels an edit touched, and keep each plan's row intern
table bounded by its spine.  The root readout that ends every pinned
pass must equal possible-world enumeration, for a query selecting the
root and for a two-pattern answer too.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.registry import get_registry
from repro.prob import EvaluationEngine, QuerySession, query_answer
from repro.prob.bruteforce import (
    brute_force_intersection_node_probability,
    brute_force_query_answer,
)
from repro.prob.stacked import _INTERN_PER_SPINE
from repro.probability_array import ArrayBackend
from repro.pxml.builder import ind, mux, ordinary, pdoc
from repro.pxml.pdocument import PDocument, PNode, PNodeKind
from repro.store import InMemoryStore, SqliteStore
from repro.tp.parser import parse_pattern
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")
#: Relative error allowed between a float answer and the exact one.
REL_TOLERANCE = 1e-9

seeds = st.integers(min_value=0, max_value=10**6)

_REBUILDS = get_registry().counter("repro_pdocument_digest_rebuilds_total")


def _mutate_scoped(p: PDocument, rng: random.Random, counter) -> None:
    """One random in-place edit, marked via node-scoped mark_mutated."""
    roll = rng.random()
    distributional = p.distributional_nodes()
    ordinary_nodes = [n for n in p.ordinary_nodes()]
    if roll < 0.4 and distributional:
        node = rng.choice(distributional)
        child = rng.choice(node.children)
        assert node.probabilities is not None
        # Scaling down keeps mux sums valid; factor 1 exercises the
        # nothing-actually-changed early exit.
        node.probabilities[child.node_id] *= Fraction(
            rng.choice((1, 1, 2, 3)), 4
        )
        p.mark_mutated(node)
    elif roll < 0.7:
        node = rng.choice(ordinary_nodes)
        node.label = rng.choice(LABELS)
        p.mark_mutated(node)
    else:
        parent = rng.choice(ordinary_nodes)
        if rng.random() < 0.5:
            attached = ordinary(next(counter), rng.choice(LABELS))
        else:
            attached = ind(
                next(counter),
                (ordinary(next(counter), rng.choice(LABELS)), "0.5"),
            )
        parent.add_child(attached)
        p.mark_mutated(parent)


def _assert_close_relative(want: dict, got: dict) -> None:
    """Same answer nodes, each probability within REL_TOLERANCE of exact."""
    assert set(got) == set(want)
    for node_id, exact in want.items():
        assert abs(Fraction(got[node_id]) - exact) <= REL_TOLERANCE * exact


def _fresh_counter(p: PDocument):
    return itertools.count(max(n.node_id for n in p.nodes()) + 1)


def _assert_indexes_match_scratch(p: PDocument) -> None:
    scratch = p.subdocument(p.root.node_id)
    digests, sizes = p.structural_index()
    scratch_digests, scratch_sizes = scratch.structural_index()
    assert digests == scratch_digests
    assert sizes == scratch_sizes
    # The whole world-digest map, not only its root entry.
    assert p._indexes_now()[3] == scratch._indexes_now()[3]
    assert p.anchor_index() == scratch.anchor_index()
    assert p.label_index() == scratch.label_index()
    assert p.identity_digest() == scratch.identity_digest()


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_spine_splice_equals_scratch_rebuild(seed):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    counter = _fresh_counter(p)
    # Populate every index first so mutations exercise the splice path,
    # never the lazy full rebuild.
    p.structural_index(), p.anchor_index(), p.label_index()
    p.identity_digest()
    for _ in range(rng.randint(1, 6)):
        rebuilds = _REBUILDS.value
        _mutate_scoped(p, rng, counter)
        p.structural_index(), p.label_index(), p.identity_digest()
        # Node-scoped edits splice; they never rebuild the document.
        assert _REBUILDS.value == rebuilds
        _assert_indexes_match_scratch(p)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_resident_session_answers_match_scratch_rebuild(seed):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    counter = _fresh_counter(p)
    queries = [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 3))
        for _ in range(2)
    ]
    exact_session = QuerySession(p)
    array_session = QuerySession(p, backend="array")
    exact_session.answer_many(queries)
    array_session.answer_many(queries)
    for _ in range(rng.randint(1, 4)):
        _mutate_scoped(p, rng, counter)
        scratch = p.subdocument(p.root.node_id)
        expected = [query_answer(scratch, q) for q in queries]
        assert exact_session.answer_many(queries) == expected
        for want, got in zip(expected, array_session.answer_many(queries)):
            _assert_close_relative(want, got)
    # Every mutation was node-scoped: the sessions must have absorbed
    # them as spine refreshes, never as full resets.
    assert exact_session.stats.invalidations == 0
    assert exact_session.stats.spine_refreshes > 0


def _clone(template: PNode, counter) -> PNode:
    """An isomorphic copy of ``template`` under fresh Ids."""
    copy = PNode(next(counter), template.kind, template.label)
    for child in template.children:
        probability = (
            template.probabilities[child.node_id]
            if template.probabilities is not None
            else None
        )
        copy.add_child(_clone(child, counter), probability)
    return copy


def _wide_document(rng: random.Random) -> PDocument:
    """An ordinary root over 64–96 children cloned from a few random
    templates, so most children are isomorphic to many siblings."""
    templates = [
        random_pdocument(rng, labels=LABELS, max_depth=3, max_children=3).root
        for _ in range(rng.randint(2, 4))
    ]
    counter = itertools.count(1)
    root = ordinary(next(counter), "r")
    for _ in range(rng.randint(64, 96)):
        root.add_child(_clone(rng.choice(templates), counter))
    return pdoc(root)


def _scale_probability(p: PDocument, rng: random.Random) -> None:
    """A probability-only edit: the maximal world does not move."""
    node = rng.choice(p.distributional_nodes())
    child = rng.choice(node.children)
    node.probabilities[child.node_id] *= Fraction(rng.choice((1, 2, 3)), 4)
    p.mark_mutated(node)


@pytest.mark.parametrize("store_kind", ["memory", "sqlite"])
@settings(max_examples=12, deadline=None)
@given(seed=seeds)
def test_retained_spine_reads_equal_fresh_exact_answers(
    tmp_path_factory, store_kind, seed
):
    rng = random.Random(seed)
    p = _wide_document(rng)
    if not p.distributional_nodes():
        return
    queries = [parse_pattern("r/a"), parse_pattern("r//b")] + [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 3))
        for _ in range(2)
    ]
    for query in queries[2:]:
        query.root.label = "r"  # anchor the random patterns at the root
    if store_kind == "memory":
        store = InMemoryStore()
    else:
        path = tmp_path_factory.mktemp("spine") / "memo.sqlite"
        store = SqliteStore(str(path), write_behind=rng.choice((1, 16, 128)))
    try:
        session = QuerySession(p, backend="array", store=store)
        session.answer_many(queries)
        for _ in range(rng.randint(2, 8)):
            for _ in range(rng.randint(1, 2)):
                _scale_probability(p, rng)
            scratch = p.subdocument(p.root.node_id)
            expected = [query_answer(scratch, q) for q in queries]
            for want, got in zip(expected, session.answer_many(queries)):
                _assert_close_relative(want, got)
        assert session.stats.invalidations == 0
        assert session.stats.survived_plans > 0
        assert session.stats.spine_hits > 0
    finally:
        if store_kind == "sqlite":
            store.close()


def _delta_document(rng: random.Random, counter) -> PDocument:
    """An ordinary root over 24–64 ``a`` children — each an ``a`` over a
    ``mux`` or ``ind`` holding ``b[c]`` at a random probability, plus a
    numeric leaf no query reads — and a few numeric leaves of its own."""
    root = ordinary(next(counter), "r")
    for _ in range(rng.randint(24, 64)):
        holder = mux if rng.random() < 0.5 else ind
        kid = ordinary(next(counter), "b", ordinary(next(counter), "c"))
        root.add_child(ordinary(
            next(counter),
            "a",
            holder(next(counter), (kid, Fraction(rng.randint(1, 3), 4))),
            ordinary(next(counter), str(rng.randint(10, 99))),
        ))
    for _ in range(rng.randint(1, 3)):
        root.add_child(ordinary(next(counter), str(rng.randint(10, 99))))
    return pdoc(root)


def _delta_edit(p: PDocument, rng: random.Random, counter) -> bool:
    """One edit of a delta stream; returns whether it names the root, the
    one edit kind whose touched labels hold every query label (the
    root's whole subtree), so the plan is rebuilt.

    Probability scalings, bumps of numeric labels and numeric leaves
    attached under the root and named themselves keep the plan: the
    read after them combines the root as a delta."""
    root = p.root
    roll = rng.random()
    if roll < 0.5:
        # Mostly the first few children, so a child is dirty again while
        # its entry holds the state of the read after its last edit.
        holders = p.distributional_nodes()
        node = rng.choice(holders[:4] if rng.random() < 0.8 else holders)
        child = rng.choice(node.children)
        node.probabilities[child.node_id] *= Fraction(rng.choice((1, 2, 3)), 4)
        p.mark_mutated(node)
        return False
    if roll < 0.75:
        leaf = rng.choice([
            n for n in root.iter_subtree()
            if n.label is not None and n.label.isdigit()
        ])
        leaf.label = str(int(leaf.label) + 1)
        p.mark_mutated(leaf)
        return False
    leaves = [n for n in root.children if n.label.isdigit()]
    if roll < 0.9 or len(leaves) < 2:
        leaf = root.add_child(ordinary(next(counter), str(rng.randint(10, 99))))
        named = root if rng.random() < 0.25 else leaf
        p.mark_mutated(named)
        return named is root
    # Detach: only the still-attached parent can be named.
    leaf = rng.choice(leaves)
    root.children.remove(leaf)
    leaf.parent = None
    p.mark_mutated(root)
    return True


def _delta_session(p: PDocument, backend: str, threshold) -> QuerySession:
    if threshold is not None:
        return QuerySession(p, backend=ArrayBackend(width_threshold=threshold))
    return QuerySession(p, backend=backend)


@pytest.mark.parametrize(
    "backend,threshold",
    [("exact", None), ("array", None), ("array", 1)],
)
@settings(max_examples=12, deadline=None)
@given(seed=seeds)
def test_delta_combines_equal_a_fresh_session(backend, threshold, seed):
    # A read after 1-3 edits combines each dirty live node from its
    # previous entry: the wide root reads only its changed children,
    # through the fast path (a changed child kept its row object) or the
    # regroup (its row moved: r[.//c]/a gives the root's children rows
    # that differ with their probabilities), or in full where the root
    # itself was named or its child list changed; a lane without a
    # candidate below a dirty node keeps its row there only when no
    # changed child's row of that lane moved.  The answers must be
    # what a fresh session reads off a scratch copy.
    rng = random.Random(seed)
    counter = itertools.count(1)
    p = _delta_document(rng, counter)
    queries = [
        parse_pattern("r/a/b"),
        parse_pattern("r[.//c]/a/b"),
        parse_pattern("r//a[b/c]"),
        parse_pattern("r[a/b]//c"),
        # Selects the root alone: the a children are live for the other
        # lanes but not this one, whose rows there still move with them.
        parse_pattern("r[.//c]"),
    ]
    session = _delta_session(p, backend, threshold)
    session.answer_many(queries)
    kept = 0
    for _ in range(rng.randint(3, 8)):
        named_root = False
        for _ in range(rng.randint(1, 3)):
            named_root |= _delta_edit(p, rng, counter)
        kept += not named_root
        got = session.answer_many(queries)
        scratch = p.subdocument(p.root.node_id)
        fresh = _delta_session(scratch, backend, threshold).answer_many(queries)
        if backend == "exact":
            assert got == fresh
            continue
        for want, answer in zip(fresh, got):
            assert set(answer) == set(want)
            for node_id, value in want.items():
                assert math.isclose(
                    answer[node_id], value, rel_tol=REL_TOLERANCE
                )
    assert session.stats.invalidations == 0
    assert session.stats.survived_plans == kept


#: Labels of the mixed-stream documents: queries read only the first
#: two, so edits among the others leave every plan standing.
MIXED_LABELS = ("a", "b", "c", "x")
QUERY_LABELS = ("a", "b")


def _mixed_document(rng: random.Random) -> PDocument:
    """An ``a`` root over 8–24 children cloned from a few random
    templates over :data:`MIXED_LABELS`."""
    templates = [
        random_pdocument(
            rng, labels=MIXED_LABELS, max_depth=3, max_children=3
        ).root
        for _ in range(rng.randint(2, 3))
    ]
    counter = itertools.count(1)
    root = ordinary(next(counter), "a")
    for _ in range(rng.randint(8, 24)):
        root.add_child(_clone(rng.choice(templates), counter))
    return pdoc(root)


def _flip_zero(p: PDocument, rng: random.Random) -> None:
    """Send an edge probability to zero, or a zero one back up."""
    node = rng.choice(p.distributional_nodes())
    child = rng.choice(node.children)
    probabilities = node.probabilities
    if probabilities[child.node_id]:
        probabilities[child.node_id] = Fraction(0)
    elif node.kind is PNodeKind.IND:
        probabilities[child.node_id] = Fraction(1, 2)
    else:
        probabilities[child.node_id] = (1 - sum(probabilities.values())) / 2
    p.mark_mutated(node)


def _mixed_edit(p: PDocument, rng: random.Random, counter) -> None:
    """One edit of a mixed stream: a probability scaling, a zero flip,
    a relabel (to or from a query label, or neither), or a leaf attach
    (marked at the leaf or at its parent)."""
    roll = rng.random()
    if roll < 0.5 and p.distributional_nodes():
        if roll < 0.25:
            _scale_probability(p, rng)
        else:
            _flip_zero(p, rng)
        return
    below_root = [n for n in p.ordinary_nodes() if n is not p.root]
    if roll < 0.75:
        node = rng.choice(below_root)
        node.label = rng.choice(MIXED_LABELS)
        p.mark_mutated(node)
        return
    parent = rng.choice(below_root)
    leaf = parent.add_child(ordinary(next(counter), rng.choice(MIXED_LABELS)))
    p.mark_mutated(leaf if rng.random() < 0.5 else parent)


@pytest.mark.parametrize("backend", ["exact", "array"])
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_mixed_edit_streams_keep_exactly_the_untouched_plans(backend, seed):
    rng = random.Random(seed)
    p = _mixed_document(rng)
    counter = _fresh_counter(p)
    queries = [
        random_tree_pattern(
            rng, labels=QUERY_LABELS, mb_length=rng.randint(1, 3)
        )
        for _ in range(rng.randint(2, 3))
    ]
    table = frozenset(u.label for q in queries for u in q.root.iter_subtree())
    session = QuerySession(p, backend=backend)
    session.answer_many(queries)
    plan_key = ("answer", tuple(map(id, queries)))

    def plan():
        entry = session._stacked.get(plan_key)
        return None if entry is None else entry[1]

    kept = 0
    for _ in range(rng.randint(4, 10)):
        before, epoch = plan(), p.mutation_epoch
        for _ in range(rng.randint(1, 2)):
            _mixed_edit(p, rng, counter)
        _, world_changed = p.dirty_since(epoch)
        touched = p.dirty_labels_since(epoch)
        got = session.answer_many(queries)
        scratch = p.subdocument(p.root.node_id)
        expected = [query_answer(scratch, q) for q in queries]
        if backend == "exact":
            assert got == expected
            continue
        for want, answer in zip(expected, got):
            _assert_close_relative(want, answer)
        touches = world_changed and (
            touched is None or not touched.isdisjoint(table)
        )
        after = plan()
        assert (after is before) is not touches
        kept += after is before
        assert len(after.interned) <= _INTERN_PER_SPINE * len(after.spine)
    assert session.stats.invalidations == 0
    if backend == "array":
        assert session.stats.survived_plans == kept


def _positive(answer: dict) -> dict:
    return {node_id: pr for node_id, pr in answer.items() if pr > 0}


@pytest.mark.parametrize("backend", ["exact", "array"])
@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_root_readout_equals_possible_worlds(backend, seed):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=3, max_children=2)
    queries = [parse_pattern(p.root.label)] + [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 3))
        for _ in range(2)
    ]
    wanted = [_positive(brute_force_query_answer(p, q)) for q in queries]
    # The single-node pattern selects the root with certainty.
    assert wanted[0] == {p.root.node_id: 1}
    q1, q2 = queries[1], random_tree_pattern(
        rng, labels=LABELS, mb_length=queries[1].main_branch_length()
    )
    joint = _positive({
        n.node_id: brute_force_intersection_node_probability(
            p, [q1, q2], n.node_id
        )
        for n in p.ordinary_nodes()
    })
    got = [query_answer(p, q, backend=backend) for q in queries]
    got += QuerySession(p, backend=backend).answer_many(queries)
    got.append(EvaluationEngine(p, [q1, q2], backend=backend).answer())
    for want, answer in zip(wanted + wanted + [joint], got):
        if backend == "exact":
            assert answer == want
        else:
            _assert_close_relative(want, answer)
