"""The one-loop index walk ≡ the splice's per-node steps ≡ kept entries.

``compute_indexes`` derives structural digests, sizes, world digests
and label sets in one loop over each node's children, with per-walk
caches for repeated payloads and leaf labels.  ``splice_indexes``
builds an ancestor it has not kept from the one-sided steps
``_structural``, ``_world`` and ``_labels`` use, then keeps its sorted
child entries and label counts and updates them, one bisect per spine
step, on every later splice through it.  All must agree entry for
entry, or a splice would leave a document whose indexes differ from a
cold rebuild.  Built here node by node with those steps, the four maps
must equal the walk's on random p-documents with zero-probability
edges, single-child chains, repeated leaf labels (some holding the
payload separators), and on a 5000-level chain.  Streams of 20–40
edits through ``PDocument.mark_mutated`` — relabels, probability
scalings and flips to 0, named leaf attaches, detaches naming the
parent, edits at the root — must leave the maps equal to a cold walk
after every edit, on random documents and under a 2,048-child root.  A
kept list that lost an entry, or label counts that lost a label, are
rebuilt by the next splice through their node.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.obs.trace import capture
from repro.pxml.pdocument import PDocument, PNode, PNodeKind
from repro.store.digest import (
    _entries,
    _labels,
    _structural,
    _world,
    _world_entries,
    compute_indexes,
    splice_indexes,
)

#: Few labels, so leaves repeat; two hold the payload separators.
LABELS = ("a", "b", "c", "a\x1fb", "c\x1e")
PROBABILITIES = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
CHAIN_LEVELS = 5000

seeds = st.integers(min_value=0, max_value=10**6)


def _stepwise_indexes(root) -> tuple[dict, dict, dict, dict]:
    """The four maps from the splice's steps, one node at a time."""
    digests, sizes, worlds, labels = {}, {}, {}, {}
    order = [root]
    for node in order:
        order.extend(node.children)
    for node in reversed(order):
        node_id = node.node_id
        digests[node_id], sizes[node_id] = _structural(node, digests, sizes)
        worlds[node_id] = _world(node, worlds)
        labels[node_id] = _labels(node, labels)
    return digests, sizes, worlds, labels


def _attach(rng, parent: PNode, child: PNode) -> None:
    """Attach ``child``; a mux keeps its probabilities summing to ≤ 1."""
    probability = None
    if parent.probabilities is not None:
        probability = rng.choice(PROBABILITIES)
        if parent.kind is PNodeKind.MUX:
            room = 1 - sum(parent.probabilities.values())
            probability = min(probability, room)
    parent.add_child(child, probability)


def _random_pdocument(rng, nodes: int) -> PDocument:
    """A random p-document of ``nodes`` nodes, grown without recursion.

    Each node hangs under the latest node (30% of the time, growing
    single-child chains) or a random earlier one (growing fanouts);
    distributional nodes get at least one child before the document is
    closed.
    """
    counter = itertools.count()
    root = PNode(next(counter), PNodeKind.ORDINARY, rng.choice(LABELS))
    grown = [root]
    for _ in range(nodes - 1):
        if rng.random() < 0.3:
            parent = grown[-1]  # extend a chain
        else:
            parent = rng.choice(grown)
        if rng.random() < 0.2 and parent.probabilities is None:
            kind = rng.choice((PNodeKind.MUX, PNodeKind.IND))
            child = PNode(next(counter), kind)
        else:
            label = rng.choice(LABELS)
            child = PNode(next(counter), PNodeKind.ORDINARY, label)
        _attach(rng, parent, child)
        grown.append(child)
    for node in grown:
        if node.probabilities is not None and not node.children:
            leaf = PNode(next(counter), PNodeKind.ORDINARY, rng.choice(LABELS))
            _attach(rng, node, leaf)
    return PDocument(root)


def _chain(rng, levels: int) -> PDocument:
    """A ``levels``-deep chain: ordinary links, some behind a mux or ind
    edge (some of probability 0), each with a random leaf now and then."""
    counter = itertools.count()
    root = PNode(next(counter), PNodeKind.ORDINARY, "a")
    node = root
    for _ in range(levels):
        if rng.random() < 0.5:
            kind = rng.choice((PNodeKind.MUX, PNodeKind.IND))
            gate = PNode(next(counter), kind)
            _attach(rng, node, gate)
            node = gate
        link = PNode(next(counter), PNodeKind.ORDINARY, rng.choice(LABELS))
        _attach(rng, node, link)
        if rng.random() < 0.2:
            leaf = PNode(next(counter), PNodeKind.ORDINARY, rng.choice(LABELS))
            _attach(rng, link, leaf)
        node = link
    return PDocument(root)


def _assert_walk_matches_steps(p: PDocument) -> None:
    walked = compute_indexes(p.root)
    stepped = _stepwise_indexes(p.root)
    for walked_map, stepped_map in zip(walked, stepped):
        assert walked_map == stepped_map
    # Label sets are interned: equal sets are one object.
    label_sets = walked[3].values()
    assert len({id(s) for s in label_sets}) == len(set(label_sets))


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=120))
def test_walk_equals_stepwise_on_random_documents(seed, nodes):
    _assert_walk_matches_steps(_random_pdocument(random.Random(seed), nodes))


# A seed has no smaller form worth finding, and each deep example costs
# a second: report the first failing seed without shrinking.
@settings(max_examples=3, deadline=None, phases=(Phase.reuse, Phase.generate))
@given(seeds)
def test_walk_equals_stepwise_on_deep_chain(seed):
    p = _chain(random.Random(seed), CHAIN_LEVELS)
    _assert_walk_matches_steps(p)
    assert p.subtree_size(p.root.node_id) == len(list(p.nodes()))


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=80))
def test_splice_after_edit_equals_walk(seed, nodes):
    """A zero-probability flip or relabel, spliced in, equals a cold walk."""
    rng = random.Random(seed)
    p = _random_pdocument(rng, nodes)
    maps = compute_indexes(p.root)
    node = rng.choice(list(p.nodes()))
    if node.probabilities is not None:
        child = rng.choice(node.children)
        node.probabilities[child.node_id] = Fraction(0)
    else:
        node.label = rng.choice(LABELS)
    splice_indexes(node, *maps)
    assert maps == compute_indexes(p.root)


def _edit(rng, p: PDocument, counter, root_share: float) -> PNode:
    """One random in-place edit, named as ``mark_mutated`` asks: at the
    root (with probability ``root_share``), a probability scaling or
    flip to 0, a relabel, a leaf attach naming the leaf, or a detach
    naming the parent.  Returns the named node."""
    nodes = list(p.root.iter_subtree())
    distributional = [n for n in nodes if n.probabilities is not None]
    roll = rng.random()
    if roll < root_share:
        root = p.root
        if rng.random() < 0.5:
            root.label = rng.choice(LABELS)
        else:
            leaf = PNode(next(counter), PNodeKind.ORDINARY, rng.choice(LABELS))
            root.add_child(leaf)
        p.mark_mutated(root)
        return root
    roll = rng.random()
    if roll < 0.3 and distributional:
        node = rng.choice(distributional)
        child_id = rng.choice(node.children).node_id
        if rng.random() < 0.3:
            node.probabilities[child_id] = Fraction(0)
        else:
            node.probabilities[child_id] *= Fraction(rng.choice((1, 2, 3)), 4)
        p.mark_mutated(node)
        return node
    if roll < 0.55:
        node = rng.choice([n for n in nodes if n.probabilities is None])
        node.label = rng.choice(LABELS)
        p.mark_mutated(node)
        return node
    removable = [
        n for n in nodes
        if n.parent is not None
        and (n.parent.probabilities is None or len(n.parent.children) > 1)
    ]
    if roll < 0.8 or not removable:
        leaf = PNode(next(counter), PNodeKind.ORDINARY, rng.choice(LABELS))
        _attach(rng, rng.choice(nodes), leaf)
        p.mark_mutated(leaf)
        return leaf
    child = rng.choice(removable)
    parent = child.parent
    parent.children.remove(child)
    if parent.probabilities is not None:
        del parent.probabilities[child.node_id]
    child.parent = None
    p.mark_mutated(parent)
    return parent


def _assert_maps_equal_walk(p: PDocument) -> None:
    """The spliced maps equal a cold walk on every attached node.

    A detached subtree stays registered with the document, and its
    entries stay in the maps: only ids the walk no longer reaches may
    be extra.
    """
    assert p._indexes[0] == p.mutation_epoch  # spliced, not rebuilt
    spliced = p._indexes[1:5]
    walked = compute_indexes(p.root)
    for spliced_map, walked_map in zip(spliced, walked):
        assert {k: spliced_map[k] for k in walked_map} == walked_map
        stale = spliced_map.keys() - walked_map.keys()
        assert not any(p.is_ancestor_or_self(p.root.node_id, k) for k in stale)


def _edit_stream(rng, p: PDocument, edits: int, root_share: float) -> int:
    """Apply ``edits`` random edits, checking the maps after each one.

    An edit that does not name the root keeps the root's kept entries
    (the same object, updated in place).  Returns how many edits did.
    """
    counter = itertools.count(max(n.node_id for n in p.nodes()) + 1)
    p.structural_index()
    reused = 0
    root_id = p.root.node_id
    for _ in range(edits):
        before = p._indexes[5].get(root_id)
        named = _edit(rng, p, counter, root_share)
        _assert_maps_equal_walk(p)
        if before is not None and named is not p.root:
            assert p._indexes[5][root_id] is before
            reused += 1
    return reused


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=120))
def test_edit_stream_keeps_maps_equal_to_walk(seed, nodes):
    """Each edit reaches kept entries that earlier edits left."""
    rng = random.Random(seed)
    p = _random_pdocument(rng, nodes)
    _edit_stream(rng, p, rng.randint(20, 40), root_share=0.1)


def _wide_root(rng, children: int) -> PDocument:
    """An ordinary root over ``children`` small subtrees: ordinary nodes
    over a leaf, muxes and inds over one or two leaves."""
    counter = itertools.count()
    root = PNode(next(counter), PNodeKind.ORDINARY, "r")
    for _ in range(children):
        if rng.random() < 0.5:
            child = PNode(next(counter), PNodeKind.ORDINARY, rng.choice(LABELS))
        else:
            child = PNode(
                next(counter), rng.choice((PNodeKind.MUX, PNodeKind.IND))
            )
        root.add_child(child)
        for _ in range(rng.randint(1, 2)):
            leaf = PNode(next(counter), PNodeKind.ORDINARY, rng.choice(LABELS))
            _attach(rng, child, leaf)
    return PDocument(root)


def test_edit_stream_under_a_wide_root():
    rng = random.Random(2048)
    p = _wide_root(rng, 2048)
    # Detaches of the root's children name the root.
    assert _edit_stream(rng, p, 50, root_share=0.04) >= 30


def _lettered_root(children: int) -> PDocument:
    """Root ``r`` over ``children`` distinct persons: child ``i`` is an
    ordinary ``a`` over a mux over leaf ``l<i>``."""
    counter = itertools.count(1)
    root = PNode(0, PNodeKind.ORDINARY, "r")
    for i in range(children):
        child = root.add_child(PNode(next(counter), PNodeKind.ORDINARY, "a"))
        gate = child.add_child(PNode(next(counter), PNodeKind.MUX))
        gate.add_child(
            PNode(next(counter), PNodeKind.ORDINARY, f"l{i}"), Fraction(1, 2)
        )
    return PDocument(root)


def _splice_rebuilt(p: PDocument, node: PNode) -> int:
    with capture() as cap:
        p.mark_mutated(node)
    (span,) = cap.spans
    return span.attrs["entries_rebuilt"]


@pytest.mark.parametrize(
    "side,target",
    [
        ("entries", "edited child"),
        ("entries", "other child"),
        ("world_entries", "edited child"),
        ("world_entries", "other child"),
        ("counts", "edited child"),
    ],
)
def test_perturbed_kept_state_is_rebuilt(side, target):
    """Drop one entry of a root's kept list, or from its counts a label
    the edited child loses; the next splice through the root rebuilds
    it and still matches the walk.  (Counts are read only when a count
    crosses 0, so only a label the edit moves is checked.)"""
    width = 64
    p = _lettered_root(width)
    p.structural_index()
    first = p.root.children[0].children[0]
    first.probabilities[first.children[0].node_id] /= 2
    p.mark_mutated(first)  # keeps the root's entries
    kept = p._indexes[5][p.root.node_id]
    edited = p.root.children[1]
    victim = edited if target == "edited child" else p.root.children[2]
    leaf = victim.children[0].children[0]
    if side == "counts":
        del kept.counts[leaf.label]
    else:
        digests, worlds = p._indexes[1], p._indexes[3]
        entry = (digests if side == "entries" else worlds)[victim.node_id]
        getattr(kept, side).remove(entry)
    # A relabel moves both sides; a scaling only the structural one.
    edited_leaf = edited.children[0].children[0]
    if side == "entries":
        gate = edited.children[0]
        gate.probabilities[edited_leaf.node_id] /= 2
        rebuilt = _splice_rebuilt(p, gate)
    else:
        edited_leaf.label = "z"
        rebuilt = _splice_rebuilt(p, edited_leaf)
    assert rebuilt >= width
    _assert_maps_equal_walk(p)
    digests, worlds = p._indexes[1], p._indexes[3]
    assert kept.entries == _entries(p.root, digests)
    assert kept.world_entries == _world_entries(p.root, worlds)
    # Unperturbed, the next splice builds only the fresh child's state.
    third = p.root.children[3].children[0]
    third.probabilities[third.children[0].node_id] /= 2
    assert _splice_rebuilt(p, third) < width
    _assert_maps_equal_walk(p)
