"""The one-loop index walk ≡ the splice's per-node steps.

``compute_indexes`` derives structural digests, sizes, world digests
and label sets in one loop over each node's children, with per-walk
caches for repeated payloads and leaf labels.  ``splice_indexes``
rehashes ancestors with the one-sided steps ``_structural``, ``_world``
and ``_labels``.  Both must agree entry for entry, or a splice would
leave a document whose indexes differ from a cold rebuild.  Built here
node by node with those steps, the four maps must equal the walk's on
random p-documents with zero-probability edges, single-child chains,
repeated leaf labels (some holding the payload separators), and on a
5000-level chain.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import Phase, given, settings, strategies as st

from repro.pxml.pdocument import PDocument, PNode, PNodeKind
from repro.store.digest import (
    _labels,
    _structural,
    _world,
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
