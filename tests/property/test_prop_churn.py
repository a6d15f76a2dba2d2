"""Spine-only maintenance ≡ rebuilding from scratch (ISSUE-7 tentpole).

After a random sequence of node-scoped in-place mutations — probability
scalings, relabelings, fresh-subtree attachments — every derived index
spliced by ``PDocument.mark_mutated(node)`` must equal what a document
rebuilt from scratch over the same tree computes cold: structural
digests, subtree sizes, world digests, canonical anchor positions,
label sets, the identity digest — and query answers through a resident
:class:`QuerySession` (exactly on the ``exact`` backend; within ``1e-9``
on the ``array`` backend).  Any unsound splice (a missed ancestor, a
stale sibling rank, an un-restamped node) surfaces as a mismatch.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.obs.registry import get_registry
from repro.prob import QuerySession, query_answer
from repro.pxml.builder import ind, ordinary
from repro.pxml.pdocument import PDocument
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9

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
            keys = set(want) | {k for k, v in got.items() if float(v) > 1e-12}
            for k in keys:
                assert abs(float(got.get(k, 0.0)) - float(want.get(k, 0))) < (
                    TOLERANCE
                )
    # Every mutation was node-scoped: the sessions must have absorbed
    # them as spine refreshes, never as full resets.
    assert exact_session.stats.invalidations == 0
    assert exact_session.stats.spine_refreshes > 0
