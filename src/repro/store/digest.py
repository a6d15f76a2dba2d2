"""Canonical Merkle digests for p-document subtrees, from one loop.

**Structural digests.**  The structural digest of a subtree is a
Merkle-style hash over everything the goal-set dynamic program of
:mod:`repro.prob.engine` reads below a node: the node kind, its label
(for ordinary nodes), and — recursively — the digests of its children
paired with their edge probabilities (for distributional nodes).
Children are hashed as a *sorted multiset*: p-documents are unordered
and every combine step of the DP (union convolution, ind mixtures, mux
sums) is commutative, so two subtrees with equal digests produce
identical blocked / unpinned distributions for any goal table
restricted to their labels.  That is the soundness argument behind
content-addressed memo sharing (compare the structure-based
tractability results of Amarilli et al. on treelike uncertain data):
work is keyed by subtree *shape*, not by node identity, so isomorphic
subtrees — within one document, between a document and its
probabilistic extensions, or across process restarts — share one
evaluation.

**World digests.**  The second Merkle digest is Id-*aware* and
probability-*free*: it hashes each node's Id, kind and label with its
children's sorted world digests, and flags zero-probability edges with
``:0`` — edge masses otherwise never enter it.  It keys exactly what
candidate sets depend on: they are ``q(max world)``, so they name node
Ids and follow the maximal world's shape, but not edge probabilities
(compare Amarilli's possibility-problem analysis, arXiv:1404.3131).
The root's world digest is the document's identity digest
(:meth:`repro.pxml.pdocument.PDocument.identity_digest`), under which
candidate sets are cached — isomorphic documents with different Id
assignments never share it.  At a spliced node it answers whether a
mutation moved the maximal world: a probability-only edit changes every
structural digest on its spine but no world digest, so sessions keep
their candidate caches and stacked batch plans warm.  An edit that does
move it also reports the labels its subtree held before and after, so
sessions keep the plans of queries that read none of them.  Its ``world:``
payload prefix keeps it apart from every structural digest, and from
candidate keys that store files hold under the earlier ``id:``
identity payload.

:func:`compute_indexes` derives, in one iterative post-order loop that
reads each node's children once, the structural digest, subtree size,
world digest and interned label set of every node; a per-walk cache
keyed by label resolves each ordinary leaf's structural digest, label
set and world-payload tail, so a leaf costs one hash.  The results live
in the owning document's epoch-tagged cache — there are no per-node
stamps — and are rebuilt lazily after a whole-document
:meth:`PDocument.mark_all_mutated`; a *node-scoped*
:meth:`PDocument.mark_mutated` instead calls :func:`splice_indexes`,
which re-derives the mutated subtree with the same walk and then
rehashes the ancestor chain one side at a time, with separate early
exits for the structural and the world side.  Each ancestor it rehashes
keeps its children's sorted structural and world entries and a count of
each label over their label sets; a later splice through it swaps the
changed child's entry with one bisect and rebuilds the label set only
when a count reaches or leaves 0.  A kept list whose old entry is
missing, or whose length does not match the child count, is rebuilt
from the children (as :func:`_structural`, :func:`_world` and
:func:`_labels` build a node from scratch, formatting the same payload
constants).  What stays O(fan-out) per rehashed ancestor is one join and
one hash of its payload; removing it needs a chunked digest format, a
store-schema change.  This
module is deliberately ignorant of the pxml classes — it reads
``node_id`` / ``kind`` / ``label`` / ``children`` / ``probabilities`` /
``parent`` duck-typed, so the store package never imports the document
layer.

**Canonical anchor positions.**  :func:`compute_positions` derives, from
the structural digests, a canonical *rank path* for every node: at each
parent the children are ordered by their digest sort key (the digest
alone for ordinary parents; ``(digest, edge probability)`` for
distributional ones — exactly the entries the parent digest hashes),
and a node's position is the tuple of child ranks on the path from the
root.  Rank paths are what make *anchored* evaluations
content-addressable: two subtrees with equal digests admit a
rank-respecting isomorphism — children of equal rank have equal digests
and edge probabilities, recursively — so pinning a pattern node to "the
node at rank path ``π``" means the same thing in both.  Ties between
digest-equal siblings are broken arbitrarily (input order); any
tie-break is sound because permuting digest-equal siblings is an
automorphism, and it maps one admissible tie-breaking onto any other
together with the anchored positions.  Only anchored lanes need them,
so they stay a separate, lazily built, top-down index.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from hashlib import blake2b
from itertools import chain
from typing import Optional

__all__ = [
    "DIGEST_SIZE",
    "compute_indexes",
    "compute_positions",
    "fingerprint_digest",
    "splice_indexes",
]

#: Digest width in bytes (blake2b); 128 bits make collisions negligible
#: even for stores holding billions of subtree entries.
DIGEST_SIZE = 16

# Payloads are built as text and hashed as UTF-8.  A node's *body* is
# its kind (with the label, for ordinary nodes) and its sorted child
# entries, fields separated by \x1f and siblings by \x1e.  The
# structural payload is the body over child digests — each suffixed with
# its edge probability under a distributional parent — and the world
# payload prefixes the node Id to the body over child world digests,
# each zero-probability edge flagged ``:0``.  A leaf's structural payload
# and world body coincide.  Labels are not escaped and may hold the
# separators themselves (the builder accepts ``"a\x1fb"``): keys stay
# unambiguous only because every child entry is a fixed-width hex digest
# (plus an edge suffix), not because labels are control-free.
# Length-prefixing each field is the planned fix (ROADMAP item 4, a store
# schema bump).  Sorting text sorts its UTF-8 bytes the same way.  The
# walk and the splice steps below format payloads from these constants
# only.
_ORDINARY = "ordinary\x1f%s\x1f%s"  # label, sorted child entries
_DISTRIBUTIONAL = "%s\x1f%s"  # kind, sorted child entries
_WORLD = "world:%d\x1f%s"  # node Id, body over child world digests
_EDGE = "%s:%s"  # child digest, edge probability
_ZERO_EDGE = ":0"  # suffix of a zero-probability child's world digest
_SIBLINGS = "\x1e"


def _hash(text: str) -> str:
    return blake2b(text.encode("utf-8"), digest_size=DIGEST_SIZE).hexdigest()


def fingerprint_digest(table: tuple) -> str:
    """Digest a canonical goal-table fingerprint.

    ``table`` is the nested tuple returned by
    :meth:`repro.prob.engine.EvaluationEngine.goal_table_fingerprint` —
    strings, ints, bools and ``None`` only, whose ``repr`` is identical
    across processes — so the digest is a stable cross-restart key
    component.
    """
    return _hash(repr(table))


def _body(node, entries: list) -> str:
    """One node's payload body over its sorted child entries."""
    if node.probabilities is None:
        return _ORDINARY % (node.label, _SIBLINGS.join(entries))
    return _DISTRIBUTIONAL % (node.kind.value, _SIBLINGS.join(entries))


def _entries(node, digests: dict) -> list:
    """One node's structural child entries, sorted."""
    probabilities = node.probabilities
    if probabilities is None:  # ordinary node
        entries = [digests[c.node_id] for c in node.children]
    else:  # the edge probability is part of the child entry
        entries = [
            _EDGE % (digests[c.node_id], probabilities[c.node_id])
            for c in node.children
        ]
    entries.sort()
    return entries


def _world_entries(node, worlds: dict) -> list:
    """One node's world child entries, sorted."""
    probabilities = node.probabilities
    if probabilities is None:
        entries = [worlds[c.node_id] for c in node.children]
    else:
        entries = [
            worlds[c.node_id] if probabilities[c.node_id]
            else worlds[c.node_id] + _ZERO_EDGE
            for c in node.children
        ]
    entries.sort()
    return entries


def _size(node, sizes: dict) -> int:
    size = 1
    for child in node.children:
        size += sizes[child.node_id]
    return size


def _structural(node, digests: dict, sizes: dict) -> tuple[str, int]:
    """One node's structural digest and subtree size, given its children's."""
    return _hash(_body(node, _entries(node, digests))), _size(node, sizes)


def _world(node, worlds: dict) -> str:
    """One node's world digest, given its children's."""
    return _hash(
        _WORLD % (node.node_id, _body(node, _world_entries(node, worlds)))
    )


def _labels(node, labels: dict) -> frozenset:
    """The ordinary labels in one node's subtree, given its children's."""
    children = node.children
    label = node.label
    if len(children) == 1:
        below = labels[children[0].node_id]
        if label is None or label in below:
            return below
    accumulated = set() if label is None else {label}
    for child in children:
        accumulated |= labels[child.node_id]
    return frozenset(accumulated)


class _Kept:
    """What a splice keeps at a node it rehashed: the children's sorted
    structural and world entries, and how many children's label sets
    hold each label."""

    __slots__ = ("entries", "world_entries", "counts")

    def __init__(self, node, digests: dict, worlds: dict, labels: dict):
        self.entries = _entries(node, digests)
        self.world_entries = _world_entries(node, worlds)
        self.counts = _label_counts(node, labels)


def _label_counts(node, labels: dict) -> Counter:
    return Counter(
        chain.from_iterable(labels[c.node_id] for c in node.children)
    )


def _label_set(node, counts: Counter) -> frozenset:
    """One node's label set: its own label and every counted one."""
    label = node.label
    if label is None or label in counts:
        return frozenset(counts)
    return frozenset(counts).union((label,))


def _swap(entries: list, old, new: str, width: int) -> bool:
    """Replace one child's ``old`` entry (``None`` for a child the list
    never held) by ``new`` in the sorted ``entries``; false, with the list
    left for a rebuild, when ``old`` is missing or the list does not come
    out ``width`` long."""
    if old is not None:
        at = bisect_left(entries, old)
        if at == len(entries) or entries[at] != old:
            return False
        del entries[at]
    insort(entries, new)
    return len(entries) == width


def _recount(counts: Counter, old: frozenset, new: frozenset) -> Optional[bool]:
    """Move one child's label set from ``old`` to ``new`` in ``counts``.

    Returns whether some label's count reached or left 0, or ``None``
    when ``counts`` lacks a label of ``old`` (it must be rebuilt).
    """
    crossed = False
    for label in old - new:
        count = counts.get(label)
        if not count:
            return None
        if count == 1:
            del counts[label]
            crossed = True
        else:
            counts[label] = count - 1
    for label in new - old:
        count = counts[label]
        counts[label] = count + 1
        crossed = crossed or not count
    return crossed


def compute_indexes(root) -> tuple[dict, dict, dict, dict]:
    """Structural digests, sizes, world digests and label sets under ``root``.

    One iterative post-order pass — a parent-before-child list of the
    subtree, processed in reverse — reads each node's children once and
    fills all four entries in that one loop.  The entries equal what the
    splice's per-ancestor steps :func:`_structural`, :func:`_world` and
    :func:`_labels` give: both format the same payload constants.  Two
    caches live for one walk: structural payloads already hashed, so
    isomorphic subtrees (repeated records) are hashed once; and one entry
    per leaf label holding an ordinary leaf's structural digest, its body
    (its world payload after the Id) and its interned label set, so a
    leaf costs one hash.  Label sets are interned: subtrees with equal
    label sets share one frozenset.  Returns ``(digests, sizes, worlds,
    labels)``, each keyed by ``node_id``.
    """
    digests: dict[int, str] = {}
    sizes: dict[int, int] = {}
    worlds: dict[int, str] = {}
    labels: dict[int, frozenset] = {}
    interned: dict[frozenset, frozenset] = {}
    hashed: dict[str, str] = {}
    leaves: dict[str, tuple[str, str, frozenset]] = {}
    order = [root]
    for node in order:
        order.extend(node.children)
    for node in reversed(order):
        node_id = node.node_id
        children = node.children
        probabilities = node.probabilities
        label = node.label
        if probabilities is None and not children:
            leaf = leaves.get(label)
            if leaf is None:
                body = _ORDINARY % (label, "")
                frozen = frozenset((label,))
                leaf = leaves[label] = (
                    _hash(body), body, interned.setdefault(frozen, frozen)
                )
            digest, body, frozen = leaf
            digests[node_id] = digest
            sizes[node_id] = 1
            # World payloads hold the Id, so they are never cached; their
            # hash is inlined (one call frame less per node).
            worlds[node_id] = blake2b(
                (_WORLD % (node_id, body)).encode(), digest_size=DIGEST_SIZE
            ).hexdigest()
            labels[node_id] = frozen
            continue
        if len(children) == 1:  # a chain link may keep its child's set
            below = labels[children[0].node_id]
            accumulated = None if label is None or label in below else {label}
        else:
            accumulated = set() if label is None else {label}
        size = 1
        entries = []
        world_entries = []
        if probabilities is None:
            for child in children:
                child_id = child.node_id
                entries.append(digests[child_id])
                world_entries.append(worlds[child_id])
                size += sizes[child_id]
                if accumulated is not None:
                    accumulated |= labels[child_id]
            entries.sort()
            world_entries.sort()
            payload = _ORDINARY % (label, _SIBLINGS.join(entries))
            body = _ORDINARY % (label, _SIBLINGS.join(world_entries))
        else:
            for child in children:
                child_id = child.node_id
                probability = probabilities[child_id]
                entries.append(_EDGE % (digests[child_id], probability))
                world_entries.append(
                    worlds[child_id] if probability
                    else worlds[child_id] + _ZERO_EDGE
                )
                size += sizes[child_id]
                if accumulated is not None:
                    accumulated |= labels[child_id]
            entries.sort()
            world_entries.sort()
            kind = node.kind.value
            payload = _DISTRIBUTIONAL % (kind, _SIBLINGS.join(entries))
            body = _DISTRIBUTIONAL % (kind, _SIBLINGS.join(world_entries))
        digest = hashed.get(payload)
        if digest is None:
            digest = hashed[payload] = _hash(payload)
        digests[node_id] = digest
        sizes[node_id] = size
        worlds[node_id] = blake2b(
            (_WORLD % (node_id, body)).encode(), digest_size=DIGEST_SIZE
        ).hexdigest()
        if accumulated is None:
            labels[node_id] = below
        else:
            frozen = frozenset(accumulated)
            labels[node_id] = interned.setdefault(frozen, frozen)
    return digests, sizes, worlds, labels


def splice_indexes(
    node,
    digests: dict,
    sizes: dict,
    worlds: dict,
    labels: dict,
    kept: Optional[dict] = None,
) -> tuple[set, bool, frozenset, int]:
    """Splice fresh indexes for ``node``'s subtree and its ancestor spine.

    The maps (one document's :func:`compute_indexes` output) are updated
    **in place**.  The mutated subtree is re-derived with the same walk
    (it may hold new or edited nodes); then the ancestors are rehashed
    bottom-up with two separate early exits.  Structural digests and
    sizes stop at the first ancestor where both come out unchanged;
    world digests and label sets stop at the first node whose world
    digest is unchanged — for a probability-only edit, the mutated node
    itself.  Above either point no payload of that side can differ.

    ``kept`` (``node_id -> _Kept``, updated in place) holds, for every
    node an earlier splice rehashed, its children's sorted structural
    and world entries and a count of each label over their label sets.
    At a kept ancestor one spine step removes the changed child's old
    entry (bisected from its old digest) and inserts its new one, adjusts
    the size by the child's difference, and rebuilds the label set only
    when some label's count reaches or leaves 0.  A list whose old entry
    is not at its bisect position, or that does not come out as long as
    the node has children, is rebuilt from the children instead, as are
    counts that lack a label the child held: a kept state that lost track
    of its children costs time, never a wrong digest.  A node with no
    kept state is built from its children, as :func:`_structural`,
    :func:`_world` and :func:`_labels` do, and kept for later splices.
    The mutated subtree's own kept states are dropped: its child lists
    and probabilities may have changed.  Payloads stay byte-identical,
    so each rehashed ancestor still costs one join and one hash over
    all its children's entries.  Without ``kept`` every ancestor is
    built from its children and nothing is kept.

    Returns ``(changed_ids, world_changed, touched_labels,
    entries_rebuilt)``: the ids whose structural digest actually changed
    (untouched descendants of the mutated node — same Merkle digest
    before and after — are *not* reported, so their memo entries
    survive), whether the world digest at the mutated node changed
    (label, Id, child-set or zero-probability edits; other probability
    edits keep ``world_changed`` false), the mutated subtree's label set
    before the edit united with its label set after it, and how many
    child entries the splice built from scratch (one per edge of the
    re-derived subtree, plus every child of each node it built or
    rebuilt a kept state for).
    """
    if kept is None:
        kept = {}
    node_id = node.node_id
    old_digest = digests.get(node_id)
    old_size = sizes.get(node_id, 0)
    old_world = worlds.get(node_id)
    old_labels = labels.get(node_id, frozenset())
    sub_digests, sub_sizes, sub_worlds, sub_labels = compute_indexes(node)
    changed = {
        sub_id
        for sub_id, digest in sub_digests.items()
        if digests.get(sub_id) != digest
    }
    world_changed = sub_worlds[node_id] != old_world
    touched = old_labels | sub_labels[node_id]
    digests.update(sub_digests)
    sizes.update(sub_sizes)
    worlds.update(sub_worlds)
    labels.update(sub_labels)
    for sub_id in sub_digests:
        kept.pop(sub_id, None)
    rebuilt = len(sub_digests) - 1
    structural_live, world_live = True, world_changed
    child, current = node, node.parent
    while current is not None and (structural_live or world_live):
        current_id, child_id = current.node_id, child.node_id
        width = len(current.children)
        probabilities = current.probabilities
        edge = None if probabilities is None else probabilities[child_id]
        state = kept.get(current_id)
        fresh = state is None
        if fresh:
            state = kept[current_id] = _Kept(current, digests, worlds, labels)
            rebuilt += width
        if structural_live:
            if fresh:
                size = _size(current, sizes)
            else:
                new = digests[child_id]
                old = old_digest
                if probabilities is not None:
                    new = _EDGE % (new, edge)
                    old = None if old is None else _EDGE % (old, edge)
                if _swap(state.entries, old, new, width):
                    size = sizes[current_id] - old_size + sizes[child_id]
                else:
                    state.entries = _entries(current, digests)
                    rebuilt += width
                    size = _size(current, sizes)
            digest = _hash(_body(current, state.entries))
            old_digest, old_size = digests[current_id], sizes[current_id]
            if old_digest == digest and old_size == size:
                structural_live = False
            else:
                digests[current_id], sizes[current_id] = digest, size
                changed.add(current_id)
        if world_live:
            child_labels = labels[child_id]
            if fresh:
                crossed = True
            else:
                new, old = worlds[child_id], old_world
                if edge is not None and not edge:
                    new += _ZERO_EDGE
                    old = None if old is None else old + _ZERO_EDGE
                if not _swap(state.world_entries, old, new, width):
                    state.world_entries = _world_entries(current, worlds)
                    rebuilt += width
                crossed = child_labels is not old_labels and _recount(
                    state.counts, old_labels, child_labels
                )
                if crossed is None:
                    state.counts = _label_counts(current, labels)
                    rebuilt += width
                    crossed = True
            world = _hash(
                _WORLD % (current_id, _body(current, state.world_entries))
            )
            old_world, old_labels = worlds[current_id], labels[current_id]
            if old_world == world:
                world_live = False
            else:
                worlds[current_id] = world
                if crossed:
                    labels[current_id] = _label_set(current, state.counts)
        child, current = current, current.parent
    return changed, world_changed, touched, rebuilt


def compute_positions(root, digests: dict[int, str]) -> dict[int, tuple]:
    """Canonical rank path for every node under ``root``.

    ``digests`` is the :func:`compute_indexes` digest map for the same
    (sub)tree.  Children are ranked by their digest sort key — the same
    ordering the parent digest hashes — so ranks are invariant under
    isomorphism: nodes of equal rank path in digest-equal trees
    correspond under a (label-, kind- and probability-preserving)
    isomorphism.  The root's path is the empty tuple; a child's path
    appends its rank among its siblings.

    One O(n log n) pass; see the module docstring for the soundness
    argument behind arbitrary tie-breaking.
    """
    positions: dict[int, tuple] = {root.node_id: ()}
    stack = [root]
    while stack:
        node = stack.pop()
        children = node.children
        if not children:
            continue
        base = positions[node.node_id]
        probabilities = node.probabilities
        if probabilities is None:
            ranked = sorted(children, key=lambda c: digests[c.node_id])
        else:
            ranked = sorted(
                children,
                key=lambda c: (
                    digests[c.node_id],
                    str(probabilities[c.node_id]),
                ),
            )
        for rank, child in enumerate(ranked):
            positions[child.node_id] = base + (rank,)
            stack.append(child)
    return positions
