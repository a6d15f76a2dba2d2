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
rehashes the ancestor chain one side at a time (:func:`_structural`,
:func:`_world`, :func:`_labels`, formatting the same payload constants),
with separate early exits for the structural and the world side.  This
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

from hashlib import blake2b

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
    """One node's payload body over its child entries (sorted in place)."""
    entries.sort()
    if node.probabilities is None:
        return _ORDINARY % (node.label, _SIBLINGS.join(entries))
    return _DISTRIBUTIONAL % (node.kind.value, _SIBLINGS.join(entries))


def _structural(node, digests: dict, sizes: dict) -> tuple[str, int]:
    """One node's structural digest and subtree size, given its children's."""
    children = node.children
    probabilities = node.probabilities
    if probabilities is None:  # ordinary node
        entries = [digests[c.node_id] for c in children]
    else:  # the edge probability is part of the child entry
        entries = [
            _EDGE % (digests[c.node_id], probabilities[c.node_id])
            for c in children
        ]
    size = 1
    for child in children:
        size += sizes[child.node_id]
    return _hash(_body(node, entries)), size


def _world(node, worlds: dict) -> str:
    """One node's world digest, given its children's."""
    children = node.children
    probabilities = node.probabilities
    if probabilities is None:
        entries = [worlds[c.node_id] for c in children]
    else:
        entries = [
            worlds[c.node_id] if probabilities[c.node_id]
            else worlds[c.node_id] + _ZERO_EDGE
            for c in children
        ]
    return _hash(_WORLD % (node.node_id, _body(node, entries)))


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
    node, digests: dict, sizes: dict, worlds: dict, labels: dict
) -> tuple[set, bool, frozenset]:
    """Splice fresh indexes for ``node``'s subtree and its ancestor spine.

    The maps (one document's :func:`compute_indexes` output) are updated
    **in place**.  The mutated subtree is re-derived with the same walk
    (it may hold new or edited nodes); then the ancestors are rehashed
    bottom-up with two separate early exits.  Structural digests and
    sizes stop at the first ancestor where both come out unchanged;
    world digests and label sets stop at the first node whose world
    digest is unchanged — for a probability-only edit, the mutated node
    itself.  Above either point no payload of that side can differ.

    Returns ``(changed_ids, world_changed, touched_labels)``: the ids
    whose structural digest actually changed (untouched descendants of
    the mutated node — same Merkle digest before and after — are *not*
    reported, so their memo entries survive), whether the world digest
    at the mutated node changed (label, Id, child-set or
    zero-probability edits; other probability edits keep
    ``world_changed`` false), and the mutated subtree's label set
    before the edit united with its label set after it.
    """
    old_world = worlds.get(node.node_id)
    old_labels = labels.get(node.node_id, frozenset())
    sub_digests, sub_sizes, sub_worlds, sub_labels = compute_indexes(node)
    changed = {
        node_id
        for node_id, digest in sub_digests.items()
        if digests.get(node_id) != digest
    }
    world_changed = sub_worlds[node.node_id] != old_world
    digests.update(sub_digests)
    sizes.update(sub_sizes)
    worlds.update(sub_worlds)
    labels.update(sub_labels)
    structural_live, world_live = True, world_changed
    current = node.parent
    while current is not None and (structural_live or world_live):
        node_id = current.node_id
        if structural_live:
            digest, size = _structural(current, digests, sizes)
            if digests[node_id] == digest and sizes[node_id] == size:
                structural_live = False
            else:
                digests[node_id], sizes[node_id] = digest, size
                changed.add(node_id)
        if world_live:
            world = _world(current, worlds)
            if worlds[node_id] == world:
                world_live = False
            else:
                worlds[node_id] = world
                labels[node_id] = _labels(current, labels)
        current = current.parent
    return changed, world_changed, old_labels | sub_labels[node.node_id]


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
