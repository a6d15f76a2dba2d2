"""p-Documents: compact representations of px-spaces (paper §2, Definition 1).

A p-document is an unranked, unordered tree with *ordinary* nodes (labeled,
as in documents) and *distributional* nodes of kinds ``mux`` (mutually
exclusive choice of at most one child) and ``ind`` (independent choice of any
subset of children).  The root and all leaves must be ordinary.  ``det``
nodes of [2] are representable as ``ind`` nodes whose children all carry
probability 1 (see :func:`repro.pxml.builder.det`).

The semantics ``⟦P̂⟧`` — a finite probability space of documents — is
materialized by :mod:`repro.pxml.worlds`.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from ..errors import PDocumentError
from ..obs.registry import get_registry
from ..obs.trace import span as trace_span
from ..probability import ONE, ZERO
from ..store.digest import (
    compute_identity_index,
    compute_index,
    compute_positions,
    identity_spine,
    recompute_spine,
)
from ..xml.document import DocNode, Document

__all__ = ["PNodeKind", "PNode", "PDocument"]

#: Cap on the per-document dirty log; a session further behind than this
#: many mutations falls back to a full cache reset anyway.
_DIRTY_LOG_LIMIT = 256

#: Registry counters for derived-index maintenance: O(depth) spine
#: splices after node-scoped mutations vs full O(n) digest rebuilds.
_SPINE_SPLICES = get_registry().counter(
    "repro_pdocument_spine_splices_total",
    help="node-scoped mutations absorbed by O(depth) index splices",
)
_DIGEST_REBUILDS = get_registry().counter(
    "repro_pdocument_digest_rebuilds_total",
    help="full structural-index recomputations (cold or invalidated)",
)


class PNodeKind(enum.Enum):
    ORDINARY = "ordinary"
    MUX = "mux"
    IND = "ind"


class PNode:
    """A node of a p-document.

    Attributes:
        node_id: unique integer Id.
        kind: ordinary / mux / ind.
        label: the label for ordinary nodes (``None`` for distributional).
        children: child nodes.
        probabilities: for distributional nodes, maps a child's ``node_id``
            to the probability ``Pr_n(child)``; ``None`` for ordinary nodes.
        parent: parent node or ``None`` for the root.
    """

    __slots__ = (
        "node_id", "kind", "label", "children", "probabilities", "parent",
        "_digest",
    )

    def __init__(
        self,
        node_id: int,
        kind: PNodeKind,
        label: Optional[str] = None,
    ) -> None:
        self.node_id = int(node_id)
        self.kind = kind
        self.label = label
        self.children: list[PNode] = []
        self.probabilities: Optional[dict[int, Fraction]] = (
            None if kind is PNodeKind.ORDINARY else {}
        )
        self.parent: Optional[PNode] = None
        #: Cached ``(mutation_epoch, structural digest, subtree size)``,
        #: maintained by :meth:`PDocument.structural_index`.
        self._digest: Optional[tuple] = None

    @property
    def is_ordinary(self) -> bool:
        return self.kind is PNodeKind.ORDINARY

    @property
    def is_distributional(self) -> bool:
        return not self.is_ordinary

    def add_child(self, child: "PNode", probability: Optional[Fraction] = None) -> "PNode":
        """Attach ``child``; distributional parents require a probability."""
        if self.is_distributional:
            if probability is None:
                raise PDocumentError(
                    f"child of {self.kind.value} node {self.node_id} needs a probability"
                )
            assert self.probabilities is not None
            self.probabilities[child.node_id] = probability
        elif probability is not None:
            raise PDocumentError(
                f"child of ordinary node {self.node_id} must not carry a probability"
            )
        child.parent = self
        self.children.append(child)
        return child

    def child_probability(self, child: "PNode") -> Fraction:
        if self.probabilities is None:
            raise PDocumentError(f"node {self.node_id} is not distributional")
        return self.probabilities[child.node_id]

    def iter_subtree(self) -> Iterator["PNode"]:
        stack = [self]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(current.children)

    def __repr__(self) -> str:
        if self.is_ordinary:
            return f"PNode(id={self.node_id}, label={self.label!r})"
        return f"PNode(id={self.node_id}, kind={self.kind.value})"


class PDocument:
    """A validated p-document (Definition 1)."""

    def __init__(self, root: PNode) -> None:
        self.root = root
        self._index: dict[int, PNode] = {}
        self._mutation_epoch = 0
        # Node ``_digest`` stamps are valid iff their epoch tag is >= this
        # floor: whole-document invalidation raises the floor, spine-only
        # splices restamp just the touched nodes and leave it alone.
        self._digest_floor = 0
        # Recent node-scoped mutations as (epoch, changed_ids,
        # world_changed) triples; epochs below _dirty_floor are unknown
        # (whole-document invalidation, or log overflow).
        self._dirty: list[tuple] = []
        self._dirty_floor = 0
        # Epoch-tagged derived indexes, built lazily (see structural_index /
        # label_index / identity_digest).
        self._structural_index: Optional[tuple] = None
        self._label_index: Optional[tuple] = None
        self._identity_index: Optional[tuple] = None
        self._anchor_index: Optional[tuple] = None
        for n in root.iter_subtree():
            if n.node_id in self._index:
                raise PDocumentError(f"duplicate node Id {n.node_id}")
            self._index[n.node_id] = n
        self._validate()

    def _validate(self) -> None:
        if not self.root.is_ordinary:
            raise PDocumentError("the root must be an ordinary (L-labeled) node")
        for n in self.nodes():
            if n.is_ordinary:
                if n.label is None:
                    raise PDocumentError(f"ordinary node {n.node_id} lacks a label")
                continue
            if not n.children:
                raise PDocumentError(
                    f"distributional node {n.node_id} is a leaf; leaves must be ordinary"
                )
            assert n.probabilities is not None
            total = ZERO
            for child in n.children:
                p = n.probabilities[child.node_id]
                if p < ZERO or p > ONE:
                    raise PDocumentError(
                        f"probability {p} of child {child.node_id} out of [0, 1]"
                    )
                total += p
            if n.kind is PNodeKind.MUX and total > ONE:
                raise PDocumentError(
                    f"mux node {n.node_id}: child probabilities sum to {total} > 1"
                )

    # ------------------------------------------------------------------
    # Mutation tracking
    # ------------------------------------------------------------------
    @property
    def mutation_epoch(self) -> int:
        """Monotone counter of structural mutations.

        Session-level caches (:class:`repro.prob.session.QuerySession`)
        snapshot this value, consult :meth:`dirty_since` when it changes,
        and either splice (node-scoped mutations) or drop their
        epoch-tagged state.  Code that mutates an already-constructed
        p-document in place (re-attaching nodes, changing probabilities,
        relabeling) must call :meth:`mark_mutated` afterwards with the
        mutated node.
        """
        return self._mutation_epoch

    def mark_mutated(self, node: Union["PNode", int]) -> None:
        """Record an in-place mutation at ``node`` (node or node Id).

        The spine from ``node`` to the root is the only region whose
        cached derived state can have changed, so every populated index
        (structural digests / sizes, label sets, anchor positions, the
        identity index) is *spliced* in place in O(depth · fan-out)
        instead of discarded — see :func:`repro.store.digest.
        recompute_spine`.  The mutation is appended to the dirty log so
        resident sessions (:meth:`dirty_since`) keep memo entries for
        untouched sibling subtrees.

        ``node`` may be a node that was just *attached*: any nodes of its
        subtree not yet known to the document are registered (their Ids
        must be fresh).  Detaching is the one edit this cannot see —
        mark the still-attached parent, not the removed child.  For
        whole-document invalidation call :meth:`mark_all_mutated`.
        """
        if isinstance(node, int):
            node = self.node(node)
        self._register_subtree(node)
        self._mutation_epoch += 1
        epoch = self._mutation_epoch
        _SPINE_SPLICES.inc()
        with trace_span("pdocument.spine_splice", node=node.node_id) as sp:
            changed, world_changed = self._splice_indexes(node, epoch)
            if sp:
                sp.set("changed", len(changed))
                sp.set("world_changed", world_changed)
        self._dirty.append((epoch, changed, world_changed))
        if len(self._dirty) > _DIRTY_LOG_LIMIT:
            dropped = self._dirty.pop(0)
            self._dirty_floor = dropped[0]

    def mark_all_mutated(self) -> None:
        """Whole-document invalidation: drop every cached derived index.

        The pre-spine behaviour, kept for mutations whose extent is
        unknown (or after detaching nodes).  Resident sessions see
        ``dirty_since() is None`` and reset all their caches.
        """
        self._mutation_epoch += 1
        self._digest_floor = self._mutation_epoch
        self._dirty.clear()
        self._dirty_floor = self._mutation_epoch
        self._structural_index = None
        self._label_index = None
        self._identity_index = None
        self._anchor_index = None

    def dirty_since(self, epoch: int) -> Optional[tuple]:
        """Localized-change summary since ``epoch``, or ``None``.

        Returns ``(changed_ids, world_changed)`` — the union of the
        dirty-log entries newer than ``epoch`` — when every mutation
        since then was node-scoped; ``None`` when a whole-document
        invalidation intervened (or the log was truncated), in which
        case callers must treat everything as changed.
        """
        if epoch < self._dirty_floor:
            return None
        changed: set = set()
        world_changed = False
        for entry_epoch, entry_changed, entry_world in self._dirty:
            if entry_epoch > epoch:
                changed.update(entry_changed)
                world_changed = world_changed or entry_world
        return frozenset(changed), world_changed

    def _register_subtree(self, node: PNode) -> None:
        """Register freshly attached nodes under ``node``; reject clashes
        and nodes not reachable from the document root."""
        current: Optional[PNode] = node
        while current is not None and current is not self.root:
            current = current.parent
        if current is None:
            raise PDocumentError(
                f"node {node.node_id} is not attached to this document"
            )
        for n in node.iter_subtree():
            known = self._index.get(n.node_id)
            if known is None:
                self._index[n.node_id] = n
            elif known is not n:
                raise PDocumentError(
                    f"attached node reuses existing Id {n.node_id}"
                )

    def _splice_indexes(self, node: PNode, epoch: int) -> tuple:
        """Splice every populated index along the spine of ``node``.

        Returns ``(changed_ids, world_changed)``.  An index cached at any
        tag other than the pre-mutation epoch cannot be spliced (it was
        dropped earlier, or never built) and is reset for lazy full
        recomputation; if that happens to the structural index itself the
        change extent is unknown and the conservative spine+subtree id
        set is reported with ``world_changed`` true.
        """
        structural = self._structural_index
        if structural is None or structural[0] != epoch - 1:
            self._digest_floor = epoch
            self._structural_index = None
            self._label_index = None
            self._identity_index = None
            self._anchor_index = None
            changed = {n.node_id for n in node.iter_subtree()}
            current: Optional[PNode] = node
            while current is not None:
                changed.add(current.node_id)
                current = current.parent
            return frozenset(changed), True
        _, digests, sizes, shapes = structural
        changed, world_changed = recompute_spine(
            node, epoch, digests, sizes, shapes
        )
        self._structural_index = (epoch, digests, sizes, shapes)
        identity = self._identity_index
        if identity is not None and identity[0] == epoch - 1:
            identity_spine(node, identity[1])
            self._identity_index = (epoch, identity[1])
        else:
            self._identity_index = None
        label = self._label_index
        if label is not None and label[0] == epoch - 1:
            self._resplice_labels(node, label[1])
            self._label_index = (epoch, label[1])
        else:
            self._label_index = None
        anchors = self._anchor_index
        if anchors is not None and anchors[0] == epoch - 1:
            self._resplice_positions(node, anchors[1], digests)
            self._anchor_index = (epoch, anchors[1])
        else:
            self._anchor_index = None
        return frozenset(changed), world_changed

    def _resplice_labels(self, node: PNode, sets: dict) -> None:
        """Recompute subtree label sets for ``node`` and its ancestors,
        in place, stopping as soon as an ancestor's set is unchanged."""
        stack: list[tuple[PNode, bool]] = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if not expanded:
                stack.append((current, True))
                stack.extend((child, False) for child in current.children)
                continue
            accumulated: set = set()
            if current.label is not None:
                accumulated.add(current.label)
            for child in current.children:
                accumulated |= sets[child.node_id]
            sets[current.node_id] = frozenset(accumulated)
        parent = node.parent
        while parent is not None:
            accumulated = set()
            if parent.label is not None:
                accumulated.add(parent.label)
            for child in parent.children:
                accumulated |= sets[child.node_id]
            frozen = frozenset(accumulated)
            if sets.get(parent.node_id) == frozen:
                break
            sets[parent.node_id] = frozen
            parent = parent.parent

    def _resplice_positions(
        self, node: PNode, positions: dict, digests: dict
    ) -> None:
        """Splice canonical rank paths after the spine digests moved.

        Digest changes along the spine can shuffle sibling ranks at every
        spine node, shifting the path *prefix* of entire untouched
        subtrees; their interior suffixes are digest-derived and cannot
        change, so they are prefix-rewritten rather than recomputed.
        Only the mutated subtree itself is re-ranked from scratch.
        """
        spine: list[PNode] = []
        current: Optional[PNode] = node
        while current is not None:
            spine.append(current)
            current = current.parent
        spine.reverse()
        spine_ids = {n.node_id for n in spine}
        for holder in spine[:-1]:
            base = positions[holder.node_id]
            probabilities = holder.probabilities
            if probabilities is None:
                ranked = sorted(
                    holder.children, key=lambda c: digests[c.node_id]
                )
            else:
                ranked = sorted(
                    holder.children,
                    key=lambda c: (
                        digests[c.node_id],
                        str(probabilities[c.node_id]),
                    ),
                )
            for rank, child in enumerate(ranked):
                new_path = base + (rank,)
                old_path = positions.get(child.node_id)
                if new_path == old_path:
                    continue
                if child.node_id in spine_ids:
                    # The next spine iteration (or the final subtree
                    # re-rank) fixes this child's descendants.
                    positions[child.node_id] = new_path
                elif old_path is None:
                    relative = compute_positions(child, digests)
                    for node_id, suffix in relative.items():
                        positions[node_id] = new_path + suffix
                else:
                    cut = len(old_path)
                    for descendant in child.iter_subtree():
                        positions[descendant.node_id] = (
                            new_path + positions[descendant.node_id][cut:]
                        )
        base = positions[node.node_id]
        relative = compute_positions(node, digests)
        for node_id, suffix in relative.items():
            positions[node_id] = base + suffix

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        assert self.root.label is not None
        return self.root.label

    def node(self, node_id: int) -> PNode:
        try:
            return self._index[node_id]
        except KeyError:
            raise PDocumentError(f"no node with Id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._index

    def nodes(self) -> Iterable[PNode]:
        return self._index.values()

    def ordinary_nodes(self) -> list[PNode]:
        return [n for n in self.nodes() if n.is_ordinary]

    def distributional_nodes(self) -> list[PNode]:
        return [n for n in self.nodes() if n.is_distributional]

    def size(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------
    # Probabilistic structure
    # ------------------------------------------------------------------
    def appearance_probability(self, node_id: int) -> Fraction:
        """``Pr(n ∈ P)``: the probability that node ``n`` survives a run.

        Equals the product, over the distributional ancestors of ``n``, of the
        probability of the child lying on the path to ``n``.
        """
        n = self.node(node_id)
        probability = ONE
        current = n
        while current.parent is not None:
            parent = current.parent
            if parent.is_distributional:
                probability *= parent.child_probability(current)
            current = parent
        return probability

    def ancestors_or_self_ordinary(self, node_id: int) -> list[PNode]:
        """Ordinary ancestors of ``n`` (including ``n``), root last."""
        result = []
        current: Optional[PNode] = self.node(node_id)
        while current is not None:
            if current.is_ordinary:
                result.append(current)
            current = current.parent
        return result

    def is_ancestor_or_self(self, ancestor_id: int, node_id: int) -> bool:
        current: Optional[PNode] = self.node(node_id)
        while current is not None:
            if current.node_id == ancestor_id:
                return True
            current = current.parent
        return False

    def ancestral_closure(self, node_ids: Iterable[int]) -> frozenset:
        """Ids of nodes whose subtree contains one of ``node_ids``."""
        closure: set[int] = set()
        for node_id in node_ids:
            current: Optional[PNode] = self.node(node_id)
            while current is not None and current.node_id not in closure:
                closure.add(current.node_id)
                current = current.parent
        return frozenset(closure)

    # ------------------------------------------------------------------
    # Structural identity (content-addressed memo keys)
    # ------------------------------------------------------------------
    def structural_index(self) -> tuple[dict[int, str], dict[int, int]]:
        """Per-node structural digests and subtree sizes, cached per epoch.

        The digest (see :mod:`repro.store.digest`) is a Merkle-style hash
        over node kind, label, child digests and distribution parameters,
        insensitive to sibling order and to node Ids: two nodes with equal
        digests root isomorphic p-subtrees defining identical blocked
        distributions for any goal table restricted to their labels.

        Returns ``(digests, sizes)``, both keyed by ``node_id``.  The
        result is recomputed lazily after :meth:`mark_mutated`.
        """
        cached = self._structural_index
        if cached is not None and cached[0] == self._mutation_epoch:
            return cached[1], cached[2]
        _DIGEST_REBUILDS.inc()
        with trace_span("pdocument.digest_index", nodes=self.size()):
            digests, sizes, shapes = compute_index(
                self.root, self._mutation_epoch
            )
        self._structural_index = (self._mutation_epoch, digests, sizes, shapes)
        return digests, sizes

    def structural_digest(self, node_id: Optional[int] = None) -> str:
        """The structural digest of the subtree at ``node_id`` (root default)."""
        node = self.root if node_id is None else self.node(node_id)
        cached = node._digest
        if cached is not None and cached[0] >= self._digest_floor:
            return cached[1]
        return self.structural_index()[0][node.node_id]

    @property
    def document_digest(self) -> str:
        """The whole-document structural digest (root subtree digest)."""
        return self.structural_digest()

    def identity_digest(self) -> str:
        """Digest of the Id-*aware* Merkle index, cached per epoch.

        Unlike :attr:`document_digest` (which deliberately forgets node
        Ids so isomorphic subtrees coincide), this digest changes when
        node Ids are reassigned.  It keys derived data that *names* node
        Ids — e.g. cached candidate sets — where two isomorphic documents
        with different Id assignments must not share.  Computed as the
        root entry of :func:`repro.store.digest.compute_identity_index`
        and spliced in O(depth) by node-scoped :meth:`mark_mutated`.
        """
        cached = self._identity_index
        if cached is not None and cached[0] == self._mutation_epoch:
            return cached[1][self.root.node_id]
        identities = compute_identity_index(self.root)
        self._identity_index = (self._mutation_epoch, identities)
        return identities[self.root.node_id]

    def anchor_index(self) -> dict[int, tuple]:
        """``node_id -> canonical rank path``, cached per mutation epoch.

        The rank path (see :func:`repro.store.digest.compute_positions`)
        locates a node by *structure*: at every ancestor the children are
        ordered by their digest sort key, and the path records the ranks
        from the root down.  Because ranks are derived from the digests,
        equal rank paths in digest-equal subtrees name corresponding
        nodes under an isomorphism — which is what lets *anchored*
        subtree evaluations share canonical store keys
        (:meth:`repro.store.keys.SubtreeKeyer.store_key`).  A node's
        position *relative to a subtree root* is the suffix of its rank
        path after the root's.
        """
        cached = self._anchor_index
        if cached is not None and cached[0] == self._mutation_epoch:
            return cached[1]
        digests, _ = self.structural_index()
        positions = compute_positions(self.root, digests)
        self._anchor_index = (self._mutation_epoch, positions)
        return positions

    def subtree_size(self, node_id: int) -> int:
        """Number of nodes (ordinary and distributional) under ``node_id``."""
        node = self.node(node_id)
        cached = node._digest
        if cached is not None and cached[0] >= self._digest_floor:
            return cached[2]
        return self.structural_index()[1][node_id]

    def label_index(self) -> dict[int, frozenset]:
        """``node_id -> frozenset(ordinary labels in the subtree)``.

        Label sets are interned (subtrees with equal label sets share one
        frozenset object) and the whole map is cached per mutation epoch.
        """
        cached = self._label_index
        if cached is not None and cached[0] == self._mutation_epoch:
            return cached[1]
        interned: dict[frozenset, frozenset] = {}
        sets: dict[int, frozenset] = {}
        stack: list[tuple[PNode, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
                continue
            accumulated: set = set()
            if node.label is not None:
                accumulated.add(node.label)
            for child in node.children:
                accumulated |= sets[child.node_id]
            frozen = frozenset(accumulated)
            sets[node.node_id] = interned.setdefault(frozen, frozen)
        self._label_index = (self._mutation_epoch, sets)
        return sets

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def subdocument(self, node_id: int) -> "PDocument":
        """``P̂_n``: the p-subdocument rooted at ``n`` (Ids preserved)."""

        def copy(source: PNode) -> PNode:
            duplicate = PNode(source.node_id, source.kind, source.label)
            for child in source.children:
                probability = (
                    source.probabilities[child.node_id]
                    if source.probabilities is not None
                    else None
                )
                duplicate.add_child(copy(child), probability)
            return duplicate

        n = self.node(node_id)
        if not n.is_ordinary:
            raise PDocumentError("p-subdocuments are rooted at ordinary nodes")
        return PDocument(copy(n))

    def max_world(self) -> Document:
        """The document keeping *every* ordinary node (distributional nodes
        contracted).  Useful as a superset of every possible world — e.g. for
        candidate generation during query evaluation."""

        def build(source: PNode) -> DocNode:
            assert source.label is not None
            doc_node = DocNode(source.node_id, source.label)
            for effective in self.effective_children(source):
                doc_node.add_child(build(effective))
            return doc_node

        return Document(build(self.root))

    def effective_children(self, n: PNode) -> list[PNode]:
        """Ordinary nodes reachable from ``n`` through distributional chains.

        These are exactly the nodes that *can* become children of ``n`` in a
        possible world.
        """
        result: list[PNode] = []
        stack = list(n.children)
        while stack:
            current = stack.pop()
            if current.is_ordinary:
                result.append(current)
            else:
                stack.extend(current.children)
        return result

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def canonical_key(self, with_ids: bool = True) -> tuple:
        """Order-insensitive canonical form of the p-document.

        Two p-documents with equal keys define identical px-spaces; with
        ``with_ids=False``, identical up to a renaming of node Ids.
        """

        def key(n: PNode, edge_probability: Optional[Fraction]) -> tuple:
            children = tuple(
                sorted(
                    key(
                        c,
                        n.probabilities[c.node_id]
                        if n.probabilities is not None
                        else None,
                    )
                    for c in n.children
                )
            )
            identity: tuple = (n.node_id,) if with_ids else ()
            return identity + (n.kind.value, n.label, edge_probability, children)

        return key(self.root, None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDocument):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"PDocument(name={self.name!r}, size={self.size()})"
