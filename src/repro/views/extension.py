"""View extensions: bundling a view's results into one (p-)document (§3, §3.1).

Probabilistic extensions ``P̂_v`` follow the paper's shape: a root labeled
``doc(v)``, one ``ind`` child, and below it — for every pair
``(n, p) ∈ v(P̂)`` — a copy of the p-subdocument ``P̂_n`` attached with
probability ``p``.  The paper's post-processing step (a fresh ``Id(n)``
marker child under every copy, needed to locate the multiple occurrences
of a node in the extension) is replaced by an **Id-free provenance
layer**: each extension carries a :class:`repro.views.provenance.
ProvenanceTable` mapping original node Ids to copy Ids — and to
isomorphism-invariant canonical rank paths — *beside* the tree.  The
extension document itself contains only copied structure, so extensions
of isomorphic base documents are digest-identical and share
content-addressed memo-store entries with each other and with the base
document's own subtrees.

Everything a rewriting's probability function ``f_r`` may legitimately use
is available from the :class:`ProbabilisticViewExtension` object alone: the
extension p-document, the per-subtree selection probabilities (readable off
the ``ind`` edges), and occurrence/containment information served by the
provenance table.  ``f_r`` implementations in :mod:`repro.rewrite` receive
only this object — never the original document.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..errors import PDocumentError, ProbabilityError
from ..probability import BackendLike, get_backend
from ..prob.engine import query_answer
from ..prob.session import QuerySession
from ..pxml.pdocument import PDocument, PNode, PNodeKind
from ..tp.embedding import evaluate as evaluate_deterministic
from ..xml.document import DocNode, Document
from .provenance import ProvenanceTable
from .view import View

__all__ = [
    "DeterministicViewExtension",
    "ProbabilisticViewExtension",
    "deterministic_extension",
    "probabilistic_extension",
]


@dataclass
class DeterministicViewExtension:
    """``d_v``: the deterministic extension of a view over a document."""

    view: View
    document: Document
    #: original selected node Id -> Id of its copy directly under doc(v)
    subtree_roots: dict[int, int]
    #: copy provenance (original ↔ copy Ids); markers are never planted.
    provenance: ProvenanceTable = field(default_factory=ProvenanceTable)


@dataclass
class ProbabilisticViewExtension:
    """``P̂_v``: the probabilistic extension of a view over a p-document."""

    view: View
    pdocument: PDocument
    #: original node Id n -> Pr(n ∈ v(P̂)) — the ind-edge probabilities.
    selection: dict[int, Fraction]
    #: original node Id n -> Id (in P̂_v) of the copy of n that roots its
    #: own result subtree.
    subtree_roots: dict[int, int]
    #: the Id-free replacement of the paper's ``Id(n)`` markers: copy ↔
    #: original maps, per-copy holders and canonical rank paths, all
    #: outside the tree (:mod:`repro.views.provenance`).  Pinning a
    #: pattern node to a copy-Id set (:meth:`occurrence_copies`) is
    #: equivalent to requiring an ``Id(n)`` marker child, and it keeps
    #: per-candidate goal tables identical so anchored evaluations share
    #: canonical store keys.
    provenance: ProvenanceTable = field(default_factory=ProvenanceTable)
    #: lazily built cache of result p-subdocuments; rewriting plans request
    #: the same holder's subdocument once per candidate below it, and each
    #: build is a deep copy.
    _subdocuments: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def occurrences(self) -> dict[int, set[int]]:
        """original node Id n -> set of selected Ids m such that the result
        subtree of m contains an occurrence of n (provenance-derived)."""
        return self.provenance.occurrence_index

    @property
    def copies(self) -> dict[int, list[int]]:
        """original node Id n -> Ids (in P̂_v) of *all* copies of n, across
        every result subtree (provenance-derived)."""
        return self.provenance.copy_index

    def result_subdocument(self, original_id: int) -> PDocument:
        """``P̂_v^{n}``: the p-subdocument rooted at ``n``'s own result copy.

        Cached per holder: repeated requests return the same
        :class:`PDocument` object, so session-level memos keyed on it
        survive across the candidates of a plan evaluation.
        """
        cached = self._subdocuments.get(original_id)
        if cached is None:
            cached = self._subdocuments[original_id] = self.pdocument.subdocument(
                self.subtree_roots[original_id]
            )
        return cached

    def occurrence_copies(
        self, original_id: int, within: Optional[PDocument] = None
    ) -> tuple[int, ...]:
        """Ids of the copies of ``original_id``, optionally restricted to
        the nodes of ``within`` (a :meth:`result_subdocument`, which
        preserves extension Ids).  Empty when the node was never copied —
        a pattern anchored to the empty set cannot match."""
        ids = self.provenance.copies_of(original_id)
        if within is not None:
            return tuple(cid for cid in ids if within.has_node(cid))
        return ids

    def selected_ancestors_or_self(self, original_id: int) -> list[int]:
        """Selected nodes whose result subtree contains ``original_id``,
        ordered top-down (outermost ancestor first).

        This is exactly the list ``n_1, ..., n_a`` of §4 ("the
        ancestor-or-self nodes of n that are selected by v"), recovered
        from the extension's provenance table.
        """
        occurrences = self.provenance.occurrence_index
        holders = occurrences.get(original_id, set())
        # A selected node m1 is an ancestor-or-self of m2 iff m1's result
        # subtree contains an occurrence of m2; the topmost holder is thus
        # contained in the fewest holders (only itself).
        return sorted(
            holders,
            key=lambda m: (len(occurrences.get(m, set()) & holders), m),
        )

    def nodes_between(self, ancestor_id: int, descendant_id: int) -> int:
        """``s(i, j)``: the count of ordinary nodes from ``n_i`` down to
        ``n_j`` inclusive, measured inside ``n_i``'s result subtree.

        Provenance-derived: the unique copy of ``n_j`` inside ``n_i``'s
        result subtree is looked up in the table and its ancestor chain
        walked up to the subtree root — no marker scan.
        """
        copy_id = self.provenance.copy_within(ancestor_id, descendant_id)
        if copy_id is None:
            raise KeyError(
                f"node {descendant_id} does not occur below {ancestor_id}"
            )
        stop = self.subtree_roots[ancestor_id]
        count = 0
        current: Optional[PNode] = self.pdocument.node(copy_id)
        while current is not None:
            if current.is_ordinary:
                count += 1
            if current.node_id == stop:
                break
            current = current.parent
        return count


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def deterministic_extension(d: Document, view: View) -> DeterministicViewExtension:
    """Build ``d_v`` (copy semantics: fresh Ids, identity via provenance)."""
    fresh = itertools.count(1)
    root = DocNode(0, view.doc_label)
    subtree_roots: dict[int, int] = {}
    provenance = ProvenanceTable()
    for selected in sorted(evaluate_deterministic(view.pattern, d)):
        copy = _copy_doc(d.node(selected), fresh, selected, provenance)
        root.add_child(copy)
        subtree_roots[selected] = copy.node_id
    extension = DeterministicViewExtension(
        view, Document(root), subtree_roots, provenance
    )
    provenance.bind(extension.document)
    return extension


def _copy_doc(source, fresh, holder: int, provenance: ProvenanceTable) -> DocNode:
    """Copy ``source``'s subtree with fresh Ids in pre-order (iterative,
    so depth is unbounded)."""
    top = None
    stack = [(source, None)]
    while stack:
        node, parent_copy = stack.pop()
        copy = DocNode(next(fresh), node.label)
        provenance.record(node.node_id, copy.node_id, holder)
        if parent_copy is None:
            top = copy
        else:
            parent_copy.add_child(copy)
        if node.children:
            stack.extend(zip(reversed(node.children), itertools.repeat(copy)))
    return top


#: How far past 1 a float selection probability may round.
_ROUNDING = 1e-12


def _edge_probability(value, one):
    """``value`` as an ind-edge probability: a float that rounds past 1
    by at most :data:`_ROUNDING` is capped at ``one``; any other value
    above 1 is an evaluation fault."""
    if value <= one:
        return value
    if value.__class__ is float and value - one <= _ROUNDING:
        return one
    raise ProbabilityError(f"selection probability {value} exceeds 1")


def probabilistic_extension(
    p: PDocument,
    view: View,
    backend: BackendLike = "exact",
    session: Optional[QuerySession] = None,
) -> ProbabilisticViewExtension:
    """Build ``P̂_v`` per §3.1 (ind-bundled result subtrees, Id-free).

    The view's selection probabilities are computed by the single-pass
    engine in the given numeric backend; with ``"array"`` the extension's
    ind-edge probabilities are floats instead of exact Fractions.

    Original identity is recorded in the returned extension's provenance
    table rather than as ``Id(n)`` marker nodes, so every copied result
    subtree is *structurally identical* to the base subtree it copies:
    unchanged subtrees keep their base-document Merkle digests, and
    extensions of isomorphic base documents share memo-store entries on
    their first, cold evaluation.

    ``session`` may supply a caller-owned :class:`QuerySession` over ``p``
    (its backend then wins): materializing several views through one
    session shares per-subtree work between their selection queries.
    """
    if session is not None:
        if session.p is not p:
            raise PDocumentError(
                "probabilistic_extension: session is bound to a different "
                "p-document"
            )
        one = session.backend.one
        answer = session.answer(view.pattern)
    else:
        one = get_backend(backend).one
        answer = query_answer(p, view.pattern, backend=backend)
    fresh = itertools.count(1)
    root = PNode(0, PNodeKind.ORDINARY, view.doc_label)
    bundle = PNode(next(fresh), PNodeKind.IND)
    subtree_roots: dict[int, int] = {}
    provenance = ProvenanceTable()
    for selected in sorted(answer):
        copy = _copy_pnode(p.node(selected), fresh, selected, provenance)
        bundle.add_child(copy, _edge_probability(answer[selected], one))
        subtree_roots[selected] = copy.node_id
    if subtree_roots:
        root.add_child(bundle)
    extension = ProbabilisticViewExtension(
        view=view,
        pdocument=PDocument(root),
        selection=dict(answer),
        subtree_roots=subtree_roots,
        provenance=provenance,
    )
    provenance.bind(extension.pdocument)
    return extension


def _copy_pnode(
    source: PNode,
    fresh,
    holder: int,
    provenance: ProvenanceTable,
) -> PNode:
    """Copy ``source``'s p-subtree with fresh Ids in pre-order (iterative,
    so depth is unbounded); distributional edges keep their
    probabilities."""
    top = None
    stack = [(source, None)]
    while stack:
        node, parent_copy = stack.pop()
        copy = PNode(next(fresh), node.kind, node.label)
        if node.is_ordinary:
            provenance.record(node.node_id, copy.node_id, holder)
        if parent_copy is None:
            top = copy
        else:
            probabilities = node.parent.probabilities
            parent_copy.add_child(
                copy,
                None if probabilities is None else probabilities[node.node_id],
            )
        if node.children:
            stack.extend(zip(reversed(node.children), itertools.repeat(copy)))
    return top
