"""Evaluation of tree patterns over deterministic documents via embeddings.

An embedding ``e`` of a pattern ``q`` into a document ``d`` maps pattern nodes
to document nodes such that (i) the root maps to the root, (ii) labels are
preserved, (iii) ``/``-edges map to document edges and (iv) ``//``-edges map
to proper descendant paths (paper §2).

``q(d) = { e(out(q)) | e embedding }``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..xml.document import DocNode, Document
from .pattern import Axis, PatternNode, TreePattern

__all__ = ["evaluate", "has_embedding", "find_embeddings", "subtree_matches"]

Anchors = Mapping[int, object]
"""Maps ``id(pattern_node)`` to a required document node Id, or to a
collection of admissible Ids (the normalized engine form,
:func:`repro.prob.engine.normalize_anchors`)."""


def _anchor_ok(node: PatternNode, doc_node: DocNode, anchors: Optional[Anchors]) -> bool:
    if not anchors:
        return True
    required = anchors.get(id(node))
    if required is None:
        return True
    if isinstance(required, int):
        return required == doc_node.node_id
    return doc_node.node_id in required


class _Matcher:
    """Bottom-up subtree-match table, memoized per (pattern node, doc node)."""

    def __init__(self, d: Document, anchors: Optional[Anchors] = None) -> None:
        self.document = d
        self.anchors = anchors
        self._memo: dict[tuple[int, int], bool] = {}

    def matches(self, u: PatternNode, x: DocNode) -> bool:
        """True iff the pattern subtree rooted at ``u`` embeds with ``u ↦ x``."""
        key = (id(u), x.node_id)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._compute(u, x)
        self._memo[key] = result
        return result

    def _compute(self, u: PatternNode, x: DocNode) -> bool:
        if u.label != x.label or not _anchor_ok(u, x, self.anchors):
            return False
        for child in u.children:
            if child.axis is Axis.CHILD:
                if not any(self.matches(child, y) for y in x.children):
                    return False
            else:
                if not any(self.matches(child, y) for y in x.descendants()):
                    return False
        return True


def subtree_matches(
    u: PatternNode, x: DocNode, d: Document, anchors: Optional[Anchors] = None
) -> bool:
    """True iff the pattern subtree at ``u`` embeds into ``d`` with ``u ↦ x``."""
    return _Matcher(d, anchors).matches(u, x)


def has_embedding(
    q: TreePattern, d: Document, anchors: Optional[Anchors] = None
) -> bool:
    """True iff ``q`` embeds into ``d`` with the root mapped to ``root(d)``.

    ``anchors`` optionally pins pattern nodes to specific document node Ids
    (``{id(pattern_node): doc_node_id}``), which is how ``out(q) ↦ n`` and
    the §3.1 identity device are realized (provenance anchor sets — see
    :mod:`repro.views.provenance`).  Matching itself is label-agnostic:
    no label shape is treated specially; legacy marker labels are decoded
    only by :func:`repro.views.view.parse_marker_label`.
    """
    return _Matcher(d, anchors).matches(q.root, d.root)


def evaluate(q: TreePattern, d: Document) -> set[int]:
    """``q(d)``: the set of document node Ids selected by the pattern."""
    matcher = _Matcher(d)
    branch = q.main_branch()
    branch_ids = set(map(id, branch))
    if not matcher_predicates_ok(matcher, branch[0], d.root, branch_ids):
        return set()
    current: set[int] = (
        {d.root.node_id}
        if branch[0].label == d.root.label
        else set()
    )
    for mb_node in branch[1:]:
        next_nodes: set[int] = set()
        for x_id in current:
            x = d.node(x_id)
            candidates = (
                x.children if mb_node.axis is Axis.CHILD else x.descendants()
            )
            for y in candidates:
                if y.label != mb_node.label:
                    continue
                if matcher_predicates_ok(matcher, mb_node, y, branch_ids):
                    next_nodes.add(y.node_id)
        current = next_nodes
        if not current:
            break
    return current


def matcher_predicates_ok(
    matcher: _Matcher, mb_node: PatternNode, x: DocNode, branch_ids: set
) -> bool:
    """Check the predicate subtrees of a main-branch node at ``x``.

    ``branch_ids`` holds ``id`` of every main-branch node of the pattern,
    computed once per :func:`evaluate`.
    """
    for child in mb_node.children:
        if id(child) in branch_ids:
            continue  # the main-branch continuation, not a predicate
        if child.axis is Axis.CHILD:
            if not any(matcher.matches(child, y) for y in x.children):
                return False
        else:
            if not any(matcher.matches(child, y) for y in x.descendants()):
                return False
    return True


def find_embeddings(
    q: TreePattern, d: Document, anchors: Optional[Anchors] = None
) -> list[dict[int, int]]:
    """Enumerate all embeddings as ``{id(pattern_node): doc_node_id}`` maps.

    Exponential in the worst case; intended for tests and small instances.
    """

    def embs(u: PatternNode, x: DocNode) -> list[dict[int, int]]:
        if u.label != x.label or not _anchor_ok(u, x, anchors):
            return []
        partial: list[dict[int, int]] = [{id(u): x.node_id}]
        for child in u.children:
            candidates = (
                x.children if child.axis is Axis.CHILD else x.descendants()
            )
            options: list[dict[int, int]] = []
            for y in candidates:
                options.extend(embs(child, y))
            if not options:
                return []
            partial = [{**base, **opt} for base in partial for opt in options]
        return partial

    return embs(q.root, d.root)
