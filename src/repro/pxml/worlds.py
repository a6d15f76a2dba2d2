"""Materialization of the px-space ``⟦P̂⟧`` (paper §2).

``enumerate_worlds`` runs the paper's random process exhaustively: for every
``mux`` node, one child or none is selected; for every ``ind`` node, a subset
of children.  The ordinary children of deleted distributional nodes attach to
their closest ordinary ancestor.  Several runs may produce the same document
(e.g. choices under discarded subtrees); probabilities of such runs are
summed, as required by the definition of ``Pr(P)``.

Exponential in the number of distributional choices — this is the reference
semantics used by tests and by the brute-force evaluator, not the production
evaluation path (see :mod:`repro.prob.engine`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from ..errors import PDocumentError
from ..probability import ONE, ZERO
from ..xml.document import DocNode, Document
from .pdocument import PDocument, PNode, PNodeKind

__all__ = ["enumerate_worlds", "sample_world", "world_probability"]

_MAX_WORLDS = 2_000_000


def enumerate_worlds(p: PDocument) -> list[tuple[Document, Fraction]]:
    """All possible worlds of ``P̂`` with their exact probabilities.

    Worlds are grouped per the paper: two runs yielding the same document
    (same surviving ordinary node Ids) contribute to a single entry.  The
    probabilities sum to 1.
    """
    options = _expand_ordinary(p.root)
    merged: dict[tuple, tuple[Document, Fraction]] = {}
    for tree, probability in options:
        world = Document(tree)
        key = world.canonical_key()
        if key in merged:
            merged[key] = (merged[key][0], merged[key][1] + probability)
        else:
            merged[key] = (world, probability)
    return list(merged.values())


def _expand_ordinary(n: PNode) -> list[tuple[DocNode, Fraction]]:
    """All (subtree, probability) alternatives below an ordinary node."""
    assert n.label is not None
    alternatives: list[tuple[list[DocNode], Fraction]] = [([], ONE)]
    for child in n.children:
        child_options = _contributions(child)
        alternatives = [
            (trees + extra, probability * p_extra)
            for trees, probability in alternatives
            for extra, p_extra in child_options
        ]
        if len(alternatives) > _MAX_WORLDS:
            raise PDocumentError(
                "too many possible worlds to enumerate; use the exact evaluator"
            )
    results: list[tuple[DocNode, Fraction]] = []
    for trees, probability in alternatives:
        root = DocNode(n.node_id, n.label)
        for tree in trees:
            root.add_child(tree)
        results.append((root, probability))
    return results


def _contributions(n: PNode) -> list[tuple[list[DocNode], Fraction]]:
    """The forests an arbitrary node contributes to its ordinary ancestor."""
    if n.is_ordinary:
        return [([tree], probability) for tree, probability in _expand_ordinary(n)]
    assert n.probabilities is not None
    if n.kind is PNodeKind.MUX:
        deficit = ONE - sum(n.probabilities.values())
        options: list[tuple[list[DocNode], Fraction]] = []
        if deficit > ZERO:
            options.append(([], deficit))
        for child in n.children:
            p_child = n.probabilities[child.node_id]
            if p_child == ZERO:
                continue
            for trees, probability in _contributions(child):
                options.append((trees, p_child * probability))
        return options
    # ind: independent subset choice = convolution over children.
    options = [([], ONE)]
    for child in n.children:
        p_child = n.probabilities[child.node_id]
        branch: list[tuple[list[DocNode], Fraction]] = []
        if p_child < ONE:
            branch.append(([], ONE - p_child))
        if p_child > ZERO:
            branch.extend(
                (trees, p_child * probability)
                for trees, probability in _contributions(child)
            )
        options = [
            (trees + extra, probability * p_extra)
            for trees, probability in options
            for extra, p_extra in branch
        ]
    return options


def world_probability(p: PDocument, world: Document) -> Fraction:
    """``Pr(P)`` for a given world (0 if the document is not a world of ``P̂``)."""
    for candidate, probability in enumerate_worlds(p):
        if candidate == world:
            return probability
    return ZERO


def sample_world(p: PDocument, rng: random.Random) -> Document:
    """Draw one random document according to the px-space semantics."""

    def contributions(n: PNode) -> Iterable[DocNode]:
        if n.is_ordinary:
            return [expand(n)]
        assert n.probabilities is not None
        if n.kind is PNodeKind.MUX:
            roll = Fraction(rng.random()).limit_denominator(10**9)
            cumulative = ZERO
            for child in n.children:
                cumulative += n.probabilities[child.node_id]
                if roll < cumulative:
                    return contributions(child)
            return []
        chosen: list[DocNode] = []
        for child in n.children:
            if rng.random() < float(n.probabilities[child.node_id]):
                chosen.extend(contributions(child))
        return chosen

    def expand(n: PNode) -> DocNode:
        assert n.label is not None
        doc_node = DocNode(n.node_id, n.label)
        for child in n.children:
            for tree in contributions(child):
                doc_node.add_child(tree)
        return doc_node

    return Document(expand(p.root))
