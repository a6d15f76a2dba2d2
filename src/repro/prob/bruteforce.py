"""Reference semantics: query probabilities by possible-world enumeration.

Exponential in the number of distributional choices; used by the test suite
to validate the exact dynamic program of :mod:`repro.prob.engine` and by
the empirical c-independence checker.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from ..probability import ZERO
from ..pxml.pdocument import PDocument
from ..pxml.worlds import enumerate_worlds
from ..tp.embedding import evaluate, has_embedding
from ..tp.pattern import TreePattern
from .engine import AnchorsLike, normalize_anchors

__all__ = [
    "brute_force_boolean_probability",
    "brute_force_node_probability",
    "brute_force_query_answer",
    "brute_force_intersection_node_probability",
]


def brute_force_boolean_probability(
    p: PDocument, q: TreePattern, anchors: Optional[AnchorsLike] = None
) -> Fraction:
    """``Pr(q matches P)`` by summing over all possible worlds.

    ``anchors`` accepts the same key forms as the engine
    (:data:`repro.prob.engine.AnchorsLike`).
    """
    resolved = normalize_anchors([q], anchors)
    total = ZERO
    for world, probability in enumerate_worlds(p):
        if has_embedding(q, world, resolved):
            total += probability
    return total


def brute_force_node_probability(
    p: PDocument, q: TreePattern, node_id: int
) -> Fraction:
    """``Pr(n ∈ q(P))`` by possible-world enumeration."""
    return brute_force_boolean_probability(p, q, {q.out: node_id})


def brute_force_intersection_node_probability(
    p: PDocument, patterns: Sequence[TreePattern], node_id: int
) -> Fraction:
    """``Pr(n ∈ (q1 ∩ ... ∩ qk)(P))`` by possible-world enumeration."""
    total = ZERO
    for world, probability in enumerate_worlds(p):
        if all(
            has_embedding(q, world, {id(q.out): node_id}) for q in patterns
        ):
            total += probability
    return total


def brute_force_query_answer(p: PDocument, q: TreePattern) -> dict[int, Fraction]:
    """``q(P̂)`` by possible-world enumeration."""
    answer: dict[int, Fraction] = {}
    for world, probability in enumerate_worlds(p):
        for node_id in evaluate(q, world):
            answer[node_id] = answer.get(node_id, ZERO) + probability
    return answer
