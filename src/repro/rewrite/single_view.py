"""``TPrewrite`` (Figure 6): probabilistic TP-rewritings using one view (§4).

Under copy semantics only a single view extension can be used, by navigation:
``q_r = comp(doc(v)/lbl(v), q_(k))`` with ``k = |mb(v)|`` (Fact 1, [36, 3]).
A *probabilistic* rewriting additionally needs the probability function
``f_r``, which exists iff (Propositions 3, Theorems 1 and 2):

1. ``comp(v, q_(k)) ≡ q``  — the deterministic criterion (Fact 1);
2. ``v′ ⊥ q″``             — no interaction between the view's packed
   predicate probabilities and the compensation's (Proposition 3);
3. either the plan is *restricted* (Definition 5: no ``//`` in ``mb(v)`` or
   in the compensation's main branch — Theorem 1), or the first ``u − 1``
   nodes of ``v``'s last token carry no predicates, ``u`` being the maximal
   prefix-suffix of the token's label sequence (Theorem 2).

The whole decision procedure is polynomial in ``|q|`` and ``|V|``
(Proposition 4) — benchmarked in ``benchmarks/bench_scaling.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..probability import BackendLike
from ..store import MemoStore
from ..tp import ops
from ..tp.containment import contains, equivalent
from ..tp.pattern import TreePattern
from ..views.view import View, doc_label
from .cindep import c_independent
from .plans import TPRewritePlan

__all__ = [
    "find_deterministic_tp_rewriting",
    "tp_rewrite",
    "probabilistic_tp_plan",
    "fact1_holds",
    "fact1_reformulation_holds",
]


def fact1_holds(q: TreePattern, v: TreePattern) -> bool:
    """Fact 1: a deterministic TP-rewriting via ``v`` exists iff
    ``comp(v, q_(k)) ≡ q`` for ``k = |mb(v)|``."""
    k = v.main_branch_length()
    if k > q.main_branch_length():
        return False
    branch = q.main_branch()
    if branch[k - 1].label != v.out.label:
        return False
    unfolded = ops.compensation(v, ops.suffix(q, k))
    return equivalent(unfolded, q)


def fact1_reformulation_holds(q: TreePattern, v: TreePattern) -> bool:
    """The paper's reformulation: ``q^(k) ⊑ v`` and ``v′ ⊑ q′``.

    Provided for cross-validation against :func:`fact1_holds` (the test
    suite checks that both criteria agree).
    """
    k = v.main_branch_length()
    if k > q.main_branch_length():
        return False
    if q.main_branch()[k - 1].label != v.out.label:
        return False
    prefix_contained = contains(v, ops.prefix(q, k))
    v_prime_contained = contains(ops.q_prime(q, k), ops.v_prime(v))
    return prefix_contained and v_prime_contained


def find_deterministic_tp_rewriting(
    q: TreePattern, views: Sequence[View]
) -> Optional[View]:
    """First view admitting a deterministic TP-rewriting of ``q`` (Fact 1)."""
    for view in views:
        if fact1_holds(q, view.pattern):
            return view
    return None


def probabilistic_tp_plan(
    q: TreePattern,
    view: View,
    backend: BackendLike = "exact",
    store: Optional[MemoStore] = None,
) -> Optional[TPRewritePlan]:
    """Build the probabilistic TP-rewriting of ``q`` over one view, if any.

    Implements the per-view body of ``TPrewrite`` (Figure 6); returns
    ``None`` when any condition fails.  The decision procedure is purely
    syntactic; ``backend`` and ``store`` only parameterize the numeric
    domain and the structural memo store the returned plan's ``f_r``
    computes with.
    """
    v = view.pattern
    if not fact1_holds(q, v):
        return None
    k = v.main_branch_length()
    compensation = ops.suffix(q, k)
    # Proposition 3: v' ⊥ q''.
    if not c_independent(ops.v_prime(v), ops.q_double_prime(q, k)):
        return None
    token = ops.last_token(v)
    u = ops.max_prefix_suffix(ops.token_label_sequence(token))
    restricted = ops.is_restricted_rewriting(v, compensation)
    if not restricted and not _first_token_nodes_predicate_free(token, u):
        return None  # Theorem 2's condition fails: no f_r exists
    qr = _extension_pattern(view, compensation)
    return TPRewritePlan(
        query=q,
        view=view,
        k=k,
        compensation=compensation,
        qr=qr,
        restricted=restricted,
        u=u,
        backend=backend,
        store=store,
    )


def tp_rewrite(
    q: TreePattern, views: Sequence[View], backend: BackendLike = "exact"
) -> list[TPRewritePlan]:
    """``TPrewrite`` (Figure 6): all views yielding probabilistic rewritings.

    Sound and complete for the existence of a probabilistic TP-rewriting
    (Proposition 4); runs in polynomial time in ``|q|`` and ``|V|``.
    """
    plans = []
    for view in views:
        plan = probabilistic_tp_plan(q, view, backend=backend)
        if plan is not None:
            plans.append(plan)
    return plans


def _first_token_nodes_predicate_free(token: TreePattern, u: int) -> bool:
    """Theorem 2, condition 2: the first ``u − 1`` last-token nodes are bare."""
    branch = token.main_branch()
    branch_ids = set(map(id, branch))
    for node in branch[: max(0, u - 1)]:
        for child in node.children:
            if id(child) not in branch_ids:
                return False
    return True


def _extension_pattern(view: View, compensation: TreePattern) -> TreePattern:
    """``q_r = comp(doc(v)/lbl(v), q_(k))`` as a pattern over the extension."""
    from ..tp.parser import parse_pattern

    head = parse_pattern(f"{doc_label(view.name)}/{view.pattern.out.label}")
    return ops.compensation(head, compensation)
