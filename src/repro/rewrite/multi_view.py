"""TP∩-rewritings: intersections of (possibly compensated) views (§5).

Three entry points, in increasing generality:

* :func:`theorem3_plan` — the sound product formula for *pairwise
  c-independent* views (Theorem 3, with Lemma 3's appearance-probability
  condition ``∃ v_i: mb(q) ⊑ v_i``);
* :func:`find_c_independent_subset` — brute-force selection of a pairwise
  c-independent subset supporting Theorem 3 (NP-hard by Theorem 4 — the
  benchmark measures the blow-up on the k-dimensional-perfect-matching
  reduction instances);
* :func:`tpi_rewrite` — ``TPIrewrite`` (Figure 7): the general procedure,
  expanding ``V`` with compensated views, building the canonical plan, and
  deriving ``f_r`` from the ``S(q, V)`` linear system (Theorem 5).  Sound;
  complete unless ``mb(q)`` has only ``/``-edges (Proposition 6); PTime
  modulo the TP∩ equivalence tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from ..errors import RewritingError
from ..probability import BackendLike, get_backend
from ..store import MemoStore
from ..tp import ops
from ..tp.containment import contains
from ..tp.pattern import TreePattern
from ..tpi.containment import tpi_equivalent_tp
from ..views.extension import ProbabilisticViewExtension
from ..views.view import View
from .cindep import c_independent
from .decomposition import decompose_views
from .plans import TPIRewritePlan
from .single_view import probabilistic_tp_plan
from ..tp.embedding import evaluate as evaluate_deterministic

__all__ = [
    "theorem3_plan",
    "find_c_independent_subset",
    "tpi_rewrite",
    "canonical_plan_views",
    "appearance_view_exists",
]

Extensions = Mapping[str, ProbabilisticViewExtension]


# ======================================================================
# Theorem 3: pairwise c-independent views
# ======================================================================
def appearance_view_exists(q: TreePattern, patterns: Sequence[TreePattern]) -> bool:
    """Lemma 3's condition: some view contains the linear query ``mb(q)``.

    Exactly then is ``Pr(n ∈ P)`` computable from the extensions — it equals
    that view's result probability for every candidate node.
    """
    mb_q = ops.mb_pattern(q)
    return any(contains(pattern, mb_q) for pattern in patterns)


@dataclass(frozen=True)
class Theorem3Member:
    """One intersection operand: a view, possibly compensated with ``q_(a)``.

    A compensated member's probabilities are computed from its *base* view's
    extension via §4's machinery (Example 15 compensates ``v2BON`` with
    ``bonus[laptop]`` and still reads only ``P̂_{v2BON}``).
    """

    name: str
    base: View
    compensation_depth: Optional[int] = None

    def unfolded(self, q: TreePattern) -> TreePattern:
        if self.compensation_depth is None:
            return self.base.pattern
        return ops.compensation(
            self.base.pattern, ops.suffix(q, self.compensation_depth)
        )


_APPEARANCE_TAG = "__appearance__"


def theorem3_plan(
    q: TreePattern,
    members: Sequence[View | Theorem3Member],
    extensions: Extensions,
    check_equivalence: bool = True,
    backend: BackendLike = "exact",
    store: Optional[MemoStore] = None,
) -> Optional[TPIRewritePlan]:
    """Build Theorem 3's probabilistic TP∩-rewriting, if its conditions hold.

    ``f_r(n) = Π_i Pr(n ∈ v_i(P)) ÷ Pr(n ∈ P)^{m−1}``.  The conditions:
    the (unfolded) members are pairwise c-independent, their intersection is
    a deterministic rewriting of ``q``, and ``Pr(n ∈ P)`` is computable —
    Lemma 3: some member's *base* view contains ``mb(q)`` (its selection
    probability then equals the appearance probability for every candidate).
    """
    normalized = [
        member
        if isinstance(member, Theorem3Member)
        else Theorem3Member(member.name, member)
        for member in members
    ]
    unfolded = {member.name: member.unfolded(q) for member in normalized}
    for m1, m2 in itertools.combinations(normalized, 2):
        if not c_independent(unfolded[m1.name], unfolded[m2.name]):
            return None
    mb_q = ops.mb_pattern(q)
    anchor = next(
        (m for m in normalized if contains(m.base.pattern, mb_q)), None
    )
    if anchor is None:
        return None  # Lemma 3: Pr(n ∈ P) is not computable
    if check_equivalence and not tpi_equivalent_tp(list(unfolded.values()), q):
        return None  # not a deterministic rewriting
    oracles = {}
    for member in normalized:
        oracle = _theorem3_oracle(member, q, extensions, backend, store)
        if oracle is None:
            return None  # compensated member fails §4's conditions
        oracles[member.name] = oracle
    exponents = {member.name: Fraction(1) for member in normalized}
    names = [member.name for member in normalized]
    if len(normalized) > 1:
        oracles[_APPEARANCE_TAG] = _selection_oracle(
            extensions[anchor.base.name], backend
        )
        exponents[_APPEARANCE_TAG] = Fraction(1 - len(normalized))
        names.append(_APPEARANCE_TAG)

    def candidates() -> list[int]:
        common: Optional[set[int]] = None
        for member in normalized:
            keys = set(extensions[member.base.name].selection)
            common = keys if common is None else common & keys
        return sorted(common or set())

    return TPIRewritePlan(
        query=q,
        names=names,
        oracles=oracles,
        exponents=exponents,
        candidate_source=candidates,
        description=f"Theorem 3 plan over {', '.join(m.name for m in normalized)}",
        backend=backend,
    )


def _theorem3_oracle(
    member: Theorem3Member,
    q: TreePattern,
    extensions: Extensions,
    backend: BackendLike,
    store: Optional[MemoStore] = None,
):
    extension = extensions[member.base.name]
    if member.compensation_depth is None:
        return _selection_oracle(extension, backend)
    plan = probabilistic_tp_plan(
        member.unfolded(q), member.base, backend=backend, store=store
    )
    if plan is None:
        return None

    def oracle(node_id: int):
        return plan.fr(extension, node_id)

    return oracle


def _selection_oracle(
    extension: ProbabilisticViewExtension, backend: BackendLike = "exact"
):
    zero = get_backend(backend).zero

    def oracle(node_id: int):
        return extension.selection.get(node_id, zero)

    return oracle


def find_c_independent_subset(
    q: TreePattern,
    views: Sequence[View],
    require_appearance_view: bool = False,
) -> Optional[list[View]]:
    """Smallest pairwise c-independent subset forming a rewriting of ``q``.

    Brute force over subsets — deciding existence is NP-hard (Theorem 4, by
    reduction from k-dimensional perfect matching), so no polynomial
    procedure is expected; the benchmark charts the exponential growth.

    With ``require_appearance_view`` the subset must additionally contain a
    view satisfying Lemma 3 (needed to instantiate Theorem 3's ``f_r``; the
    NP-hard deterministic selection core does not require it).
    """
    for size in range(1, len(views) + 1):
        for subset in itertools.combinations(views, size):
            patterns = [view.pattern for view in subset]
            if not all(
                c_independent(a, b)
                for a, b in itertools.combinations(patterns, 2)
            ):
                continue
            if require_appearance_view and not appearance_view_exists(q, patterns):
                continue
            if tpi_equivalent_tp(patterns, q):
                return list(subset)
    return None


# ======================================================================
# TPIrewrite (Figure 7): compensated views + the S(q, V) system
# ======================================================================
@dataclass
class _PlanMember:
    """One (possibly compensated) view of the canonical plan ``V′``."""

    tag: str
    base: View
    unfolded: TreePattern  # over the original document root
    compensation_depth: Optional[int]  # None = original view
    probability_computable: bool  # membership in V″


def canonical_plan_views(
    q: TreePattern, views: Sequence[View]
) -> list[_PlanMember]:
    """``V′``: the given views plus every compensated view ``comp(v, q_(a))``.

    A compensated view joins ``V″`` (the probability-computable subset) iff
    §4's conditions hold for it over its base view — decided by reusing
    ``TPrewrite``'s per-view procedure.
    """
    members: list[_PlanMember] = []
    for view in views:
        members.append(
            _PlanMember(
                tag=view.name,
                base=view,
                unfolded=view.pattern,
                compensation_depth=None,
                probability_computable=True,
            )
        )
        branch = q.main_branch()
        for depth in range(1, len(branch) + 1):
            if branch[depth - 1].label != view.pattern.out.label:
                continue
            if not contains(view.pattern, ops.prefix(q, depth)):
                continue  # q^(a) ⋢ v
            unfolded = ops.compensation(view.pattern, ops.suffix(q, depth))
            if unfolded == view.pattern:
                continue  # the compensation is trivial
            plan = probabilistic_tp_plan(unfolded, view)
            members.append(
                _PlanMember(
                    tag=f"{view.name}@{depth}",
                    base=view,
                    unfolded=unfolded,
                    compensation_depth=depth,
                    probability_computable=plan is not None,
                )
            )
    return members


def tpi_rewrite(
    q: TreePattern,
    views: Sequence[View],
    extensions: Extensions,
    interleaving_limit: Optional[int] = None,
    backend: BackendLike = "exact",
    store: Optional[MemoStore] = None,
) -> Optional[TPIRewritePlan]:
    """``TPIrewrite`` (Figure 7): the canonical probabilistic TP∩-rewriting.

    Returns ``None`` when either the canonical deterministic plan is not a
    rewriting of ``q`` or the ``S(q, V″)`` system does not determine
    ``Pr(n ∈ q(P))``.  ``backend`` parameterizes the numeric domain of the
    returned plan's ``f_r`` and of its member oracles (compensated members
    route their §4 evaluations through per-extension query sessions).
    """
    members = canonical_plan_views(q, views)
    if not members:
        return None
    # Deterministic step: unfold(q_r) ≡ q over the V′ components.
    unfolded = [member.unfolded for member in members]
    if not tpi_equivalent_tp(unfolded, q, limit=interleaving_limit):
        return None
    # Probability step: S(q, V″).
    computable = [m for m in members if m.probability_computable]
    tagged = [(m.tag, m.unfolded) for m in computable]
    system = decompose_views(q, tagged)
    certificate = system.certificate()
    if certificate is None:
        return None
    oracles = {}
    for member in computable:
        oracles[member.tag] = _member_oracle(
            member, extensions, backend, store
        )
    exponents = {tag: coefficient for tag, coefficient in certificate.items()}

    def candidates() -> list[int]:
        common: Optional[set[int]] = None
        for member in members:
            ids = _member_candidates(member, extensions)
            common = ids if common is None else common & ids
        return sorted(common or set())

    return TPIRewritePlan(
        query=q,
        names=[m.tag for m in computable],
        oracles=oracles,
        exponents=exponents,
        candidate_source=candidates,
        description=(
            "TPIrewrite canonical plan over "
            + ", ".join(m.tag for m in members)
        ),
        backend=backend,
    )


def _member_oracle(
    member: _PlanMember,
    extensions: Extensions,
    backend: BackendLike = "exact",
    store: Optional[MemoStore] = None,
):
    """``Pr(n ∈ u_i(P))`` from the member's base-view extension only."""
    extension = extensions[member.base.name]
    if member.compensation_depth is None:
        return _selection_oracle(extension, backend)
    plan = probabilistic_tp_plan(
        member.unfolded, member.base, backend=backend, store=store
    )
    if plan is None:  # pragma: no cover - guarded by membership in V″
        raise RewritingError(f"member {member.tag} is not probability-computable")

    def oracle(node_id: int):
        return plan.fr(extension, node_id)

    return oracle


def _member_candidates(member: _PlanMember, extensions: Extensions) -> set[int]:
    """Node Ids the member's deterministic part can select, off its extension."""
    extension = extensions[member.base.name]
    if member.compensation_depth is None:
        return set(extension.selection)
    from ..views.view import doc_label
    from ..tp.parser import parse_pattern

    head = parse_pattern(
        f"{doc_label(member.base.name)}/{member.base.pattern.out.label}"
    )
    qr = ops.compensation(head, ops.suffix(member.unfolded, member.base.pattern.main_branch_length()))
    world = extension.pdocument.max_world()
    selected = evaluate_deterministic(qr, world)
    # Selected copies resolve to original Ids through the provenance
    # table (the marker-free form of the paper's Id(n) readout).
    return extension.provenance.originals_of(selected)
