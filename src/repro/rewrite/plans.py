"""Probabilistic rewriting plans: the pairs ``(q_r, f_r)`` of Definition 4.

A plan evaluates **only** over view extensions (the set ``D^P̂_V``), never
over the original p-document — that is the whole point of view-based
rewriting.  Two plan shapes exist:

* :class:`TPRewritePlan` — single-view plans built by ``TPrewrite`` (§4),
  using compensation.  ``f_r`` is Theorem 1's quotient in the restricted
  case and Theorem 2's inclusion-exclusion over the events ``e_i`` (with
  α-patterns and the paper's identity device, realized through
  provenance anchor sets) in the unrestricted case.
* :class:`TPIRewritePlan` — multi-view intersection plans (§5).  ``f_r`` is
  a product of per-view result probabilities raised to exact rational
  exponents; Theorem 3's formula and the solutions of the ``S(q, V)``
  linear system (Theorem 5) are both instances.

Both plan shapes carry a caller-chosen numeric ``backend`` (``"exact"``
Fractions by default, ``"fast"`` floats for throughput) and route their
inner evaluations — Theorem 1's numerators and denominators, Theorem 2's
α-pattern conjunctions — through a :class:`repro.prob.session.QuerySession`
over the extension p-document, so that a whole `evaluate()` call shares
one cross-query subtree memo instead of spawning a fresh exact evaluator
per candidate node.

The paper's ``Id(n)``-marker device is realized through *engine anchors*
over the extension's provenance table rather than marker pattern nodes:
pinning a pattern node to the set of ``n``'s occurrence copies
(:meth:`repro.views.extension.ProbabilisticViewExtension.
occurrence_copies`, served by :class:`repro.views.provenance.
ProvenanceTable`) is equivalent to requiring a legacy marker child
(extensions are Id-free and contain none), but keeps the goal table identical
across candidates — anchor values are abstracted out of the memo
fingerprints and re-bound to canonical anchor *positions*
(:mod:`repro.store.keys`), so the per-holder numerators, denominators
and α-pattern conjunctions that dominate Theorem-1/2 answering become
content-addressed store traffic instead of always-cold node-keyed work
(measured by ``benchmarks/bench_anchored.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from ..errors import RewritingError
from ..obs.trace import span as trace_span
from ..probability import BackendLike, ZERO, as_fraction, get_backend
from ..prob.session import QuerySession
from ..store import MemoStore
from ..tp import ops
from ..tp.embedding import evaluate as evaluate_deterministic
from ..tp.pattern import Axis, PatternNode, TreePattern
from ..views.extension import ProbabilisticViewExtension
from ..views.view import View
from .linsys import exact_power

__all__ = ["TPRewritePlan", "TPIRewritePlan", "ViewOracle"]


# ======================================================================
# Single-view plans (§4)
# ======================================================================
@dataclass
class TPRewritePlan:
    """A probabilistic TP-rewriting ``(q_r, f_r)`` using one view (§4).

    Attributes:
        query: the input query ``q``.
        view: the view ``v`` the plan reads.
        k: ``|mb(v)|`` — the compensation depth.
        compensation: ``q_(k)``, grafted below ``doc(v)/lbl(v)``.
        qr: the deterministic rewriting pattern over the extension document.
        restricted: Definition 5 (Theorem 1 applies); otherwise Theorem 2.
        u: the maximal prefix-suffix length of ``v``'s last token.
        backend: numeric backend the probability function computes in
            (``"exact"`` keeps Theorem 1/2's quotients bit-exact; ``"fast"``
            trades exactness for float throughput).
        store: optional :class:`repro.store.MemoStore` threaded into every
            session and engine the plan spawns over extension documents
            and their subdocuments — with a store shared with the base
            document (as :class:`repro.cache.RewritingCache` does),
            isomorphic subtrees of the document and its extensions share
            one evaluation, and the plan's anchored Theorem-1/2 traffic
            shares canonical anchor-position entries.
    """

    query: TreePattern
    view: View
    k: int
    compensation: TreePattern
    qr: TreePattern
    restricted: bool
    u: int
    backend: BackendLike = "exact"
    store: Optional[MemoStore] = None
    # Per-extension evaluation caches, single-slot keyed on the extension's
    # identity (all entries are derived from one extension's p-document and
    # must never leak to another): the session over the extension document
    # (cross-candidate subtree memo), Theorem 1's per-holder denominators,
    # and Theorem 2's per-holder subdocument sessions.
    _extension_caches: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    # Extension-independent derived patterns, built once per plan: the
    # denominator pattern ``v_(k)``, the view's last token and its
    # main-branch length, and the α-conjuncts per overlap length ``s``
    # (identical across candidates and holders).
    _derived: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _alpha_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- probability function f_r ----------------------------------------
    def fr(
        self,
        extension: ProbabilisticViewExtension,
        node_id: int,
        session: Optional[QuerySession] = None,
    ) -> Union[Fraction, float]:
        """``f_r(n)``: recover ``Pr(n ∈ q(P))`` from the view extension only.

        The value lives in the plan backend's domain.  ``session`` may
        supply a caller-owned :class:`QuerySession` over the extension
        p-document; by default the plan keeps one per extension so that
        repeated ``fr`` calls share the subtree memo.
        """
        backend = get_backend(self.backend)
        self._check_extension(extension, session)
        holders = extension.selected_ancestors_or_self(node_id)
        if not holders:
            return backend.zero
        if self.restricted:
            if session is None:
                session, _, _ = self._caches_for(extension)
            return self._fr_restricted(extension, node_id, holders, session, backend)
        return self._fr_inclusion_exclusion(extension, node_id, holders, backend)

    def _check_extension(
        self,
        extension: ProbabilisticViewExtension,
        session: Optional[QuerySession],
    ) -> None:
        if extension.view.name != self.view.name:
            raise RewritingError(
                f"plan reads view {self.view.name!r}, got {extension.view.name!r}"
            )
        if session is not None and session.p is not extension.pdocument:
            raise RewritingError(
                "supplied session is bound to a different p-document than "
                "the extension being evaluated"
            )

    def _caches_for(
        self, extension: ProbabilisticViewExtension
    ) -> tuple[QuerySession, dict, dict]:
        """The per-extension cache bundle ``(session, denominators,
        subdocument sessions)``, reset whenever the plan meets a different
        extension object."""
        cached = self._extension_caches
        if cached is None or cached[0] is not extension:
            cached = (
                extension,
                QuerySession(
                    extension.pdocument,
                    backend=self.backend,
                    store=self.store,
                ),
                {},
                {},
            )
            self._extension_caches = cached
        return cached[1], cached[2], cached[3]

    def _relevant_holder(
        self,
        extension: ProbabilisticViewExtension,
        node_id: int,
        holders: list[int],
    ) -> Optional[int]:
        """Theorem 1's unique relevant ancestor ``n_a`` (paper footnote 1).

        When the compensation's main branch is ``/``-only, it is the holder
        at exactly ``|mb(q_(k))|`` nodes' distance above ``n``; otherwise
        ``mb(v)`` is ``/``-only and every holder sits at the same document
        depth, so a node has at most one.
        """
        if not ops.mb_has_desc_edge(self.compensation):
            distance = self.compensation.main_branch_length()
            holders = [
                h
                for h in holders
                if extension.nodes_between(h, node_id) == distance
            ]
            if not holders:
                return None
        if len(holders) != 1:
            raise RewritingError(
                "restricted plan found several compensation-reachable "
                "ancestors; the rewriting is not restricted on this data"
            )
        return holders[0]

    def _fr_restricted(
        self,
        extension: ProbabilisticViewExtension,
        node_id: int,
        holders: list[int],
        session: QuerySession,
        backend,
    ):
        """Theorem 1: ``Pr(n ∈ q_r(P_v)) ÷ Pr(n_a ∈ v_(k)(P_v^{n_a}))``."""
        n_a = self._relevant_holder(extension, node_id, holders)
        if n_a is None:
            return backend.zero
        # Engine-anchored Id(n) device: out(q_r) pinned to n's occurrence
        # copies keeps the goal table candidate-independent, so the DP's
        # subtree work is content-addressed in the structural store.
        numerator = session.boolean_probability(
            self.qr, {self.qr.out: extension.occurrence_copies(node_id)}
        )
        denominator = self._denominator(extension, n_a, backend)
        if not denominator:
            return backend.zero
        return numerator / denominator

    def _suffix_and_token(self) -> tuple:
        """``(v_(k), last token, m)``, derived from the view once per plan."""
        cached = self._derived
        if cached is None:
            token = ops.last_token(self.view.pattern)
            cached = self._derived = (
                ops.suffix(self.view.pattern, self.k),
                token,
                token.main_branch_length(),
            )
        return cached

    def _denominator(
        self, extension: ProbabilisticViewExtension, holder: int, backend
    ):
        """``Pr(n_a ∈ v_(k)(P_v^{n_a}))``, cached per extension and holder.

        Evaluated through the holder's subdocument session, so Theorem 1's
        denominators and Theorem 2's base factors share one memo (and,
        with a store, one set of content-addressed entries).
        """
        _, denominators, _ = self._caches_for(extension)
        key = (holder, backend.name)
        if key not in denominators:
            out_token_node, _, _ = self._suffix_and_token()
            denominators[key] = self._subdocument_session(
                extension, holder
            ).boolean_probability(out_token_node)
        return denominators[key]

    def _fr_inclusion_exclusion(
        self,
        extension: ProbabilisticViewExtension,
        node_id: int,
        holders: list[int],
        backend,
    ):
        """Theorem 2 / Lemma 1: ``Pr(∨ e_i)`` by inclusion-exclusion.

        Each subset's joint probability decomposes as the top holder's
        base factor ``Pr(n_{i0} ∈ v(P)) ÷ Pr(n_{i0} ∈ v_(k)(P_v^{n_{i0}}))``
        times a conjunction evaluated inside ``P̂_v^{n_{i0}}`` — so all
        subsets sharing a top holder are batched through **one** shared
        session pass (:meth:`QuerySession.boolean_many`) over that
        holder's subdocument instead of one traversal per subset.
        """
        with trace_span("rewrite.t2.alpha", holders=len(holders)) as sp:
            total = backend.zero
            one = backend.one
            indices = range(len(holders))
            by_top: dict[int, list[tuple]] = {}
            for size in range(1, len(holders) + 1):
                sign = one if size % 2 == 1 else -one
                for subset in itertools.combinations(indices, size):
                    chosen = [holders[i] for i in subset]
                    by_top.setdefault(chosen[0], []).append((sign, chosen))
            subsets = 0
            for top, group in by_top.items():
                denominator = self._denominator(extension, top, backend)
                if not denominator:
                    continue
                base = backend.convert(extension.selection[top]) / denominator
                items = [
                    self._joint_event_item(extension, node_id, subset)
                    for _, subset in group
                ]
                probabilities = self._subdocument_session(
                    extension, top
                ).boolean_many(items)
                subsets += len(items)
                for (sign, _), probability in zip(group, probabilities):
                    total = total + sign * (base * probability)
            if sp:
                sp.set("subsets", subsets)
        return total

    def _joint_event_item(
        self,
        extension: ProbabilisticViewExtension,
        node_id: int,
        subset: list[int],
    ) -> tuple:
        """The ``(patterns, anchors)`` Boolean item for ``Pr(∩_{i∈S} e_i)``
        per Theorem 2's α-pattern construction, evaluated inside the top
        holder's result subdocument.

        ``subset`` is ordered top-down; its head contributes the base
        factor (handled by the caller), and all remaining events are
        tested jointly below it.  The ``Id(·)`` pins are engine anchors
        (occurrence-copy sets keyed by ``(component index, pattern
        path)``), so the conjunction's subtree work is content-addressed
        under anchor-position keys and the conjunct patterns themselves
        are candidate-independent (cached per overlap length).
        """
        top = subset[0]
        sub = extension.result_subdocument(top)
        anchors: dict = {}

        def pin(index: int, path: tuple, original_id: int) -> None:
            admissible = extension.occurrence_copies(original_id, within=sub)
            key = (index, path)
            if key in anchors:
                # Two pins landing on one pattern node (a trivial
                # compensation coalesces the α-chain's out with the final
                # out): the node must be a copy of both originals at once.
                anchors[key] = tuple(
                    set(anchors[key]) & set(admissible)
                )
            else:
                anchors[key] = admissible

        components = [self.compensation]
        pin(0, self.compensation.path_to(self.compensation.out), node_id)
        _, token, m = self._suffix_and_token()
        for index, deeper in enumerate(subset[1:], start=1):
            s = extension.nodes_between(top, deeper)
            component, (deeper_path, out_path) = self._alpha_component(
                token, m, s
            )
            components.append(component)
            pin(index, deeper_path, deeper)
            pin(index, out_path, node_id)
        return (components, anchors)

    def _subdocument_session(
        self, extension: ProbabilisticViewExtension, top: int
    ) -> QuerySession:
        _, _, sub_sessions = self._caches_for(extension)
        key = (top, get_backend(self.backend).name)
        session = sub_sessions.get(key)
        if session is None:
            session = sub_sessions[key] = QuerySession(
                extension.result_subdocument(top),
                backend=self.backend,
                store=self.store,
            )
        return session

    def _alpha_component(
        self, token: TreePattern, m: int, s: int
    ) -> tuple[TreePattern, tuple[tuple, tuple]]:
        """One α-pattern conjunct testing a deeper event ``e_j`` (§4.4).

        When the token images cannot overlap (``s > m``), the full last token
        is re-matched below the subtree root through a ``//``-edge; when they
        may overlap (``s ≤ m``), only the bottom ``s`` token nodes are
        matched, starting *at* the subtree root.

        Returns the conjunct together with the structural paths of its
        two pin points — the re-matched token's out (to be anchored at
        the deeper event's copies) and the grafted compensation's out (to
        be anchored at the candidate's copies); the caller binds both
        through engine anchors.  Conjuncts are cached per ``s``: with the
        ``Id(·)`` pins moved out of the pattern and into anchors, the
        construction no longer depends on the candidate or the deeper
        node.  (Within one subset the ``s`` values are strictly
        increasing, so one TP∩ item never holds the same object twice.)
        """
        cached = self._alpha_cache.get(s)
        if cached is not None:
            return cached
        if s > m:
            chain, mapping = token.copy_with_mapping()
            chain_out = mapping[id(token.out)]
            root = PatternNode(self.view.pattern.out.label, Axis.CHILD)
            chain_root = chain.root
            chain_root.axis = Axis.DESC
            root.add_child(chain_root)
            anchored = TreePattern(root, chain_out)
        else:
            anchored = ops.token_suffix_chain(token, s)
        full = ops.compensation(anchored, self.compensation)
        # comp() coalesces the compensation root with anchored.out, so the
        # pin point survives as the main-branch node at anchored's depth.
        merge = full.main_branch()[anchored.main_branch_length() - 1]
        result = (full, (full.path_to(merge), full.path_to(full.out)))
        self._alpha_cache[s] = result
        return result

    # -- full plan evaluation --------------------------------------------
    def evaluate(
        self,
        extension: ProbabilisticViewExtension,
        session: Optional[QuerySession] = None,
    ) -> dict[int, Union[Fraction, float]]:
        """The complete probabilistic answer ``q(P̂)`` from the extension.

        Restricted plans batch every candidate's numerator through one
        shared session pass (`QuerySession.boolean_many`); unrestricted
        plans share per-holder subdocument sessions across candidates.
        """
        backend = get_backend(self.backend)
        self._check_extension(extension, session)
        candidates = self._candidates(extension)
        answer: dict[int, Union[Fraction, float]] = {}
        if not candidates:
            return answer
        with trace_span(
            "rewrite.plan",
            kind="restricted" if self.restricted else "unrestricted",
            candidates=len(candidates),
        ) as sp:
            zero = backend.zero
            if self.restricted:
                if session is None:
                    session, _, _ = self._caches_for(extension)
                probabilities = self._restricted_batch(
                    extension, candidates, session, backend
                )
            else:
                probabilities = [
                    self.fr(extension, node_id) for node_id in candidates
                ]
            for node_id, probability in zip(candidates, probabilities):
                if probability > zero:
                    answer[node_id] = probability
            if sp:
                sp.set("answers", len(answer))
        return answer

    def _restricted_batch(
        self,
        extension: ProbabilisticViewExtension,
        candidates: list[int],
        session: QuerySession,
        backend,
    ) -> list:
        """Theorem 1 over a whole candidate list, numerators batched.

        Candidates without a compensation-reachable holder have ``f_r = 0``
        and are excluded from the numerator batch up front.
        """
        holder_of: dict[int, Optional[int]] = {}
        for node_id in candidates:
            holders = extension.selected_ancestors_or_self(node_id)
            holder_of[node_id] = (
                self._relevant_holder(extension, node_id, holders)
                if holders
                else None
            )
        evaluable = [n for n in candidates if holder_of[n] is not None]
        with trace_span("rewrite.t1.numerators", items=len(evaluable)):
            numerators = dict(
                zip(
                    evaluable,
                    session.boolean_many(
                        [
                            (
                                self.qr,
                                {self.qr.out: extension.occurrence_copies(n)},
                            )
                            for n in evaluable
                        ]
                    ),
                )
            )
        with trace_span("rewrite.t1.denominators", candidates=len(candidates)):
            probabilities = []
            for node_id in candidates:
                n_a = holder_of[node_id]
                if n_a is None:
                    probabilities.append(backend.zero)
                    continue
                denominator = self._denominator(extension, n_a, backend)
                probabilities.append(
                    numerators[node_id] / denominator
                    if denominator
                    else backend.zero
                )
        return probabilities

    def _candidates(self, extension: ProbabilisticViewExtension) -> list[int]:
        """Original node Ids that the deterministic part q_r may select.

        The selected extension nodes (copies) are resolved back to
        original Ids through the extension's provenance table — the
        marker-free form of the paper's ``Id(n)`` readout.
        """
        world = extension.pdocument.max_world()
        selected = evaluate_deterministic(self.qr, world)
        return sorted(extension.provenance.originals_of(selected))

    def describe(self) -> str:
        kind = "restricted" if self.restricted else "unrestricted"
        return f"{kind} TP-rewriting of {self.query.xpath()} using {self.view!r}"


# ======================================================================
# Multi-view plans (§5)
# ======================================================================
ViewOracle = Callable[[int], Union[Fraction, float]]
"""Returns ``Pr(n ∈ u_i(P))`` for the (possibly compensated) view ``u_i``,
computed from that view's extension only."""


@dataclass
class TPIRewritePlan:
    """A probabilistic TP∩-rewriting: ``f_r(n) = Π_i oracle_i(n)^{c_i}``.

    Attributes:
        query: the input query ``q``.
        names: the participating (possibly compensated) view names.
        oracles: per-view probability oracles (extension-only access).
        exponents: the exact rational exponents ``c_i``; Theorem 3's plan is
            the instance with ``c_i = 1`` and ``c_{mb-view} −= (m−1)``.
        candidate_source: yields the node Ids the deterministic part selects.
        backend: numeric backend of the product ``f_r``.  ``"exact"`` uses
            the exact rational root extraction of :func:`repro.rewrite.
            linsys.exact_power`; any other backend computes float powers.
    """

    query: TreePattern
    names: list[str]
    oracles: dict[str, ViewOracle]
    exponents: dict[str, Fraction]
    candidate_source: Callable[[], Sequence[int]]
    description: str = ""
    backend: BackendLike = "exact"

    def fr(self, node_id: int) -> Union[Fraction, float]:
        backend = get_backend(self.backend)
        factors: list[tuple] = []
        for name in self.names:
            exponent = self.exponents.get(name, ZERO)
            if exponent == ZERO:
                continue
            factor = self.oracles[name](node_id)
            if not factor:
                return backend.zero
            factors.append((factor, exponent))
        if backend.name == "exact":
            return exact_power(
                [(as_fraction(base), exponent) for base, exponent in factors]
            )
        product = backend.one
        for base, exponent in factors:
            product = product * backend.convert(
                float(base) ** float(exponent)
            )
        return product

    def evaluate(self) -> dict[int, Union[Fraction, float]]:
        zero = get_backend(self.backend).zero
        answer: dict[int, Union[Fraction, float]] = {}
        for node_id in self.candidate_source():
            probability = self.fr(node_id)
            if probability > zero:
                answer[node_id] = probability
        return answer
