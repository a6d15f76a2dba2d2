"""Single-pass evaluation engine for TP / TP∩ queries over p-documents.

This module is the production probability path.  It keeps the goal-set
dynamic program documented in :mod:`repro.prob.evaluator` — for every
pattern node ``u`` a goal ``D(u)`` ("the pattern subtree at ``u`` embeds
with ``u`` mapped to *this* document node") and a goal ``A(u)`` ("... to
this node or a proper descendant") — but changes the machinery in three
ways:

**Interned goal-set bitmasks.**  Goal sets are machine integers instead of
``frozenset[int]``: goal ``i`` owns bit ``1 << i``, union-convolution is
``int | int``, the subset tests of the ordinary-node rewrite are
``mask & need == need``, and distribution keys hash as small ints.

**Pluggable numeric backends.**  All arithmetic goes through a
:class:`repro.probability.NumericBackend` — ``exact`` (:class:`Fraction`,
default, keeps the paper's worked examples bit-exact) or ``fast``
(``float``, for throughput).  Backend values only ever meet ``+``, ``-``,
``*`` and truthiness, so further backends (intervals, log-space) drop in.

**One DP traversal for *all* candidate anchors.**  The per-candidate
formulation (``Pr(n ∈ q(P̂))`` = one anchored bottom-up pass per candidate
``n``) multiplies the document-size factor by the answer size.  Instead,
:meth:`EvaluationEngine.answer` carries, for every p-document node ``x``,

* ``blocked(x)`` — the goal-set distribution of ``x``'s subtree where the
  output nodes' ``D`` goals are never granted (equivalently: the anchored
  run restricted to a subtree that does not contain the anchor), and
* ``pinned(x)[n]`` — for each candidate ``n`` in ``x``'s subtree, the
  distribution where output ``D`` goals are granted *only* at ``n``
  (exactly the distribution of the classic anchored run),

and combines them in a single post-order traversal: a node's ``pinned``
entry for ``n`` reuses the ``blocked`` distributions of every child
subtree not containing ``n`` (via prefix/suffix convolutions for ``ind``
and ordinary nodes, and an O(1)-per-candidate mixture update for ``mux``),
so each p-document node is visited at most once no matter how many
candidates there are (query-neutral subtrees are not visited at all).
The instrumented :attr:`EvaluationEngine.visits` counter asserts this in
the test suite.

Complexity: ``O(|P̂| · s²)`` shared work plus ``O(depth(n) · s²)`` per
candidate ``n`` for the path recombinations — versus ``O(|answer| · |P̂| ·
s²)`` for the per-candidate loop, where ``s`` bounds the number of
distinct goal sets.

The engine is also the building block of the *workload session* layer
(:mod:`repro.prob.session`): :class:`QuerySession` drives one shared
post-order traversal for a whole batch of queries, calling back into
:meth:`EvaluationEngine.combine_pinned` / :meth:`combine_unpinned` per
query and per p-document node, and reuses per-subtree distributions
across queries through :meth:`goal_table_fingerprint`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Mapping, Optional, Sequence, Union

from ..errors import PatternError
from ..obs.trace import span as trace_span
from ..probability import (
    BackendLike,
    NumericBackend,
    distribution_ops,
    get_backend,
)
from ..pxml.pdocument import PDocument, PNode, PNodeKind
from ..store import GATE_BLOCKED, GATE_UNPINNED, MemoStore, SubtreeKeyer
from ..tp.embedding import evaluate as evaluate_deterministic
from ..tp.pattern import Axis, PatternNode, TreePattern
from .traversal import Lane, stored_postorder

__all__ = [
    "EvaluationEngine",
    "AnchorsLike",
    "normalize_anchors",
    "boolean_probability",
    "node_probability",
    "conditional_node_probability",
    "query_answer",
    "intersection_answer",
    "intersection_node_probability",
]

#: A goal-set distribution: interned bitmask -> backend probability value.
Distribution = dict

AnchorKey = Union[PatternNode, tuple, int]
AnchorTarget = Union[int, "Sequence[int]"]
AnchorsLike = Mapping[AnchorKey, AnchorTarget]
"""Maps a pattern node to the document node Id(s) it must be mapped to.

A target is a single node Id, or an iterable of Ids when several document
nodes are admissible images (e.g. the occurrence copies of one original
node inside a view extension, read off its provenance table — the
engine-level form of the paper's ``Id(n)``-marker device, which Id-free
extensions realize without marker nodes).  An empty iterable pins the
node to nothing: the pattern cannot match.

Keys may be, in order of preference:

* the :class:`PatternNode` object itself (stable across the evaluation);
* a structural path as returned by :meth:`TreePattern.path_to` — valid
  when a single pattern is evaluated; anchors can then be persisted and
  re-applied to copies of the pattern;
* ``(pattern_index, path)`` — a pattern index paired with such a path,
  for multi-pattern (TP∩) evaluation, e.g. ``(1, q2.path_to(node))``;
* ``id(pattern_node)`` (a bare ``int``).  **Deprecated**: object ids are
  recycled by the interpreter and break on copied patterns; pass the
  ``PatternNode`` or its path instead.  Accepted for backward
  compatibility with the pre-engine ``Mapping[int, int]`` form.
"""

# Output-goal gates for the ordinary-node rewrite (identity-compared).
_GRANT_ALL = object()   # unpinned evaluation: out D-goals behave normally
_GRANT_NONE = object()  # blocked evaluation: out D-goals never granted


def normalize_anchors(
    patterns: Sequence[TreePattern], anchors: Optional[AnchorsLike]
) -> dict[int, frozenset]:
    """Normalize any accepted anchor form to ``{id(pattern_node): ids}``.

    See :data:`AnchorsLike` for the accepted key forms; each target
    becomes a ``frozenset`` of admissible document node Ids (a singleton
    for the common scalar form).

    Raises:
        PatternError: when a key does not resolve to a node of ``patterns``
            or a target is neither an Id nor an iterable of Ids.
    """
    if not anchors:
        return {}
    known = {id(u) for q in patterns for u in q.root.iter_subtree()}
    normalized: dict[int, frozenset] = {}
    for key, target in anchors.items():
        if isinstance(key, PatternNode):
            uid = id(key)
            if uid not in known:
                raise PatternError(
                    f"anchored node {key!r} is not part of any evaluated pattern"
                )
        elif isinstance(key, tuple):
            uid = id(_resolve_path_key(patterns, key))
        elif isinstance(key, int) and not isinstance(key, bool):
            if key not in known:
                raise PatternError(
                    f"legacy anchor key {key} is not the id() of any "
                    "evaluated pattern node"
                )
            uid = key
        else:
            raise PatternError(f"unsupported anchor key {key!r}")
        normalized[uid] = _normalize_anchor_target(key, target)
    return normalized


def _normalize_anchor_target(key, target) -> frozenset:
    if isinstance(target, int) and not isinstance(target, bool):
        return frozenset((target,))
    if isinstance(target, str):
        # A numeric string is the legacy scalar form (int(target) before
        # Id sets existed) — it must NOT fall into the iterable branch,
        # which would silently anchor to its digit characters.
        try:
            return frozenset((int(target),))
        except ValueError:
            raise PatternError(
                f"anchor target {target!r} for {key!r} is not a document "
                "node Id"
            ) from None
    try:
        members = frozenset(int(doc_id) for doc_id in target)
    except (TypeError, ValueError):
        raise PatternError(
            f"anchor target {target!r} for {key!r} is neither a document "
            "node Id nor an iterable of Ids"
        ) from None
    return members


def _resolve_path_key(
    patterns: Sequence[TreePattern], key: tuple
) -> PatternNode:
    """Resolve a tuple anchor key to a pattern node.

    The two accepted shapes are structurally distinct: ``(index, path)``
    has exactly one tuple element, a bare :meth:`TreePattern.path_to`
    result is all ints — so a bare path can never be misread as an
    indexed one.
    """
    if len(key) == 2 and isinstance(key[0], int) and isinstance(key[1], tuple):
        index, path = key
        try:
            pattern = patterns[index]
        except IndexError:
            raise PatternError(
                f"anchor key {key!r}: no pattern with index {index}"
            ) from None
        return pattern.node_at(path)
    if not all(isinstance(step, int) for step in key):
        raise PatternError(f"malformed anchor path {key!r}")
    if len(patterns) != 1:
        raise PatternError(
            f"bare anchor path {key!r} is ambiguous over {len(patterns)} "
            "patterns; use (pattern_index, path) or a PatternNode key"
        )
    return patterns[0].node_at(key)


class EvaluationEngine:
    """One joint evaluation of several patterns over a p-document.

    Args:
        p: the p-document.
        patterns: the tree patterns evaluated jointly (one for TP; several
            for TP∩).
        anchors: optional static anchors, see :data:`AnchorsLike`.
        backend: numeric backend name or instance (default ``"exact"``).
        store: optional :class:`repro.store.MemoStore` — subtree
            distributions are then consulted/filled under the canonical
            structural keys (:mod:`repro.store.api`), skipping whole
            subtrees whose evaluation a previous engine, session, or
            process already performed.  Anchored restrictions are keyed
            by canonical anchor *positions* (digest-sorted rank paths),
            so they share entries across isomorphic subtrees too.

    Attributes:
        visits: cumulative count of p-document nodes combined by the DP —
            at most one increment per node per traversal.  :meth:`answer`
            performs exactly one traversal regardless of the candidate
            count; it skips query-neutral subtrees (no goal-table label
            below), so a fresh store-less engine's ``answer()`` combines
            exactly the nodes whose label set meets :attr:`table_labels`
            (a store additionally skips memoized subtrees).
    """

    def __init__(
        self,
        p: PDocument,
        patterns: Sequence[TreePattern],
        anchors: Optional[AnchorsLike] = None,
        backend: BackendLike = "exact",
        store: Optional[MemoStore] = None,
    ) -> None:
        self.p = p
        self.patterns = list(patterns)
        self.backend: NumericBackend = get_backend(backend)
        self.anchors = normalize_anchors(self.patterns, anchors)
        self.store = store
        self.visits = 0
        self._zero = self.backend.zero
        self._one = self.backend.one
        self._convert = self.backend.convert
        # Goal numbering: index i gets D-bit 1 << 2i and A-bit 1 << (2i+1).
        self._goal_index: dict[int, int] = {}
        self._pattern_nodes: list[PatternNode] = []
        for pattern in self.patterns:
            for u in pattern.root.iter_subtree():
                self._goal_index[id(u)] = len(self._pattern_nodes)
                self._pattern_nodes.append(u)
        out_ids = {id(pattern.out) for pattern in self.patterns}
        a_mask = 0
        # label -> [(d_bit, a_bit, needed-below mask, anchor, is_out), ...]
        self._by_label: dict[str, list[tuple[int, int, int, Optional[int], bool]]] = {}
        for u in self._pattern_nodes:
            index = self._goal_index[id(u)]
            d_bit, a_bit = 1 << (2 * index), 1 << (2 * index + 1)
            a_mask |= a_bit
            need = 0
            for child in u.children:
                child_index = self._goal_index[id(child)]
                need |= (
                    1 << (2 * child_index)
                    if child.axis is Axis.CHILD
                    else 1 << (2 * child_index + 1)
                )
            self._by_label.setdefault(u.label, []).append(
                (d_bit, a_bit, need, self.anchors.get(id(u)), id(u) in out_ids)
            )
        self._a_mask = a_mask
        self._table_labels = frozenset(self._by_label)
        self._targets = 0
        for pattern in self.patterns:
            self._targets |= 1 << (2 * self._goal_index[id(pattern.root)])
        # Distribution kernels: the backend's ops object (ScalarOps for
        # plain scalar backends, vectorized kernels for "array").  The
        # hot per-entry kernels are re-exported as engine methods so the
        # combine steps below read as before.
        self._ops = distribution_ops(self.backend, 2 * len(self._pattern_nodes))
        self._unit = self._ops.unit
        self._convolve = self._ops.convolve
        self._mixture = self._ops.mixture

    # ------------------------------------------------------------------
    # Goal ids (kept for compatibility with the pre-engine evaluator)
    # ------------------------------------------------------------------
    def d_goal(self, u: PatternNode) -> int:
        return 2 * self._goal_index[id(u)]

    def a_goal(self, u: PatternNode) -> int:
        return 2 * self._goal_index[id(u)] + 1

    # ------------------------------------------------------------------
    # Batch-evaluation surface (used by repro.prob.session)
    # ------------------------------------------------------------------
    def pattern_target(self, pattern: TreePattern) -> int:
        """The root ``D``-goal bitmask of one evaluated pattern.

        A goal-set distribution's mass over this target (see :meth:`mass`)
        is ``Pr(pattern matches)`` — the per-query marginal when several
        queries are evaluated in one session pass.
        """
        index = self._goal_index.get(id(pattern.root))
        if index is None:
            raise PatternError(
                f"{pattern!r} is not one of this engine's evaluated patterns"
            )
        return 1 << (2 * index)

    def mass(self, distribution: Distribution, targets: Optional[int] = None):
        """Total probability of goal sets covering ``targets``.

        ``targets`` defaults to the joint root ``D``-goals of all evaluated
        patterns (the TP∩ semantics of :meth:`match_probability`).
        """
        if targets is None:
            targets = self._targets
        return self._ops.mass(distribution, targets)

    def goal_table_fingerprint(
        self, labels: frozenset
    ) -> tuple[tuple, bool, tuple]:
        """Canonical form of the goal table restricted to ``labels``.

        Two engines whose fingerprints agree on a p-subtree's label set
        compute bit-identical distributions on that subtree — provided
        their anchors pin corresponding nodes: every combine step depends
        only on the subtree's structure, on the table entries of labels
        occurring in it (``need`` masks referencing absent-label goals can
        never be satisfied below, and absent goals' bits never enter the
        masks, so the surrounding table is inert), and on which concrete
        subtree nodes the anchored entries admit.  This is the cross-query
        memo key of :class:`repro.prob.session.QuerySession`.

        Anchor *values* are abstracted out of the fingerprint: an anchored
        entry carries a slot index instead of its document node Ids, and
        the Ids are returned separately, in slot order.  The store layer
        re-binds the slots to canonical anchor positions
        (:meth:`repro.store.keys.SubtreeKeyer.store_key`), which is what
        makes anchored evaluations shareable across isomorphic subtrees.

        Returns ``(fingerprint, out_sensitive, anchor_targets)`` —
        ``out_sensitive`` is true when the restriction contains an
        output-node entry, i.e. when the blocked (``_GRANT_NONE``) and
        unpinned (``_GRANT_ALL``) evaluations of the subtree may differ;
        ``anchor_targets`` holds one sorted Id tuple per anchored entry
        of the restriction (empty for unanchored restrictions).
        """
        items = []
        targets: list[tuple] = []
        out_sensitive = False
        for label in sorted(self._table_labels & labels):
            entries = []
            for d_bit, a_bit, need, anchor, is_out in self._by_label[label]:
                if is_out:
                    out_sensitive = True
                if anchor is None:
                    slot = None
                else:
                    slot = len(targets)
                    targets.append(tuple(sorted(anchor)))
                entries.append((d_bit, a_bit, need, slot, is_out))
            items.append((label, tuple(entries)))
        return tuple(items), out_sensitive, tuple(targets)

    @property
    def table_labels(self) -> frozenset:
        """The labels carrying goal-table entries (fingerprint support)."""
        return self._table_labels

    def combine_pinned(
        self, node: PNode, entries: Mapping, candidate_set: frozenset
    ) -> tuple[Distribution, dict]:
        """One pinned-DP combine step: ``(blocked, pinned)`` for ``node``.

        ``entries`` maps each child's ``node_id`` to its own
        ``(blocked, pinned)`` pair.  Counts one node visit.
        """
        self.visits += 1
        if node.kind is PNodeKind.ORDINARY:
            return self._combine_ordinary_pinned(node, entries, candidate_set)
        if node.kind is PNodeKind.MUX:
            return self._combine_mux_pinned(node, entries)
        return self._combine_ind_pinned(node, entries)

    def combine_unpinned(self, node: PNode, entries: Mapping) -> Distribution:
        """One unpinned-DP combine step (anchored / Boolean evaluation).

        ``entries`` maps each child's ``node_id`` to its distribution.
        Counts one node visit.
        """
        self.visits += 1
        return self._combine_single(node, entries)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def match_probability(self):
        """``Pr(every pattern has an embedding respecting the anchors)``.

        One unpinned DP traversal; returns a backend value.
        """
        sp = trace_span(
            "engine.match",
            patterns=len(self.patterns),
            backend=self.backend.name,
            anchored=bool(self.anchors),
        )
        if sp:
            visits_before = self.visits
        with sp:
            mass = self.mass(self._single_pass())
        if sp:
            sp.set("node_visits", self.visits - visits_before)
        return mass

    def candidate_ids(self) -> set[int]:
        """Node Ids that *some* world may select for every pattern jointly.

        Read off the maximal world, a superset of every possible world.
        """
        world = self.p.max_world()
        sets = [evaluate_deterministic(q, world) for q in self.patterns]
        return set.intersection(*sets) if sets else set()

    def answer(
        self, candidates: Optional[Sequence[int]] = None
    ) -> dict:
        """``(q1 ∩ ... ∩ qk)(P̂)`` as ``{node_id: probability}``.

        Every output node is pinned to each candidate in turn — but all
        candidates are processed by **one** bottom-up traversal of the
        p-document (see the module docstring), so the document-size factor
        of the complexity does not multiply with the answer size.

        Args:
            candidates: optional candidate node Ids; defaults to
                :meth:`candidate_ids`.
        """
        if candidates is None:
            candidates = self.candidate_ids()
        candidate_set = frozenset(candidates)
        if not candidate_set:
            return {}
        sp = trace_span(
            "engine.answer",
            patterns=len(self.patterns),
            backend=self.backend.name,
            candidates=len(candidate_set),
        )
        if sp:
            visits_before = self.visits
        with sp:
            zero = self._zero
            _, pinned = self._pinned_pass(candidate_set)
            answer: dict = {}
            for node_id in sorted(candidate_set):
                distribution = pinned.get(node_id)
                if distribution is None:
                    continue
                probability = self.mass(distribution)
                if probability > zero:
                    answer[node_id] = probability
        if sp:
            sp.set("node_visits", self.visits - visits_before)
            sp.set("answers", len(answer))
        return answer

    # ------------------------------------------------------------------
    # Shared distribution machinery
    # ------------------------------------------------------------------
    # Distributions are immutable by convention: every kernel builds a
    # fresh distribution or returns an existing one unmodified, so they
    # may be shared freely between memo entries (including the cross-query
    # subtree memo of repro.prob.session).  The per-entry kernels
    # (_unit / _convolve / _mixture) are bound from the backend's ops
    # object in __init__; the gate translation to the ops layer lives
    # here.
    def _rewrite(self, node: PNode, distribution: Distribution, gate) -> Distribution:
        """Apply ``node``'s goal rewrite under ``gate`` (see _GRANT_*)."""
        return self._ops.rewrite(
            distribution,
            self._by_label.get(node.label),
            node.node_id,
            gate is not _GRANT_NONE,
            self._a_mask,
        )

    # ------------------------------------------------------------------
    # Unpinned single-distribution DP (anchored / Boolean evaluation)
    # ------------------------------------------------------------------
    def _keyer(self) -> Optional[SubtreeKeyer]:
        if self.store is None:
            return None
        return SubtreeKeyer(self.p, self, self.backend)

    def _single_pass(self) -> Distribution:
        """Unpinned DP as a single lane of the shared traversal.

        Neutral subtrees (no goal-table label below) short-circuit to the
        unit distribution; with a store, subtrees whose canonical key
        (anchored restrictions included) is cached are not traversed at
        all.
        """
        lane = Lane(
            table_labels=self._table_labels,
            combine=self.combine_unpinned,
            unit=self._unit(),
            keyer=self._keyer(),
            gate=GATE_UNPINNED,
        )
        return stored_postorder(self.p, [lane], self.store)[0]

    def _combine_single(self, node: PNode, memo: dict) -> Distribution:
        return self._combine_single_gated(node, memo, _GRANT_ALL)

    def _combine_single_gated(
        self, node: PNode, memo: dict, gate
    ) -> Distribution:
        """One single-distribution combine step under an explicit gate.

        ``_GRANT_ALL`` is the unpinned evaluation; ``_GRANT_NONE`` yields
        the *blocked* distribution (what :meth:`combine_pinned` computes
        as the first half of its pair) — the stacked session pass
        (:mod:`repro.prob.stacked`) uses the latter for lanes that hold
        no candidate below a node.
        """
        if node.kind is PNodeKind.ORDINARY:
            combined = self._unit()
            for child in node.children:
                combined = self._convolve(combined, memo[child.node_id])
            return self._rewrite(node, combined, gate)
        assert node.probabilities is not None
        if node.kind is PNodeKind.MUX:
            return self._mux_mixture(
                node, [memo[child.node_id] for child in node.children]
            )
        combined = self._unit()  # ind
        for child in node.children:
            combined = self._convolve(
                combined,
                self._mixture(
                    self._convert(node.probabilities[child.node_id]),
                    memo[child.node_id],
                ),
            )
        return combined

    def _mux_mixture(
        self, node: PNode, child_distributions: Sequence[Distribution]
    ) -> Distribution:
        assert node.probabilities is not None
        return self._ops.mux_mixture(
            (self._convert(node.probabilities[child.node_id]), distribution)
            for child, distribution in zip(node.children, child_distributions)
        )

    # ------------------------------------------------------------------
    # Single-pass multi-candidate DP
    # ------------------------------------------------------------------
    def _pinned_pass(
        self, candidate_set: frozenset
    ) -> tuple[Distribution, dict]:
        """One post-order traversal computing ``(blocked, pinned)`` per node.

        Returns the root's pair; ``pinned`` maps each candidate Id to the
        goal-set distribution of the run anchored at that candidate.  It
        is a single pinned lane of the shared traversal: only *blocked*
        distributions are content-addressable (pinned maps name candidate
        node Ids — document identity), so with a store, subtrees holding
        no candidate are skipped on a hit while candidate-bearing subtrees
        are combined and contribute their blocked halves.
        """
        lane = Lane(
            table_labels=self._table_labels,
            combine=partial(self.combine_pinned, candidate_set=candidate_set),
            unit=self._unit(),
            keyer=self._keyer(),
            live=self.p.ancestral_closure(candidate_set),
            gate=GATE_BLOCKED,
            pinned=True,
        )
        return stored_postorder(self.p, [lane], self.store)[0]

    def _combine_ordinary_pinned(
        self, node: PNode, memo: dict, candidate_set: frozenset
    ) -> tuple[Distribution, dict]:
        children = node.children
        blocked_children = [memo[child.node_id][0] for child in children]
        # pre[i] = convolution of the first i children's blocked distributions
        pre = [self._unit()]
        for distribution in blocked_children:
            pre.append(self._convolve(pre[-1], distribution))
        combined_all = pre[-1]
        blocked = self._rewrite(node, combined_all, _GRANT_NONE)
        pinned: dict = {}
        if node.node_id in candidate_set:
            # Pinning at the node itself: out goals may be granted here and
            # nowhere below — which is exactly the children-blocked run.
            pinned[node.node_id] = self._rewrite(node, combined_all, _GRANT_ALL)
        if any(memo[child.node_id][1] for child in children):
            count = len(children)
            # suf[i] = convolution of children i.. 's blocked distributions
            suf = [self._unit()] * (count + 1)
            for i in range(count - 1, -1, -1):
                suf[i] = self._convolve(blocked_children[i], suf[i + 1])
            for j, child in enumerate(children):
                child_pinned = memo[child.node_id][1]
                if not child_pinned:
                    continue
                others = self._convolve(pre[j], suf[j + 1])
                for candidate, distribution in child_pinned.items():
                    below = self._convolve(others, distribution)
                    # The pin lives strictly below, so out goals are not
                    # granted at this node: the blocked gate is exact.
                    pinned[candidate] = self._rewrite(node, below, _GRANT_NONE)
        return blocked, pinned

    def _combine_mux_pinned(
        self, node: PNode, memo: dict
    ) -> tuple[Distribution, dict]:
        assert node.probabilities is not None
        ops = self._ops
        blocked = self._mux_mixture(
            node, [memo[child.node_id][0] for child in node.children]
        )
        pinned: dict = {}
        for child in node.children:
            child_pinned = memo[child.node_id][1]
            if not child_pinned:
                continue
            p_child = self._convert(node.probabilities[child.node_id])
            # rest = blocked − p_child · blocked(child): the mixture of every
            # *other* choice, shared by all candidates below this child.
            rest = ops.scale_subtract(blocked, p_child, memo[child.node_id][0])
            for candidate, distribution in child_pinned.items():
                pinned[candidate] = ops.scale_accumulate(
                    rest, p_child, distribution
                )
        return blocked, pinned

    def _combine_ind_pinned(
        self, node: PNode, memo: dict
    ) -> tuple[Distribution, dict]:
        assert node.probabilities is not None
        children = node.children
        edge_probabilities = [
            self._convert(node.probabilities[child.node_id]) for child in children
        ]
        mixtures = [
            self._mixture(p_child, memo[child.node_id][0])
            for p_child, child in zip(edge_probabilities, children)
        ]
        pre = [self._unit()]
        for mixture in mixtures:
            pre.append(self._convolve(pre[-1], mixture))
        blocked = pre[-1]
        pinned: dict = {}
        if any(memo[child.node_id][1] for child in children):
            count = len(children)
            suf = [self._unit()] * (count + 1)
            for i in range(count - 1, -1, -1):
                suf[i] = self._convolve(mixtures[i], suf[i + 1])
            for j, child in enumerate(children):
                child_pinned = memo[child.node_id][1]
                if not child_pinned:
                    continue
                others = self._convolve(pre[j], suf[j + 1])
                p_child = edge_probabilities[j]
                for candidate, distribution in child_pinned.items():
                    pinned[candidate] = self._convolve(
                        others, self._mixture(p_child, distribution)
                    )
        return blocked, pinned


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------
def boolean_probability(
    p: PDocument,
    q: TreePattern,
    anchors: Optional[AnchorsLike] = None,
    backend: BackendLike = "exact",
    store: Optional[MemoStore] = None,
):
    """``Pr(q matches P)`` — the Boolean-query probability."""
    return EvaluationEngine(p, [q], anchors, backend, store).match_probability()


def node_probability(
    p: PDocument,
    q: TreePattern,
    node_id: int,
    backend: BackendLike = "exact",
    store: Optional[MemoStore] = None,
):
    """``Pr(n ∈ q(P))`` for a specific ordinary node ``n``.

    One full anchored DP per call; prefer :func:`query_answer` (or
    :meth:`EvaluationEngine.answer`) when several nodes are needed.
    """
    return EvaluationEngine(
        p, [q], {q.out: node_id}, backend, store
    ).match_probability()


def conditional_node_probability(
    p: PDocument,
    q: TreePattern,
    node_id: int,
    backend: BackendLike = "exact",
    store: Optional[MemoStore] = None,
):
    """``Pr(n ∈ q(P) | n ∈ P)`` (§5.2)."""
    resolved = get_backend(backend)
    appearance = resolved.convert(p.appearance_probability(node_id))
    if not appearance:
        return resolved.zero
    return node_probability(p, q, node_id, backend, store) / appearance


def query_answer(
    p: PDocument,
    q: TreePattern,
    backend: BackendLike = "exact",
    stats: Optional[dict] = None,
    store: Optional[MemoStore] = None,
    profile: bool = False,
):
    """``q(P̂)``: node Id ↦ probability, for all nodes with probability > 0.

    Candidates are read off the maximal world (a superset of every world);
    their probabilities are then all computed by **one** DP traversal of
    the p-document.

    Args:
        stats: optional instrumentation sink; receives ``node_visits``
            (DP node visits — without a store, the nodes whose subtree
            holds a query label) and ``candidates``.
        store: optional structural memo store consulted/filled by the
            traversal (see :class:`EvaluationEngine`).
        profile: trace the call (enabling tracing for its duration if it
            was off) and return ``(answer, profile)`` where ``profile``
            is the query's :class:`repro.obs.CostProfile`.
    """
    if profile:
        from ..obs.profile import build_profiles
        from ..obs.trace import capture as trace_capture

        with trace_capture() as captured:
            answer = query_answer(p, q, backend, stats, store)
        return answer, build_profiles(captured.spans, [q.xpath()])[0]
    engine = EvaluationEngine(p, [q], backend=backend, store=store)
    candidates = engine.candidate_ids()
    answer = engine.answer(candidates)
    if stats is not None:
        stats["node_visits"] = engine.visits
        stats["candidates"] = len(candidates)
    return answer


def intersection_node_probability(
    p: PDocument,
    patterns: Sequence[TreePattern],
    node_id: int,
    backend: BackendLike = "exact",
    store: Optional[MemoStore] = None,
):
    """``Pr(n ∈ (q1 ∩ ... ∩ qk)(P))`` — joint, correlation-aware."""
    anchors = {q.out: node_id for q in patterns}
    return EvaluationEngine(
        p, patterns, anchors, backend, store
    ).match_probability()


def intersection_answer(
    p: PDocument,
    patterns: Sequence[TreePattern],
    backend: BackendLike = "exact",
    stats: Optional[dict] = None,
    store: Optional[MemoStore] = None,
) -> dict:
    """``(q1 ∩ ... ∩ qk)(P̂)`` as node Id ↦ probability — single DP pass."""
    engine = EvaluationEngine(p, patterns, backend=backend, store=store)
    candidates = engine.candidate_ids()
    answer = engine.answer(candidates)
    if stats is not None:
        stats["node_visits"] = engine.visits
        stats["candidates"] = len(candidates)
    return answer
