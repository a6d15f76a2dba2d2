"""Single-pass evaluation engine for TP / TP∩ queries over p-documents.

This module is the probability path.  It runs the classic goal-set
dynamic program — goals ``D(u)`` ("the pattern subtree at ``u`` embeds
with ``u`` mapped to *this* document node") and ``A(u)`` ("... to this
node or a proper descendant"), union-convolution at ordinary and ``ind``
nodes, probability mixtures at ``mux`` nodes — with four refinements:

**One live goal per pattern node.**  Each pattern node carries only the
goal some reader consumes: ``D`` for the root (read by the readout) and
for a ``/`` child (read by the rewrite one ordinary level up), ``A`` for
a ``//`` child (read by the rewrite at any ordinary ancestor).  Only the
``A`` goals propagate upward, so no row holds a goal nothing reads.

**Interned goal-set bitmasks.**  Goal sets are machine integers instead of
``frozenset[int]``: pattern node ``i``'s goal owns bit ``1 << i``,
union-convolution is ``int | int``, the subset tests of the ordinary-node
rewrite are ``mask & need == need``, and distribution keys hash as small
ints.

**Pluggable numeric backends.**  All arithmetic goes through a
:class:`repro.probability.NumericBackend` — ``exact`` (:class:`Fraction`,
default, keeps the paper's worked examples bit-exact) or ``array``
(``float``, for throughput).  Backend values only ever meet ``+``, ``-``,
``*`` and truthiness, so further backends (intervals, log-space) drop in.

**One DP traversal for *all* candidate anchors.**  The per-candidate
formulation (``Pr(n ∈ q(P̂))`` = one anchored bottom-up pass per candidate
``n``) multiplies the document-size factor by the answer size.  Instead,
:meth:`EvaluationEngine.answer` carries, for every p-document node ``x``,

* ``blocked(x)`` — the goal-set distribution of ``x``'s subtree where the
  output nodes' goals are never granted (equivalently: the anchored
  run restricted to a subtree that does not contain the anchor), and
* ``pinned(x)[n]`` — for each candidate ``n`` in ``x``'s subtree, the
  distribution where output goals are granted *only* at ``n``
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

**One exact-fallback rule.**  On a backend with an ``escape`` hook
(``array``), every combine step goes through :meth:`EvaluationEngine.
combine_row` or :meth:`EvaluationEngine.combine_pinned`.  A node with an
exact (:class:`~fractions.Fraction`) child row or pin combines with the
backend's exact kernels, through a lazily built exact twin of the
engine, so exactness holds from an escaped subtree upward; a float
result wider than the backend's threshold escapes through its
``escape``.  A backend without the hook computes every row with its
:class:`~repro.probability.ScalarOps` and never escapes.

The engine is the store-free reference.  Stored evaluation is a
:class:`~repro.prob.session.QuerySession` (:mod:`repro.prob.session`),
which drives one shared post-order traversal for a whole batch of
queries (one lane group, :mod:`repro.prob.stacked`), calls back into
each query engine's :meth:`EvaluationEngine.combine_pinned` /
:meth:`EvaluationEngine.combine_row` once per lane class and p-document
node, and reuses per-subtree distributions across queries, sessions and
processes through :meth:`goal_table_fingerprint`.
"""

from __future__ import annotations

import copy
from typing import Mapping, Optional, Sequence, Union

from ..errors import PatternError
from ..obs.trace import span as trace_span
from ..probability import (
    BackendLike,
    NumericBackend,
    distribution_ops,
    get_backend,
)
from ..probability_array import _is_exact, _lift
from ..pxml.pdocument import PDocument, PNode, PNodeKind
from ..tp.pattern import Axis, PatternNode, TreePattern
from .traversal import Lane, stored_postorder

__all__ = [
    "EvaluationEngine",
    "PinnedState",
    "candidate_sets",
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

AnchorKey = Union[PatternNode, tuple]
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
  for multi-pattern (TP∩) evaluation, e.g. ``(1, q2.path_to(node))``.

Bare ``id(pattern_node)`` ints are rejected: object ids are recycled by
the interpreter and break on copied patterns.
"""

# Output-goal gates for the ordinary-node rewrite (identity-compared).
_GRANT_ALL = object()   # unpinned evaluation: out goals behave normally
_GRANT_NONE = object()  # blocked evaluation: out goals never granted


class _RowGroup:
    """The children of an ordinary node that share one blocked row
    object: the row, how many children hold it, their non-empty pinned
    maps by child id, and ``others`` — the convolution of every child but
    one of the group (kept while the group holds pins)."""

    __slots__ = ("row", "count", "pins", "others")

    def __init__(self, row: dict) -> None:
        self.row = row
        self.count = 1
        self.pins: Optional[dict] = None
        self.others: Optional[dict] = None



class PinnedState:
    """What an ordinary node's pinned combine keeps for its next delta
    (:meth:`EvaluationEngine._combine_ordinary_pinned`): each child's
    ``(blocked, pinned)`` entry by child id, the row groups by
    ``id(row)``, the node's blocked row and pinned map, and ``fresh`` —
    the candidates the last combine computed (every one, unless a delta
    kept the others)."""

    __slots__ = ("children", "groups", "blocked", "pinned", "fresh")

    def __init__(self) -> None:
        self.children: dict = {}
        self.groups: dict = {}
        self.blocked: Optional[dict] = None
        self.pinned: dict = {}
        self.fresh = ()


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

    Attributes:
        visits: cumulative count of p-document nodes combined by the DP —
            at most one increment per node per traversal.  :meth:`answer`
            performs exactly one traversal regardless of the candidate
            count; it skips query-neutral subtrees (no goal-table label
            below), so ``answer()`` combines exactly the nodes whose
            label set meets :attr:`table_labels`.
    """

    def __init__(
        self,
        p: PDocument,
        patterns: Sequence[TreePattern],
        anchors: Optional[AnchorsLike] = None,
        backend: BackendLike = "exact",
    ) -> None:
        self.p = p
        self.patterns = list(patterns)
        self.backend: NumericBackend = get_backend(backend)
        self.anchors = normalize_anchors(self.patterns, anchors)
        self.visits = 0
        self._zero = self.backend.zero
        self._one = self.backend.one
        self._convert = self.backend.convert
        # Goal numbering: pattern node i owns the one bit 1 << i, the bit
        # its reader reads.  The root's bit is its match bit ("embeds
        # here"), read by the readout (_targets); a ``/`` child's is its
        # match bit, read by its parent's ``need`` one ordinary level up
        # and never propagated; a ``//`` child's is its "here or below"
        # bit, the only kind in a_mask, which every ordinary node passes
        # upward.  No other goal has a reader, so no row carries one.
        self._goal_index: dict[int, int] = {}
        self._pattern_nodes: list[PatternNode] = []
        for pattern in self.patterns:
            for u in pattern.root.iter_subtree():
                self._goal_index[id(u)] = len(self._pattern_nodes)
                self._pattern_nodes.append(u)
        out_ids = {id(pattern.out) for pattern in self.patterns}
        a_mask = 0
        # label -> [(bit, needed-below mask, anchor, is_out), ...]
        self._by_label: dict[str, list[tuple[int, int, Optional[int], bool]]] = {}
        for u in self._pattern_nodes:
            bit = 1 << self._goal_index[id(u)]
            if u.parent is not None and u.axis is Axis.DESC:
                a_mask |= bit
            need = 0
            for child in u.children:
                need |= 1 << self._goal_index[id(child)]
            self._by_label.setdefault(u.label, []).append(
                (bit, need, self.anchors.get(id(u)), id(u) in out_ids)
            )
        self._a_mask = a_mask
        self._table_labels = frozenset(self._by_label)
        self._targets = 0
        for pattern in self.patterns:
            self._targets |= 1 << self._goal_index[id(pattern.root)]
        # Distribution kernels: the backend's row kernels (float dict
        # kernels on "array").  The hot per-entry kernels are bound as
        # engine attributes.  ``_escape`` is the backend's width rule
        # (None: rows never escape); ``_twin`` the lazily built exact
        # twin that combines nodes above an escaped row.
        self._set_ops(distribution_ops(self.backend))
        self._escape = getattr(self.backend, "escape", None)
        self._twin: Optional[EvaluationEngine] = None

    def _set_ops(self, ops) -> None:
        self._ops = ops
        self._unit = ops.unit
        self._convolve = ops.convolve
        self._mixture = ops.mixture

    def _exact_twin(self) -> "EvaluationEngine":
        """A copy of the engine combining with the backend's exact
        kernels; it never escapes."""
        twin = self._twin
        if twin is None:
            twin = self._twin = copy.copy(self)
            twin._set_ops(self.backend.exact_ops())
            twin._escape = None
        return twin

    # ------------------------------------------------------------------
    # Batch-evaluation surface (used by repro.prob.session)
    # ------------------------------------------------------------------
    def mass(self, distribution: Distribution, targets: Optional[int] = None):
        """Total probability of goal sets covering ``targets``.

        ``targets`` defaults to the joint root goals of all evaluated
        patterns (the TP∩ semantics of :meth:`match_probability`).
        """
        if targets is None:
            targets = self._targets
        if self._escape is not None and _is_exact(distribution):
            return self._exact_twin()._ops.mass(distribution, targets)
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
        subtree nodes the anchored entries admit.  Each entry holds its
        goal bit twice, as emitted and as passed upward (the bit itself
        for a ``//`` child's ``A`` goal, 0 for a ``D`` goal): the same
        bit stops at the parent in one table and travels up in another,
        and the rows differ.  This is the cross-query memo key of
        :class:`repro.prob.session.QuerySession`.

        Anchor *values* are abstracted out of the fingerprint: an anchored
        entry carries a slot index instead of its document node Ids, and
        the Ids are returned separately, in slot order.  The store layer
        re-binds the slots to canonical anchor positions
        (:meth:`repro.store.keys.SubtreeKeyer.token`), which is what
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
        a_mask = self._a_mask
        for label in sorted(self._table_labels & labels):
            entries = []
            for bit, need, anchor, is_out in self._by_label[label]:
                if is_out:
                    out_sensitive = True
                if anchor is None:
                    slot = None
                else:
                    slot = len(targets)
                    targets.append(tuple(sorted(anchor)))
                entries.append((bit, bit & a_mask, need, slot, is_out))
            items.append((label, tuple(entries)))
        return tuple(items), out_sensitive, tuple(targets)

    @property
    def table_labels(self) -> frozenset:
        """The labels carrying goal-table entries (fingerprint support)."""
        return self._table_labels

    def combine_pinned(
        self,
        node: PNode,
        entries: Mapping,
        candidate_set: frozenset,
        exact_below: bool = True,
        state: Optional["PinnedState"] = None,
    ) -> tuple[Distribution, dict, bool]:
        """One pinned-DP combine step: ``(blocked, pinned, exact)`` for
        ``node``.

        ``entries`` maps each child's ``node_id`` to its own ``(blocked,
        pinned)`` pair.  Counts one node visit.  At the document
        root (always ordinary) ``pinned`` is the answer itself,
        ``{candidate: Pr}`` over every pattern's root goal: the root
        readout (:meth:`_combine_ordinary_pinned`) never builds the
        root's pinned distributions.

        At an ordinary node, ``state`` is the :class:`PinnedState` the
        combine reads and updates (a throwaway one when omitted).  With
        a state, ``entries`` maps exactly the children it adds: every
        child for an empty state, and for a state an earlier combine of
        ``node`` built, the children whose entries changed since — the
        combine then applies that delta.  Callers only pass a built
        state when no entry, old or new, is exact (``exact_below=False``)
        and the node's own label and child list are unchanged.

        The exact-fallback rule (module docstring): when ``exact_below``
        and a child's blocked row or one of its pins is exact, the node
        combines exactly; otherwise a blocked row or pin wider than the
        backend's threshold escapes.  ``exact`` tells whether any of the
        results is exact, so callers never scan them again.  Callers
        that know no child is exact pass ``exact_below=False``.
        """
        self.visits += 1
        escape = self._escape
        engine = self
        exact = False
        if escape is not None and exact_below:
            children = [entries[child.node_id] for child in node.children]
            if any(
                _is_exact(entry[0]) or any(map(_is_exact, entry[1].values()))
                for entry in children
            ):
                engine = self._exact_twin()
                exact = True
                entries = {
                    child.node_id: (
                        _lift(entry[0]),
                        {n: _lift(d) for n, d in entry[1].items()},
                    )
                    for child, entry in zip(node.children, children)
                }
        if node.kind is PNodeKind.ORDINARY:
            if state is None:
                state = PinnedState()
                changes = {
                    child.node_id: entries[child.node_id]
                    for child in node.children
                }
            else:
                changes = entries
            blocked, pinned = engine._combine_ordinary_pinned(
                node, state, changes, candidate_set
            )
            fresh = state.fresh
        elif node.kind is PNodeKind.MUX:
            blocked, pinned = engine._combine_mux_pinned(node, entries)
            fresh = pinned
        else:
            blocked, pinned = engine._combine_ind_pinned(node, entries)
            fresh = pinned
        if exact or escape is None:
            return blocked, pinned, exact
        escaped = escape(blocked)
        exact = escaped is not blocked
        if node.parent is not None:  # the root's pins are its readout
            wide = {}
            for n in fresh:
                d = pinned[n]
                e = escape(d)
                if e is not d:
                    wide[n] = e
            if wide:
                pinned = {**pinned, **wide}
                exact = True
        return escaped, pinned, exact

    def combine_row(
        self, node: PNode, memo: Mapping, gate, exact_below: bool = True
    ) -> Distribution:
        """One single-distribution combine step under ``gate``.

        ``_GRANT_ALL`` is the unpinned evaluation; ``_GRANT_NONE`` yields
        the *blocked* distribution (what :meth:`combine_pinned` computes
        as the first half of its entry).  ``memo`` maps each child's
        ``node_id`` to its row.  The exact-fallback rule applies as in
        :meth:`combine_pinned`: exact when ``exact_below`` and a child
        row is, escaping when too wide.  The lane group of
        :mod:`repro.prob.stacked` computes every blocked/unpinned row of
        a batch with it, once per lane class.
        """
        escape = self._escape
        if escape is None:
            return self._combine_single_gated(node, memo, gate)
        if exact_below:
            rows = [memo[child.node_id] for child in node.children]
            if any(map(_is_exact, rows)):
                return self._exact_twin()._combine_single_gated(
                    node,
                    {
                        child.node_id: _lift(row)
                        for child, row in zip(node.children, rows)
                    },
                    gate,
                )
        return escape(self._combine_single_gated(node, memo, gate))

    def combine_unpinned(self, node: PNode, entries: Mapping) -> Distribution:
        """One unpinned-DP combine step (anchored / Boolean evaluation).

        ``entries`` maps each child's ``node_id`` to its distribution.
        Counts one node visit.
        """
        self.visits += 1
        return self.combine_row(node, entries, _GRANT_ALL)

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

        Read off the maximal world, a superset of every possible world,
        by one :func:`candidate_sets` walk for all patterns.
        """
        sets = candidate_sets(self.p, self.patterns)
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
            _, pinned = self._pinned_pass(candidate_set)
            answer = positive_answers(pinned, self._zero)
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

    def _readout(self, node: PNode, others: Distribution, pins, gate) -> dict:
        """``{candidate: Pr}`` for root pins sharing ``others``: the mass
        over the root goals of ``node``'s rewrite under ``gate`` of
        ``others ⊛ pin`` (see :meth:`ScalarOps.readout`)."""
        return self._ops.readout(
            others,
            pins,
            self._by_label.get(node.label),
            node.node_id,
            gate is not _GRANT_NONE,
            self._a_mask,
            self._targets,
        )

    # ------------------------------------------------------------------
    # Unpinned single-distribution DP (anchored / Boolean evaluation)
    # ------------------------------------------------------------------
    def _single_pass(self) -> Distribution:
        """Unpinned DP as a single lane of the shared traversal.

        Neutral subtrees (no goal-table label below) short-circuit to the
        unit distribution.
        """
        lane = Lane(
            table_labels=self._table_labels,
            combine=self.combine_unpinned,
            unit=self._unit(),
        )
        return stored_postorder(self.p, lane, None)

    def _combine_single_gated(
        self, node: PNode, memo: Mapping, gate
    ) -> Distribution:
        """:meth:`combine_row`'s combine step in the engine's own kernels
        (no exact-fallback dispatch)."""
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

        Returns the root's pair; ``pinned`` maps each candidate Id to its
        probability — the root readout of the run anchored there.
        """

        def combine(node: PNode, entries: Mapping) -> tuple:
            return self.combine_pinned(node, entries, candidate_set)[:2]

        lane = Lane(
            table_labels=self._table_labels,
            combine=combine,
            unit=(self._unit(), {}),
            live=self.p.ancestral_closure(candidate_set),
        )
        return stored_postorder(self.p, lane, None)

    def _combine_ordinary_pinned(
        self, node: PNode, state: "PinnedState", changes: dict, candidate_set
    ) -> tuple[Distribution, dict]:
        """The one ordinary pinned kernel: apply ``changes`` — ``child id
        -> (blocked, pinned)`` of children added to ``state`` or
        replacing their old entry there — and return the node's
        ``(blocked, pinned)``.  A from-scratch combine is an empty
        ``state`` with every child added (the state adopts ``changes``
        as its child map).

        Children whose blocked distributions are one object (store hits
        of one key, the lane group's interned rows) form a group: its m
        equal factors enter as one power by repeated squaring, and the
        prefix/suffix products run over the k groups, not the children.
        Identity, not content, keys the groups — hashing every narrow
        node's distribution would cost more than the grouping saves —
        and each group keeps its row, so no ``id()`` in the state is
        reused while the state lives.  With every group of size 1 this
        is the plain prefix/suffix pass.

        When every changed child keeps its blocked row object, no group
        changes: the factors, the blocked row and each group's
        ``others`` stand, and only the changed children's candidates are
        read again against their group's ``others``.  Otherwise the
        group counts move and the products are rebuilt over the k
        groups, and every group's candidates are read again.
        """
        children = state.children
        groups = state.groups
        delta = bool(children)
        if not delta:
            state.children = changes
        regroup = not delta
        moved = []  # (old pins, new pins, group) of children that kept their row
        for child_id, entry in changes.items():
            row, pins = entry
            if delta:
                old = children.get(child_id)
                children[child_id] = entry
                if old is not None:
                    old_row, old_pins = old
                    group = groups[id(old_row)]
                    if old_pins:
                        del group.pins[child_id]
                    if old_row is row:
                        if pins:
                            if group.pins is None:
                                group.pins = {}
                            group.pins[child_id] = pins
                        moved.append((old_pins, pins, group))
                        continue
                    group.count -= 1
                    if not group.count:
                        del groups[id(old_row)]
                regroup = True
            key = id(row)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _RowGroup(row)
            else:
                group.count += 1
            if pins:
                if group.pins is None:
                    group.pins = {}
                group.pins[child_id] = pins
        # The root's pinned distributions are only ever read for their
        # mass: there the readout replaces each rewrite + mass.
        at_root = node.parent is None
        if not regroup:
            pinned = self._reread(node, state, moved, at_root)
            if pinned is not None:
                return state.blocked, pinned
        convolve = self._convolve
        order = list(groups.values())
        factors = []  # per group: its row ** m
        rests = []  # per group: its row ** (m - 1), None when m == 1
        pinned_groups = False
        for group in order:
            pinned_groups = pinned_groups or group.pins
            row, count = group.row, group.count
            if count > 1:
                rest = self._power(row, count - 1)
                rests.append(rest)
                factors.append(convolve(rest, row))
            else:
                rests.append(None)
                factors.append(row)
        # pre[g] = convolution of the first g groups' factors
        pre = [self._unit()]
        for factor in factors:
            pre.append(convolve(pre[-1], factor))
        combined_all = pre[-1]
        blocked = self._rewrite(node, combined_all, _GRANT_NONE)
        pinned: dict = {}
        if node.node_id in candidate_set:
            # Pinning at the node itself: out goals may be granted here and
            # nowhere below — which is exactly the children-blocked run.
            if at_root:
                pinned = self._readout(
                    node, combined_all, [(node.node_id, self._unit())],
                    _GRANT_ALL,
                )
            else:
                pinned[node.node_id] = self._rewrite(
                    node, combined_all, _GRANT_ALL
                )
        if pinned_groups:
            count = len(factors)
            # suf[g] = convolution of groups g.. 's factors
            suf = [self._unit()] * (count + 1)
            for g in range(count - 1, -1, -1):
                suf[g] = convolve(factors[g], suf[g + 1])
            for g, group in enumerate(order):
                if not group.pins:
                    group.others = None
                    continue
                # others: every child but one of group g.
                others = convolve(pre[g], suf[g + 1])
                if rests[g] is not None:
                    others = convolve(others, rests[g])
                group.others = others
                self._read_pins(
                    node, others, group.pins.values(), at_root, pinned
                )
        else:
            for group in order:
                group.others = None
        state.blocked = blocked
        state.pinned = state.fresh = pinned
        return blocked, pinned

    def _reread(
        self, node: PNode, state: "PinnedState", moved: list, at_root: bool
    ) -> Optional[dict]:
        """The pinned map after changes that kept every group: the last
        one with each changed child's candidates read again against its
        group's ``others``.  ``None`` when a group that held no pins
        gains some, so it has no ``others`` yet."""
        pinned = dict(state.pinned)
        fresh: list = []
        for old_pins, pins, group in moved:
            for candidate in old_pins:
                del pinned[candidate]
            if pins:
                if group.others is None:
                    return None
                self._read_pins(node, group.others, (pins,), at_root, pinned)
                fresh.extend(pins)
        state.pinned = pinned
        state.fresh = fresh
        return pinned

    def _read_pins(
        self, node: PNode, others: Distribution, maps, at_root: bool,
        pinned: dict,
    ) -> None:
        """Fill ``pinned`` with the candidates of the children's pinned
        ``maps`` that share ``others``.  The pin lives strictly below, so
        out goals are not granted at this node: the blocked gate is
        exact."""
        if at_root:
            pinned.update(self._readout(
                node, others,
                [item for m in maps for item in m.items()],
                _GRANT_NONE,
            ))
            return
        convolve = self._convolve
        for child_pinned in maps:
            for candidate, distribution in child_pinned.items():
                pinned[candidate] = self._rewrite(
                    node, convolve(others, distribution), _GRANT_NONE
                )

    def _power(self, distribution: Distribution, exponent: int) -> Distribution:
        """``distribution`` convolved with itself ``exponent`` times, by
        repeated squaring (the unit for ``exponent == 0``)."""
        result = None
        while exponent:
            if exponent & 1:
                result = (
                    distribution
                    if result is None
                    else self._convolve(result, distribution)
                )
            exponent >>= 1
            if exponent:
                distribution = self._convolve(distribution, distribution)
        return self._unit() if result is None else result

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


def positive_answers(readout: dict, zero) -> dict:
    """A root readout ``{candidate: Pr}`` as an answer: the candidates of
    positive probability, in Id order."""
    return {
        node_id: readout[node_id]
        for node_id in sorted(readout)
        if readout[node_id] > zero
    }


# ----------------------------------------------------------------------
# Candidate discovery
# ----------------------------------------------------------------------
def candidate_sets(
    p: PDocument, patterns: Sequence[TreePattern]
) -> list[set[int]]:
    """``[q(max world of p) for q in patterns]``, from one walk of ``p``.

    A node is a candidate of ``q`` when *some* possible world may select
    it; the maximal world (every ordinary node kept, distributional nodes
    contracted) is a superset of every world, so the candidates are
    ``q(p.max_world())`` — computed here without building that copy and
    for all patterns at once, in ``O(|p| · table)`` with no recursion:

    * **bottom-up**, the engine's goal rewrite on plain int masks, over
      the goals of every pattern node *off* the main branches (numbered
      jointly, one live bit ``1 << g`` each, as in the engine: a ``/``
      predicate's match bit stops at its parent, a ``//`` predicate's
      "here or below" bit propagates).  Distributional nodes are
      transparent: they pass up the OR of their children.
    * **top-down**, one bit per main-branch node (each pattern's branch
      numbered consecutively, root → out).  A node holds bit ``k`` when
      its label is main-branch node ``k``'s, ``k``'s predicate goals hold
      below it, and its max-world parent (``/``) or some proper ancestor
      (``//``) holds bit ``k - 1``.  Subtrees where no branch bit holds
      at or above them are pruned.

    Both walks skip subtrees whose label set (:meth:`PDocument.
    label_index`) is disjoint from the labels the walk can react to —
    the predicate goals' bottom-up, the main branches' top-down.

    Anchors play no part: an anchored evaluation's candidates are a
    subset of these.
    """
    # label -> [(goal bit, need)] for predicate goals; label -> [(branch
    # bit, predicate need)] for main-branch nodes.
    goal_entries: dict[str, list[tuple[int, int]]] = {}
    branch_entries: dict[str, list[tuple[int, int]]] = {}
    a_mask = first_bits = child_axis_bits = desc_axis_bits = out_mask = 0
    outs: list[tuple[int, int]] = []
    goal_count = branch_count = 0
    for index, pattern in enumerate(patterns):
        branch = pattern.main_branch()
        on_branch = {id(u) for u in branch}
        predicates = [
            u for u in pattern.root.iter_subtree() if id(u) not in on_branch
        ]
        goal_of = {
            id(u): goal_count + offset for offset, u in enumerate(predicates)
        }
        goal_count += len(predicates)
        for u in predicates:
            bit = 1 << goal_of[id(u)]
            if u.axis is Axis.DESC:
                a_mask |= bit
            goal_entries.setdefault(u.label, []).append(
                (bit, _predicate_need(u, goal_of))
            )
        for position, u in enumerate(branch):
            bit = 1 << (branch_count + position)
            branch_entries.setdefault(u.label, []).append(
                (bit, _predicate_need(u, goal_of))
            )
            if position == 0:
                first_bits |= bit
            elif u.axis is Axis.CHILD:
                child_axis_bits |= bit
            else:
                desc_axis_bits |= bit
        out_bit = 1 << (branch_count + len(branch) - 1)
        out_mask |= out_bit
        outs.append((out_bit, index))
        branch_count += len(branch)

    root = p.root
    labels = p.label_index()
    below: dict[int, int] = {}  # node_id -> OR of its children's goals
    if goal_entries:
        # Reversed pre-order visits every child before its parent.  A
        # subtree without a goal label emits nothing: it is not entered.
        goal_labels = frozenset(goal_entries)
        order = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            for child in node.children:
                if not goal_labels.isdisjoint(labels[child.node_id]):
                    stack.append(child)
        for node in reversed(order):
            mask = below.get(node.node_id, 0)
            label = node.label
            if label is None:
                emitted = mask
            else:
                emitted = mask & a_mask
                entries = goal_entries.get(label)
                if entries:
                    for bit, need in entries:
                        if mask & need == need:
                            emitted |= bit
            if emitted and node is not root:
                parent_id = node.parent.node_id
                below[parent_id] = below.get(parent_id, 0) | emitted

    results: list[set[int]] = [set() for _ in patterns]
    # A subtree without a main-branch label holds no branch bit: pruned.
    branch_labels = frozenset(branch_entries)
    # (node, branch bits its position admits, branch bits held at or
    # above its max-world parent)
    stack = [(root, first_bits, 0)]
    while stack:
        node, admitted, up = stack.pop()
        label = node.label
        if label is None:
            for child in node.children:
                if not branch_labels.isdisjoint(labels[child.node_id]):
                    stack.append((child, admitted, up))
            continue
        here = 0
        if admitted:
            entries = branch_entries.get(label)
            if entries:
                mask = below.get(node.node_id, 0)
                for bit, need in entries:
                    if bit & admitted and mask & need == need:
                        here |= bit
                if here & out_mask:
                    for out_bit, index in outs:
                        if here & out_bit:
                            results[index].add(node.node_id)
        up |= here
        if up:
            admitted = ((here << 1) & child_axis_bits) | (
                (up << 1) & desc_axis_bits
            )
            for child in node.children:
                if not branch_labels.isdisjoint(labels[child.node_id]):
                    stack.append((child, admitted, up))
    return results


def _predicate_need(u: PatternNode, goal_of: dict) -> int:
    """The goals ``u``'s predicate children must hold below a node.

    Each predicate child's one bit: a ``/`` child's match bit, a ``//``
    child's "here or below" bit; the main-branch continuation has no
    goal and is skipped.
    """
    need = 0
    for child in u.children:
        goal = goal_of.get(id(child))
        if goal is not None:
            need |= 1 << goal
    return need


# ----------------------------------------------------------------------
# Convenience wrappers
# ----------------------------------------------------------------------
def boolean_probability(
    p: PDocument,
    q: TreePattern,
    anchors: Optional[AnchorsLike] = None,
    backend: BackendLike = "exact",
):
    """``Pr(q matches P)`` — the Boolean-query probability."""
    return EvaluationEngine(p, [q], anchors, backend).match_probability()


def node_probability(
    p: PDocument,
    q: TreePattern,
    node_id: int,
    backend: BackendLike = "exact",
):
    """``Pr(n ∈ q(P))`` for a specific ordinary node ``n``.

    One full anchored DP per call; prefer :func:`query_answer` (or
    :meth:`EvaluationEngine.answer`) when several nodes are needed.
    """
    return EvaluationEngine(
        p, [q], {q.out: node_id}, backend
    ).match_probability()


def conditional_node_probability(
    p: PDocument,
    q: TreePattern,
    node_id: int,
    backend: BackendLike = "exact",
):
    """``Pr(n ∈ q(P) | n ∈ P)`` (§5.2)."""
    resolved = get_backend(backend)
    appearance = resolved.convert(p.appearance_probability(node_id))
    if not appearance:
        return resolved.zero
    return node_probability(p, q, node_id, backend) / appearance


def query_answer(
    p: PDocument,
    q: TreePattern,
    backend: BackendLike = "exact",
    stats: Optional[dict] = None,
    profile: bool = False,
):
    """``q(P̂)``: node Id ↦ probability, for all nodes with probability > 0.

    Candidates are read off the maximal world (a superset of every world)
    by :func:`candidate_sets`; their probabilities are then all computed
    by **one** DP traversal of the p-document.  For memoized evaluation
    over a store, use :class:`~repro.prob.session.QuerySession`.

    Args:
        stats: optional instrumentation sink; receives ``node_visits``
            (DP node visits — the nodes whose subtree holds a query
            label) and ``candidates``.
        profile: trace the call (enabling tracing for its duration if it
            was off) and return ``(answer, profile)`` where ``profile``
            is the query's :class:`repro.obs.CostProfile`.
    """
    if profile:
        from ..obs.profile import build_profiles
        from ..obs.trace import capture as trace_capture

        with trace_capture() as captured:
            answer = query_answer(p, q, backend, stats)
        return answer, build_profiles(captured.spans, [q.xpath()])[0]
    return intersection_answer(p, [q], backend, stats)


def intersection_node_probability(
    p: PDocument,
    patterns: Sequence[TreePattern],
    node_id: int,
    backend: BackendLike = "exact",
):
    """``Pr(n ∈ (q1 ∩ ... ∩ qk)(P))`` — joint, correlation-aware."""
    anchors = {q.out: node_id for q in patterns}
    return EvaluationEngine(p, patterns, anchors, backend).match_probability()


def intersection_answer(
    p: PDocument,
    patterns: Sequence[TreePattern],
    backend: BackendLike = "exact",
    stats: Optional[dict] = None,
) -> dict:
    """``(q1 ∩ ... ∩ qk)(P̂)`` as node Id ↦ probability — single DP pass."""
    engine = EvaluationEngine(p, patterns, backend=backend)
    candidates = engine.candidate_ids()
    answer = engine.answer(candidates)
    if stats is not None:
        stats["node_visits"] = engine.visits
        stats["candidates"] = len(candidates)
    return answer
