"""Workload sessions: batched multi-query evaluation with structural,
store-backed subtree memoization.

Real view-cache workloads ask *many* TP queries against the same
p-document — exactly the regime where the goal-set DP's per-subtree work
is shared across queries (compare the treelike-instance lineage reuse of
Amarilli et al. and the combined-complexity analysis of
Amarilli–Monet–Senellart on probabilistic graphs).  A
:class:`QuerySession` exploits that in three ways:

**One post-order pass per batch.**  :meth:`QuerySession.answer_many`
walks the p-document once for the whole batch.  Each query owns its own
goal-bit range (a private :class:`~repro.prob.engine.EvaluationEngine`
numbering), and the batch runs as ONE lane group of the one
store-consulting walk (:mod:`repro.prob.stacked`), on either backend
and for any batch width, so the traversal (stack management, node
dispatch, per-node bookkeeping) is paid once regardless of the batch
size.  Distributions are kept as *per-query rows* — the supports of
independent queries add instead of multiplying (a literal joint
distribution over ``k`` independent queries' goals has support
``∏ sᵢ``; the rows have ``Σ sᵢ``) — and queries whose restricted goal
tables agree on a subtree share one row there.

**Structural cross-query memoization.**  Per-subtree *blocked*
distributions (the candidate-free evaluations of the single-pass answer
DP) of a whole batch are cached in a :class:`repro.store.MemoStore` as
one :class:`~repro.probability_array.LaneRows` entry under one combined
key, ``(structural digest, parts digest, anchor mark, None, backend)``
(see :mod:`repro.prob.stacked` and :mod:`repro.store.api`): the digest
identifies the subtree by *shape* (kind, labels, distribution parameters
— not node Ids), the parts digest hashes each lane's goal table
restricted to the labels occurring in the subtree
(:meth:`EvaluationEngine.goal_table_fingerprint`), with its anchor
positions and gate.  Both components are semantic, so one entry serves
(i) batches of structurally identical queries that differ only in
labels absent from the subtree, (ii) two *isomorphic subtrees* — of one
document, or of a document and its probabilistic extensions — already
within a single cold pass, and (iii) with a shared or persistent store
(:class:`repro.store.SqliteStore`), other sessions and restarted
processes running the same batch.  The default store is a private
:class:`repro.store.InMemoryStore` whose cost-aware LRU eviction
(weight = support size × subtree size) keeps expensive hot entries under
memory pressure instead of the old clear-at-capacity purge.  *Anchored*
restrictions are content-addressed too: anchor values are abstracted out
of the fingerprint and re-bound to canonical anchor *positions*
(digest-sorted rank paths, :meth:`repro.pxml.pdocument.PDocument.
anchor_index`), so the rewrite layer's anchored traffic (Theorem 2)
shares entries across extensions, subdocuments, restarts and isomorphic
twin documents.

Every pass probes the store with ``get`` and lands its saves with one
``put_many`` at its end (:func:`repro.prob.traversal.probe` /
:func:`~repro.prob.traversal.land`).

**Mutation epochs and spine-only refreshes.**  When :attr:`repro.pxml.
pdocument.PDocument.mutation_epoch` changes (code that mutates a
p-document in place calls ``mark_mutated(node)``), the session consults
:meth:`PDocument.dirty_since`.  For node-scoped mutations it performs a
*spine refresh*.  When the mutation was probability-only, so the
maximal world is unchanged, batch plans survive: their per-node key
caches and retained spines are pruned of dirty Ids and their answer
memos cleared, so the next read recombines only the dirty path.  When
it moved the maximal world, every plan whose lanes'
goal-table labels meet the labels the edits touched
(:meth:`PDocument.dirty_labels_since`); the other plans survive as
after a probability-only edit — no pattern node maps into a subtree
that carries none of its query's labels.  Only a
whole-document :meth:`PDocument.mark_all_mutated` still triggers the
historical full reset.  The structural store needs no purge either way: mutated
subtrees change their digests and simply stop matching, while untouched
sibling subtrees keep hitting — content addressing makes invalidation
automatic and minimal, and the session records each spine refresh on
the store (:meth:`repro.store.MemoStore.record_spine_recompute`).

The session also backs the rewrite layer: a restricted plan answers
Theorem 1 for all candidates with one :meth:`QuerySession.answer_many`
pass over the extension, and Theorem 2's α-pattern evaluations go
through :meth:`QuerySession.boolean_many`, which batches anchored
Boolean (TP / TP∩) probabilities through the same shared pass and memo.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..obs.registry import Sample, get_registry
from ..obs.trace import capture as trace_capture, span as trace_span
from ..probability import BackendLike, NumericBackend, get_backend
from ..pxml.pdocument import PDocument
from ..store import InMemoryStore, MemoStore, SubtreeKeyer, fingerprint_digest
from ..tp.pattern import TreePattern
from .engine import AnchorsLike, EvaluationEngine, candidate_sets
from .stacked import (
    stacked_answer_many,
    stacked_boolean_key,
    stacked_boolean_many,
)
from .traversal import Lane, land, probe, stored_postorder

__all__ = ["QuerySession", "SessionStats", "BooleanItem"]

#: One item of a Boolean batch: a pattern, or ``(patterns, anchors)`` for
#: anchored / TP∩ probabilities (``patterns`` may be a single pattern).
BooleanItem = Union[
    TreePattern,
    tuple,
]

@dataclass
class SessionStats:
    """Cumulative instrumentation of one session.

    Attributes:
        traversals: shared post-order passes performed (one per batch).
        queries: queries / Boolean items evaluated through the session.
        node_visits: p-document nodes touched by the shared passes; a cold
            ``answer_many`` touches each node exactly once no matter how
            many queries the batch holds.
        memo_hits: per-query subtree evaluations answered from the
            structural store.
        memo_misses: per-query subtree evaluations computed and stored.
        anchored_hits: the subset of ``memo_hits`` whose restriction was
            anchored (store keys with an anchor-position component).
        anchored_misses: the subset of ``memo_misses`` that was anchored.
        neutral_skips: per-query subtree evaluations short-circuited to
            the unit distribution because the subtree holds no goal-table
            label (no memo involved).
        subtree_skips: whole subtrees skipped without traversal because
            every query of the batch was neutral or hit the memo at their
            root.
        invalidations: full session cache resets (whole-document
            mutation epochs, manual ``invalidate()`` calls).
        spine_refreshes: node-scoped mutation epochs absorbed without a
            full reset — only state keyed on dirty node Ids was dropped.
        survived_plans: cumulative batch plans kept live across spine
            refreshes.
        spine_hits: per-query live-spine entries reused from an answer
            plan's retained spine instead of recombined (counted apart
            from ``memo_hits``, which the store serves).
    """

    traversals: int = 0
    queries: int = 0
    node_visits: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    anchored_hits: int = 0
    anchored_misses: int = 0
    neutral_skips: int = 0
    subtree_skips: int = 0
    invalidations: int = 0
    spine_refreshes: int = 0
    survived_plans: int = 0
    spine_hits: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


#: Live sessions feeding the process registry (pull collector): the
#: plain-int SessionStats fields stay the hot-path shards; the registry
#: aggregates them at read time as ``repro_session_*`` series.  Stats of
#: garbage-collected sessions are retired into a process total first
#: (a finalizer holds the stats bag, never the session), keeping the
#: series monotone across instance lifetimes.
_LIVE_SESSIONS: "weakref.WeakSet[QuerySession]" = weakref.WeakSet()

_RETIRED_TOTALS: dict = {}


def _retire_session_stats(stats: SessionStats) -> None:
    for field, value in stats.__dict__.items():
        _RETIRED_TOTALS[field] = _RETIRED_TOTALS.get(field, 0) + value


def _collect_session_samples():
    totals: dict[str, int] = dict(_RETIRED_TOTALS)
    sessions = 0
    for session in list(_LIVE_SESSIONS):
        sessions += 1
        for field, value in session.stats.__dict__.items():
            totals[field] = totals.get(field, 0) + value
    yield Sample(
        "repro_sessions_live", "gauge", (), sessions,
        "QuerySession instances currently alive",
    )
    for field in sorted(totals):
        yield Sample(
            f"repro_session_{field}_total", "counter", (), totals[field],
            f"SessionStats.{field} summed over the process's sessions",
        )


get_registry().register_collector(_collect_session_samples)


class QuerySession:
    """A batched-evaluation session over one p-document.

    Args:
        p: the p-document all queries are evaluated against.
        backend: numeric backend name or instance (default ``"exact"``).
        memo_limit: the ``max_entries`` of the session-owned default
            store (evicted cost-aware, entry by entry).
        store: a :class:`repro.store.MemoStore` to consult and fill —
            share one store between sessions (or pass a
            :class:`repro.store.SqliteStore`) for cross-document and
            cross-restart reuse.  Default: a private
            :class:`repro.store.InMemoryStore`.  Anchored restrictions
            are keyed by canonical anchor positions like every other
            entry.  Each pass lands its saves in the store with one
            ``put_many``.

    Attributes:
        stats: cumulative :class:`SessionStats`.
        store: the structural memo store in use.
    """

    def __init__(
        self,
        p: PDocument,
        backend: BackendLike = "exact",
        memo_limit: int = 1 << 18,
        store: Optional[MemoStore] = None,
    ) -> None:
        self.p = p
        self.backend: NumericBackend = get_backend(backend)
        self.memo_limit = memo_limit
        self._owns_store = store is None
        if store is None:
            store = InMemoryStore(max_entries=memo_limit)
        self.store = store
        self.stats = SessionStats()
        self._epoch = getattr(p, "mutation_epoch", 0)
        # Batch plan cache: batch id-signature -> (strong query refs,
        # prepared lanes/keyer), and Boolean batch memos.  Spine
        # refreshes keep a plan unless the mutation changed the world in
        # labels its lanes read; see repro.prob.stacked.
        self._stacked: dict = {}
        _LIVE_SESSIONS.add(self)
        weakref.finalize(self, _retire_session_stats, self.stats)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def answer_many(
        self, queries: Sequence[TreePattern], profile: bool = False
    ):
        """``[q(P̂) for q in queries]`` from one shared post-order pass.

        Every query's candidates come from one walk of the document
        (:func:`~repro.prob.engine.candidate_sets`); all queries'
        blocked/pinned distributions are then carried through a single
        traversal of the p-document as one lane group, consulting and
        filling the structural memo store.  Equals per-query
        :meth:`EvaluationEngine.answer` exactly (``exact`` backend) /
        within floating-point error (``array``).

        With ``profile=True`` the call is traced (tracing is enabled for
        its duration if it was off) and returns ``(answers, profiles)``
        — one :class:`repro.obs.CostProfile` per query, whose attributed
        wall times sum to the traced wall time of the call.
        """
        queries = list(queries)
        if profile:
            from ..obs.profile import build_profiles

            with trace_capture() as captured:
                answers = self.answer_many(queries)
            return answers, build_profiles(
                captured.spans, [q.xpath() for q in queries]
            )
        if not queries:
            return []
        sp = trace_span(
            "session.answer_many",
            queries=len(queries),
            backend=self.backend.name,
        )
        with sp:
            self._refresh()
            answers = stacked_answer_many(self, queries)
            self.stats.queries += len(queries)
            if sp:
                sp.set("answers", sum(len(a) for a in answers))
            return answers

    def answer(self, q: TreePattern) -> dict:
        """``q(P̂)`` — one query, still through the session memo."""
        return self.answer_many([q])[0]

    def boolean_many(self, items: Sequence[BooleanItem]) -> list:
        """Batched Boolean probabilities from one shared pass.

        Each item is a pattern, or ``(patterns, anchors)`` where
        ``patterns`` is a pattern or a sequence of patterns (evaluated
        jointly, TP∩ semantics) and ``anchors`` an optional
        :data:`~repro.prob.engine.AnchorsLike` mapping.  Returns one
        backend probability per item.
        """
        normalized: list[tuple[list[TreePattern], Optional[AnchorsLike]]] = []
        for item in items:
            if isinstance(item, TreePattern):
                normalized.append(([item], None))
                continue
            patterns, anchors = item
            if isinstance(patterns, TreePattern):
                patterns = [patterns]
            normalized.append((list(patterns), anchors))
        if not normalized:
            return []
        sp = trace_span(
            "session.boolean_many",
            items=len(normalized),
            backend=self.backend.name,
        )
        with sp:
            return self._boolean_many(normalized, sp)

    def _boolean_many(self, normalized, sp) -> list:
        self._refresh()
        # Boolean masses depend only on the document, the patterns and
        # the anchor bindings — never on store state — so within an
        # epoch a repeated batch is a pure memo hit, served before the
        # engines are even built.  ``_refresh``/``invalidate`` drop the
        # memo with the rest of ``_stacked``.
        key = stacked_boolean_key(normalized)
        if key is not None:
            hit = self._stacked.get(key)
            if hit is not None:
                self.stats.memo_hits += len(normalized)
                self.stats.subtree_skips += 1
                self.stats.queries += len(normalized)
                if sp:
                    sp.set("stacked_memo_hit", True)
                return list(hit[1])
        engines = [
            EvaluationEngine(self.p, patterns, anchors, self.backend)
            for patterns, anchors in normalized
        ]
        masses = stacked_boolean_many(self, engines)
        if key is not None:
            if len(self._stacked) > 4096:
                self._stacked.clear()
            # ``normalized`` rides along to pin the ids the key was
            # built from (patterns and anchor pattern-nodes), so a
            # recycled id can never alias a stored key.
            self._stacked[key] = (normalized, masses)
        self.stats.queries += len(engines)
        return list(masses)

    def boolean_probability(
        self, q: TreePattern, anchors: Optional[AnchorsLike] = None
    ):
        """``Pr(q matches P)``, optionally anchored."""
        return self.boolean_many([(q, anchors)])[0]

    def node_probability(self, q: TreePattern, node_id: int):
        """``Pr(n ∈ q(P))`` for one node (anchored Boolean run)."""
        return self.boolean_probability(q, {q.out: node_id})

    def invalidate(self) -> None:
        """Reset the session's caches and every derived document map.

        Drops the session's identity-keyed caches and bumps the
        document's mutation epoch so all epoch-tagged derived state
        (label index, structural digests, identity digest) is re-derived
        — ``invalidate()`` therefore restores correctness even after an
        in-place mutation that forgot :meth:`PDocument.mark_mutated`.
        When the session *owns* its store (none was passed in) the store
        is cleared too.  A shared store is left intact — its
        content-addressed entries are valid beyond this session; clear it
        explicitly via ``session.store.clear()``.
        """
        self.p.mark_all_mutated()
        self._epoch = self.p.mutation_epoch
        self._stacked.clear()
        if self._owns_store:
            self.store.clear()
        self.stats.invalidations += 1

    @property
    def memo_size(self) -> int:
        """Cached subtree entries visible to this session."""
        return len(self.store)

    # ------------------------------------------------------------------
    # Shared-pass machinery
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        epoch = getattr(self.p, "mutation_epoch", 0)
        if epoch == self._epoch:
            return
        # Structural store entries need no purge either way: mutated
        # subtrees change their digests and stop matching, untouched
        # ones keep hitting.  Only identity-keyed session state is at
        # stake here — and for node-scoped mutations (dirty_since) just
        # the slice of it keyed on dirty node Ids.
        dirty_since = getattr(self.p, "dirty_since", None)
        dirty = dirty_since(self._epoch) if dirty_since is not None else None
        touched = None
        if dirty is not None and dirty[1]:
            labels_since = getattr(self.p, "dirty_labels_since", None)
            if labels_since is not None:
                touched = labels_since(self._epoch)
        self._epoch = epoch
        with trace_span(
            "session.refresh", spine=dirty is not None
        ) as sp:
            self._apply_refresh(dirty, touched, sp)

    def _apply_refresh(self, dirty, touched, sp) -> None:
        """Absorb the edits since the last refresh.

        ``dirty`` is :meth:`PDocument.dirty_since`'s ``(changed,
        world_changed)`` (``None``: full reset) and ``touched`` the
        labels the world-changing edits touched (``None``: unknown).
        A batch plan whose lanes read none of those labels keeps its
        candidate and live sets — no pattern node maps into a subtree
        without its labels — and is refreshed like a probability-only
        edit: only its answer memo and its entries of moved digests go.
        Every other plan is dropped.
        """
        if dirty is None:
            self._stacked.clear()
            self.stats.invalidations += 1
            return
        changed, world_changed = dirty
        stats = self.stats
        stats.spine_refreshes += 1
        kept = dropped = 0
        stacked = self._stacked
        for key in list(stacked):
            if key[0] == "bool":
                # Boolean masses: recomputed on demand.
                del stacked[key]
                continue
            plan = stacked[key][1]
            if world_changed and (
                touched is None
                or not plan.keyer.table_labels.isdisjoint(touched)
            ):
                del stacked[key]
                dropped += 1
            else:
                plan.forget(changed)
                kept += 1
        stats.survived_plans += kept
        if sp:
            sp.set("dirty_nodes", len(changed))
            sp.set("world_changed", world_changed)
            sp.set("plans_kept", kept)
            sp.set("plans_dropped", dropped)
        self.store.record_spine_recompute(len(self.store))

    def _candidate_sets(
        self, engines: list[EvaluationEngine], queries: list[TreePattern]
    ) -> list[frozenset]:
        """Per-query candidate Ids, cached in the store per document + table.

        Candidates are ``q(max_world)`` — a function of the maximal
        world and the query's goal table alone — and they *name node
        Ids*, so the cache key uses :meth:`PDocument.identity_digest`
        (the root's world digest: Id-aware, so two isomorphic documents
        with different Id assignments never share, and probability-free,
        so probability-only edits keep the key) plus the full goal-table
        fingerprint.  Every query the store misses is computed by one
        :func:`~repro.prob.engine.candidate_sets` walk of the document;
        a warm store lets a restarted worker skip that walk entirely.
        Within a session, the batch plan keeps its candidate sets.
        """
        with trace_span(
            "session.candidates", queries=len(queries)
        ) as sp:
            sets = self._candidate_sets_inner(engines, queries)
            if sp:
                sp.set("candidates", sum(len(s) for s in sets))
            return sets

    def _candidate_sets_inner(
        self, engines: list[EvaluationEngine], queries: list[TreePattern]
    ) -> list[frozenset]:
        document_key = self.p.identity_digest()
        keys = []
        for engine in engines:
            table, _, _ = engine.goal_table_fingerprint(engine.table_labels)
            keys.append(
                (
                    document_key,
                    fingerprint_digest(table),
                    None,
                    "candidates",
                    "node-ids",
                )
            )
        # Each distinct key is probed once; the misses share one walk and
        # are saved, and only then are repeated keys probed.  Two queries
        # sharing a key therefore count miss-then-hit and put once, as
        # when each query probed and saved in turn.  The saves follow
        # the pass rule (:func:`~repro.prob.traversal.probe`): pending
        # until one ``put_many``, serving the repeats meanwhile.
        store = self.store
        pending: dict = {}
        found: dict = {}
        missing: dict = {}
        repeats = []
        for query, key in zip(queries, keys):
            if key in found or key in missing:
                repeats.append(key)
                continue
            cached = store.get(key)
            if cached is not None:
                found[key] = frozenset(cached)
            else:
                missing[key] = query
        if missing:
            computed = candidate_sets(self.p, list(missing.values()))
            for key, candidates in zip(missing, computed):
                found[key] = frozenset(candidates)
                # Recomputation is a walk of the whole document, so weight
                # by document size, not by the (often tiny) candidate
                # count.
                pending[key] = (
                    {node_id: 1.0 for node_id in candidates},
                    self.p.size(),
                )
        for key in repeats:
            probe(store, pending, key)
        land(store, pending)
        return [found[key] for key in keys]

    def _keyer(self, engine: EvaluationEngine) -> SubtreeKeyer:
        return SubtreeKeyer(self.p, engine, self.backend)

    def _run_pass(self, lane: Lane, name: str, counters=None, **attrs):
        """One :func:`stored_postorder` pass of ``lane`` over the
        session's document and store, counted as one traversal; returns
        the lane's root entry.

        Traced, the pass runs under span ``name`` recording per-pass
        deltas of the session counters (node visits, memo and store
        hit/miss traffic, and the array backend's exact fallbacks) —
        cheap because the snapshots happen once per pass, never per node.
        ``counters``, when given, returns further span attributes once
        the pass is done.
        """
        sp = trace_span(name, lanes=lane.width, **attrs)
        store = self.store
        backend = self.backend
        if sp:
            stats_before = self.stats.snapshot()
            store_before = (store.hits, store.misses)
            fallbacks_before = getattr(backend, "fallbacks", None)
        with sp:
            root = stored_postorder(self.p, lane, store, self.stats)
        self.stats.traversals += 1
        if sp:
            if fallbacks_before is not None:
                sp.set("fallbacks", backend.fallbacks - fallbacks_before)
            after = self.stats
            sp.set(
                "node_visits", after.node_visits - stats_before["node_visits"]
            )
            sp.set("memo_hits", after.memo_hits - stats_before["memo_hits"])
            sp.set(
                "memo_misses", after.memo_misses - stats_before["memo_misses"]
            )
            sp.set(
                "subtree_skips",
                after.subtree_skips - stats_before["subtree_skips"],
            )
            sp.set("store_hits", store.hits - store_before[0])
            sp.set("store_misses", store.misses - store_before[1])
            if counters is not None:
                for key, value in counters().items():
                    sp.set(key, value)
        return root
