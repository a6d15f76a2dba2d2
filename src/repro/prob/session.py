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
goal-bit range in the joint goal table (a private
:class:`~repro.prob.engine.EvaluationEngine` numbering); the session
calls every query's blocked/pinned combine step per p-document node, so
the traversal (stack management, node dispatch, per-node bookkeeping) is
paid once regardless of the batch size.  Distributions are kept as
*per-query projections* of the joint mask space — ranges are disjoint,
so projections lose nothing, and the supports of independent queries add
instead of multiplying (a literal joint distribution over ``k``
independent queries' goals has support ``∏ sᵢ``; the projections have
``Σ sᵢ``).

**Structural cross-query memoization.**  Per-subtree *blocked*
distributions (the candidate-free evaluations of the single-pass answer
DP) are cached in a :class:`repro.store.MemoStore` under the canonical
``(structural digest, goal-table fingerprint, gate, backend)`` key (see
:mod:`repro.store.api`): the digest identifies the subtree by *shape*
(kind, labels, distribution parameters — not node Ids), the fingerprint
is the query's goal table restricted to the labels occurring in the
subtree (:meth:`EvaluationEngine.goal_table_fingerprint`).  Both
components are semantic, so one entry serves (i) two structurally
identical queries that differ only in labels absent from the subtree,
(ii) two *isomorphic subtrees* — of one document, or of a document and
its probabilistic extensions — already within a single cold pass, and
(iii) with a shared or persistent store
(:class:`repro.store.SqliteStore`), other sessions and restarted
processes.  The default store is a private
:class:`repro.store.InMemoryStore` whose cost-aware LRU eviction
(weight = support size × subtree size) keeps expensive hot entries under
memory pressure instead of the old clear-at-capacity purge.  *Anchored*
restrictions are content-addressed too: anchor values are abstracted out
of the fingerprint and re-bound to canonical anchor *positions*
(digest-sorted rank paths, :meth:`repro.pxml.pdocument.PDocument.
anchor_index`), so the rewrite layer's Theorem-1/2 anchored traffic
shares entries across extensions, subdocuments, restarts and isomorphic
twin documents.

The session's classic passes are multi-lane instances of the one
store-consulting skeleton, :func:`repro.prob.traversal.stored_postorder`;
every store call goes through its pass-scoped probe object
(:func:`repro.prob.traversal.open_probe`), chosen by the store's
``prefers_bulk`` alone.

**Mutation epochs and spine-only refreshes.**  When :attr:`repro.pxml.
pdocument.PDocument.mutation_epoch` changes (code that mutates a
p-document in place calls ``mark_mutated(node)``), the session consults
:meth:`PDocument.dirty_since`.  For node-scoped mutations it performs a
*spine refresh*: stacked batch plans survive (their per-node key caches
are pruned of dirty Ids and their answer memos cleared), and — when the
mutation was probability-only, so the maximal world is unchanged —
cached candidate sets and the world itself stay warm too.  Only a
whole-document :meth:`PDocument.mark_all_mutated` still triggers the
historical full reset.  The structural store needs no purge either way: mutated
subtrees change their digests and simply stop matching, while untouched
sibling subtrees keep hitting — content addressing makes invalidation
automatic and minimal, and the session records each spine refresh on
the store (:meth:`repro.store.MemoStore.record_spine_recompute`).

The session also backs the rewrite layer: plans route their numerator /
denominator / α-pattern evaluations through
:meth:`QuerySession.boolean_many`, which batches anchored Boolean
(TP / TP∩) probabilities through the same shared pass and memo.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

from ..obs.registry import Sample, get_registry
from ..obs.trace import capture as trace_capture, span as trace_span
from ..probability import BackendLike, NumericBackend, get_backend
from ..pxml.pdocument import PDocument
from ..store import (
    GATE_BLOCKED,
    GATE_UNPINNED,
    InMemoryStore,
    MemoStore,
    SubtreeKeyer,
    fingerprint_digest,
)
from ..tp.embedding import evaluate as evaluate_deterministic
from ..tp.pattern import TreePattern
from .engine import AnchorsLike, EvaluationEngine
from .traversal import Lane, open_probe, stored_postorder

__all__ = ["QuerySession", "SessionStats", "BooleanItem"]

#: One item of a Boolean batch: a pattern, or ``(patterns, anchors)`` for
#: anchored / TP∩ probabilities (``patterns`` may be a single pattern).
BooleanItem = Union[
    TreePattern,
    tuple,
]

# Gate tags for memo keys: blocked (output D-goals suppressed) vs unpinned
# (output D-goals granted).  A subtree whose label set contains no output
# label is gate-insensitive and shares one entry (gate None).
_BLOCKED = GATE_BLOCKED
_UNPINNED = GATE_UNPINNED


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
        survived_plans: cumulative stacked batch plans kept live across
            spine refreshes (array backend).
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
            entry; a store that ``prefers_bulk`` gets one ``get_many`` /
            ``contains_many`` / ``put_many`` per pass instead of
            per-node calls, with identical answers and accounting.

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
        self._world = None
        # Stacked-pass plan cache (array backend): batch id-signature ->
        # (strong query refs, prepared lanes/keyer).  Scoped to the
        # document's maximal world: spine refreshes keep it unless the
        # mutation changed the world; see repro.prob.stacked.
        self._stacked: dict = {}
        # Candidate-set cache for the classic pass: id(query) -> (query,
        # frozenset).  Candidates depend only on the maximal world and
        # the query, so probability-only mutations keep them warm.
        self._candidates: dict = {}
        _LIVE_SESSIONS.add(self)
        weakref.finalize(self, _retire_session_stats, self.stats)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def answer_many(
        self, queries: Sequence[TreePattern], profile: bool = False
    ):
        """``[q(P̂) for q in queries]`` from one shared post-order pass.

        Per-query candidates are read off the shared maximal world; all
        queries' blocked/pinned distributions are then carried through a
        single traversal of the p-document, consulting and filling the
        structural memo store.  Equals per-query
        :meth:`EvaluationEngine.answer` exactly (``exact`` backend) /
        within floating-point error (``fast``).

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
            if getattr(self.backend, "vectorized_sessions", False):
                from .stacked import stacked_answer_many

                answers = stacked_answer_many(self, queries)
                if answers is not None:
                    self.stats.queries += len(queries)
                    if sp:
                        sp.set("answers", sum(len(a) for a in answers))
                    return answers
            engines = [
                EvaluationEngine(self.p, [q], backend=self.backend)
                for q in queries
            ]
            candidate_sets = self._candidate_sets(engines, queries)
            live_sets = [
                self.p.ancestral_closure(cs) for cs in candidate_sets
            ]
            pinned_maps = self._pinned_batch_pass(
                engines, candidate_sets, live_sets
            )
            zero = self.backend.zero
            answers: list[dict] = []
            for engine, query, candidates, pinned in zip(
                engines, queries, candidate_sets, pinned_maps
            ):
                target = engine.pattern_target(query)
                answer: dict = {}
                for node_id in sorted(candidates):
                    distribution = pinned.get(node_id)
                    if distribution is None:
                        continue
                    probability = engine.mass(distribution, target)
                    if probability > zero:
                        answer[node_id] = probability
                answers.append(answer)
            self.stats.queries += len(queries)
            if sp:
                sp.set("candidates", sum(len(cs) for cs in candidate_sets))
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
        vectorized = getattr(self.backend, "vectorized_sessions", False)
        key = None
        if vectorized:
            from .stacked import stacked_boolean_key

            # Boolean masses depend only on the document, the patterns
            # and the anchor bindings — never on store state — so within
            # an epoch a repeated batch is a pure memo hit, served before
            # the engines are even built.  ``_refresh``/``invalidate``
            # drop the memo with the rest of ``_stacked``.
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
        if vectorized:
            from .stacked import stacked_boolean_many

            masses = stacked_boolean_many(self, engines, normalized)
            if masses is not None:
                if key is not None:
                    if len(self._stacked) > 4096:
                        self._stacked.clear()
                    # ``normalized`` rides along to pin the ids the key
                    # was built from (patterns and anchor pattern-nodes),
                    # so a recycled id can never alias a stored key.
                    self._stacked[key] = (normalized, masses)
                self.stats.queries += len(engines)
                return masses
        distributions = self._unpinned_batch_pass(engines)
        self.stats.queries += len(engines)
        return [
            engine.mass(distribution)
            for engine, distribution in zip(engines, distributions)
        ]

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
        self._world = None
        self._stacked.clear()
        self._candidates.clear()
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
        self._epoch = epoch
        with trace_span(
            "session.refresh", spine=dirty is not None
        ) as sp:
            self._apply_refresh(dirty, sp)

    def _apply_refresh(self, dirty, sp) -> None:
        if dirty is None:
            self._world = None
            self._stacked.clear()
            self._candidates.clear()
            self.stats.invalidations += 1
            return
        changed, world_changed = dirty
        stats = self.stats
        stats.spine_refreshes += 1
        if sp:
            sp.set("dirty_nodes", len(changed))
            sp.set("world_changed", world_changed)
        if world_changed:
            # Labels or the node set moved: candidate sets, the maximal
            # world and every stacked plan (whose lanes bake candidate /
            # live sets in) are all suspect.
            self._world = None
            self._candidates.clear()
            self._stacked.clear()
        else:
            # Probability-only mutation: candidates and plans survive.
            # Plan answer memos still reflect the old masses and per-node
            # key caches may hold dirty digests — drop just those.
            survived = 0
            for key in [k for k in self._stacked if k[0] == "bool"]:
                del self._stacked[key]
            for entry in self._stacked.values():
                plan = entry[1]
                if plan is None:
                    continue
                plan[4].clear()
                keyer_cache = plan[1]._cache
                for node_id in changed:
                    keyer_cache.pop(node_id, None)
                survived += 1
            stats.survived_plans += survived
        self.store.record_spine_recompute(len(self.store))

    def _max_world(self):
        if self._world is None:
            self._world = self.p.max_world()
        return self._world

    def _candidate_sets(
        self, engines: list[EvaluationEngine], queries: list[TreePattern]
    ) -> list[frozenset]:
        """Per-query candidate Ids, cached in the store per document + table.

        Candidates are ``q(max_world)`` — a function of the document and
        the query's goal table alone — but they *name node Ids*, so the
        cache key uses :meth:`PDocument.identity_digest` (Id-aware; two
        isomorphic documents with different Id assignments must not
        share) plus the full goal-table fingerprint.  A warm store lets a
        restarted worker skip building the maximal world entirely.
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
        session_cache = self._candidates
        document_key = self.p.identity_digest()
        # Resolve per-query store keys first, so a bulk-preferring store
        # answers every cache-missing key in one round trip instead of
        # one point read per query.  ``key is None`` marks a
        # session-cache hit.
        plan = []
        for engine, query in zip(engines, queries):
            # World-scoped session cache first: spine refreshes keep it
            # across probability-only mutations, where the identity
            # digest (and so the store key) changes but candidates
            # cannot.  The stored query ref pins id(query) against reuse.
            hit = session_cache.get(id(query))
            if hit is not None and hit[0] is query:
                plan.append((query, None, hit[1]))
                continue
            table, _, _ = engine.goal_table_fingerprint(engine.table_labels)
            key = (
                document_key,
                fingerprint_digest(table),
                None,
                "candidates",
                "node-ids",
            )
            plan.append((query, key, None))
        wanted = [key for _, key, _ in plan if key is not None]
        if not wanted:
            return [known for _, _, known in plan]
        # Two queries sharing a key count miss-then-hit and put once:
        # the probe object's saves are presence-guarded (a probe plan
        # also serves its pending saves).
        io = open_probe(self.store, lambda: (wanted, ()))
        sets = []
        for query, key, known in plan:
            if key is None:
                sets.append(known)
                continue
            cached = io.probe(key)
            if cached is not None:
                candidates = frozenset(cached)
            else:
                candidates = frozenset(
                    evaluate_deterministic(query, self._max_world())
                )
                # Recomputation means rebuilding the maximal world and
                # running the deterministic embedding — O(document) — so
                # weight by document size, not by the (often tiny)
                # candidate count.
                io.save(
                    key,
                    {node_id: 1.0 for node_id in candidates},
                    self.p.size(),
                )
            if len(session_cache) > 4096:
                session_cache.clear()
            session_cache[id(query)] = (query, candidates)
            sets.append(candidates)
        io.flush()
        return sets

    # ------------------------------------------------------------------
    # Shared passes: lanes over the one store-consulting skeleton
    # ------------------------------------------------------------------
    def _keyer(self, engine: EvaluationEngine) -> SubtreeKeyer:
        return SubtreeKeyer(self.p, engine, self.backend)

    def _pinned_batch_pass(
        self,
        engines: list[EvaluationEngine],
        candidate_sets: list[frozenset],
        live_sets: list[frozenset],
    ) -> list[dict]:
        """One shared post-order pass computing every query's pinned map.

        Each query is one pinned :class:`~repro.prob.traversal.Lane` of
        :func:`~repro.prob.traversal.stored_postorder`: per query and
        node the pass either short-circuits a *neutral* subtree (no
        goal-table label below ⇒ the distribution is the unit ``{∅: 1}``),
        reuses a memoized blocked distribution (counted as a hit), or
        calls the query's :meth:`EvaluationEngine.combine_pinned`.  When
        *every* query of the batch is neutral or hits the memo at a
        subtree root, the subtree is not traversed at all.
        """
        lanes = [
            Lane(
                table_labels=engine.table_labels,
                combine=partial(engine.combine_pinned, candidate_set=candidates),
                unit=engine._unit(),
                keyer=self._keyer(engine),
                live=live,
                gate=_BLOCKED,
                pinned=True,
            )
            for engine, candidates, live in zip(
                engines, candidate_sets, live_sets
            )
        ]
        roots = self._traced_postorder(lanes, pinned=True)
        self.stats.traversals += 1
        return [root[1] for root in roots]

    def _unpinned_batch_pass(
        self, engines: list[EvaluationEngine]
    ) -> list[dict]:
        """Shared pass for Boolean batches (unpinned distributions).

        Same skeleton as :meth:`_pinned_batch_pass` — one unpinned lane
        per item, without the pinned (per-candidate) machinery.
        """
        lanes = [
            Lane(
                table_labels=engine.table_labels,
                combine=engine.combine_unpinned,
                unit=engine._unit(),
                keyer=self._keyer(engine),
                gate=_UNPINNED,
            )
            for engine in engines
        ]
        roots = self._traced_postorder(lanes, pinned=False)
        self.stats.traversals += 1
        return roots

    def _traced_postorder(self, lanes: list, pinned: bool) -> list:
        """Run :func:`stored_postorder`, under a traversal span if tracing.

        The span records per-pass deltas of the session counters (node
        visits, memo and store hit/miss traffic) — cheap because the
        snapshots happen once per pass, never per node.
        """
        sp = trace_span(
            "session.traversal", lanes=len(lanes), pinned=pinned
        )
        store = self.store
        if sp:
            stats_before = self.stats.snapshot()
            store_before = (store.hits, store.misses)
        with sp:
            roots = stored_postorder(self.p, lanes, store, self.stats)
        if sp:
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
        return roots
