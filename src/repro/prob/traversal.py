"""THE store-consulting post-order traversal.

:func:`stored_postorder` is the one DP walk of the engine and session
layers.  It runs one :class:`Lane`: an
:class:`~repro.prob.engine.EvaluationEngine` pass runs the engine's own
lane without a store, and every :class:`~repro.prob.session.
QuerySession` batch runs as one *lane group* (:mod:`repro.prob.
stacked`), the walk's one stored client.  Both apply the same
probe / neutral-skip / save choreography, and keep the same session
counters.

**Lanes.**  A :class:`Lane` is one pass's view of the evaluation: its
goal-table label support (for the neutral short-circuit), its *live* set
(ancestors of candidate nodes, which must always be combined so pinned
maps can be assembled), its keyer, and its combine callback.  A *lane
group* is a lane standing for ``width`` queries at once: its entries
carry every query of the group (the stacked pass's per-lane rows), its
keyer issues one combined key per subtree, and its hits, misses and
neutral skips count ``× width`` so the counters read as if each query
had run its own lane.

**Per node** the skeleton either

* short-circuits a *neutral* subtree (no goal-table label below ⇒ the
  distribution is the unit ``{∅: 1}``) without touching any memo,
* reuses a memoized blocked/unpinned distribution (a *hit*), or
* calls the lane's combine and saves the cacheable part of the result
  under the lane's token (a *miss*).

The probe happens when the walk first reaches a node, so a hit skips
the whole subtree; a miss remembers its key for the save after the
combine, and the node is never probed twice.

**Live spine.**  A live node's entry names candidate node Ids, so the
store never serves or holds it: it is combined without a probe.  A lane
may instead carry the live entries of an earlier pass in
:attr:`Lane.known` — the stacked answer plan's *retained spine*, from
which a spine refresh has dropped every node whose digest moved.  A live
node found there resolves like a hit (counted in ``spine_hits``, not
``memo_hits``) and is not descended into, so a read after a one-node
edit recombines only the dirty path.

**Store I/O.**  A lane token (:meth:`repro.prob.stacked.StackedKeyer.
token`) is a canonical content-addressed store key.  Every store call of
a pass goes through one pass-scoped probe object (:func:`open_probe`)
with ``probe`` / ``save`` / ``flush``.

The probe object is chosen by ``store.prefers_bulk`` alone.  Against an
in-memory store it is a thin view whose ``probe`` *is* the store's
bound ``get`` and whose ``flush`` is a no-op.  Against a store that
prefers bulk probing (a live :class:`~repro.store.SqliteStore`) it is
a *probe plan* that front-loads the pass's store traffic: every key the
pass can reach is enumerated up front (the keyer's ``plan_keys`` over
the nodes of a walk from the root that does not descend below a
neutral or known node) and answered by ONE
:meth:`~repro.store.MemoStore.get_many`, and all saves collect into one
:meth:`~repro.store.MemoStore.put_many` at pass end.  The prefetch is
*uncounted* (``record=False``): it probes keys under subtrees the walk
may skip, so hit/miss accounting happens per *use* through
:meth:`~repro.store.MemoStore.record_probe`, keeping ``stats()``
identical to the point path.  Deferred saves live in the plan's
``pending`` map, which probes consult, so a subtree saved earlier in
the pass serves an isomorphic one later in it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Optional

from ..obs.trace import span
from ..store import MemoStore

__all__ = ["Lane", "open_probe", "stored_postorder"]

_EMPTY = frozenset()
_NOTHING_KNOWN: Mapping = MappingProxyType({})


def _whole(entry):
    return entry


class Lane:
    """One engine's (or one lane group's) view of a pass.

    Args:
        table_labels: the lane's goal-table label support; a subtree
            whose label set is disjoint from it is *neutral*.
        combine: ``(node, entries) -> entry`` — the lane's DP combine
            step over the child entries.
        unit: the entry of a neutral subtree (for an unpinned lane, the
            unit distribution ``{0: one}``).
        keyer: a :class:`~repro.prob.stacked.StackedKeyer`-shaped key
            source (``token`` / ``weight`` / ``plan_keys``); needed only
            when the pass runs over a store.
        live: node Ids whose subtree holds a candidate — always combined,
            never probed.
        width: how many queries the lane stands for (see module docs).
        cacheable: ``entry -> value or None`` — what the store may hold
            of a combined entry (``None``: nothing).  Default: the entry
            itself.
        known: ``node_id -> entry`` for live nodes whose entry an earlier
            pass combined and that is still valid (see module docs).
            Such a node resolves like a hit, and its subtree is not
            walked.  Empty by default.
    """

    __slots__ = (
        "table_labels", "combine", "keyer", "live", "unit_entry", "width",
        "cacheable", "known",
    )

    def __init__(
        self,
        table_labels: frozenset,
        combine: Callable,
        unit,
        keyer=None,
        live: frozenset = _EMPTY,
        width: int = 1,
        cacheable: Callable = _whole,
        known: Mapping = _NOTHING_KNOWN,
    ) -> None:
        self.table_labels = table_labels
        self.combine = combine
        self.keyer = keyer
        self.live = live
        self.unit_entry = unit
        self.width = width
        self.cacheable = cacheable
        self.known = known


class _PointProbe:
    """Per-key store I/O: ``probe`` is the store's own bound ``get``, so
    the in-memory hot path pays no wrapper call per node."""

    __slots__ = ("probe", "_store")

    def __init__(self, store: MemoStore) -> None:
        self.probe = store.get
        self._store = store

    def save(self, key, distribution, weight) -> None:
        store = self._store
        if not store.contains(key):
            store.put(key, distribution, weight)

    def flush(self) -> None:
        pass


class _ProbePlan:
    """One pass's bulk store I/O, front-loaded.

    ``snapshot`` holds the answers of one *uncounted* ``get_many`` over
    every key the pass may probe; ``pending`` the deferred saves,
    consulted by :meth:`probe` exactly as eager per-key puts would be,
    and landed as one ``put_many`` by :meth:`flush`.  Hit/miss
    accounting happens per use (:meth:`~repro.store.MemoStore.
    record_probe`), so store counters match the point path even though
    the prefetch touched keys under skipped subtrees.
    """

    __slots__ = ("store", "snapshot", "pending")

    def __init__(self, store, snapshot: dict) -> None:
        self.store = store
        self.snapshot = snapshot
        self.pending: dict = {}

    def probe(self, key) -> Optional[dict]:
        value = self.snapshot.get(key)
        if value is None:
            entry = self.pending.get(key)
            if entry is not None:
                value = entry[0]
        self.store.record_probe(key, value is not None)
        return value

    def save(self, key, distribution, weight) -> None:
        if key in self.snapshot or key in self.pending:
            return  # presence-guarded, like _PointProbe.save
        self.pending[key] = (distribution, weight)

    def flush(self) -> None:
        if self.pending:
            self.store.put_many(
                (key, distribution, weight)
                for key, (distribution, weight) in self.pending.items()
            )


def open_probe(store: MemoStore, plan_keys: Callable[[], object]):
    """The pass-scoped probe object for one pass over ``store``.

    ``plan_keys()`` returns every key the pass may probe.  It is called
    only when ``store.prefers_bulk`` — the probe plan then answers them
    with one uncounted ``get_many``.  Otherwise the pass gets the
    per-key view.  Answers and store hit/miss/put accounting are
    identical either way.  The caller must :meth:`flush` the object when
    the pass ends.
    """
    if not store.prefers_bulk:
        return _PointProbe(store)
    probe_keys = plan_keys()
    with span("store.bulk_prefetch", probe_keys=len(probe_keys)):
        snapshot = store.get_many(probe_keys, record=False) if probe_keys else {}
    return _ProbePlan(store, snapshot)


def _lane_plan_keys(root, lane: Lane, labels: dict):
    """The lane keyer's ``plan_keys`` over the nodes the pass can reach.

    The walk does not descend below a node that is neutral (the pass
    short-circuits it) or known (the pass reuses its entry), so a read
    after a one-node edit enumerates the dirty path and the subtrees
    hanging off it, not the whole document.
    """
    table_labels = lane.table_labels
    known = lane.known
    reachable: dict = {}
    stack = [root]
    while stack:
        node = stack.pop()
        node_id = node.node_id
        label_set = labels[node_id]
        if table_labels & label_set and node_id not in known:
            reachable[node_id] = label_set
            stack.extend(node.children)
    return lane.keyer.plan_keys(reachable, lane.live)


def stored_postorder(
    p,
    lane: Lane,
    store: Optional[MemoStore],
    stats=None,
):
    """Run ``lane`` through one post-order pass over ``p``.

    Returns the lane's root entry (a distribution for an unpinned engine
    lane, a ``(blocked, pinned)`` pair for a pinned one, the group's
    entry for a lane group).

    Args:
        p: the p-document.
        lane: the evaluation lane (one engine's, or a session's lane
            group).
        store: the content-addressed memo store (``None`` = memo-less
            pass, as every engine pass runs: neutral subtrees still
            short-circuit, everything else is combined).
        stats: optional :class:`repro.prob.session.SessionStats`-shaped
            sink (``node_visits`` / ``memo_hits`` / ``memo_misses`` /
            ``anchored_hits`` / ``anchored_misses`` / ``neutral_skips`` /
            ``subtree_skips`` / ``spine_hits`` are updated;
            ``traversals`` is the caller's).
    """
    labels = p.label_index()
    use_memo = store is not None
    if use_memo:
        io = open_probe(store, lambda: _lane_plan_keys(p.root, lane, labels))
        probe, save = io.probe, io.save
    table_labels = lane.table_labels
    live = lane.live
    known = lane.known
    keyer = lane.keyer
    width = lane.width
    combine = lane.combine
    cacheable = lane.cacheable
    entries: dict = {}
    # The store key of every node whose pre-check missed, for the save
    # after its combine (live nodes are never probed, so absent here).
    missed: dict = {}
    stack = [(p.root, False)]
    while stack:
        node, expanded = stack.pop()
        node_id = node.node_id
        if not expanded:
            label_set = labels[node_id]
            if node_id in live:
                entry = known.get(node_id)
                if entry is not None:
                    entries[node_id] = entry
                    if stats is not None:
                        stats.spine_hits += width
                        stats.subtree_skips += 1
                    continue
            elif not (table_labels & label_set):
                entries[node_id] = lane.unit_entry
                if stats is not None:
                    stats.neutral_skips += width
                    stats.subtree_skips += 1
                continue
            elif use_memo:
                key, anchored = keyer.token(node_id, label_set)
                cached = probe(key)
                if cached is not None:
                    entries[node_id] = cached
                    if stats is not None:
                        stats.memo_hits += width
                        if anchored:
                            stats.anchored_hits += width
                        stats.subtree_skips += 1
                    continue
                missed[node_id] = (key, anchored)
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        if stats is not None:
            stats.node_visits += 1
        entry = entries[node_id] = combine(node, entries)
        for child in node.children:
            del entries[child.node_id]
        token = missed.pop(node_id, None) if use_memo else None
        if token is None:  # memo-less, or a live node: never probed
            continue
        if stats is not None:
            stats.memo_misses += width
            if token[1]:
                stats.anchored_misses += width
        value = cacheable(entry)
        if value is not None:
            save(token[0], value, keyer.weight(node_id, value))
    if use_memo:
        io.flush()  # a probe plan's saves land as one put_many
    return entries.pop(p.root.node_id)
