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
token`) is a canonical content-addressed store key.  Every pass over a
store follows one rule (:func:`probe` / :func:`land`): saves collect
in the pass's own *pending* map, a probe looks there first (a hit is
counted through :meth:`~repro.store.MemoStore.record_probe`) and
otherwise calls the store's ``get``, and the pending saves land as one
:meth:`~repro.store.MemoStore.put_many` when the pass ends.  A subtree
saved earlier in the pass therefore serves an isomorphic one later in
it, and the store's hit/miss/put counters read as if every save had
been an immediate ``put``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Optional

from ..store import MemoStore

__all__ = ["Lane", "land", "probe", "stored_postorder"]

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
            source (``token`` / ``weight``); needed only when the pass
            runs over a store.
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


def probe(store: MemoStore, pending: dict, key):
    """The entry under ``key``: the pass's own pending save, else the
    store's.  A pending hit is counted like a store hit."""
    saved = pending.get(key)
    if saved is None:
        return store.get(key)
    store.record_probe(key, True)
    return saved[0]


def land(store: MemoStore, pending: dict) -> None:
    """Write a pass's pending ``key -> (value, weight)`` saves as one
    ``put_many``."""
    if pending:
        store.put_many(
            (key, value, weight) for key, (value, weight) in pending.items()
        )


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
    # Saves of this pass, ``key -> (value, weight)`` (see module docs).
    pending: dict = {}
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
                cached = probe(store, pending, key)
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
            pending[token[0]] = (value, keyer.weight(node_id, value))
    if use_memo:
        land(store, pending)
    return entries.pop(p.root.node_id)
