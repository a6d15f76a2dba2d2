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
keyer sorts the queries into *lane classes* per subtree and issues one
per-query store key per class, and its hits, misses and neutral skips
count ``× width`` so the counters read as if each query had run its own
lane.

**Per node** the skeleton either

* short-circuits a *neutral* subtree (no goal-table label below ⇒ the
  distribution is the unit ``{∅: 1}``) without touching any memo,
* reuses the memoized blocked/unpinned row of every class (a *hit*),
  assembled into the node's entry by the lane's ``assemble``, or
* calls the lane's combine and saves the row of each class whose probe
  missed under that class's key (a *miss*; a node where only some
  classes hit is combined in full).

The probes happen when the walk first reaches a node, so a hit skips
the whole subtree; a miss remembers its keys for the save after the
combine, and the node is never probed twice.

**Live spine.**  A live node's entry names candidate node Ids, so the
store never serves or holds it: it is combined without a probe.  A lane
may instead carry the live entries of an earlier pass in
:attr:`Lane.known` — the stacked answer plan's *retained spine*, from
which a spine refresh has dropped every node whose digest moved.  A live
node found there resolves like a hit (counted in ``spine_hits``, not
``memo_hits``) and is not descended into, so a read after a one-node
edit recombines only the dirty path.  A dirty live node may keep its
old entry in :attr:`Lane.previous`: the walk then pushes only the
children on the dirty path, the combine takes every other child's entry
from the old one, and those clean live children count as spine hits —
so a wide node on the dirty path costs what its changed children cost,
not its fanout.

**Store I/O.**  A lane token (:meth:`repro.prob.stacked.StackedKeyer.
token`) holds one canonical content-addressed store key per lane class,
and an entry's weight is its row's support × the subtree size.  Every
pass over a store follows one rule (:func:`probe` / :func:`land`):
saves collect in the pass's own *pending* map, a probe looks there
first (a hit is counted through :meth:`~repro.store.MemoStore.
record_probe`) and otherwise calls the store's ``get``, and the pending
saves land as one :meth:`~repro.store.MemoStore.put_many` when the pass
ends.  A subtree saved earlier in the pass therefore serves an
isomorphic one later in it, and the store's hit/miss/put counters read
as if every save had been an immediate ``put``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Optional

from ..store import MemoStore

__all__ = ["Lane", "land", "probe", "stored_postorder"]

_EMPTY = frozenset()
_NOTHING_KNOWN: Mapping = MappingProxyType({})


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
            source (``token``); needed only when the pass runs over a
            store.
        live: node Ids whose subtree holds a candidate — always combined,
            never probed.
        width: how many queries the lane stands for (see module docs).
        assemble: ``(lane_class, class_rows) -> entry`` — the entry of a
            node whose every class row was a hit; needed only when the
            pass runs over a store.
        known: ``node_id -> entry`` for live nodes whose entry an earlier
            pass combined and that is still valid (see module docs).
            Such a node resolves like a hit, and its subtree is not
            walked.  Empty by default.
        previous: ``node_id -> prior`` for live nodes whose entry moved
            but whose combine reads the old one (see module docs): the
            walk pushes only ``prior.dirty``, the children whose entries
            changed, and counts ``prior.clean_live`` spine hits for the
            live children it does not push.  Empty by default.
    """

    __slots__ = (
        "table_labels", "combine", "keyer", "live", "unit_entry", "width",
        "assemble", "known", "previous",
    )

    def __init__(
        self,
        table_labels: frozenset,
        combine: Callable,
        unit,
        keyer=None,
        live: frozenset = _EMPTY,
        width: int = 1,
        assemble: Optional[Callable] = None,
        known: Mapping = _NOTHING_KNOWN,
        previous: Mapping = _NOTHING_KNOWN,
    ) -> None:
        self.table_labels = table_labels
        self.combine = combine
        self.keyer = keyer
        self.live = live
        self.unit_entry = unit
        self.width = width
        self.assemble = assemble
        self.known = known
        self.previous = previous


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
    previous = lane.previous
    keyer = lane.keyer
    width = lane.width
    combine = lane.combine
    assemble = lane.assemble
    sizes = p.structural_index()[1] if use_memo else None
    entries: dict = {}
    # The token and probed rows of every node whose pre-check missed, for
    # the save after its combine (live nodes are never probed).
    missed: dict = {}
    # (node, None) on the way down; (node, the children pushed below it)
    # once expanded.
    stack = [(p.root, None)]
    while stack:
        node, pushed = stack.pop()
        node_id = node.node_id
        if pushed is None:
            label_set = labels[node_id]
            if node_id in live:
                entry = known.get(node_id)
                if entry is not None:
                    entries[node_id] = entry
                    if stats is not None:
                        stats.spine_hits += width
                        stats.subtree_skips += 1
                    continue
                prior = previous.get(node_id)
                if prior is not None:
                    # The combine reads its clean children's entries off
                    # the previous one: push only the dirty children.
                    pushed = prior.dirty
                    if stats is not None:
                        stats.spine_hits += width * prior.clean_live
                        stats.subtree_skips += prior.clean_live
                    stack.append((node, pushed))
                    stack.extend((child, None) for child in pushed)
                    continue
            elif not (table_labels & label_set):
                entries[node_id] = lane.unit_entry
                if stats is not None:
                    stats.neutral_skips += width
                    stats.subtree_skips += 1
                continue
            elif use_memo:
                keys, anchored, lane_class = keyer.token(node_id, label_set)
                if len(keys) == 1:  # the common case: one lane class
                    rows = [probe(store, pending, keys[0])]
                else:
                    rows = [probe(store, pending, key) for key in keys]
                if None not in rows:
                    entries[node_id] = assemble(lane_class, rows)
                    if stats is not None:
                        stats.memo_hits += width
                        if anchored:
                            stats.anchored_hits += width
                        stats.subtree_skips += 1
                    continue
                missed[node_id] = (keys, anchored, lane_class, rows)
            pushed = node.children
            stack.append((node, pushed))
            stack.extend((child, None) for child in pushed)
            continue
        if stats is not None:
            stats.node_visits += 1
        entry = entries[node_id] = combine(node, entries)
        for child in pushed:
            del entries[child.node_id]
        token = missed.pop(node_id, None) if use_memo else None
        if token is None:  # memo-less, or a live node: never probed
            continue
        keys, anchored, lane_class, rows = token
        if stats is not None:
            stats.memo_misses += width
            if anchored:
                stats.anchored_misses += width
        # Every class whose probe missed saves its row (a partial hit
        # was recombined in full).
        size = sizes[node_id]
        for cls, key in enumerate(keys):
            if rows[cls] is None:
                row = entry.rows[lane_class.index(cls)]
                pending[key] = (row, len(row) * size)
    if use_memo:
        land(store, pending)
    return entries.pop(p.root.node_id)
