"""THE store-consulting post-order traversal.

:func:`stored_postorder` is the one DP walk of the engine and session
layers: :class:`~repro.prob.engine.EvaluationEngine` passes (with or
without a store) are single-lane instances of it, and the classic
:class:`~repro.prob.session.QuerySession` batch passes are multi-lane
ones.  Each applies the same probe / neutral-skip /
second-chance-reprobe / presence-guarded-save choreography.

**Lanes.**  A :class:`Lane` is one query's view of a shared pass: its
goal-table label support (for the neutral short-circuit), its *live* set
(ancestors of candidate nodes, which must always be combined so pinned
maps can be assembled), its gate, its keyer, and its combine callback.
A batched session pass runs many lanes over one stack walk; a plain
engine pass runs one.

**Per node, per lane** the skeleton either

* short-circuits a *neutral* subtree (no goal-table label below ⇒ the
  distribution is the unit ``{∅: 1}``) without touching any memo,
* reuses a memoized blocked/unpinned distribution (a *hit*), or
* calls the lane's combine and saves the cacheable half of the result
  under the lane's token (a *miss*).

When *every* lane of the pass is neutral or hits at a subtree root
(pre-check probe), the subtree is not traversed at all.  A counted
pre-check miss is stashed as :data:`_MISS`; the expanded visit then uses
a *second-chance* probe — it can still hit when an earlier lane of the
same pass filled the identical key at this very node (same-pass
cross-lane sharing), but a repeated miss is answered from
:meth:`~repro.store.MemoStore.contains` and not re-counted.

**Store I/O.**  A lane token (:meth:`repro.store.keys.SubtreeKeyer.
token`) is a canonical content-addressed store key — unanchored, or
anchored with canonical position encoding.  Every store call of a pass
goes through one pass-scoped probe object (:func:`open_probe`) with
``probe`` / ``reprobe`` / ``save`` / ``flush``.  Live-spine entries are
recombined every pass without a prior probe; equal keys mean equal
distributions, so saves are presence-guarded to skip the redundant
re-store (a disk write per node on :class:`~repro.store.SqliteStore`).

The probe object is chosen by ``store.prefers_bulk`` alone.  Against an
in-memory store it is a thin view whose ``probe`` / ``reprobe`` *are*
the store's bound ``get`` / ``reprobe`` and whose ``flush`` is a no-op.
Against a store that prefers bulk probing (a live
:class:`~repro.store.SqliteStore`) it is a *probe plan* that front-loads
the pass's store traffic: every candidate key is enumerated up front
(for lanes, :meth:`~repro.store.SubtreeKeyer.plan_keys` over the
epoch-cached digest indexes) and answered by ONE
:meth:`~repro.store.MemoStore.get_many` plus one
:meth:`~repro.store.MemoStore.contains_many` for the live-spine
save-guard set, and all saves collect into one
:meth:`~repro.store.MemoStore.put_many` at pass end.  The prefetch is
*uncounted* (``record=False``): it probes keys under subtrees the walk
may skip, so hit/miss accounting happens per *use* through
:meth:`~repro.store.MemoStore.record_probe`, keeping ``stats()``
identical to the point path.  Deferred saves live in the plan's
``pending`` map, which probes and reprobes consult — same-pass
cross-lane sharing survives the deferral.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..obs.trace import span
from ..store import MemoStore, SubtreeKeyer

__all__ = ["Lane", "open_probe", "stored_postorder"]

#: Sentinel recording a counted pre-check probe miss (see module docs).
_MISS = object()

_EMPTY = frozenset()


class Lane:
    """One query's view of a shared store-consulting pass.

    Args:
        table_labels: the lane's goal-table label support; a subtree
            whose label set is disjoint from it is *neutral*.
        combine: ``(node, entries) -> entry`` — the lane's DP combine
            step over the child entries.
        unit: the lane's unit distribution ``{0: one}``.
        keyer: the lane's :class:`~repro.store.SubtreeKeyer` (``None``
            when the pass runs memo-less).
        live: node Ids whose subtree holds a candidate — always combined.
        gate: gate tag for the lane's cacheable (blocked / unpinned)
            distributions.
        pinned: entries are ``(blocked, pinned)`` pairs; only the blocked
            half is content-addressable (pinned maps name node Ids).
    """

    __slots__ = (
        "table_labels", "combine", "keyer", "live", "gate", "pinned",
        "unit_entry",
    )

    def __init__(
        self,
        table_labels: frozenset,
        combine: Callable,
        unit: dict,
        keyer: Optional[SubtreeKeyer] = None,
        live: frozenset = _EMPTY,
        gate: Optional[str] = None,
        pinned: bool = False,
    ) -> None:
        self.table_labels = table_labels
        self.combine = combine
        self.keyer = keyer
        self.live = live
        self.gate = gate
        self.pinned = pinned
        self.unit_entry = (unit, {}) if pinned else unit


class _PointProbe:
    """Per-key store I/O: ``probe`` / ``reprobe`` are the store's own
    bound ``get`` / ``reprobe``, so the in-memory hot path pays no
    wrapper call per node."""

    __slots__ = ("probe", "reprobe", "_store")

    def __init__(self, store: MemoStore) -> None:
        self.probe = store.get
        self.reprobe = store.reprobe
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
    every key the pass may probe; ``present`` the ``contains_many``
    answer for the live-spine save-guard keys; ``pending`` the deferred
    saves, consulted by :meth:`probe`/:meth:`reprobe` so same-pass
    cross-lane sharing works exactly as with eager per-key puts, and
    landed as one ``put_many`` by :meth:`flush`.  Hit/miss accounting
    happens per use (:meth:`~repro.store.MemoStore.record_probe`), so
    store counters match the point path even though the prefetch
    touched keys under skipped subtrees.
    """

    __slots__ = ("store", "snapshot", "present", "pending")

    def __init__(self, store, snapshot: dict, present: set) -> None:
        self.store = store
        self.snapshot = snapshot
        self.present = present
        self.pending: dict = {}

    def probe(self, key) -> Optional[dict]:
        value = self.snapshot.get(key)
        if value is None:
            entry = self.pending.get(key)
            if entry is not None:
                value = entry[0]
        self.store.record_probe(key, value is not None)
        return value

    def reprobe(self, key) -> Optional[dict]:
        # A stashed pre-check miss was absent from the snapshot; only a
        # same-pass save can have filled the key since.  Hit counts,
        # miss does not — mirroring MemoStore.reprobe.
        entry = self.pending.get(key)
        if entry is None:
            return None
        self.store.record_probe(key, True)
        return entry[0]

    def save(self, key, distribution, weight) -> None:
        if key in self.snapshot or key in self.present or key in self.pending:
            return  # presence-guarded, like _PointProbe.save
        self.pending[key] = (distribution, weight)

    def flush(self) -> None:
        if self.pending:
            self.store.put_many(
                (key, distribution, weight)
                for key, (distribution, weight) in self.pending.items()
            )


def open_probe(store: MemoStore, plan_keys: Callable[[], tuple]):
    """The pass-scoped probe object for one pass over ``store``.

    ``plan_keys()`` returns ``(probe_keys, guard_keys)``: every key the
    pass may probe, and the keys it may save without probing first.  It
    is called only when ``store.prefers_bulk`` — the probe plan then
    answers them with one uncounted ``get_many`` and one
    ``contains_many``.  Otherwise the pass gets the per-key view.
    Answers and store hit/miss/put accounting are identical either way.
    The caller must :meth:`flush` the object when the pass ends.
    """
    if not store.prefers_bulk:
        return _PointProbe(store)
    probe_keys, guard_keys = plan_keys()
    with span(
        "store.bulk_prefetch",
        probe_keys=len(probe_keys),
        guard_keys=len(guard_keys),
    ):
        snapshot = store.get_many(probe_keys, record=False) if probe_keys else {}
        present = store.contains_many(guard_keys) if guard_keys else set()
    return _ProbePlan(store, snapshot, present)


def _lane_plan_keys(lanes: Sequence[Lane], labels: dict) -> tuple:
    """Union of every lane's :meth:`~repro.store.SubtreeKeyer.plan_keys`."""
    probe_keys: set = set()
    guard_keys: set = set()
    for lane in lanes:
        lane_probe, lane_guard = lane.keyer.plan_keys(
            labels, lane.live, lane.gate
        )
        probe_keys |= lane_probe
        guard_keys |= lane_guard
    return probe_keys, guard_keys


def stored_postorder(
    p,
    lanes: Sequence[Lane],
    store: Optional[MemoStore],
    stats=None,
) -> list:
    """Run all ``lanes`` through one shared post-order pass over ``p``.

    Returns the root entry of every lane (a distribution for unpinned
    lanes, a ``(blocked, pinned)`` pair for pinned ones).

    Args:
        p: the p-document.
        lanes: the evaluation lanes sharing this walk.
        store: the content-addressed memo store (``None`` = memo-less
            pass: neutral subtrees still short-circuit, everything else
            is combined).
        stats: optional :class:`repro.prob.session.SessionStats`-shaped
            sink (``node_visits`` / ``memo_hits`` / ``memo_misses`` /
            ``anchored_hits`` / ``anchored_misses`` / ``neutral_skips`` /
            ``subtree_skips`` are updated; ``traversals`` is the
            caller's).
    """
    labels = p.label_index()
    use_memo = store is not None
    if use_memo:
        io = open_probe(store, lambda: _lane_plan_keys(lanes, labels))
        probe, reprobe, save = io.probe, io.reprobe, io.save
    count = len(lanes)
    # A stashed pre-check miss can only turn into a hit when ANOTHER lane
    # fills the identical key before the expanded visit — between the two
    # only the node's strict descendants run, and a proper subtree can
    # never share its ancestor's digest.  Single-lane passes therefore
    # skip the second-chance reprobe entirely (it would be one
    # guaranteed-miss probe per cold node).
    reprobe_possible = count > 1
    indices = range(count)
    entries: list[dict] = [{} for _ in indices]
    # Pre-check probe results (distribution, unit entry, or _MISS, per
    # lane index) stashed per node so the expanded visit never probes
    # twice.
    probes: dict[int, list] = {}
    stack = [(p.root, False)]
    while stack:
        node, expanded = stack.pop()
        node_id = node.node_id
        if not expanded:
            label_set = labels[node_id]
            neutral = 0
            probed: list = []
            skip = True
            for i in indices:
                lane = lanes[i]
                if node_id in lane.live:
                    skip = False
                    break
                if not (lane.table_labels & label_set):
                    probed.append(lane.unit_entry)
                    neutral += 1
                    continue
                if not use_memo:
                    skip = False
                    break
                key, anchored = lane.keyer.token(node_id, label_set, lane.gate)
                cached = probe(key)
                if cached is None:
                    probed.append(_MISS)
                    skip = False
                    break
                if anchored and stats is not None:
                    stats.anchored_hits += 1
                probed.append((cached, {}) if lane.pinned else cached)
            if skip:
                for i in indices:
                    entries[i][node_id] = probed[i]
                if stats is not None:
                    stats.memo_hits += count - neutral
                    stats.neutral_skips += neutral
                    stats.subtree_skips += 1
                continue
            if probed:
                probes[node_id] = probed
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        if stats is not None:
            stats.node_visits += 1
        label_set = labels[node_id]
        children = node.children
        probed = probes.pop(node_id, ())
        for i in indices:
            lane = lanes[i]
            entry_map = entries[i]
            if node_id in lane.live:
                entry = lane.combine(node, entry_map)
                entry_map[node_id] = entry
                if use_memo:
                    keyer = lane.keyer
                    blocked = entry[0] if lane.pinned else entry
                    save(
                        keyer.token(node_id, label_set, lane.gate)[0],
                        blocked,
                        keyer.weight(node_id, blocked),
                    )
            elif not (lane.table_labels & label_set):
                entry_map[node_id] = lane.unit_entry
                if stats is not None:
                    stats.neutral_skips += 1
            elif not use_memo:
                entry_map[node_id] = lane.combine(node, entry_map)
            else:
                key, anchored = lane.keyer.token(node_id, label_set, lane.gate)
                stashed = probed[i] if i < len(probed) else None
                if stashed is None:
                    cached = probe(key)
                elif stashed is _MISS:
                    cached = reprobe(key) if reprobe_possible else None
                else:
                    # Pre-check hit, stashed in entry form already.
                    entry_map[node_id] = stashed
                    if stats is not None:
                        stats.memo_hits += 1
                    continue
                if cached is not None:
                    entry_map[node_id] = (
                        (cached, {}) if lane.pinned else cached
                    )
                    if stats is not None:
                        stats.memo_hits += 1
                        if anchored:
                            stats.anchored_hits += 1
                else:
                    entry = lane.combine(node, entry_map)
                    entry_map[node_id] = entry
                    blocked = entry[0] if lane.pinned else entry
                    save(key, blocked, lane.keyer.weight(node_id, blocked))
                    if stats is not None:
                        stats.memo_misses += 1
                        if anchored:
                            stats.anchored_misses += 1
            for child in children:
                entry_map.pop(child.node_id, None)
    if use_memo:
        io.flush()  # a probe plan's saves land as one put_many
    root_id = p.root.node_id
    return [entries[i].pop(root_id) for i in indices]
