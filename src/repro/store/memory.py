"""In-memory memo store with cost-aware LRU eviction (GreedyDual-Size).

The old session memo bounded memory by *clearing everything* at a fixed
entry cap — one oversized workload threw away every hot entry.  This
store instead evicts entry-by-entry under a priority that blends recency
with recomputation cost:

    ``priority(e) = clock + weight(e)``

assigned on insertion and refreshed on every hit.  Eviction pops the
minimum-priority entry and advances the *clock* to that priority (the
classic GreedyDual-Size aging trick: the clock inflates every future
priority, so an entry not touched for a while gradually loses its head
start).  An entry therefore survives pressure if it is *recently used*
or *expensive to recompute* — weight is by convention the distribution's
support size times the subtree size it summarizes — whereas plain LRU
ignores cost and clear-at-capacity keeps nothing.

The priority queue is a lazy heap: stale records (superseded by a later
refresh, or pointing at an evicted key) are skipped on pop.  While the
store sits below its caps, hits refresh priorities without touching the
heap at all (the clock only moves on eviction), so the hot-path ``get``
is one dict lookup plus one comparison.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .api import MemoStore, StoreKey, is_anchored_key

__all__ = ["InMemoryStore"]

# Entry layout: [distribution, weight, priority, stamp].
_VALUE, _WEIGHT, _PRIORITY, _STAMP = range(4)


class InMemoryStore(MemoStore):
    """Cost-aware LRU memo store bounded by total weight and entry count.

    Args:
        max_weight: cap on the summed entry weights (≈ recomputation-cost
            units, not bytes).
        max_entries: cap on the entry count.
    """

    def __init__(
        self, max_weight: int = 1 << 26, max_entries: int = 1 << 18
    ) -> None:
        super().__init__()
        self.max_weight = max_weight
        self.max_entries = max_entries
        self._entries: dict[StoreKey, list] = {}
        self._heap: list[tuple[float, int, StoreKey]] = []
        self._clock = 0.0
        self._stamp = 0
        self._weight = 0

    @property
    def weight(self) -> int:
        """Summed weight of the cached entries."""
        return self._weight

    def get(self, key: StoreKey) -> Optional[dict]:
        entry = self._entries.get(key)
        if entry is None:
            self._count_get(key, hit=False)
            return None
        self._count_get(key, hit=True)
        self._touch(entry, key)
        return entry[_VALUE]

    def put(self, key: StoreKey, distribution: dict, weight: int = 1) -> None:
        weight = max(1, int(weight))
        self._count_put(key)
        self._stamp += 1
        priority = self._clock + weight
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = [distribution, weight, priority, self._stamp]
            self._weight += weight
        else:
            self._weight += weight - entry[_WEIGHT]
            entry[_VALUE] = distribution
            entry[_WEIGHT] = weight
            entry[_PRIORITY] = priority
            entry[_STAMP] = self._stamp
        heapq.heappush(self._heap, (priority, self._stamp, key))
        self._evict()

    def contains(self, key: StoreKey) -> bool:
        return key in self._entries

    def _touch(self, entry: list, key: StoreKey) -> None:
        """Refresh an entry's GreedyDual-Size priority (a hit's side
        effect, shared by the point and bulk read paths)."""
        priority = self._clock + entry[_WEIGHT]
        if priority > entry[_PRIORITY]:
            self._stamp += 1
            entry[_PRIORITY] = priority
            entry[_STAMP] = self._stamp
            heapq.heappush(self._heap, (priority, self._stamp, key))

    # ------------------------------------------------------------------
    # Bulk protocol: O(len(keys)) direct dict operations
    # ------------------------------------------------------------------
    def get_many(self, keys, record: bool = True) -> dict:
        keys = list(keys)
        self._count_bulk(len(keys))
        entries = self._entries
        out = {}
        for key in keys:
            entry = entries.get(key)
            if entry is None:
                if record:
                    self._count_get(key, hit=False)
                continue
            if record:
                self._count_get(key, hit=True)
            self._touch(entry, key)
            out[key] = entry[_VALUE]
        return out

    def put_many(self, entries) -> None:
        entries = list(entries)
        self._count_bulk(len(entries))
        for key, distribution, weight in entries:
            self.put(key, distribution, weight)

    def discard(self, predicate) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        Targeted invalidation: drop the keys naming stale state (e.g.
        dirty node Ids after a spine-only mutation), keep the rest.  Heap
        records of dropped keys go stale
        and are skipped by the usual lazy-eviction pop.  Returns the
        number of entries removed (not counted as evictions — these are
        invalidations, not pressure).
        """
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            entry = self._entries.pop(key)
            self._weight -= entry[_WEIGHT]
        return len(doomed)

    def _evict(self) -> None:
        while (
            self._weight > self.max_weight
            or len(self._entries) > self.max_entries
        ):
            if not self._heap:  # pragma: no cover - every entry has a record
                break
            priority, stamp, key = heapq.heappop(self._heap)
            entry = self._entries.get(key)
            if entry is None or entry[_STAMP] != stamp:
                continue  # stale record, superseded by a refresh
            del self._entries[key]
            self._weight -= entry[_WEIGHT]
            self._clock = priority
            self._count_eviction()

    def clear(self) -> None:
        self._entries.clear()
        self._heap.clear()
        self._clock = 0.0
        self._weight = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        gauges = super().stats()
        gauges.update(
            weight=self._weight,
            max_weight=self.max_weight,
            max_entries=self.max_entries,
            anchored_entries=sum(
                1 for key in self._entries if is_anchored_key(key)
            ),
        )
        return gauges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InMemoryStore(entries={len(self._entries)}, "
            f"weight={self._weight}/{self.max_weight})"
        )
