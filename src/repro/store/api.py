"""The memo-store API: content-addressed caching of subtree distributions.

A *memo store* maps canonical keys to goal-set distributions (the
per-subtree blocked / unpinned evaluations of :mod:`repro.prob.engine`).
Keys are 5-tuples

    ``(structure, fingerprint, anchor, gate, backend)``

* ``structure`` — the structural digest of the p-subtree
  (:meth:`repro.pxml.pdocument.PDocument.structural_digest`): node kinds,
  labels, distribution parameters, order-insensitive, node-Id-free;
* ``fingerprint`` — the digest of the evaluating engine's goal table
  restricted to the labels occurring in the subtree
  (:meth:`repro.prob.engine.EvaluationEngine.goal_table_fingerprint`
  hashed by :func:`repro.store.digest.fingerprint_digest`), with anchor
  *values* abstracted into slots;
* ``anchor`` — ``None`` for unanchored restrictions; for anchored ones
  the canonical anchor-position encoding: one tuple per anchor slot
  holding the sorted *rank paths* (digest-sorted child order, relative
  to the keyed subtree's root) of the admissible document nodes inside
  the subtree.  Positions are isomorphism-invariant, which is what turns
  the rewrite layer's anchored traffic (Theorem 2, per-node ``fr``)
  into shareable content-addressed entries (see
  :mod:`repro.store.keys`);
* ``gate`` — :data:`GATE_BLOCKED` / :data:`GATE_UNPINNED`, or ``None``
  when the restriction holds no output-node entry and the two evaluations
  coincide;
* ``backend`` — the numeric backend name (``"exact"`` / ``"array"``):
  distributions live in the backend's value domain and must not mix.

Equal keys imply equal distributions (bit-identical on the ``exact``
backend; up to summation order on ``array``), so entries may be shared
across queries with equal restricted tables, across isomorphic subtrees
of one document or of a document and its probabilistic extensions, and —
through :class:`repro.store.sqlite.SqliteStore` — across process
restarts.  No document identity enters a subtree key: those entries form
a pure content-addressed function table.

One deliberate exception rides in the same store:
:class:`repro.prob.session.QuerySession` caches per-query *candidate-Id
sets* under ``(identity digest, full-table fingerprint, None,
"candidates", "node-ids")``.  Those values name node Ids, so their first
component is :meth:`~repro.pxml.pdocument.PDocument.identity_digest`,
the root's Id-*aware*, probability-free world digest (two isomorphic
documents with different Id assignments never share them;
probability-only edits keep them), and the payload is the
``{node_id: 1.0}`` indicator map.

Every ``put`` carries a *weight* — by convention the distribution's
support size times the subtree size, an estimate of the recomputation
cost the entry saves — which cost-aware eviction policies
(:class:`repro.store.memory.InMemoryStore`) use to decide what survives
memory pressure.

**Write batching.**  The store-consulting traversal
(:func:`repro.prob.traversal.stored_postorder`, run by a session's lane
group) probes with :meth:`MemoStore.get` and hands a whole pass's saves
over in one :meth:`MemoStore.put_many` call (for
:class:`~repro.store.sqlite.SqliteStore`, one ``executemany``
transaction, optionally staged through a bounded write-behind buffer
that is drained on :meth:`MemoStore.flush` / ``close``).  The base
class falls back to a loop of :meth:`MemoStore.put`, so third-party
stores that only implement the point operations keep working.  Every
``put_many`` counts one ``bulk_probes`` increment and ``len(entries)``
``bulk_probe_keys``, and observes the process-wide
``repro_store_bulk_batch_keys`` batch-size histogram.

**The unified ``stats()`` schema.**  Every concrete store's
:meth:`MemoStore.stats` returns the *same key set*, so tooling
(``repro store stats``, benchmark reports, dashboards) never branches on
the store kind:

========================  ====================================================
key                       meaning
========================  ====================================================
``hits`` / ``misses``     ``get`` probes answered / not answered
``puts``                  entries written
``evictions``             entries dropped under memory pressure
``entries``               entries currently visible to ``get``
``anchored_hits`` /       the anchored-key subset of the probe/put traffic
``anchored_misses`` /
``anchored_puts``
``spine_recomputes`` /    spine-only mutations lived through, and entries
``survived_entries``      cumulatively kept live across them
``bulk_probes`` /         ``put_many`` calls, and entries carried by
``bulk_probe_keys``       them in total
``flushes``               pending-write batches made durable (write-behind
                          drains and explicit ``flush()`` commits)
``kind``                  ``"memory"`` / ``"sqlite"`` (implementation tag)
``weight``                summed entry weights (``None`` when unknown)
``anchored_entries``      entries under anchored keys (``None`` when unknown)
``path``                  backing file (``None`` for purely in-memory stores)
``degraded``              persistence lost, running memory-only
``cached_entries``        entries resident in process memory
``max_weight`` /          eviction caps (``None`` = uncapped / not
``max_entries``           applicable)
``write_behind_pending``  buffered writes awaiting a flush (``None`` when
                          the store has no write-behind stage)
========================  ====================================================

Values that a given implementation cannot know are ``None`` — never
missing — and renderers should still tolerate older/foreign stats dicts
via ``dict.get``.

**Registry publication.**  Live stores are tracked in a weak set and a
pull collector registered with the process-wide metrics registry
(:mod:`repro.obs.registry`) aggregates their counters at read time as
``repro_store_*`` series labelled by ``kind``.  The per-instance
counters stay plain ints on the hot path; ``stats()`` and the registry
are two views over the same numbers.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import Optional

from ..obs.registry import Sample, get_registry

__all__ = [
    "GATE_BLOCKED",
    "GATE_UNPINNED",
    "StoreKey",
    "MemoStore",
    "is_anchored_key",
]

#: Gate tag: output-node D-goals suppressed (the "blocked" evaluations of
#: the single-pass answer DP).
GATE_BLOCKED = "blocked"
#: Gate tag: output-node D-goals granted normally (Boolean / anchored runs).
GATE_UNPINNED = "unpinned"

#: ``(structure, fingerprint, Optional[anchor], Optional[gate], backend)``.
StoreKey = tuple

#: Batch sizes of ``put_many`` calls, observed once per call — one per
#: pass.
_BULK_BATCH_KEYS = get_registry().histogram(
    "repro_store_bulk_batch_keys",
    help="entries carried per put_many call",
    buckets=(1, 4, 16, 64, 256, 1024, 4096, 16384),
)


def is_anchored_key(key: StoreKey) -> bool:
    """Whether a store key carries an anchor-position component.

    Stores use this to split their hit/miss/put counters into anchored
    and unanchored traffic (surfaced by :meth:`MemoStore.stats`,
    :meth:`repro.cache.RewritingCache.stats` and ``repro eval --store``).
    """
    return len(key) == 5 and key[2] is not None


class MemoStore(ABC):
    """Abstract memo store; see the module docstring for key semantics.

    Implementations are single-process, single-thread consumers of the
    hot evaluation path: ``get`` / ``put`` must be cheap.  Distributions
    are immutable by convention (the engine never mutates a distribution
    after building it), so stores hand out the cached object itself.

    Attributes:
        hits / misses / puts / evictions: cumulative counters, also
            surfaced by :meth:`stats`.
        anchored_hits / anchored_misses / anchored_puts: the subset of the
            traffic whose keys carry an anchor-position component
            (:func:`is_anchored_key`) — the rewrite layer's anchored
            evaluations (Theorem 2, per-node ``fr``).  Concrete
            ``get``/``put`` implementations maintain them via
            :meth:`_count_get` / :meth:`_count_put`.
        spine_recomputes / survived_entries: write-path counters
            maintained by :meth:`record_spine_recompute` — how many
            spine-only document mutations this store lived through, and
            the cumulative number of entries that stayed live across
            them (content addressing never purges; mutated subtrees just
            stop matching).  Surfaced by :meth:`stats` and the metrics
            registry.
        bulk_probes / bulk_probe_keys / flushes: batched write traffic —
            calls to :meth:`put_many`, the entries they carried in total,
            and pending-write batches made durable (write-behind drains
            and committing ``flush()`` calls).
    """

    #: Implementation tag entering ``stats()["kind"]`` and the registry
    #: ``kind`` label; concrete stores override it.
    store_kind = "memory"

    #: Read by nothing in the library; kept because perfbench's traced
    #: ``TimedStore`` proxy copies it from the store it wraps.
    prefers_bulk = False

    def __init__(self) -> None:
        # One mutable bag instead of nine attributes: the bag outlives
        # the store (a finalizer retires it into the per-kind process
        # totals), so registry counters stay monotone across instance
        # garbage collection.  Hot-path cost is one dict item add.
        self._counts = {field: 0 for field in COUNTER_FIELDS}
        _LIVE_STORES.add(self)
        weakref.finalize(
            self, _retire_store_counts, self.store_kind, self._counts
        )

    hits = property(lambda self: self._counts["hits"])
    misses = property(lambda self: self._counts["misses"])
    puts = property(lambda self: self._counts["puts"])
    evictions = property(lambda self: self._counts["evictions"])
    anchored_hits = property(lambda self: self._counts["anchored_hits"])
    anchored_misses = property(lambda self: self._counts["anchored_misses"])
    anchored_puts = property(lambda self: self._counts["anchored_puts"])
    spine_recomputes = property(lambda self: self._counts["spine_recomputes"])
    survived_entries = property(lambda self: self._counts["survived_entries"])
    bulk_probes = property(lambda self: self._counts["bulk_probes"])
    bulk_probe_keys = property(lambda self: self._counts["bulk_probe_keys"])
    flushes = property(lambda self: self._counts["flushes"])

    def _count_get(self, key: StoreKey, hit: bool) -> None:
        """Update the hit/miss counters for one ``get`` probe."""
        counts = self._counts
        if hit:
            counts["hits"] += 1
            if is_anchored_key(key):
                counts["anchored_hits"] += 1
        else:
            counts["misses"] += 1
            if is_anchored_key(key):
                counts["anchored_misses"] += 1

    def _count_put(self, key: StoreKey) -> None:
        """Update the put counters for one ``put``."""
        self._counts["puts"] += 1
        if is_anchored_key(key):
            self._counts["anchored_puts"] += 1

    def _count_eviction(self) -> None:
        """Count one entry dropped under memory pressure."""
        self._counts["evictions"] += 1

    def _count_bulk(self, key_count: int) -> None:
        """Count one ``put_many`` call carrying ``key_count`` entries."""
        self._counts["bulk_probes"] += 1
        self._counts["bulk_probe_keys"] += key_count
        _BULK_BATCH_KEYS.observe(key_count)

    def _count_flush(self) -> None:
        """Count one pending-write batch made durable."""
        self._counts["flushes"] += 1

    def record_probe(self, key: StoreKey, hit: bool) -> None:
        """Account one probe answered outside :meth:`get`.

        A traversal answers a probe from its own pending saves (which
        reach the store only at pass end, in one :meth:`put_many`) and
        counts it here, so hit/miss accounting is the same as if every
        save had been an immediate :meth:`put`.
        """
        self._count_get(key, hit)

    def record_spine_recompute(self, survived: int) -> None:
        """Record one spine-only document mutation against this store.

        ``survived`` is the number of entries still live after the
        mutation (all of them, for a content-addressed store — nothing
        is purged; stale digests simply stop matching).  Sessions call
        this from their spine refresh so :meth:`stats` and the metrics
        registry can show how much cached work churn preserved.
        """
        self._counts["spine_recomputes"] += 1
        self._counts["survived_entries"] += survived

    @abstractmethod
    def get(self, key: StoreKey) -> Optional[dict]:
        """The cached distribution for ``key``, or ``None``."""

    @abstractmethod
    def put(self, key: StoreKey, distribution: dict, weight: int = 1) -> None:
        """Cache ``distribution`` under ``key`` with recomputation ``weight``."""

    def put_many(self, entries) -> None:
        """Write many ``(key, distribution, weight)`` entries in one batch.

        Counts one put per entry (identical to a loop of :meth:`put`
        calls) plus one ``bulk_probes`` call over the batch.  Persistent
        stores override this to issue a single write transaction —
        optionally staged through a bounded write-behind buffer drained
        on :meth:`flush` / :meth:`close`.
        """
        entries = list(entries)
        self._count_bulk(len(entries))
        for key, distribution, weight in entries:
            self.put(key, distribution, weight)

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry (counters are kept)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of cached entries."""

    def stats(self) -> dict:
        """Counters and gauges in the unified schema (module docstring).

        Subclasses overwrite the gauges they can measure (``weight``,
        ``anchored_entries``, ``path``, ...) but keep the key set.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "entries": len(self),
            "anchored_hits": self.anchored_hits,
            "anchored_misses": self.anchored_misses,
            "anchored_puts": self.anchored_puts,
            "spine_recomputes": self.spine_recomputes,
            "survived_entries": self.survived_entries,
            "bulk_probes": self.bulk_probes,
            "bulk_probe_keys": self.bulk_probe_keys,
            "flushes": self.flushes,
            "kind": self.store_kind,
            "weight": None,
            "anchored_entries": None,
            "path": None,
            "degraded": False,
            "cached_entries": len(self),
            "max_weight": None,
            "max_entries": None,
            "write_behind_pending": None,
        }

    def flush(self) -> None:
        """Make pending writes durable (no-op for purely in-memory stores)."""

    def close(self) -> None:
        """Flush and release resources; the store degrades to memory-only."""
        self.flush()


#: Counter fields of the unified store instrumentation (one bag slot and
#: one ``repro_store_<field>_total`` registry series each).
COUNTER_FIELDS = (
    "hits",
    "misses",
    "puts",
    "evictions",
    "anchored_hits",
    "anchored_misses",
    "anchored_puts",
    "spine_recomputes",
    "survived_entries",
    "bulk_probes",
    "bulk_probe_keys",
    "flushes",
)

_STORE_COUNTER_HELP = {
    "hits": "memo store get probes answered",
    "misses": "memo store get probes missed",
    "puts": "memo store entries written",
    "evictions": "memo store entries evicted under pressure",
    "anchored_hits": "anchored-key subset of the store hits",
    "anchored_misses": "anchored-key subset of the store misses",
    "anchored_puts": "anchored-key subset of the store puts",
    "spine_recomputes": "spine-only document mutations recorded against stores",
    "survived_entries": "entries kept live across spine-only mutations",
    "bulk_probes": "batched store writes (put_many calls)",
    "bulk_probe_keys": "entries carried by put_many calls in total",
    "flushes": "pending-write batches made durable",
}

#: Live stores feeding the process registry via the pull collector below.
_LIVE_STORES: "weakref.WeakSet[MemoStore]" = weakref.WeakSet()

#: Counters of garbage-collected stores, by kind — keeps the registry
#: series monotone across instance lifetimes.
_RETIRED_COUNTS: dict = {}


def _retire_store_counts(kind: str, counts: dict) -> None:
    totals = _RETIRED_COUNTS.setdefault(kind, dict.fromkeys(COUNTER_FIELDS, 0))
    for field in COUNTER_FIELDS:
        totals[field] += counts[field]


def _collect_store_samples():
    """Live + retired store counters by kind (registry collector)."""
    by_kind: dict[str, dict] = {
        kind: dict(totals) for kind, totals in _RETIRED_COUNTS.items()
    }
    entries: dict[str, int] = {}
    for store in list(_LIVE_STORES):
        totals = by_kind.setdefault(
            store.store_kind, dict.fromkeys(COUNTER_FIELDS, 0)
        )
        for field in COUNTER_FIELDS:
            totals[field] += store._counts[field]
        try:
            count = len(store)
        except Exception:  # reading metrics must never break on a store
            count = 0
        entries[store.store_kind] = entries.get(store.store_kind, 0) + count
    for kind, totals in sorted(by_kind.items()):
        labels = (("kind", kind),)
        for field in COUNTER_FIELDS:
            yield Sample(
                f"repro_store_{field}_total", "counter", labels,
                totals[field], _STORE_COUNTER_HELP[field],
            )
        yield Sample(
            "repro_store_entries", "gauge", labels, entries.get(kind, 0),
            "entries live across the process's memo stores",
        )


get_registry().register_collector(_collect_store_samples)
