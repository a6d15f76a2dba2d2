"""File-backed (SQLite) memo store: subtree distributions that survive
process restarts.

Entries are the same content-addressed ``(structure, fingerprint,
anchor, gate, backend)`` records as :class:`repro.store.memory.
InMemoryStore` holds, persisted in a single ``memo`` table so a
restarted worker — or a different worker pointed at the same file —
starts with every previously computed subtree distribution already
available ("warm-from-disk"; see ``benchmarks/bench_store.py``).

**Payload codec.**  Distributions are JSON: exact (:class:`Fraction`)
values as ``[numerator, denominator]`` pairs, ``array`` floats as JSON
numbers, goal masks as arbitrary-precision ints, a lane group's
:class:`~repro.probability_array.LaneRows` as its distinct rows plus a
lane → row index (see :func:`_encode`) — version-tagged so a future
format change degrades to a cache miss rather than a wrong answer.  Entries
whose values are neither ``Fraction`` nor ``float`` (a custom backend's
domain) are kept in memory but not persisted.

**Anchored-entry codec.**  The key's anchor-position component (one
tuple of relative rank paths per anchor slot, ``None`` when unanchored —
see :mod:`repro.store.keys`) persists in its own ``anchor`` column,
serialized with a codec version prefix (``"1;@0.2,@1|@3"``: slots joined
by ``|``, positions by ``,``, ranks by ``.`` after a ``@``) so a future
encoding change turns old rows into misses instead of wrong shares.
Store files written before the anchor column existed are detected by
schema inspection and dropped — a cache format upgrade costs one cold
fill, never a wrong answer.

**Read caching.**  Decoded entries, and every entry this instance
writes, are cached in memory.  By default the whole table is decoded on
first access (``preload=True``) — memo tables are tiny next to the
evaluation work they encode, and one bulk ``SELECT`` is far cheaper
than per-subtree point lookups on the hot path.  Pass ``preload=False``
for very large shared stores to fall back to one point ``SELECT`` per
hit; note this bounds *startup* cost only — the read cache still grows
with the entries actually touched (the working set), so a worker that
sweeps an entire huge store should recycle the store instance (or
front it with an :class:`~repro.store.memory.InMemoryStore` tier) to
bound steady-state memory.  On open the store scans the table *once*
for ``(key, weight)`` pairs into an in-process row map, which
thereafter answers ``__len__`` / ``stats()`` and lets a lazy ``get``
answer a miss without SQL.  The map assumes this process is the only
writer — the documented single-writer deployment; a second concurrent
writer's rows become visible after reopen.

**Degradation, not failure.**  A corrupt, unreadable or write-locked
store file must never break query evaluation: every SQLite error demotes
the store to memory-only operation with a :class:`RuntimeWarning`
(``degraded`` is set), keeping results correct and merely losing
persistence.

**Writes.**  ``put`` and ``put_many`` stage rows the same way, and
staged rows land as one ``executemany`` + commit: at the end of each
call by default, or — with ``write_behind=N`` — once N rows have
accumulated, and always at ``flush()`` and ``close()``.  A pass's saves
arrive as one ``put_many``, so a pass costs one statement, not one per
node.  Readers of the *same* store instance see staged entries
immediately (they sit in the read cache); other processes see them
only after they land.  A crash before that loses the staged puts — they
were never sent to SQLite, so the file is merely stale, never corrupt.
"""

from __future__ import annotations

import json
import sqlite3
import warnings
from fractions import Fraction
from time import perf_counter
from typing import Optional, Union

from ..obs.registry import get_registry
from ..obs.trace import get_tracer
from ..probability_array import LaneRows
from .api import MemoStore, StoreKey, is_anchored_key

__all__ = ["SqliteStore", "open_store"]

# Probe/put latency histograms, observed only while tracing is enabled
# (two perf_counter calls would double the cost of a preloaded-cache
# get on the default no-telemetry path).
_PROBE_SECONDS = get_registry().histogram(
    "repro_store_sqlite_probe_seconds",
    help="SqliteStore.get latency (recorded while tracing is enabled)",
)
_PUT_SECONDS = get_registry().histogram(
    "repro_store_sqlite_put_seconds",
    help="SqliteStore.put latency (recorded while tracing is enabled)",
)
_BULK_SECONDS = get_registry().histogram(
    "repro_store_sqlite_bulk_seconds",
    help="SqliteStore.put_many latency (recorded while tracing is enabled)",
)
# Counts every statement handed to SQLite (execute or executemany) — the
# store's round-trip proxy: a pass's writes land as one statement.
_STATEMENTS = get_registry().counter(
    "repro_store_sqlite_statements_total",
    help="SQL statements issued by SqliteStore (execute + executemany)",
)

_PAYLOAD_VERSION = 1
_ANCHOR_VERSION = "1"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS memo (
    structure   TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    anchor      TEXT NOT NULL,
    gate        TEXT NOT NULL,
    backend     TEXT NOT NULL,
    payload     TEXT NOT NULL,
    weight      INTEGER NOT NULL DEFAULT 1,
    PRIMARY KEY (structure, fingerprint, anchor, gate, backend)
)
"""


def _encode_anchor(anchor) -> str:
    """Serialize a key's anchor-position component (``""`` = unanchored)."""
    if anchor is None:
        return ""
    slots = []
    for positions in anchor:
        slots.append(
            ",".join("@" + ".".join(map(str, path)) for path in positions)
        )
    return _ANCHOR_VERSION + ";" + "|".join(slots)


def _decode_anchor(text: str):
    """Inverse of :func:`_encode_anchor`; raises ``ValueError`` on foreign
    or future-versioned encodings."""
    if text == "":
        return None
    version, _, body = text.partition(";")
    if version != _ANCHOR_VERSION:
        raise ValueError(f"unsupported anchor encoding: {text[:40]!r}")
    slots = []
    for slot in body.split("|"):
        positions = []
        for entry in slot.split(","):
            if not entry:
                continue
            if not entry.startswith("@"):
                raise ValueError(f"malformed anchor position {entry!r}")
            ranks = entry[1:]
            positions.append(
                tuple(int(rank) for rank in ranks.split(".")) if ranks else ()
            )
        slots.append(tuple(positions))
    return tuple(slots)


def _encode_items(distribution: dict) -> Optional[list]:
    """v1 ``[mask, value]`` items, or ``None`` for a foreign domain."""
    items = []
    for mask, value in distribution.items():
        if isinstance(value, Fraction):
            items.append((mask, (value.numerator, value.denominator)))
        elif isinstance(value, float):
            items.append((mask, value))
        else:
            return None
    return items


def _decode_items(items) -> dict:
    return {
        int(mask): Fraction(*value) if isinstance(value, list) else float(value)
        for mask, value in items
    }


def _encode(distribution) -> Optional[str]:
    """JSON payload for a distribution, or ``None`` if not serializable.

    Two payload generations are written:

    * **v1** — scalar dicts.  Exact values travel as ``[numerator,
      denominator]`` pairs (faster to revive than ``"num/den"`` strings
      — decode speed is what bounds the warm-from-disk preload), floats
      as plain JSON numbers.
    * **v3** — a lane group's
      :class:`~repro.probability_array.LaneRows`: each distinct row
      object once, as v1 items (so exact rows keep their pairs), plus a
      lane → row index.  Lanes of one class share one row, on disk as
      in memory.

    The retired v2 generation (packed arrays) is no longer written.
    """
    if distribution.__class__ is LaneRows:
        slots: dict = {}
        rows = []
        index = []
        for row in distribution.rows:
            slot = slots.get(id(row))
            if slot is None:
                items = _encode_items(row)
                if items is None:
                    return None
                slot = slots[id(row)] = len(rows)
                rows.append(items)
            index.append(slot)
        return json.dumps({"v": 3, "r": rows, "i": index})
    items = _encode_items(distribution)
    if items is None:
        return None
    return json.dumps({"v": _PAYLOAD_VERSION, "d": items})


def _decode(payload: str):
    """Inverse of :func:`_encode`; raises ``ValueError`` on foreign data,
    which includes every retired v2 payload (a miss, not a failure)."""
    data = json.loads(payload)
    if not isinstance(data, dict):
        raise ValueError(f"unsupported memo payload: {payload[:40]!r}")
    version = data.get("v")
    if version == 3:
        rows = [_decode_items(items) for items in data["r"]]
        try:
            lanes = tuple(rows[slot] for slot in data["i"])
        except IndexError as exc:
            raise ValueError(f"malformed lane-row payload: {payload[:40]!r}") from exc
        # A row is all float or all Fraction: its first value tells.
        exact = any(
            isinstance(next(iter(row.values()), None), Fraction) for row in rows
        )
        return LaneRows(lanes, exact)
    if version != _PAYLOAD_VERSION:
        raise ValueError(f"unsupported memo payload version: {payload[:40]!r}")
    return _decode_items(data["d"])


class SqliteStore(MemoStore):
    """Persistent memo store over a single SQLite file.

    Args:
        path: the store file (created if missing).
        preload: decode the whole table into memory on first access.
        write_behind: when positive, staged rows land once this many
            have accumulated (or on :meth:`flush`/:meth:`close`).  ``0``
            (default) lands each ``put`` / ``put_many`` call's rows at
            its end.

    Attributes:
        degraded: true once persistence failed and the store fell back
            to memory-only operation (a warning was emitted).
    """

    _INSERT_SQL = (
        "INSERT OR REPLACE INTO memo"
        " (structure, fingerprint, anchor, gate, backend, payload, weight)"
        " VALUES (?, ?, ?, ?, ?, ?, ?)"
    )

    def __init__(
        self,
        path: Union[str, "object"],
        preload: bool = True,
        write_behind: int = 0,
    ) -> None:
        super().__init__()
        self.path = str(path)
        self.preload = preload
        self.write_behind = max(0, int(write_behind))
        self.degraded = False
        self._cache: dict[StoreKey, dict] = {}
        self._complete = False  # cache mirrors the whole table
        self._buffer: list[tuple] = []  # staged rows awaiting a flush
        # In-process row gauges, maintained from one scan on open and
        # updated on put/delete/clear — ``__len__``/``stats`` never
        # re-run COUNT(*)/SUM(weight) against the file.
        self._row_weights: dict[StoreKey, int] = {}
        self._row_count = 0
        self._row_weight = 0
        self._anchored_rows = 0
        self._conn: Optional[sqlite3.Connection] = None
        try:
            conn = sqlite3.connect(self.path)
            columns = {
                row[1] for row in conn.execute("PRAGMA table_info(memo)")
            }
            if columns and "anchor" not in columns:
                # Pre-anchor schema: the key format changed, so the cached
                # entries are unreachable anyway — drop and refill cold.
                conn.execute("DROP TABLE memo")
            conn.execute(_SCHEMA)
            conn.commit()
            self._conn = conn
            for structure, fingerprint, anchor, gate, backend, weight in (
                conn.execute(
                    "SELECT structure, fingerprint, anchor, gate, backend,"
                    " weight FROM memo"
                )
            ):
                self._row_count += 1
                self._row_weight += weight
                if anchor != "":
                    self._anchored_rows += 1
                try:
                    decoded = _decode_anchor(anchor)
                except ValueError:
                    continue  # foreign encoding: counted, never probed
                key = (structure, fingerprint, decoded, gate or None, backend)
                self._row_weights[key] = weight
        except sqlite3.Error as exc:
            self._degrade(exc)

    # ------------------------------------------------------------------
    # MemoStore interface
    # ------------------------------------------------------------------
    store_kind = "sqlite"

    def get(self, key: StoreKey) -> Optional[dict]:
        if get_tracer().enabled:
            start = perf_counter()
            try:
                return self._get(key)
            finally:
                _PROBE_SECONDS.observe(perf_counter() - start)
        return self._get(key)

    def _get(self, key: StoreKey) -> Optional[dict]:
        if self.preload and not self._complete:
            self._preload()
        cached = self._cache.get(key)
        if cached is not None:
            self._count_get(key, hit=True)
            return cached
        if (
            not self._complete
            and self._conn is not None
            and key in self._row_weights
        ):
            distribution = self._fetch_one(key)
            if distribution is not None:
                self._count_get(key, hit=True)
                return distribution
        self._count_get(key, hit=False)
        return None

    def _fetch_one(self, key: StoreKey) -> Optional[dict]:
        """Point-read one row known to exist (per the row map); repairs
        undecodable rows by dropping them so the row map agrees and the
        next computation's ``put`` refills the entry."""
        row = self._execute(
            "SELECT payload FROM memo WHERE structure = ? AND fingerprint = ?"
            " AND anchor = ? AND gate = ? AND backend = ?",
            self._row_key(key),
        )
        row = row.fetchone() if row is not None else None
        if row is None:
            return None
        try:
            distribution = _decode(row[0])
        except (ValueError, TypeError, KeyError):
            self._drop_row(key)
            return None
        self._cache[key] = distribution
        return distribution

    def put(self, key: StoreKey, distribution: dict, weight: int = 1) -> None:
        if get_tracer().enabled:
            start = perf_counter()
            try:
                return self._put(key, distribution, weight)
            finally:
                _PUT_SECONDS.observe(perf_counter() - start)
        return self._put(key, distribution, weight)

    def _put(self, key: StoreKey, distribution: dict, weight: int = 1) -> None:
        if self.preload and not self._complete:
            self._preload()
        self._stage(key, distribution, weight)
        self._land_if_due()

    def put_many(self, entries) -> None:
        if get_tracer().enabled:
            start = perf_counter()
            try:
                return self._put_many(entries)
            finally:
                _BULK_SECONDS.observe(perf_counter() - start)
        return self._put_many(entries)

    def _put_many(self, entries) -> None:
        entries = list(entries)
        self._count_bulk(len(entries))
        if self.preload and not self._complete:
            self._preload()
        for key, distribution, weight in entries:
            self._stage(key, distribution, weight)
        self._land_if_due()

    def _stage(self, key: StoreKey, distribution: dict, weight: int) -> None:
        """Count and cache one put, and stage its row for the next flush."""
        self._count_put(key)
        self._cache[key] = distribution
        if self._conn is None:
            return
        payload = _encode(distribution)
        if payload is None:
            return  # non-serializable backend domain: memory-only entry
        weight = max(1, int(weight))
        self._account_row(key, weight)
        self._buffer.append(self._row_key(key) + (payload, weight))

    def _land_if_due(self) -> None:
        """Flush once ``write_behind`` rows are staged (any, when 0)."""
        if self._buffer and len(self._buffer) >= self.write_behind:
            self.flush()

    def clear(self) -> None:
        self._cache.clear()
        self._buffer.clear()
        self._row_weights.clear()
        self._row_count = 0
        self._row_weight = 0
        self._anchored_rows = 0
        self._complete = self._conn is None
        if self._conn is not None:
            self._execute("DELETE FROM memo")
            self.flush()

    def __len__(self) -> int:
        """Entries visible to :meth:`get`.

        In preloading mode (the default) the whole table is decoded
        first, so the count is the same whichever access path ran before
        — undecodable foreign rows are excluded.  In lazy mode the count
        is approximate: the larger of the row count (maintained in
        process, no SQL) and the cache size, which over-counts foreign
        payloads and under-counts memory-only (non-serializable) entries
        coexisting with persisted rows.
        """
        if self.preload and not self._complete:
            self._preload()
        if self._conn is None or self._complete:
            return len(self._cache)
        return max(self._row_count, len(self._cache))

    def stats(self) -> dict:
        gauges = super().stats()
        weight = None
        anchored_entries = None
        write_behind_pending = None
        if self._conn is not None:
            # In-process row gauges (one scan on open keeps them exact —
            # no COUNT(*)/SUM(weight) per call).
            weight = self._row_weight
            anchored_entries = self._anchored_rows
            if self.write_behind:
                write_behind_pending = len(self._buffer)
        gauges.update(
            path=self.path,
            degraded=self.degraded,
            cached_entries=len(self._cache),
            weight=weight,
            anchored_entries=anchored_entries,
            write_behind_pending=write_behind_pending,
        )
        return gauges

    def flush(self) -> None:
        """Land the staged rows (if any) and commit.

        Counted in ``stats()["flushes"]`` only when rows were staged —
        an idle flush is free and invisible.
        """
        if self._conn is None:
            return
        rows = self._buffer
        if rows:
            self._buffer = []
            if self._executemany(self._INSERT_SQL, rows) is None:
                return  # degraded: the staged puts are lost, file intact
        try:
            self._conn.commit()
        except sqlite3.Error as exc:
            self._degrade(exc)
            return
        if rows:
            self._count_flush()

    def close(self) -> None:
        """Commit and detach from the file; the store stays usable in memory."""
        self.flush()
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self._complete = True  # only the cache remains visible

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _row_key(key: StoreKey) -> tuple:
        structure, fingerprint, anchor, gate, backend = key
        return (structure, fingerprint, _encode_anchor(anchor), gate or "", backend)

    def _execute(self, sql: str, parameters: tuple = ()):
        assert self._conn is not None
        _STATEMENTS.inc()
        try:
            return self._conn.execute(sql, parameters)
        except sqlite3.Error as exc:
            self._degrade(exc)
            return None

    def _executemany(self, sql: str, rows: list):
        assert self._conn is not None
        _STATEMENTS.inc()
        try:
            return self._conn.executemany(sql, rows)
        except sqlite3.Error as exc:
            self._degrade(exc)
            return None

    def _account_row(self, key: StoreKey, weight: int) -> None:
        """Track a put's effect on the in-process row gauges."""
        old = self._row_weights.get(key)
        if old is None:
            self._row_count += 1
            self._row_weight += weight
            if is_anchored_key(key):
                self._anchored_rows += 1
        else:
            self._row_weight += weight - old
        self._row_weights[key] = weight

    def _drop_row(self, key: StoreKey) -> None:
        """Delete an undecodable row and back its weight out of the gauges."""
        self._execute(
            "DELETE FROM memo WHERE structure = ? AND fingerprint = ?"
            " AND anchor = ? AND gate = ? AND backend = ?",
            self._row_key(key),
        )
        old = self._row_weights.pop(key, None)
        if old is not None:
            self._row_count -= 1
            self._row_weight -= old
            if is_anchored_key(key):
                self._anchored_rows -= 1

    def _preload(self) -> None:
        self._complete = True
        if self._conn is None:
            return
        rows = self._execute(
            "SELECT structure, fingerprint, anchor, gate, backend, payload"
            " FROM memo"
        )
        if rows is None:
            return
        try:
            for structure, fingerprint, anchor, gate, backend, payload in rows:
                try:
                    key = (
                        structure,
                        fingerprint,
                        _decode_anchor(anchor),
                        gate or None,
                        backend,
                    )
                    if key in self._cache:
                        continue
                    self._cache[key] = _decode(payload)
                except (ValueError, TypeError, KeyError):
                    continue  # foreign payloads/encodings degrade to misses
        except sqlite3.Error as exc:  # corruption discovered mid-scan
            self._degrade(exc)

    def _degrade(self, exc: sqlite3.Error) -> None:
        """Fall back to memory-only operation, keeping evaluation alive."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - best-effort cleanup
                pass
            self._conn = None
        self._buffer.clear()  # staged puts are lost, not corrupt
        self._row_weights.clear()
        self._row_count = 0
        self._row_weight = 0
        self._anchored_rows = 0
        if not self.degraded:
            self.degraded = True
            warnings.warn(
                f"memo store {self.path!r} is unusable ({exc}); continuing "
                "without persistence (in-memory only)",
                RuntimeWarning,
                stacklevel=3,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "degraded" if self.degraded else (
            "closed" if self._conn is None else "open"
        )
        return f"SqliteStore(path={self.path!r}, {state})"


def open_store(path: Optional[str] = None, **kwargs) -> MemoStore:
    """``SqliteStore(path)`` when a path is given, else an ``InMemoryStore``.

    Keyword arguments are forwarded to the chosen constructor.
    """
    if path is None:
        from .memory import InMemoryStore

        return InMemoryStore(**kwargs)
    return SqliteStore(path, **kwargs)
