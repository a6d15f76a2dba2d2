"""Unit tests for batched store writes.

Covers the mechanics the property suite can't pin down one by one:
write-behind buffering (flush ordering, crash-before-flush durability —
pending puts are lost, the file is never corrupt), ``record_probe``
accounting, and the default ``put_many`` fallback that keeps
third-party ``MemoStore`` subclasses working unchanged.
"""

from fractions import Fraction

from repro.store import MemoStore, SqliteStore


def key_of(i: int) -> tuple:
    return (f"digest{i}", f"fp{i}", None, None, "exact")


def dist_of(i: int) -> dict:
    return {0: Fraction(1, i + 2)}


class MinimalStore(MemoStore):
    """A third-party store implementing only the point protocol."""

    def __init__(self):
        super().__init__()
        self._data = {}

    def get(self, key):
        value = self._data.get(key)
        self._count_get(key, hit=value is not None)
        return value

    def put(self, key, distribution, weight=1):
        self._count_put(key)
        self._data[key] = distribution

    def clear(self):
        self._data.clear()

    def __len__(self):
        return len(self._data)


class TestDefaultFallbacks:
    def test_bulk_defaults_loop_over_point_methods(self):
        store = MinimalStore()
        store.put_many((key_of(i), dist_of(i), 1) for i in range(4))
        assert len(store) == 4
        stats = store.stats()
        assert stats["bulk_puts"] == 1
        assert stats["bulk_put_keys"] == 4
        assert stats["puts"] == 4

    def test_uncounted_prefetch_leaves_counters_alone(self):
        store = MinimalStore()
        store.put(key_of(0), dist_of(0))
        before = (store.hits, store.misses)
        # record_probe accounts probes answered outside ``get``.
        store.record_probe(key_of(0), hit=True)
        store.record_probe(key_of(7), hit=False)
        assert (store.hits, store.misses) == (before[0] + 1, before[1] + 1)


class TestWriteBehind:
    def test_flush_ordering_preserves_last_write_wins(self, tmp_path):
        # Re-puts of one key inside a single buffered batch must land in
        # put order: INSERT OR REPLACE makes the LAST buffered row win.
        path = tmp_path / "order.db"
        store = SqliteStore(path, write_behind=64)
        store.put(key_of(0), {0: Fraction(1, 3)}, 1)
        store.put(key_of(1), dist_of(1), 1)
        # Overwrite key 0 while both rows still sit in the buffer: a
        # direct re-put is legal and must not resurrect the old value.
        store.put(key_of(0), {0: Fraction(2, 3)}, 5)
        assert store.stats()["write_behind_pending"] == 3
        store.flush()
        assert store.stats()["write_behind_pending"] == 0
        assert store.flushes == 1
        store.close()
        reopened = SqliteStore(path)
        assert reopened.get(key_of(0)) == {0: Fraction(2, 3)}
        assert reopened.get(key_of(1)) == dist_of(1)
        assert reopened.stats()["weight"] == 5 + 1
        reopened.close()

    def test_threshold_drains_buffer_automatically(self, tmp_path):
        store = SqliteStore(tmp_path / "thresh.db", write_behind=3)
        for i in range(7):
            store.put(key_of(i), dist_of(i), 1)
        # 7 puts through a 3-deep buffer: two automatic drains, 1 left.
        assert store.flushes == 2
        assert store.stats()["write_behind_pending"] == 1
        store.close()  # close always drains the tail
        assert store.flushes == 3

    def test_crash_before_flush_loses_pending_but_never_corrupts(
        self, tmp_path
    ):
        path = tmp_path / "crash.db"
        durable = SqliteStore(path, write_behind=100)
        durable.put(key_of(0), dist_of(0), 1)
        durable.flush()
        crashing = SqliteStore(path, write_behind=100)
        crashing.put(key_of(1), dist_of(1), 1)
        crashing.put(key_of(2), dist_of(2), 1)
        # Simulate the crash: the connection dies with the buffer full —
        # nothing was ever sent to SQLite, so no partial transaction can
        # exist on disk.
        crashing._conn.close()
        crashing._conn = None
        survivor = SqliteStore(path)
        assert survivor.get(key_of(0)) == dist_of(0)   # durable put kept
        assert survivor.get(key_of(1)) is None          # pending put lost
        assert survivor.get(key_of(2)) is None
        assert not survivor.degraded                    # ...and not corrupt
        survivor.put(key_of(1), dist_of(1), 1)          # file still writable
        survivor.close()

    def test_put_many_is_one_statement_one_flush(self, tmp_path):
        from repro.obs import get_registry

        store = SqliteStore(tmp_path / "many.db")
        len(store)  # trigger the preload SELECT before measuring
        before = get_registry().snapshot()[
            "repro_store_sqlite_statements_total"
        ]
        store.put_many((key_of(i), dist_of(i), 1) for i in range(50))
        delta = (
            get_registry().snapshot()["repro_store_sqlite_statements_total"]
            - before
        )
        assert delta == 1  # one executemany for all 50 rows
        assert store.flushes == 1
        assert store.puts == 50
        store.close()


class TestCheapGauges:
    def test_len_and_stats_issue_no_sql_after_open(self, tmp_path):
        from repro.obs import get_registry

        path = tmp_path / "gauges.db"
        store = SqliteStore(path, preload=False)
        store.put_many((key_of(i), dist_of(i), i + 1) for i in range(5))
        name = "repro_store_sqlite_statements_total"
        before = get_registry().snapshot()[name]
        assert len(store) == 5
        stats = store.stats()
        assert stats["weight"] == sum(range(1, 6))
        assert stats["anchored_entries"] == 0
        assert get_registry().snapshot()[name] == before
        store.close()
        # One scan on reopen rebuilds the gauges, then they stay free.
        reopened = SqliteStore(path, preload=False)
        before = get_registry().snapshot()[name]
        assert len(reopened) == 5
        assert reopened.stats()["weight"] == sum(range(1, 6))
        assert get_registry().snapshot()[name] == before
        reopened.close()
