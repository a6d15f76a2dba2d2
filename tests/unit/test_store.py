"""Unit tests for the persistent structural memo store subsystem.

Covers the tentpole guarantees: structural digests identify subtrees by
shape (not Ids), cost-aware LRU eviction keeps hot high-weight entries
under pressure, the SQLite tier round-trips exact and float payloads
across reopen, corrupted store files degrade to memory-only with a
warning, and sessions sharing a store reuse work across isomorphic
subtrees, across documents and across (simulated) restarts.
"""

import warnings
from fractions import Fraction

import pytest

from repro.prob import EvaluationEngine, QuerySession, query_answer
from repro.pxml import ind, mux, ordinary, pdoc
from repro.store import (
    GATE_BLOCKED,
    InMemoryStore,
    SqliteStore,
    SubtreeKeyer,
    open_store,
)
from repro.tp import parse_pattern
from repro.workloads import paper
from repro.workloads.synthetic import batch_workload


def person(i: int, name: str = "Rick", project: str = "project0"):
    """A person subtree; same arguments ⇒ isomorphic (digest-equal)."""
    base = 100 * i
    return ordinary(
        base, "person",
        ordinary(base + 1, "name",
                 mux(base + 2, (ordinary(base + 3, name), "0.5"))),
        ordinary(base + 4, "bonus",
                 ind(base + 5,
                     (ordinary(base + 6, project, ordinary(base + 7, "42")),
                      "0.8"))),
    )


class TestStructuralDigest:
    def test_isomorphic_subtrees_share_digest(self):
        p = pdoc(ordinary(1, "IT-personnel", person(1), person(2)))
        assert p.structural_digest(100) == p.structural_digest(200)
        assert p.subtree_size(100) == p.subtree_size(200)

    def test_digest_ignores_node_ids_and_child_order(self):
        p1 = pdoc(ordinary(1, "IT-personnel", person(1), person(2, name="Ann")))
        p2 = pdoc(ordinary(9, "IT-personnel", person(7, name="Ann"), person(3)))
        assert p1.document_digest == p2.document_digest

    def test_digest_sensitive_to_labels_kinds_probabilities(self):
        base = pdoc(ordinary(1, "a", person(1))).document_digest
        relabeled = pdoc(ordinary(1, "a", person(1, name="Ann"))).document_digest
        reweighted = pdoc(ordinary(1, "a", person(1)))
        node = reweighted.node(102)
        assert node.probabilities is not None
        node.probabilities[103] = Fraction(1, 4)
        reweighted.mark_all_mutated()
        assert len({base, relabeled, reweighted.document_digest}) == 3
        ind_doc = pdoc(ordinary(1, "a", ind(2, (ordinary(3, "b"), "0.5"))))
        mux_doc = pdoc(ordinary(1, "a", mux(2, (ordinary(3, "b"), "0.5"))))
        assert ind_doc.document_digest != mux_doc.document_digest

    def test_mutation_epoch_invalidates_cached_digest(self):
        p = pdoc(ordinary(1, "a", person(1)))
        before = p.document_digest
        p.node(103).label = "Morty"
        p.mark_all_mutated()
        assert p.document_digest != before

    def test_subtree_size_counts_all_node_kinds(self, p_per):
        _, sizes = p_per.structural_index()
        assert sizes[p_per.root.node_id] == p_per.size()


class TestInMemoryStore:
    KEY = ("s0", "f0", None, None, "exact")

    def test_get_put_roundtrip_and_counters(self):
        store = InMemoryStore()
        assert store.get(self.KEY) is None
        distribution = {0: Fraction(1, 2), 3: Fraction(1, 2)}
        store.put(self.KEY, distribution, weight=10)
        assert store.get(self.KEY) is distribution
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["puts"] == 1 and stats["entries"] == 1
        assert stats["weight"] == 10

    def test_cost_aware_eviction_keeps_hot_heavy_entry(self):
        store = InMemoryStore(max_weight=100)
        heavy = ("heavy", "f", None, None, "exact")
        store.put(heavy, {0: 1}, weight=50)
        for i in range(30):
            store.put((f"light{i}", "f", None, None, "exact"), {0: 1}, weight=10)
            assert store.get(heavy) is not None  # kept hot
        assert store.evictions > 0
        assert store.weight <= 100
        # the oldest light entries were evicted around the surviving heavy one
        assert store.get(("light0", "f", None, None, "exact")) is None

    def test_aging_eventually_evicts_cold_heavy_entry(self):
        store = InMemoryStore(max_weight=100)
        store.put(("heavy", "f", None, None, "exact"), {0: 1}, weight=50)
        for i in range(30):  # never touched again: the clock catches up
            store.put((f"light{i}", "f", None, None, "exact"), {0: 1}, weight=10)
        assert store.get(("heavy", "f", None, None, "exact")) is None

    def test_max_entries_cap(self):
        store = InMemoryStore(max_entries=8)
        for i in range(40):
            store.put((f"s{i}", "f", None, None, "exact"), {0: 1}, weight=1)
        assert len(store) <= 8

    def test_put_replaces_entry_in_place(self):
        store = InMemoryStore()
        store.put(self.KEY, {0: 1}, weight=5)
        store.put(self.KEY, {0: 2}, weight=9)
        assert store.get(self.KEY) == {0: 2}
        assert len(store) == 1 and store.weight == 9

    def test_clear(self):
        store = InMemoryStore()
        store.put(self.KEY, {0: 1}, weight=5)
        store.clear()
        assert len(store) == 0 and store.weight == 0
        assert store.get(self.KEY) is None


class TestSqliteStore:
    EXACT = {0: Fraction(2, 3), (1 << 130) | 5: Fraction(123456789, 987654321)}
    FAST = {0: 0.25, 7: 0.75}

    def test_roundtrip_across_reopen(self, tmp_path):
        path = tmp_path / "memo.db"
        store = SqliteStore(path)
        store.put(("s", "f", None, GATE_BLOCKED, "exact"), self.EXACT, weight=12)
        store.put(("s", "f", None, None, "fast"), self.FAST, weight=4)
        store.close()
        reopened = SqliteStore(path)
        exact = reopened.get(("s", "f", None, GATE_BLOCKED, "exact"))
        fast = reopened.get(("s", "f", None, None, "fast"))
        assert exact == self.EXACT
        assert all(isinstance(v, Fraction) for v in exact.values())
        assert fast == self.FAST
        assert all(isinstance(v, float) for v in fast.values())
        assert len(reopened) == 2

    def test_lazy_point_lookups(self, tmp_path):
        path = tmp_path / "memo.db"
        store = SqliteStore(path)
        store.put(("s", "f", None, None, "exact"), self.EXACT)
        store.close()
        lazy = SqliteStore(path, preload=False)
        assert lazy.get(("s", "f", None, None, "exact")) == self.EXACT
        assert lazy.get(("absent", "f", None, None, "exact")) is None
        assert lazy.stats()["hits"] == 1 and lazy.stats()["misses"] == 1

    def test_non_serializable_values_stay_in_memory(self, tmp_path):
        path = tmp_path / "memo.db"
        store = SqliteStore(path)
        store.put(("s", "f", None, None, "custom"), {0: object()})
        assert store.get(("s", "f", None, None, "custom")) is not None
        store.close()
        assert SqliteStore(path).get(("s", "f", None, None, "custom")) is None

    def test_corrupted_file_degrades_with_warning(self, tmp_path):
        path = tmp_path / "memo.db"
        path.write_bytes(b"this is definitely not a sqlite database......")
        with pytest.warns(RuntimeWarning, match="continuing without"):
            store = SqliteStore(path)
        assert store.degraded
        # still a functioning (memory-only) store
        store.put(("s", "f", None, None, "exact"), self.EXACT, weight=2)
        assert store.get(("s", "f", None, None, "exact")) == self.EXACT
        assert store.stats()["degraded"] is True
        store.close()

    def test_clear_drops_persisted_entries(self, tmp_path):
        path = tmp_path / "memo.db"
        store = SqliteStore(path)
        store.put(("s", "f", None, None, "exact"), self.EXACT)
        store.clear()
        store.close()
        assert len(SqliteStore(path)) == 0

    def test_open_store_helper(self, tmp_path):
        assert isinstance(open_store(), InMemoryStore)
        store = open_store(str(tmp_path / "memo.db"))
        assert isinstance(store, SqliteStore)
        store.close()


class TestSubtreeKeyer:
    def test_anchored_restriction_gets_position_key(self, p_per):
        q = paper.q_bon()
        anchored = EvaluationEngine(p_per, [q], {q.out: 5})
        plain = EvaluationEngine(p_per, [q])
        labels = p_per.label_index()
        root_labels = labels[p_per.root.node_id]
        anchored_keyer = SubtreeKeyer(p_per, anchored, anchored.backend)
        plain_keyer = SubtreeKeyer(p_per, plain, plain.backend)
        key = anchored_keyer.token(1, root_labels, GATE_BLOCKED)[0]
        assert key is not None and key[4] == "exact"
        # one anchor slot, one admissible node, located by its rank path
        assert key[2] == ((p_per.anchor_index()[5],),)
        plain_key = plain_keyer.token(1, root_labels, GATE_BLOCKED)[0]
        assert plain_key is not None and plain_key[2] is None
        assert key != plain_key

    def test_anchor_outside_subtree_encodes_empty_slot(self, p_per):
        # Anchor node 5 (person 1's bonus) lies outside person 2's
        # subtree: the slot encodes as the empty position tuple — pinned
        # to nothing there, shareable with any isomorphic twin subtree
        # whose anchor also lies elsewhere.
        q = paper.q_bon()
        engine = EvaluationEngine(p_per, [q], {q.out: 5})
        keyer = SubtreeKeyer(p_per, engine, engine.backend)
        person2_labels = p_per.label_index()[3]
        key = keyer.token(3, person2_labels, GATE_BLOCKED)[0]
        assert key is not None and key[2] == ((),)

    def test_gate_collapses_for_out_insensitive_restriction(self, p_per):
        engine = EvaluationEngine(p_per, [paper.q_bon()])
        keyer = SubtreeKeyer(p_per, engine, engine.backend)
        # the mux subtree under person 2's bonus holds "laptop" (a table
        # label) but not "bonus" (the output label): blocked and unpinned
        # evaluations coincide, so the gate collapses to None
        mux_labels = p_per.label_index()[21]
        assert "laptop" in mux_labels and "bonus" not in mux_labels
        key = keyer.token(21, mux_labels, GATE_BLOCKED)[0]
        assert key is not None and key[3] is None


class TestStoreBackedEvaluation:
    @staticmethod
    def cold_answer_hits_isomorphic_siblings(store) -> None:
        p = pdoc(ordinary(1, "IT-personnel", person(1), person(2), person(3)))
        q = parse_pattern("IT-personnel//person[name/Rick]/bonus")
        session = QuerySession(p, store=store)
        answer = session.answer(q)
        assert answer == query_answer(p, q)
        # persons 2 and 3 reuse person 1's name-subtree evaluation (the
        # bonus subtrees are candidate-bearing and stay live); the pass
        # serves them from its own pending saves
        assert store.stats()["hits"] > 0
        assert store.stats()["misses"] > 0

    def test_isomorphic_subtrees_hit_on_first_cold_pass(self):
        self.cold_answer_hits_isomorphic_siblings(InMemoryStore())

    def test_isomorphic_subtrees_hit_on_first_cold_pass_sqlite(self, tmp_path):
        from repro.obs import get_registry

        name = "repro_store_sqlite_statements_total"
        store = SqliteStore(tmp_path / "memo.db")
        len(store)  # run the preload SELECT before measuring
        before = get_registry().snapshot()[name]
        self.cold_answer_hits_isomorphic_siblings(store)
        # One executemany for the candidate cache and one for the pass,
        # never one statement per node.
        assert get_registry().snapshot()[name] - before <= 2
        store.close()

    def test_store_shared_across_documents(self):
        q = parse_pattern("IT-personnel//person[name/Rick]/bonus")
        store = InMemoryStore()
        p1 = pdoc(ordinary(1, "IT-personnel", person(1), person(2, "Ann")))
        p2 = pdoc(ordinary(1, "IT-personnel",
                           person(1), person(2, "Ann"), person(3, "Bob")))
        first = QuerySession(p1, store=store)
        assert first.answer(q) == query_answer(p1, q)
        second = QuerySession(p2, store=store)
        hits_before = store.stats()["hits"]
        assert second.answer(q) == query_answer(p2, q)
        assert store.stats()["hits"] > hits_before
        assert second.stats.memo_hits > 0  # cold session, warm store

    def test_sqlite_store_warm_from_disk(self, tmp_path):
        path = tmp_path / "memo.db"
        p, queries = batch_workload(persons=4, projects=2, seed=3)
        store = SqliteStore(path)
        expected = QuerySession(p, store=store).answer_many(queries)
        store.close()
        reopened = SqliteStore(path)
        fresh = QuerySession(p, store=reopened)
        assert fresh.answer_many(queries) == expected
        assert fresh.stats.memo_hits > 0
        assert fresh.stats.memo_misses == 0  # fully warm from disk
        assert reopened.puts == 0  # and no redundant re-writes either
        reopened.close()

    def test_engine_store_reuse_across_instances(self, p_per):
        # Stored evaluation is a session: a fresh session over a store
        # that another session filled answers without a miss.
        store = InMemoryStore()
        q = paper.q_bon()
        first = QuerySession(p_per, store=store)
        second = QuerySession(p_per, store=store)
        assert first.answer(q) == query_answer(p_per, q)
        assert second.answer(q) == query_answer(p_per, q)
        assert second.stats.memo_misses == 0
        assert second.stats.node_visits < first.stats.node_visits

    def test_mutation_keeps_untouched_structural_entries(self):
        p = pdoc(ordinary(1, "IT-personnel", person(1), person(2, "Ann")))
        q = parse_pattern("IT-personnel//person[name/Rick]/bonus")
        session = QuerySession(p)
        session.answer(q)
        node = p.node(102)  # person 1's name mux
        assert node.probabilities is not None
        node.probabilities[103] = Fraction(1, 4)
        p.mark_all_mutated()
        hits_before = session.store.stats()["hits"]
        assert session.answer(q) == query_answer(p, q)
        # person 2's subtrees kept their digests and still hit the store
        assert session.store.stats()["hits"] > hits_before

    def test_invalidate_recovers_from_unmarked_mutation(self):
        # invalidate() must restore correctness even when an in-place
        # mutation forgot mark_mutated(): it bumps the epoch itself, so
        # stale digests/label maps are re-derived.
        p = pdoc(ordinary(1, "IT-personnel", person(1), person(2, "Ann")))
        q = parse_pattern("IT-personnel//person[name/Rick]/bonus")
        session = QuerySession(p)
        session.answer(q)
        p.node(203).label = "Rick"  # person 2 becomes a Rick — unmarked!
        session.invalidate()
        assert session.answer(q) == query_answer(p, q)
        assert len(query_answer(p, q)) == 2  # both bonuses now answer

    def test_lazy_mode_repairs_undecodable_rows(self, tmp_path):
        path = tmp_path / "memo.db"
        store = SqliteStore(path)
        key = ("s", "f", None, None, "exact")
        store.put(key, {0: Fraction(1)})
        store.close()
        import sqlite3

        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE memo SET payload = '{\"v\": 99, \"d\": []}'")
        lazy = SqliteStore(path, preload=False)
        assert lazy.get(key) is None  # miss: poisoned row is dropped...
        assert len(lazy) == 0  # ...so the row map agrees
        lazy.put(key, {0: Fraction(1, 2)})  # and the writer repairs it
        lazy.close()
        assert SqliteStore(path).get(key) == {0: Fraction(1, 2)}

    def test_invalidate_clears_owned_store_only(self, p_per):
        owned = QuerySession(p_per)
        owned.answer(paper.q_bon())
        assert owned.memo_size > 0
        owned.invalidate()
        assert owned.memo_size == 0
        shared_store = InMemoryStore()
        shared = QuerySession(p_per, store=shared_store)
        shared.answer(paper.q_bon())
        entries = len(shared_store)
        assert entries > 0
        shared.invalidate()
        assert len(shared_store) == entries  # shared stores are kept

    def test_rewrite_plans_share_the_cache_store(self, p_per):
        from repro.cache import AnswerSource, RewritingCache
        from repro.views.view import View

        store = InMemoryStore()
        cache = RewritingCache(p_per, store=store)
        cache.materialize(View("v1", paper.v1_bon()))
        entries_before = len(store)
        answer = cache.answer(paper.q_rbon())
        assert answer.source is AnswerSource.SINGLE_VIEW
        # the plan's sessions over the extension document filled the
        # shared store (not a private one)
        assert len(store) > entries_before
        hits_before = store.stats()["hits"]
        repeat = cache.answer(paper.q_rbon())
        assert repeat.answer == answer.answer
        assert store.stats()["hits"] > hits_before

    def test_no_warning_on_healthy_store(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = SqliteStore(tmp_path / "memo.db")
            store.put(("s", "f", None, None, "exact"), {0: Fraction(1)})
            store.close()


class TestPerClassEntries:
    """A lane group saves one row per lane class under that class's own
    per-query key: a store warmed by one batch serves any reordering of
    it, and each of its queries alone away from live nodes."""

    Q1 = "IT-personnel//person/bonus[laptop]"
    Q2 = "IT-personnel//person/name"

    def check_warm_batch_serves_parts(self, warm, reopen) -> None:
        p = paper.p_per()
        q1, q2 = parse_pattern(self.Q1), parse_pattern(self.Q2)
        QuerySession(p, store=warm).answer_many([q1, q2])
        store = reopen()
        permuted = QuerySession(p, store=store)
        assert permuted.answer_many([q2, q1]) == [
            query_answer(p, q2), query_answer(p, q1),
        ]
        assert permuted.stats.memo_misses == 0
        alone = QuerySession(p, store=store)
        assert alone.answer(q1) == query_answer(p, q1)
        # The one miss is person node 3: it is live only for Q2 (its
        # name is a Q2 answer), so the warming batch combined it without
        # saving it — the live-node gap of ROADMAP item 2.
        assert alone.stats.memo_misses == 1

    def test_memory_store(self):
        store = InMemoryStore()
        self.check_warm_batch_serves_parts(store, lambda: store)

    def test_reopened_sqlite_store(self, tmp_path):
        path = tmp_path / "memo.db"
        warm = SqliteStore(path)
        opened = []

        def reopen():
            warm.close()
            opened.append(SqliteStore(path))
            return opened[0]

        self.check_warm_batch_serves_parts(warm, reopen)
        opened[0].close()


class TestAnchorPositions:
    def test_rank_paths_match_across_isomorphic_documents(self):
        # Same shapes, different Ids and sibling order: corresponding
        # nodes get equal rank paths (ranks follow digest sort keys).
        p1 = pdoc(ordinary(1, "IT-personnel", person(1), person(2, "Ann")))
        p2 = pdoc(ordinary(9, "IT-personnel", person(7, "Ann"), person(3)))
        pos1, pos2 = p1.anchor_index(), p2.anchor_index()
        assert pos1[1] == pos2[9] == ()
        # person(i) ≅ person(3), person(i, "Ann") ≅ person(7, "Ann")
        assert pos1[100] == pos2[300]
        assert pos1[200] == pos2[700]
        assert pos1[103] == pos2[303]  # the "Rick" leaves correspond

    def test_positions_cover_document_and_respect_epoch(self, p_per):
        positions = p_per.anchor_index()
        assert set(positions) == {n.node_id for n in p_per.nodes()}
        assert p_per.anchor_index() is positions  # epoch-cached
        p_per.mark_all_mutated()
        assert p_per.anchor_index() is not positions

    def test_digest_equal_subtrees_give_equal_relative_positions(self):
        p = pdoc(ordinary(1, "IT-personnel", person(1), person(2)))
        positions = p.anchor_index()
        # strip the person-root prefix: the twins' interiors align
        base1, base2 = positions[100], positions[200]
        rel1 = {positions[nid][len(base1):] for nid in (101, 102, 103)}
        rel2 = {positions[nid][len(base2):] for nid in (201, 202, 203)}
        assert rel1 == rel2


class TestAnchoredStoreBacked:
    def test_anchored_entries_shared_across_sessions(self, p_per):
        q = paper.q_bon()
        store = InMemoryStore()
        first = QuerySession(p_per, store=store)
        got = first.node_probability(q, 5)
        assert got == query_answer(p_per, q)[5]
        assert store.anchored_puts > 0
        hits_before = store.anchored_hits
        second = QuerySession(p_per, store=store)  # fresh session
        assert second.node_probability(q, 5) == got
        assert store.anchored_hits > hits_before
        assert second.stats.anchored_hits > 0

    def test_anchored_sqlite_roundtrip_across_restart(self, tmp_path, p_per):
        q = paper.q_bon()
        path = tmp_path / "memo.db"
        store = SqliteStore(path)
        expected = QuerySession(p_per, store=store).node_probability(q, 5)
        assert store.stats()["anchored_entries"] > 0
        store.close()
        reopened = SqliteStore(path)
        fresh = QuerySession(p_per, store=reopened)
        assert fresh.node_probability(q, 5) == expected
        assert reopened.anchored_hits > 0
        assert fresh.stats.memo_misses == 0  # fully warm from disk
        reopened.close()

    def test_anchor_codec_roundtrip(self):
        from repro.store.sqlite import _decode_anchor, _encode_anchor

        for anchor in (
            None,
            ((),),                       # one slot, pinned to nothing
            (((),),),                    # one slot, anchored at the root
            (((0, 2), (1,)), ()),        # two slots, mixed
        ):
            assert _decode_anchor(_encode_anchor(anchor)) == anchor
        with pytest.raises(ValueError):
            _decode_anchor("99;@0")  # future codec version -> miss

    def test_pre_anchor_schema_is_migrated(self, tmp_path):
        import sqlite3

        path = tmp_path / "memo.db"
        with sqlite3.connect(path) as conn:
            conn.execute(
                "CREATE TABLE memo (structure TEXT NOT NULL, "
                "fingerprint TEXT NOT NULL, gate TEXT NOT NULL, "
                "backend TEXT NOT NULL, payload TEXT NOT NULL, "
                "weight INTEGER NOT NULL DEFAULT 1, "
                "PRIMARY KEY (structure, fingerprint, gate, backend))"
            )
            conn.execute(
                "INSERT INTO memo VALUES ('s', 'f', '', 'exact', 'x', 1)"
            )
        store = SqliteStore(path)  # old key format: dropped, not degraded
        assert not store.degraded
        assert len(store) == 0
        store.put(("s", "f", (((0,),),), None, "exact"), {0: Fraction(1)})
        store.close()
        assert len(SqliteStore(path)) == 1

    def test_engine_anchored_store_reuse(self, p_per):
        # Two fresh sessions over one store: the second serves the
        # anchored run from the entries the first one saved.
        from repro.prob.engine import node_probability

        store = InMemoryStore()
        q = paper.q_bon()
        first = QuerySession(p_per, store=store).node_probability(q, 5)
        assert first == node_probability(p_per, q, 5)
        assert store.anchored_puts > 0
        hits_before = store.anchored_hits
        second = QuerySession(p_per, store=store)
        assert second.node_probability(q, 5) == first
        assert store.anchored_hits > hits_before
        assert second.stats.anchored_hits > 0

    def test_cache_stats_surface_anchored_counters(self):
        # Theorem 1 answers from one unanchored pass; Theorem 2's
        # α-pattern conjunctions are the cache's anchored traffic.
        from repro.cache import AnswerSource, RewritingCache
        from repro.pxml import ind, ordinary, pdoc
        from repro.tp import parse_pattern
        from repro.views.view import View

        chain = ordinary(10, "c", ind(11, (ordinary(12, "d"), "0.5")))
        for node_id, label in zip(range(13, 18), "bcbcb"):
            chain = ordinary(node_id, label, chain)
        p = pdoc(ordinary(0, "a", chain))
        q = parse_pattern("a//b/c/b/c//d")
        cache = RewritingCache(p, store=InMemoryStore())
        cache.materialize(View("v", parse_pattern("a//b/c/b/c")))
        first = cache.answer(q)
        assert first.source is AnswerSource.SINGLE_VIEW
        assert first.answer == query_answer(p, q)
        stats = cache.stats()
        anchored = stats["anchored"]
        assert anchored["store_puts"] > 0
        assert stats["store"]["anchored_entries"] > 0
        cache.answer(q)
        assert cache.stats()["anchored"]["store_hits"] > anchored["store_hits"]


class TestUnifiedStatsSchema:
    """Every store's ``stats()`` carries the same key set (ISSUE-8)."""

    SCHEMA = {
        "hits", "misses", "puts", "evictions", "entries",
        "anchored_hits", "anchored_misses", "anchored_puts",
        "spine_recomputes", "survived_entries",
        "kind", "weight", "anchored_entries", "path", "degraded",
        "cached_entries", "max_weight", "max_entries",
        "bulk_puts", "bulk_put_keys", "flushes", "write_behind_pending",
    }

    def test_memory_store_schema(self):
        stats = InMemoryStore().stats()
        assert set(stats) == self.SCHEMA
        assert stats["kind"] == "memory"
        assert stats["path"] is None
        assert stats["weight"] == 0  # memory stores do know their weight

    def test_sqlite_store_schema(self, tmp_path):
        store = SqliteStore(tmp_path / "schema.db")
        try:
            stats = store.stats()
        finally:
            store.close()
        assert set(stats) == self.SCHEMA
        assert stats["kind"] == "sqlite"
        assert stats["path"] is not None
        assert stats["degraded"] is False

    def test_counters_flow_into_the_unified_keys(self):
        store = InMemoryStore()
        store.get(("s", "f", None, None, "exact"))       # miss
        store.put(("s", "f", None, None, "exact"), {frozenset(): 1})
        store.get(("s", "f", None, None, "exact"))       # hit
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["entries"] == 1

    def test_store_counters_publish_to_registry(self):
        from repro.obs import get_registry

        before = get_registry().snapshot()
        store = InMemoryStore()
        key = ("s", "f", None, None, "exact")
        store.get(key)
        store.put(key, {frozenset(): 1})
        store.get(key)
        after = get_registry().snapshot()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("repro_store_hits_total{kind=memory}") == 1
        assert delta("repro_store_misses_total{kind=memory}") == 1
        assert delta("repro_store_puts_total{kind=memory}") == 1

    def test_retired_store_counters_stay_monotone(self):
        """GC'ing a store must not make registry counters go backwards."""
        import gc

        from repro.obs import get_registry

        before = get_registry().snapshot().get(
            "repro_store_puts_total{kind=memory}", 0
        )
        store = InMemoryStore()
        store.put(("s", "f", None, None, "exact"), {frozenset(): 1})
        del store
        gc.collect()
        after = get_registry().snapshot().get(
            "repro_store_puts_total{kind=memory}", 0
        )
        assert after == before + 1
