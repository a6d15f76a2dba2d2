"""Spine-only incremental maintenance (ISSUE-7 tentpole).

Node-scoped ``PDocument.mark_mutated(node)``: dirty-log semantics,
O(depth) index splicing vs scratch rebuilds, whole-document
``mark_all_mutated()``, store survival counters, and session-level
memo/plan retention across spine refreshes.
"""

from fractions import Fraction

import pytest

from repro.errors import PDocumentError
from repro.prob import QuerySession, query_answer
from repro.pxml.builder import ind, mux, ordinary, pdoc
from repro.store import InMemoryStore
from repro.tp.parser import parse_pattern
from repro.workloads.paper import p_per, q_bon
from repro.workloads.synthetic import churn_workload, isomorphic_twin


def small_doc():
    return pdoc(
        ordinary(
            1,
            "r",
            ordinary(2, "a", ordinary(3, "b")),
            mux(4, (ordinary(5, "a", ordinary(6, "c")), "0.5")),
        )
    )


def warm_indexes(p):
    p.structural_index()
    p.label_index()
    p.anchor_index()
    p.identity_digest()


def assert_indexes_equal_scratch(p):
    scratch = p.subdocument(p.root.node_id)
    assert p.structural_index() == scratch.structural_index()
    assert p.anchor_index() == scratch.anchor_index()
    assert p.label_index() == scratch.label_index()
    assert p.identity_digest() == scratch.identity_digest()


class TestMarkMutated:
    def test_mark_all_mutated_resets_dirty_log(self):
        p = small_doc()
        warm_indexes(p)
        p.mark_mutated(3)
        anchor = p.mutation_epoch
        p.mark_all_mutated()
        assert p.dirty_since(anchor) is None
        # a later scoped mutation is visible from the reset point on
        p.mark_mutated(3)
        changed, _ = p.dirty_since(anchor + 1)
        assert 3 in changed

    def test_dirty_since_merges_entries(self):
        p = small_doc()
        warm_indexes(p)
        start = p.mutation_epoch
        node = p.node(4)
        node.probabilities[5] *= Fraction(1, 2)
        p.mark_mutated(node)
        p.node(3).label = "z"
        p.mark_mutated(3)
        changed, world_changed = p.dirty_since(start)
        # both spines, unioned: {4,1} from the scaling, {3,2,1} from z
        assert {1, 2, 3, 4} <= changed
        assert 5 not in changed and 6 not in changed
        assert world_changed  # the relabel changed the maximal world
        assert p.dirty_since(p.mutation_epoch) == (frozenset(), False)

    def test_probability_only_mutation_keeps_world(self):
        p = small_doc()
        warm_indexes(p)
        start = p.mutation_epoch
        node = p.node(4)
        node.probabilities[5] *= Fraction(1, 2)
        p.mark_mutated(node)
        changed, world_changed = p.dirty_since(start)
        assert not world_changed
        assert changed == {4, 1}
        assert_indexes_equal_scratch(p)

    def test_dirty_log_truncation_floors(self, monkeypatch):
        monkeypatch.setattr("repro.pxml.pdocument._DIRTY_LOG_LIMIT", 2)
        p = small_doc()
        warm_indexes(p)
        start = p.mutation_epoch
        for _ in range(3):
            p.mark_mutated(3)
        assert p.dirty_since(start) is None  # oldest entry dropped
        assert p.dirty_since(p.mutation_epoch - 1) is not None

    def test_attach_registers_fresh_subtree(self):
        p = small_doc()
        warm_indexes(p)
        parent = p.node(2)
        parent.add_child(ordinary(7, "d", ordinary(8, "b")))
        p.mark_mutated(parent)
        assert p.node(8).label == "b"
        changed, world_changed = p.dirty_since(p.mutation_epoch - 1)
        assert {8, 7, 2, 1} <= changed
        assert world_changed
        assert_indexes_equal_scratch(p)

    def test_attach_rejects_id_reuse(self):
        p = small_doc()
        parent = p.node(2)
        parent.add_child(ordinary(5, "dupe"))
        with pytest.raises(PDocumentError, match="reuses existing Id"):
            p.mark_mutated(parent)

    def test_detached_node_rejected(self):
        p = small_doc()
        stray = ordinary(99, "x")
        with pytest.raises(PDocumentError, match="not attached"):
            p.mark_mutated(stray)

    def test_splice_on_cold_document_degrades_conservatively(self):
        # No index was ever built: nothing to splice; the dirty entry
        # still covers the subtree + spine so sessions stay correct.
        p = small_doc()
        start = p.mutation_epoch
        p.node(6).label = "q"
        p.mark_mutated(6)
        changed, world_changed = p.dirty_since(start)
        assert {6, 5, 4, 1} <= changed
        assert world_changed
        assert_indexes_equal_scratch(p)

    def test_answers_track_spliced_mutations(self):
        p = p_per()
        warm_indexes(p)
        q = q_bon()
        before = query_answer(p, q)
        assert before == {5: Fraction(9, 10)}
        # halve the mux edge that admits the laptop under bonus 5: the
        # answer provably moves, through the spliced indexes alone
        node = p.node(21)
        node.probabilities[24] *= Fraction(1, 2)
        p.mark_mutated(node)
        after = query_answer(p, q)
        scratch = p.subdocument(p.root.node_id)
        assert after == query_answer(scratch, q)
        assert after != before


class TestTwinOffset:
    def test_offset_derived_past_max_id(self):
        p = small_doc()
        twin = isomorphic_twin(p)
        assert sorted(n.node_id for n in twin.nodes()) == [
            11, 12, 13, 14, 15, 16,
        ]

    def test_offset_scales_with_large_ids(self):
        p = pdoc(ordinary(1, "r", ordinary(12345, "a")))
        twin = isomorphic_twin(p)
        assert {n.node_id for n in twin.nodes()} == {100001, 112345}

    def test_explicit_offset_still_honoured(self):
        p = small_doc()
        twin = isomorphic_twin(p, 500)
        assert min(n.node_id for n in twin.nodes()) == 501


class TestChurnWorkload:
    def test_mixed_mode_respects_write_ratio_extremes(self):
        p, steps = churn_workload(
            persons=3, rounds=6, seed=5, write_ratio=1.0
        )
        assert [kind for kind, _ in steps[1:]] == ["mutate"] * 6
        _, steps = churn_workload(
            persons=3, rounds=6, seed=5, write_ratio=0.0
        )
        assert [kind for kind, _ in steps[1:]] == ["queries"] * 6

    def test_mutate_full_flag_invalidates_document(self):
        p, steps = churn_workload(
            persons=3, rounds=4, seed=7, write_ratio=1.0
        )
        start = p.mutation_epoch
        mutations = [payload for kind, payload in steps if kind == "mutate"]
        mutations[0]()
        assert p.dirty_since(start) is not None
        mutations[1](full=True)
        assert p.dirty_since(start) is None

    def test_legacy_signature_unchanged(self):
        p, steps = churn_workload(persons=2, projects=2, rounds=2, seed=3)
        kinds = [kind for kind, _ in steps]
        assert kinds == ["queries"] + ["mutate", "queries"] * 4


class TestStoreCounters:
    def test_discard_removes_matching_and_returns_count(self):
        store = InMemoryStore()
        store.put(("a", "f", 0, "exact"), {1: Fraction(1)}, weight=3)
        store.put(("b", "f", 0, "exact"), {2: Fraction(1)}, weight=5)
        removed = store.discard(lambda key: key[0] == "a")
        assert removed == 1
        assert len(store) == 1
        assert store.weight == 5
        assert store.stats()["evictions"] == 0

    def test_record_spine_recompute_accumulates(self):
        store = InMemoryStore()
        store.record_spine_recompute(4)
        store.record_spine_recompute(2)
        stats = store.stats()
        assert stats["spine_recomputes"] == 2
        assert stats["survived_entries"] == 6


class TestSessionSpineRefresh:
    def make_session(self, backend="exact", store=None):
        p = p_per()
        session = QuerySession(p, backend=backend, store=store)
        queries = [q_bon(), parse_pattern("IT-personnel//person")]
        return p, session, queries

    def mutate_probability(self, p):
        node = next(n for n in p.distributional_nodes() if n.probabilities)
        child_id = next(iter(node.probabilities))
        node.probabilities[child_id] *= Fraction(1, 2)
        p.mark_mutated(node)

    def test_probability_mutation_is_a_spine_refresh(self):
        p, session, queries = self.make_session(store=InMemoryStore())
        session.answer_many(queries)
        self.mutate_probability(p)
        assert session.answer_many(queries) == [
            query_answer(p, q) for q in queries
        ]
        assert session.stats.spine_refreshes == 1
        assert session.stats.invalidations == 0
        stats = session.store.stats()
        assert stats["spine_recomputes"] == 1
        # survived = store size at refresh time (before the warm re-pass
        # added the entries for the re-evaluated dirty subtrees)
        assert 0 < stats["survived_entries"] <= len(session.store)

    def test_array_plans_survive_probability_mutation(self):
        pytest.importorskip("numpy")
        p, session, queries = self.make_session(backend="array")
        session.answer_many(queries)
        self.mutate_probability(p)
        scratch = p.subdocument(p.root.node_id)
        expected = [query_answer(scratch, q) for q in queries]
        for want, got in zip(expected, session.answer_many(queries)):
            for key in set(want) | set(got):
                assert abs(
                    float(got.get(key, 0.0)) - float(want.get(key, 0))
                ) < 1e-9
        assert session.stats.spine_refreshes == 1
        assert session.stats.survived_plans >= 1

    def test_world_mutation_drops_plans_without_full_reset(self):
        pytest.importorskip("numpy")
        p, session, queries = self.make_session(backend="array")
        session.answer_many(queries)
        target = next(
            n for n in p.ordinary_nodes() if n.label and n.label.isdigit()
        )
        target.label = str(int(target.label) + 1)
        p.mark_mutated(target)
        session.answer_many(queries)
        assert session.stats.spine_refreshes == 1
        assert session.stats.survived_plans == 0
        assert session.stats.invalidations == 0

    def test_mark_all_mutated_forces_full_reset(self):
        p, session, queries = self.make_session()
        session.answer_many(queries)
        p.mark_all_mutated()
        session.answer_many(queries)
        assert session.stats.invalidations == 1
        assert session.stats.spine_refreshes == 0
