"""Spine-only incremental maintenance (ISSUE-7 tentpole).

Node-scoped ``PDocument.mark_mutated(node)``: dirty-log semantics,
O(depth) index splicing vs scratch rebuilds, whole-document
``mark_all_mutated()``, store survival counters, and session-level
memo/plan retention across spine refreshes.
"""

import math
from fractions import Fraction

import pytest

from repro.errors import PDocumentError
from repro.prob import QuerySession, query_answer
from repro.pxml.builder import ind, mux, ordinary, pdoc
from repro.store import InMemoryStore
from repro.tp.parser import parse_pattern
from repro.workloads.paper import p_per, q_bon
from repro.workloads.synthetic import (
    batch_workload,
    churn_workload,
    isomorphic_twin,
)


def small_doc():
    return pdoc(
        ordinary(
            1,
            "r",
            ordinary(2, "a", ordinary(3, "b")),
            mux(4, (ordinary(5, "a", ordinary(6, "c")), "0.5")),
        )
    )


def find_span(spans, name):
    """The first span called ``name`` in the span trees ``spans``."""
    stack = list(spans)
    while stack:
        span = stack.pop()
        if span.name == name:
            return span
        stack.extend(span.children)
    raise AssertionError(f"no {name} span")


def assert_relatively_close(got, want, rel=1e-9):
    """Float answers equal exact ones within ``rel`` relative error."""
    for answer, exact in zip(got, want):
        assert set(answer) == set(exact)
        for node_id, value in exact.items():
            assert abs(Fraction(answer[node_id]) - value) <= rel * value


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


class TestKeptEntries:
    """A splice keeps each spine node's sorted child entries, so a write
    below a wide root rebuilds only the fresh spine's entries."""

    @staticmethod
    def splice_attrs(p, person):
        """Scale person ``person``'s name mux; its splice span's attrs."""
        from repro.obs.trace import capture

        gate = p.node(100 * person).children[0].children[0]
        child_id = gate.children[0].node_id
        gate.probabilities[child_id] *= Fraction(3, 4)
        with capture() as cap:
            p.mark_mutated(gate)
        return find_span(cap.spans, "pdocument.spine_splice").attrs

    def test_fresh_person_rebuilds_the_same_entries_at_any_width(self):
        rebuilt = {}
        for persons in (64, 1024):
            p, _ = batch_workload(persons, projects=4, seed=3)
            warm_indexes(p)
            # The first write builds the root's kept list.
            assert self.splice_attrs(p, 1)["entries_rebuilt"] >= persons
            rebuilt[persons] = self.splice_attrs(p, 2)["entries_rebuilt"]
            assert_indexes_equal_scratch(p)
        assert rebuilt[64] == rebuilt[1024] < 64

    def test_mark_all_mutated_drops_the_kept_entries(self):
        p, _ = batch_workload(8, projects=4, seed=3)
        warm_indexes(p)
        self.splice_attrs(p, 1)
        assert p._indexes_now()[5]
        p.mark_all_mutated()
        assert p._indexes_now()[5] == {}
        assert self.splice_attrs(p, 1)["entries_rebuilt"] >= 8


class TestWorldDigest:
    """``world_changed`` and ``identity_digest()`` follow the maximal
    world and node Ids, never plain edge probabilities."""

    def edit(self, p, mutate, node_id):
        warm_indexes(p)
        before = p.identity_digest()
        start = p.mutation_epoch
        mutate(p)
        p.mark_mutated(node_id)
        _, world_changed = p.dirty_since(start)
        assert_indexes_equal_scratch(p)
        return world_changed, p.identity_digest() != before

    def test_probability_only_edit_keeps_both(self):
        def halve(p):
            p.node(4).probabilities[5] *= Fraction(1, 2)

        assert self.edit(small_doc(), halve, 4) == (False, False)

    def test_zero_probability_edge_flips_both(self):
        def zero(p):
            p.node(4).probabilities[5] = Fraction(0)

        assert self.edit(small_doc(), zero, 4) == (True, True)

    def test_relabel_flips_both(self):
        def relabel(p):
            p.node(6).label = "z"

        assert self.edit(small_doc(), relabel, 6) == (True, True)

    def test_attach_flips_both(self):
        def attach(p):
            p.node(3).add_child(ordinary(7, "c"))

        assert self.edit(small_doc(), attach, 3) == (True, True)

    def test_twin_with_other_ids_differs(self):
        p = small_doc()
        twin = isomorphic_twin(p)
        assert twin.document_digest == p.document_digest
        assert twin.identity_digest() != p.identity_digest()
        assert twin.identity_digest() not in p.structural_index()[0].values()


class TestDirtyLabels:
    """``dirty_labels_since`` reports the labels world-changing edits
    touched: the mutated subtree's labels before and after."""

    def test_relabel_reports_old_and_new_subtree_labels(self):
        p = small_doc()
        warm_indexes(p)
        start = p.mutation_epoch
        p.node(2).label = "z"  # subtree {a, b} becomes {z, b}
        p.mark_mutated(2)
        assert p.dirty_labels_since(start) == {"a", "b", "z"}

    def test_probability_only_edit_touches_nothing(self):
        p = small_doc()
        warm_indexes(p)
        start = p.mutation_epoch
        p.node(4).probabilities[5] *= Fraction(1, 2)
        p.mark_mutated(4)
        assert p.dirty_labels_since(start) == frozenset()

    def test_entries_merge_and_attach_counts_the_leaf(self):
        p = small_doc()
        warm_indexes(p)
        start = p.mutation_epoch
        leaf = p.node(3).add_child(ordinary(7, "d"))
        p.mark_mutated(leaf)
        p.node(4).probabilities[5] = Fraction(0)
        p.mark_mutated(4)
        assert p.dirty_labels_since(start) == {"d", "a", "c"}
        assert p.dirty_labels_since(p.mutation_epoch - 1) == {"a", "c"}

    def test_unknown_extent_is_none(self):
        p = small_doc()  # no index to splice: the conservative path
        start = p.mutation_epoch
        p.node(6).label = "q"
        p.mark_mutated(6)
        assert p.dirty_labels_since(start) is None
        warm_indexes(p)
        p.mark_all_mutated()
        assert p.dirty_labels_since(start) is None


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

    def test_legacy_signature_unchanged(self):
        p, steps = churn_workload(persons=2, projects=2, rounds=2, seed=3)
        kinds = [kind for kind, _ in steps]
        assert kinds == ["queries"] + ["mutate", "queries"] * 4


class TestStoreCounters:
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
        p, session, queries = self.make_session(backend="array")
        session.answer_many(queries)
        self.mutate_probability(p)
        scratch = p.subdocument(p.root.node_id)
        expected = [query_answer(scratch, q) for q in queries]
        for want, got in zip(expected, session.answer_many(queries)):
            assert set(got) == set(want)
            for key in want:
                assert math.isclose(got[key], float(want[key]), rel_tol=1e-9)
        assert session.stats.spine_refreshes == 1
        assert session.stats.survived_plans >= 1

    def test_world_mutation_drops_plans_without_full_reset(self):
        # Relabel a goal-table label of the batch: the plan's candidate
        # and live sets are suspect, so it is rebuilt.
        p, session, queries = self.make_session(backend="array")
        session.answer_many(queries)
        target = next(n for n in p.ordinary_nodes() if n.label == "laptop")
        target.label = "desktop"
        p.mark_mutated(target)
        session.answer_many(queries)
        assert session.stats.spine_refreshes == 1
        assert session.stats.survived_plans == 0
        assert session.stats.invalidations == 0

    def test_untouched_label_world_mutation_keeps_plans(self):
        # Attach a digit-labelled leaf: digits are in no query's goal
        # table, so the world moves but no lane's candidates can, and
        # the plan survives.
        p = p_per()
        session = QuerySession(p, backend="array")
        queries = [q_bon(), parse_pattern("IT-personnel//person")]
        session.answer_many(queries)
        target = next(n for n in p.ordinary_nodes() if n.label == "laptop")
        target.add_child(ordinary(9001, "17"))
        p.mark_mutated(target.children[-1])
        got = session.answer_many(queries)
        assert session.stats.spine_refreshes == 1
        assert session.stats.survived_plans >= 1
        assert session.stats.spine_hits > 0
        assert_relatively_close(got, [query_answer(p, q) for q in queries])

    def test_mark_all_mutated_forces_full_reset(self):
        p, session, queries = self.make_session()
        session.answer_many(queries)
        p.mark_all_mutated()
        session.answer_many(queries)
        assert session.stats.invalidations == 1
        assert session.stats.spine_refreshes == 0


class TestRetainedSpine:
    """The array session's answer plan keeps its live-spine entries: a
    read after a probability edit recombines only the dirty path."""

    @staticmethod
    def edit_bonus_mux(p):
        """Scale the first bonus mux's probability; return its spine."""
        node = next(
            n
            for n in p.distributional_nodes()
            if n.parent.label == "bonus"
        )
        child_id = next(iter(node.probabilities))
        node.probabilities[child_id] *= Fraction(5, 7)
        p.mark_mutated(node)
        path = []
        while node is not None:
            path.append(node.node_id)
            node = node.parent
        return path

    @pytest.mark.parametrize("store_kind", ["memory", "sqlite"])
    def test_read_after_edit_visits_only_the_dirty_path(
        self, tmp_path, store_kind
    ):
        from repro.store import SqliteStore

        p, queries = batch_workload(persons=32, projects=4, seed=3)
        if store_kind == "memory":
            store = InMemoryStore()
        else:
            store = SqliteStore(str(tmp_path / "memo.sqlite"), write_behind=64)
        try:
            session = QuerySession(p, backend="array", store=store)
            session.answer_many(queries)
            stats = session.stats
            assert stats.spine_hits == 0  # a cold plan has no spine yet
            path = self.edit_bonus_mux(p)
            visits, spine_hits = stats.node_visits, stats.spine_hits
            probes = store.hits + store.misses
            got = session.answer_many(queries)
            # The edited mux (a store miss: its digest moved) and its
            # ancestors — nothing else is combined.
            assert stats.node_visits - visits == len(path)
            # Every other person hangs off the root as a reused entry.
            assert stats.spine_hits - spine_hits >= 31 * len(queries)
            # The read probes the store along the dirty person, not
            # across the document.
            assert store.hits + store.misses - probes < 20
            scratch = p.subdocument(p.root.node_id)
            for q, answer in zip(queries, got):
                want = query_answer(scratch, q)
                assert set(answer) == set(want)
                for node_id, exact in want.items():
                    assert abs(Fraction(answer[node_id]) - exact) <= (
                        1e-9 * exact
                    )
        finally:
            if store_kind == "sqlite":
                store.close()

    def test_world_change_drops_the_spine(self):
        # Relabel ``Rick``, a goal-table label of every query.
        p, queries = batch_workload(persons=8, projects=4, seed=3)
        session = QuerySession(p, backend="array")
        session.answer_many(queries)
        target = next(n for n in p.ordinary_nodes() if n.label == "Rick")
        target.label = "Rich"
        p.mark_mutated(target)
        visits = session.stats.node_visits
        session.answer_many(queries)
        # A fresh plan: the whole live spine is combined again.
        assert session.stats.spine_hits == 0
        assert session.stats.node_visits - visits > 8

    def test_digit_bump_keeps_the_spine(self):
        # Bump a bonus amount: no query reads digit labels, so the plan
        # and its spine survive and only the dirty path is recombined.
        p, queries = batch_workload(persons=8, projects=4, seed=3)
        session = QuerySession(p, backend="array")
        session.answer_many(queries)
        target = next(
            n for n in p.ordinary_nodes() if n.label and n.label.isdigit()
        )
        target.label = str(int(target.label) + 1)
        p.mark_mutated(target)
        visits = session.stats.node_visits
        got = session.answer_many(queries)
        assert session.stats.survived_plans >= 1
        assert session.stats.spine_hits > 0
        assert session.stats.node_visits - visits < 8
        assert_relatively_close(got, [query_answer(p, q) for q in queries])

    def test_spine_reuse_is_observable(self):
        from repro.obs.registry import get_registry
        from repro.obs.trace import capture

        p, queries = batch_workload(persons=8, projects=4, seed=3)
        session = QuerySession(p, backend="array")
        with capture() as cold:
            session.answer_many(queries)
        self.edit_bonus_mux(p)
        with capture() as warm:
            session.answer_many(queries)

        def stacked_pass(spans):
            return find_span(spans, "stacked.pass")

        assert stacked_pass(cold.spans).attrs["spine_reused"] == 0
        # The seven clean persons hang off the recombined root.
        assert stacked_pass(warm.spans).attrs["spine_reused"] == 7
        series = get_registry().snapshot()
        assert series["repro_session_spine_hits_total"] >= 7 * len(queries)

    def test_read_after_edit_reads_the_same_children_at_any_width(self):
        # The wide root combines as a delta on its previous entry: at 64
        # and at 512 persons the read after an edit reads the same
        # children (the dirty person's, per live lane), visits only the
        # dirty path and reuses every other person.  A plan's entries
        # keep what a delta reads once the plan has been refreshed, so
        # the first read after an edit seeds them along its dirty path.
        from repro.obs.trace import capture

        reads = []
        for persons in (64, 512):
            p, queries = batch_workload(persons=persons, seed=3)
            session = QuerySession(p, backend="array")
            with capture() as cold:
                session.answer_many(queries)
            cold_pass = find_span(cold.spans, "stacked.pass").attrs
            assert cold_pass["children_read"] >= persons * len(queries)
            self.edit_bonus_mux(p)
            session.answer_many(queries)
            path = self.edit_bonus_mux(p)
            visits = session.stats.node_visits
            with capture() as warm:
                got = session.answer_many(queries)
            attrs = find_span(warm.spans, "stacked.pass").attrs
            assert session.stats.node_visits - visits == len(path)
            assert attrs["spine_reused"] == persons - 1
            reads.append(attrs["children_read"])
            scratch = p.subdocument(p.root.node_id)
            assert_relatively_close(
                got, [query_answer(scratch, q) for q in queries]
            )
        assert reads[0] == reads[1]
        # The root reads one child per lane; the dirty person and its
        # bonus, live for one lane, one each.
        assert reads[0] == len(queries) + 2

    def test_plan_survival_and_root_groups_are_observable(self):
        from repro.obs.trace import capture

        p, queries = batch_workload(persons=8, projects=4, seed=3)
        session = QuerySession(p, backend="array")
        with capture() as cold:
            session.answer_many(queries)
        # Eight persons, four projects: each lane's root readout groups
        # the persons' rows, fewer groups than children.
        groups = find_span(cold.spans, "stacked.pass").attrs["root_groups"]
        assert 0 < groups <= 8 * len(queries)
        amount = next(
            n for n in p.ordinary_nodes() if n.label and n.label.isdigit()
        )
        amount.label = str(int(amount.label) + 1)
        p.mark_mutated(amount)
        with capture() as kept:
            session.answer_many(queries)
        refresh = find_span(kept.spans, "session.refresh").attrs
        assert refresh["world_changed"] is True
        assert (refresh["plans_kept"], refresh["plans_dropped"]) == (1, 0)
        assert find_span(kept.spans, "stacked.pass").attrs["root_groups"] > 0
        rick = next(n for n in p.ordinary_nodes() if n.label == "Rick")
        rick.label = "Rich"
        p.mark_mutated(rick)
        with capture() as dropped:
            session.answer_many(queries)
        refresh = find_span(dropped.spans, "session.refresh").attrs
        assert (refresh["plans_kept"], refresh["plans_dropped"]) == (0, 1)
