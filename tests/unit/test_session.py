"""Unit tests for the QuerySession workload layer.

Covers the tentpole guarantees: batched answers equal per-query engine
answers, one shared traversal per batch regardless of the batch size,
cross-query subtree memoization (with hits inside a single cold pass on
structurally identical queries), and memo invalidation through the
p-document mutation epoch.
"""

import math
from fractions import Fraction

import pytest

from repro.prob import EvaluationEngine, QuerySession, query_answer
from repro.probability import as_fraction
from repro.prob.engine import (
    boolean_probability,
    intersection_node_probability,
    node_probability,
)
from repro.pxml import ind, mux, ordinary, pdoc
from repro.pxml.serialize import pdocument_from_text, pdocument_to_text
from repro.store import InMemoryStore, SqliteStore
from repro.tp import parse_pattern
from repro.workloads import paper
from repro.workloads.synthetic import batch_workload, personnel_pdocument, personnel_query
from repro.xml.serialize import document_to_text


class TestAnswerMany:
    def test_matches_sequential_on_paper_document(self, p_per):
        queries = [paper.q_bon(), paper.v1_bon(), paper.q_rbon(), paper.v2_bon()]
        session = QuerySession(p_per)
        assert session.answer_many(queries) == [
            query_answer(p_per, q) for q in queries
        ]

    def test_single_query_answer(self, p_per):
        session = QuerySession(p_per)
        assert session.answer(paper.q_bon()) == query_answer(p_per, paper.q_bon())

    def test_empty_batch(self, p_per):
        assert QuerySession(p_per).answer_many([]) == []
        assert QuerySession(p_per).stats.traversals == 0

    def test_query_without_candidates(self, p_per):
        session = QuerySession(p_per)
        answers = session.answer_many(
            [paper.q_bon(), parse_pattern("IT-personnel/nosuchlabel")]
        )
        assert answers[0] == query_answer(p_per, paper.q_bon())
        assert answers[1] == {}

    def test_one_traversal_per_batch(self):
        # The tentpole counter: a cold batch touches each p-document node
        # exactly once, no matter how many queries ride in it.  The
        # document's labels all occur in the first query's goal table, so
        # no subtree is neutral and the count is exact.
        p = pdoc(
            ordinary(0, "a",
                     ind(1, (ordinary(2, "b", ordinary(3, "c")), "0.5")),
                     mux(4,
                         (ordinary(5, "b", ordinary(6, "c")), "0.4"),
                         (ordinary(7, "b"), "0.5")),
                     ordinary(8, "b", ordinary(9, "c")))
        )
        queries = [parse_pattern("a/b[c]"), parse_pattern("a/b"),
                   parse_pattern("a//c")]
        session = QuerySession(p)
        answers = session.answer_many(queries)
        assert answers == [query_answer(p, q) for q in queries]
        assert session.stats.traversals == 1
        assert session.stats.node_visits == p.size()

    def test_warm_batch_skips_subtrees(self):
        p, queries = batch_workload(persons=6, projects=4, seed=3)
        session = QuerySession(p)
        first = session.answer_many(queries)
        assert session.stats.traversals == 1
        cold_visits = session.stats.node_visits
        assert cold_visits <= p.size()
        # A second identical batch is a plan replay: no traversal at all.
        assert session.answer_many(queries) == first
        assert session.stats.traversals == 1
        assert session.stats.node_visits == cold_visits
        # A fresh session on the same store reuses the memo: whole
        # subtrees are skipped, so strictly fewer nodes are visited.
        fresh = QuerySession(p, store=session.store)
        assert fresh.answer_many(queries) == first
        assert fresh.stats.traversals == 1
        assert fresh.stats.node_visits < cold_visits
        assert fresh.stats.subtree_skips > 0

    def test_cross_query_memo_hits_inside_cold_pass(self):
        # Structurally identical queries share per-subtree blocked
        # distributions already during their first joint pass.
        p, queries = batch_workload(persons=6, projects=4, seed=1)
        session = QuerySession(p)
        session.answer_many(queries)
        assert session.stats.memo_hits > 0
        assert session.stats.memo_misses > 0

    def test_session_over_tiny_store_still_correct(self):
        # A one-entry store evicts nearly every saved subtree.
        p, queries = batch_workload(persons=5, projects=3, seed=9)
        session = QuerySession(p, memo_limit=1)
        assert session.answer_many(queries) == [
            query_answer(p, q) for q in queries
        ]

    def test_fast_backend_close_to_exact(self):
        p, queries = batch_workload(persons=5, projects=3, seed=4)
        exact = QuerySession(p).answer_many(queries)
        fast = QuerySession(p, backend="array").answer_many(queries)
        for d_exact, d_fast in zip(exact, fast):
            assert set(d_exact) == set(d_fast)
            for node_id in d_exact:
                assert math.isclose(
                    d_fast[node_id], float(d_exact[node_id]), rel_tol=1e-9
                )

    def test_backend_without_group_hooks(self, p_per):
        # The scalar protocol alone: the lane group runs the backend's
        # ScalarOps rows and never escapes.
        class PlainFractions:
            name = "plain"
            zero = Fraction(0)
            one = Fraction(1)
            convert = staticmethod(as_fraction)
            to_fraction = staticmethod(Fraction)

        queries = [paper.q_bon(), paper.v1_bon(), paper.v2_bon()]
        session = QuerySession(p_per, backend=PlainFractions())
        assert session.answer_many(queries) == [
            query_answer(p_per, q) for q in queries
        ]
        q = paper.q_bon()
        assert session.boolean_many([q, (q, {q.out: 5})]) == [
            boolean_probability(p_per, q), node_probability(p_per, q, 5)
        ]

    def test_batch_of_nested_candidates(self):
        # Candidates below other candidates exercise the pinned machinery.
        p = pdoc(
            ordinary(0, "a",
                     ordinary(1, "b",
                              ind(2, (ordinary(3, "b"), "0.5"))),
                     mux(4,
                         (ordinary(5, "b", ordinary(6, "c")), "0.4"),
                         (ordinary(7, "b"), "0.5")))
        )
        queries = [parse_pattern("a//b"), parse_pattern("a/b[c]"),
                   parse_pattern("a/b")]
        session = QuerySession(p)
        assert session.answer_many(queries) == [
            query_answer(p, q) for q in queries
        ]


class TestBooleanMany:
    def test_matches_engine_booleans(self, p_per):
        q = paper.q_bon()
        got = session_booleans = QuerySession(p_per).boolean_many(
            [q, (q, {q.out: 5}), ([paper.v1_bon(), paper.v2_bon()], None)]
        )
        expected = [
            boolean_probability(p_per, q),
            node_probability(p_per, q, 5),
            EvaluationEngine(
                p_per, [paper.v1_bon(), paper.v2_bon()]
            ).match_probability(),
        ]
        assert got == expected

    def test_node_probability_helper(self, p_per):
        session = QuerySession(p_per)
        q = paper.v1_bon()
        for node_id in (5, 7):
            assert session.node_probability(q, node_id) == node_probability(
                p_per, q, node_id
            )

    def test_intersection_item(self, p_per):
        session = QuerySession(p_per)
        patterns = [paper.v1_bon(), parse_pattern("IT-personnel//person/bonus[laptop]")]
        anchors = {q.out: 5 for q in patterns}
        got = session.boolean_many([(patterns, anchors)])[0]
        assert got == intersection_node_probability(p_per, patterns, 5)

    def test_child_and_descendant_axes_never_share_a_row(self):
        # ``a/b`` and ``a//b`` number their goals alike, but only the
        # ``//`` goal passes upward: below ``x`` their rows differ, so
        # neither a lane class nor a store entry may serve both.
        p = pdoc(ordinary(0, "a", ordinary(1, "x", ind(2, (ordinary(3, "b"), "0.5")))))
        child, desc = parse_pattern("a/b"), parse_pattern("a//b")
        expected = [boolean_probability(p, child), boolean_probability(p, desc)]
        assert expected == [0, Fraction(1, 2)]
        assert QuerySession(p).boolean_many([child, desc]) == expected
        store = InMemoryStore()
        QuerySession(p, store=store).boolean_many([child])
        assert QuerySession(p, store=store).boolean_many([desc]) == expected[1:]

    def test_memo_shared_between_boolean_and_answer(self, p_per):
        session = QuerySession(p_per)
        session.answer(paper.q_bon())
        before = session.stats.memo_hits
        session.boolean_probability(paper.q_bon())
        assert session.stats.memo_hits > before


class TestInvalidation:
    def test_mutation_epoch_clears_memo(self):
        p, queries = batch_workload(persons=4, projects=2, seed=7)
        session = QuerySession(p)
        first = session.answer_many(queries)
        assert session.memo_size > 0
        p.mark_all_mutated()
        # The session notices the epoch on its next use and re-derives
        # everything from the document.
        assert session.answer_many(queries) == first
        assert session.stats.invalidations == 1

    def test_manual_invalidate(self, p_per):
        session = QuerySession(p_per)
        session.answer(paper.q_bon())
        session.invalidate()
        assert session.memo_size == 0
        assert session.answer(paper.q_bon()) == query_answer(p_per, paper.q_bon())

    def test_epoch_starts_at_zero_and_counts(self, p_per):
        assert p_per.mutation_epoch == 0
        p_per.mark_all_mutated()
        p_per.mark_all_mutated()
        assert p_per.mutation_epoch == 2

    def test_memo_limit_bounds_entries(self):
        p, queries = batch_workload(persons=4, projects=2, seed=5)
        session = QuerySession(p, memo_limit=8)
        first = session.answer_many(queries)
        assert session.memo_size <= 8
        assert session.answer_many(queries) == first


class TestVisitAccounting:
    def test_engine_answer_unchanged(self):
        # The pre-session contract still holds for direct engine use.
        p = personnel_pdocument(persons=8, projects=3, seed=2)
        q = personnel_query("project0")
        engine = EvaluationEngine(p, [q])
        engine.answer(engine.candidate_ids())
        # One walk combining every node whose subtree holds a query label.
        table_labels = engine.table_labels
        assert engine.visits == sum(
            1 for labels in p.label_index().values() if labels & table_labels
        )

    def test_session_visits_scale_with_document_not_batch(self):
        # Cold visit counts depend on the document (minus its query-neutral
        # subtrees), not on how many queries ride in the batch.
        p, queries = batch_workload(persons=5, projects=4, seed=11)
        visit_counts = []
        for batch_size in (1, 2, 4):
            session = QuerySession(p)
            session.answer_many(queries[:batch_size])
            assert session.stats.traversals == 1
            visit_counts.append(session.stats.node_visits)
        # 4x the queries must stay far below 4x the visits (a subtree is
        # only re-opened when a batch member actually mentions its labels).
        assert visit_counts[-1] < 2 * visit_counts[0]
        assert all(count <= p.size() for count in visit_counts)


def _ind_chain(levels: int):
    """``a`` over a chain of ``levels`` ``b``s, each behind an ``ind(½)``."""
    node = ordinary(2 * levels, "b")
    for level in range(levels - 1, -1, -1):
        label = "a" if level == 0 else "b"
        node = ordinary(2 * level, label, ind(2 * level + 1, (node, "0.5")))
    return pdoc(node)


class TestDeepDocuments:
    """No recursion limit on the candidate walk or the maximal world."""

    LEVELS = 5000

    @pytest.mark.parametrize("backend", ["exact", "array"])
    def test_answer_many_on_deep_ind_chain(self, backend):
        p = _ind_chain(self.LEVELS)
        answers = QuerySession(p, backend=backend).answer_many(
            [parse_pattern("a/b"), parse_pattern("a/b/b")]
        )
        assert answers == [{2: 0.5}, {4: 0.25}]

    def test_engine_candidates_and_max_world_on_deep_ind_chain(self):
        p = _ind_chain(self.LEVELS)
        assert EvaluationEngine(p, [parse_pattern("a/b")]).candidate_ids() == {2}
        assert p.max_world().size() == self.LEVELS + 1

    def test_serializers_on_deep_ind_chain(self):
        p = _ind_chain(self.LEVELS)
        text = pdocument_to_text(p)
        assert pdocument_to_text(pdocument_from_text(text)) == text
        assert text.count("\n") == 2 * self.LEVELS + 1
        world = document_to_text(p.max_world())
        assert world.count("\n") == self.LEVELS + 1
        assert world.splitlines()[-1] == (
            "  " * self.LEVELS + f"[{2 * self.LEVELS}] b"
        )


class _CandidateKeyLog:
    """Store mixin logging hits, misses and puts on candidate-set keys."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.candidate_log = []

    def _count_get(self, key, hit):
        if key[-2:] == ("candidates", "node-ids"):
            self.candidate_log.append("hit" if hit else "miss")
        super()._count_get(key, hit)

    def _count_put(self, key):
        if key[-2:] == ("candidates", "node-ids"):
            self.candidate_log.append("put")
        super()._count_put(key)


class _LoggedMemoryStore(_CandidateKeyLog, InMemoryStore):
    pass


class _LoggedSqliteStore(_CandidateKeyLog, SqliteStore):
    pass


class TestCandidateStoreAccounting:
    """Queries sharing a candidates key count miss-then-hit and put once,
    on the per-key path (in-memory) and the bulk path (SQLite)."""

    @pytest.fixture(params=["memory", "sqlite"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            yield _LoggedMemoryStore()
            return
        store = _LoggedSqliteStore(tmp_path / "memo.sqlite")
        yield store
        store.close()

    def test_str_equal_duplicates_miss_hit_put_once(self, store, p_per):
        q = paper.q_bon()
        twin = parse_pattern(q.xpath())
        session = QuerySession(p_per, store=store)
        answers = session.answer_many([q, twin])
        assert answers[0] == answers[1] == query_answer(p_per, q)
        log = store.candidate_log
        assert (log.count("miss"), log.count("hit"), log.count("put")) == (1, 1, 1)

    def test_same_object_twice_and_warm_restart(self, store, p_per):
        q = paper.q_rbon()
        QuerySession(p_per, store=store).answer_many([q, q])
        log = store.candidate_log
        assert (log.count("miss"), log.count("hit"), log.count("put")) == (1, 1, 1)
        # A fresh session over the warm store skips the candidate walk.
        del log[:]
        QuerySession(p_per, store=store).answer_many([q, paper.q_bon()])
        assert log == ["hit", "miss", "put"]

    def test_probability_only_edit_keeps_candidate_key(self, store, p_per):
        # Candidate sets are keyed by the world digest, which hashes no
        # edge probability: after a probability-only edit a fresh
        # session still finds them in the store.
        q = paper.q_bon()
        QuerySession(p_per, store=store).answer_many([q])
        node = p_per.node(21)
        node.probabilities[24] *= Fraction(1, 2)
        p_per.mark_mutated(node)
        del store.candidate_log[:]
        answers = QuerySession(p_per, store=store).answer_many([q])
        assert answers == [query_answer(p_per, q)]
        assert store.candidate_log == ["hit"]
