"""Unit tests for the QuerySession workload layer.

Covers the tentpole guarantees: batched answers equal per-query engine
answers, one shared traversal per batch regardless of the batch size,
cross-query subtree memoization (with hits inside a single cold pass on
structurally identical queries), and memo invalidation through the
p-document mutation epoch.
"""

from fractions import Fraction

import pytest

from repro.prob import EvaluationEngine, QuerySession, query_answer
from repro.prob.engine import (
    boolean_probability,
    intersection_node_probability,
    node_probability,
)
from repro.pxml import ind, mux, ordinary, pdoc
from repro.tp import parse_pattern
from repro.workloads import paper
from repro.workloads.synthetic import batch_workload, personnel_pdocument, personnel_query


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
        # A second identical batch reuses the memo: whole subtrees are
        # skipped, so strictly fewer nodes are visited the second time.
        assert session.answer_many(queries) == first
        assert session.stats.traversals == 2
        assert session.stats.node_visits - cold_visits < cold_visits
        assert session.stats.subtree_skips > 0

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
        fast = QuerySession(p, backend="fast").answer_many(queries)
        for d_exact, d_fast in zip(exact, fast):
            assert set(d_exact) == set(d_fast)
            for node_id in d_exact:
                assert abs(float(d_exact[node_id]) - d_fast[node_id]) < 1e-9

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
