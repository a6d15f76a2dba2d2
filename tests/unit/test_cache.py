"""Unit tests for the RewritingCache facade."""

import math
from fractions import Fraction

import pytest

from repro.cache import AnswerSource, RewritingCache
from repro.errors import NoRewritingError, ReproError, UnknownViewError
from repro.prob import query_answer
from repro.tp import parse_pattern
from repro.views import View
from repro.workloads import paper

F = Fraction


class TestMaterialization:
    def test_materialize_and_list(self, p_per, v2_bon):
        cache = RewritingCache(p_per)
        ext = cache.materialize(v2_bon)
        assert ext.selection == {5: F(1), 7: F(1)}
        assert [v.name for v in cache.views()] == ["v2BON"]

    def test_duplicate_rejected(self, p_per, v2_bon):
        cache = RewritingCache(p_per)
        cache.materialize(v2_bon)
        with pytest.raises(ValueError):
            cache.materialize(v2_bon)

    def test_drop(self, p_per, v2_bon):
        cache = RewritingCache(p_per)
        cache.materialize(v2_bon)
        cache.drop("v2BON")
        assert cache.views() == []

    def test_drop_unknown_view_raises(self, p_per, v2_bon):
        cache = RewritingCache(p_per)
        cache.materialize(v2_bon)
        with pytest.raises(UnknownViewError, match="nosuch"):
            cache.drop("nosuch")
        # Wraps the dict lookup failure and stays catchable both ways.
        assert issubclass(UnknownViewError, KeyError)
        assert issubclass(UnknownViewError, ReproError)
        with pytest.raises(KeyError):
            cache.drop("nosuch")
        # The failed drops left the materialized view untouched.
        assert [v.name for v in cache.views()] == ["v2BON"]

    def test_drop_unknown_view_names_survivors(self, p_per, v2_bon):
        cache = RewritingCache(p_per)
        cache.materialize(v2_bon)
        with pytest.raises(UnknownViewError, match="v2BON"):
            cache.drop("ghost")


class TestAnswering:
    def test_single_view_strategy(self, p_per, v2_bon):
        cache = RewritingCache(p_per, strict=True)
        cache.materialize(v2_bon)
        result = cache.answer(paper.q_bon())
        assert result.source is AnswerSource.SINGLE_VIEW
        assert result.answer == {5: F(9, 10)}

    def test_multi_view_strategy(self, p_per, v1_bon, v2_bon):
        # q_RBON has no single-view plan over v2BON; with both views the
        # canonical TP∩ plan (with compensated members) answers it.
        cache = RewritingCache(p_per, strict=True)
        cache.materialize(v2_bon)
        cache.materialize(v1_bon)
        result = cache.answer(paper.q_rbon())
        assert result.answer == {5: F(27, 40)}
        assert result.source in (AnswerSource.SINGLE_VIEW, AnswerSource.MULTI_VIEW)

    def test_strict_mode_raises(self, p_per, v2_bon):
        cache = RewritingCache(p_per, strict=True)
        cache.materialize(v2_bon)
        with pytest.raises(NoRewritingError):
            cache.answer(parse_pattern("IT-personnel//name"))

    def test_fallback_to_direct(self, p_per, v2_bon):
        cache = RewritingCache(p_per, strict=False)
        cache.materialize(v2_bon)
        q = parse_pattern("IT-personnel//person/name")
        result = cache.answer(q)
        assert result.source is AnswerSource.DIRECT
        assert result.answer == query_answer(p_per, q)

    def test_answerable_decision(self, p_per, v2_bon):
        cache = RewritingCache(p_per, strict=True)
        cache.materialize(v2_bon)
        assert cache.answerable(paper.q_bon())
        assert not cache.answerable(parse_pattern("IT-personnel//name"))

    def test_empty_cache(self, p_per):
        cache = RewritingCache(p_per, strict=True)
        with pytest.raises(NoRewritingError):
            cache.answer(paper.q_bon())

    def test_fast_backend_single_view(self, p_per, v2_bon):
        cache = RewritingCache(p_per, strict=True, backend="array")
        cache.materialize(v2_bon)
        result = cache.answer(paper.q_bon())
        assert result.source is AnswerSource.SINGLE_VIEW
        assert set(result.answer) == {5}
        assert math.isclose(result.answer[5], 0.9, rel_tol=1e-9)

    def test_fast_backend_multi_view(self, p_per, v1_bon, v2_bon):
        cache = RewritingCache(p_per, strict=True, backend="array")
        cache.materialize(v2_bon)
        cache.materialize(v1_bon)
        result = cache.answer(paper.q_rbon())
        assert set(result.answer) == {5}
        assert math.isclose(result.answer[5], 27 / 40, rel_tol=1e-9)

    def test_fast_backend_direct(self, p_per):
        cache = RewritingCache(p_per, backend="array")
        q = parse_pattern("IT-personnel//person/name")
        result = cache.answer(q)
        exact = query_answer(p_per, q)
        assert set(result.answer) == set(exact)
        for node_id in exact:
            assert math.isclose(
                result.answer[node_id], float(exact[node_id]), rel_tol=1e-9
            )


class TestAnswerMany:
    def test_batch_matches_individual_answers(self, p_per, v2_bon):
        cache = RewritingCache(p_per)
        cache.materialize(v2_bon)
        queries = [
            paper.q_bon(),                               # single-view plan
            parse_pattern("IT-personnel//person/name"),  # direct
            parse_pattern("IT-personnel//person/bonus"), # plan
            parse_pattern("IT-personnel//name"),         # direct
        ]
        reference = RewritingCache(p_per)
        reference.materialize(v2_bon)
        individually = [reference.answer(q) for q in queries]
        batched = cache.answer_many(queries)
        assert [r.answer for r in batched] == [r.answer for r in individually]
        assert [r.source for r in batched] == [r.source for r in individually]

    def test_batch_direct_queries_share_one_traversal(self, p_per):
        cache = RewritingCache(p_per)
        queries = [
            parse_pattern("IT-personnel//person/name"),
            parse_pattern("IT-personnel//name"),
            parse_pattern("IT-personnel//person"),
        ]
        before = cache.session.stats.traversals
        results = cache.answer_many(queries)
        assert cache.session.stats.traversals == before + 1
        assert all(r.source is AnswerSource.DIRECT for r in results)
        assert [r.answer for r in results] == [
            query_answer(p_per, q) for q in queries
        ]

    def test_strict_batch_raises_on_unanswerable(self, p_per, v2_bon):
        cache = RewritingCache(p_per, strict=True)
        cache.materialize(v2_bon)
        with pytest.raises(NoRewritingError):
            cache.answer_many([paper.q_bon(), parse_pattern("IT-personnel//name")])
        # Nothing was answered, so nothing may be counted.
        assert cache.stats()["total"] == 0

    def test_empty_batch(self, p_per):
        assert RewritingCache(p_per).answer_many([]) == []


class TestStats:
    def test_counts_per_source(self, p_per, v2_bon):
        cache = RewritingCache(p_per)
        cache.materialize(v2_bon)
        cache.answer(paper.q_bon())                               # single view
        cache.answer(parse_pattern("IT-personnel//person/name"))  # direct
        cache.answer(parse_pattern("IT-personnel//name"))         # direct
        stats = cache.stats()
        assert stats["SINGLE_VIEW"] == 1
        assert stats["DIRECT"] == 2
        assert stats["total"] == 3
        assert stats["session"]["traversals"] >= 1

    def test_multi_view_counted(self, p_per, v1_bon, v2_bon):
        cache = RewritingCache(p_per, strict=True)
        cache.materialize(v2_bon)
        cache.materialize(v1_bon)
        result = cache.answer(paper.q_rbon())
        stats = cache.stats()
        assert stats[result.source.name] == 1
        assert stats["total"] == 1

    def test_answer_many_counts(self, p_per, v2_bon):
        cache = RewritingCache(p_per)
        cache.materialize(v2_bon)
        cache.answer_many(
            [paper.q_bon(), parse_pattern("IT-personnel//person/name")]
        )
        stats = cache.stats()
        assert stats["SINGLE_VIEW"] == 1
        assert stats["DIRECT"] == 1
        assert stats["total"] == 2

    def test_answerable_not_counted(self, p_per, v2_bon):
        cache = RewritingCache(p_per)
        cache.materialize(v2_bon)
        cache.answerable(paper.q_bon())
        assert cache.stats()["total"] == 0
