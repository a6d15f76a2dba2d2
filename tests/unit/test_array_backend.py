"""Unit tests for the ``array`` numeric backend.

Covers its guarantees: engine passes agree with the exact backend,
supports past ``width_threshold`` escape to exact per-subtree evaluation
(and compose with float regions) on every path, the stacked session
pass answers whole batches as one lane group of per-lane rows shared by
lane class, the SQLite codec treats retired payload kinds as misses, and
the backend needs no numpy.
"""

import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

import repro
from repro.probability import (
    BACKENDS,
    ProbabilityError,
    get_backend,
    register_backend,
)
from repro.probability_array import ArrayBackend
from repro.prob import EvaluationEngine, QuerySession, query_answer
from repro.prob.stacked import _StackedGroup
from repro.prob.engine import (
    boolean_probability,
    candidate_sets,
    node_probability,
)
from repro.store import GATE_BLOCKED, InMemoryStore, SqliteStore, SubtreeKeyer
from repro.workloads import paper
from repro.workloads.synthetic import (
    batch_workload,
    random_pdocument,
    random_tree_pattern,
)

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9


def rel_close(exact, got) -> bool:
    """``got`` within 1e-9 relative of ``exact`` (answers or scalars)."""
    if isinstance(exact, dict):
        return set(got) == set(exact) and all(
            rel_close(value, got[n]) for n, value in exact.items()
        )
    return math.isclose(float(exact), float(got), rel_tol=TOLERANCE)


class TestRegistry:
    def test_array_backend_registered(self):
        assert "array" in BACKENDS
        backend = get_backend("array")
        assert isinstance(backend, ArrayBackend)

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(ProbabilityError, match="array"):
            get_backend("quantum")
        with pytest.raises(ProbabilityError, match="exact"):
            get_backend("quantum")

    def test_register_backend_round_trip(self):
        sentinel = ArrayBackend(width_threshold=7)
        register_backend(sentinel, "array-test-tmp")
        try:
            assert get_backend("array-test-tmp") is sentinel
        finally:
            del BACKENDS["array-test-tmp"]

    def test_to_fraction_recovers_clean_ratios(self):
        backend = ArrayBackend()
        assert backend.to_fraction(0.25) == Fraction(1, 4)
        # A repeating binary expansion must still round-trip the intended
        # decimal ratio (the FastBackend regression this PR generalizes).
        assert backend.to_fraction(0.1) == Fraction(1, 10)
        assert backend.to_fraction(Fraction(2, 3)) == Fraction(2, 3)

    def test_array_needs_no_numpy(self):
        # With the numpy import blocked, every array path still answers
        # within 1e-9 relative of exact.
        script = textwrap.dedent(
            """
            import math
            import sys

            sys.modules["numpy"] = None
            from repro.prob import QuerySession, query_answer
            from repro.workloads.synthetic import batch_workload

            def close(exact, got):
                return all(
                    math.isclose(float(v), float(got.get(n, 0.0)), rel_tol=1e-9)
                    for n, v in exact.items()
                ) and set(got) <= set(exact)

            p, queries = batch_workload(persons=8, projects=4, seed=8)
            q = queries[0]
            assert close(query_answer(p, q), query_answer(p, q, backend="array"))
            session = QuerySession(p, backend="array")
            got = session.answer_many(queries[:2])
            exact = QuerySession(p).answer_many(queries[:2])
            assert all(close(e, g) for e, g in zip(exact, got))
            items = [q, (q, {q.out: min(exact[0])})]
            got = session.boolean_many(items)
            for e, g in zip(QuerySession(p).boolean_many(items), got):
                assert math.isclose(float(e), float(g), rel_tol=1e-9)
            print("ok")
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


class TestEngineAgreement:
    def test_paper_examples_match_exact(self, p_per):
        for q in (paper.q_bon(), paper.q_rbon(), paper.v1_bon(), paper.v2_bon()):
            exact = query_answer(p_per, q)
            got = query_answer(p_per, q, backend="array")
            assert rel_close(exact, got)

    def test_boolean_and_node_probability(self, p_per):
        q = paper.q_rbon()
        exact = boolean_probability(p_per, q)
        got = boolean_probability(p_per, q, backend="array")
        assert rel_close(exact, got)
        exact_n = node_probability(p_per, q, 5)
        got_n = node_probability(p_per, q, 5, backend="array")
        assert rel_close(exact_n, got_n)

    def test_random_documents_match_exact(self):
        for seed in range(8):
            rng = random.Random(seed)
            p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
            q = random_tree_pattern(rng, labels=LABELS, mb_length=2)
            assert rel_close(
                query_answer(p, q), query_answer(p, q, backend="array")
            )


class TestWidthThresholdFallback:
    def test_fallback_fires_and_stays_exact(self):
        # query_answer runs an engine pass, QuerySession.answer and a
        # one-item boolean_many a lane group of width 1; all three apply
        # the engine's one escape rule and stay within 1e-9 of exact.
        def session_answer(p, q, backend):
            return QuerySession(p, backend=backend).answer(q)

        def session_boolean(p, q, backend):
            (value,) = QuerySession(p, backend=backend).boolean_many([q])
            return value

        for run, oracle in (
            (query_answer, query_answer),
            (session_answer, query_answer),
            (session_boolean, boolean_probability),
        ):
            backend = ArrayBackend(width_threshold=1)
            for seed in range(6):
                rng = random.Random(seed)
                p = random_pdocument(
                    rng, labels=LABELS, max_depth=4, max_children=3
                )
                q = random_tree_pattern(rng, labels=LABELS, mb_length=2)
                assert rel_close(oracle(p, q), run(p, q, backend=backend))
            assert backend.fallbacks > 0

    def test_live_lanes_escape_in_a_batch(self):
        # Candidate-bearing (live) rows escape like class rows: their
        # exact pins carry every answer up to an exact root readout.
        # Rows carry only live goal bits, so none here is wider than 2:
        # a threshold of 1 makes them escape.
        backend = ArrayBackend(width_threshold=1)
        p, queries = batch_workload(64, seed=1)
        got = QuerySession(p, backend=backend).answer_many(queries)
        assert backend.fallbacks > 0
        assert any(
            isinstance(value, Fraction)
            for answer in got
            for value in answer.values()
        )
        for q, answer in zip(queries, got):
            assert rel_close(query_answer(p, q), answer)

    def test_default_threshold_never_fires_on_small_documents(self):
        backend = ArrayBackend()
        rng = random.Random(3)
        p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
        q = random_tree_pattern(rng, labels=LABELS, mb_length=2)
        query_answer(p, q, backend=backend)
        assert backend.fallbacks == 0


class TestStackedSession:
    def test_answer_many_matches_exact_cold_and_warm(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        session = QuerySession(p, backend="array")
        for _ in range(3):  # cold, then plan-memoized warm repeats
            got = session.answer_many(queries)
            assert all(rel_close(e, g) for e, g in zip(expected, got))
        permuted = session.answer_many(list(reversed(queries)))
        assert all(rel_close(e, g) for e, g in zip(expected, reversed(permuted)))

    def test_warm_answers_are_fresh_copies(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        session = QuerySession(p, backend="array")
        first = session.answer_many(queries)
        first[0].clear()  # caller-side mutation must not poison the memo
        again = session.answer_many(queries)
        expected = [query_answer(p, q) for q in queries]
        assert all(rel_close(e, g) for e, g in zip(expected, again))

    def test_invalidate_drops_plan_memo(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        session = QuerySession(p, backend="array")
        session.answer_many(queries)
        session.invalidate()
        got = session.answer_many(queries)
        assert all(rel_close(e, g) for e, g in zip(expected, got))

    def test_boolean_many_plain_and_anchored(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        session = QuerySession(p, backend="array")
        items = []
        expected = []
        for q in queries:
            items.append(q)
            expected.append(float(boolean_probability(p, q)))
            candidates = sorted(query_answer(p, q))
            if candidates:
                items.append((q, {q.out: candidates[0]}))
                expected.append(float(node_probability(p, q, candidates[0])))
        for _ in range(2):  # cold + warm
            got = session.boolean_many(items)
            assert all(rel_close(e, g) for e, g in zip(expected, got))

    def test_boolean_memo_serves_warm_and_drops_on_invalidate(self):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        q = queries[0]
        items = [(q, {q.out: n}) for n in sorted(query_answer(p, q))]
        session = QuerySession(p, backend="array")
        first = session.boolean_many(items)
        walked = session.stats.traversals
        rebuilt = [(q, {q.out: n}) for n in sorted(query_answer(p, q))]
        again = session.boolean_many(rebuilt)  # fresh dicts, same content
        assert session.stats.traversals == walked  # memo hit, no pass
        assert [float(x) for x in again] == [float(x) for x in first]
        session.invalidate()
        fresh = session.boolean_many(items)
        assert session.stats.traversals == walked + 1  # memo dropped
        assert [float(x) for x in fresh] == [float(x) for x in first]

    def test_stacked_group_walks_like_the_classic_pass(self):
        # Both backends run their batches as one lane group of the same
        # walk: cold, and again from a warm store, both expand and skip
        # exactly the same subtrees.
        p, queries = batch_workload(persons=12, projects=4, seed=12)
        items = [(q, {q.out: 101}) for q in queries]
        walked = {}
        for backend in ("array", "exact"):
            store = InMemoryStore()
            counts = []
            for _ in range(2):  # cold, then a fresh session, warm store
                session = QuerySession(p, backend=backend, store=store)
                session.answer_many(queries)
                session.boolean_many(items)
                stats = session.stats
                counts.append((stats.node_visits, stats.subtree_skips))
            walked[backend] = counts
        assert walked["array"] == walked["exact"]
        assert walked["array"][1][0] < walked["array"][0][0]

    def test_width_fallback_inside_stacked_pass(self):
        backend = ArrayBackend(width_threshold=1)
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        got = QuerySession(p, backend=backend).answer_many(queries)
        assert backend.fallbacks > 0
        assert all(rel_close(e, g) for e, g in zip(expected, got))


class TestLaneClasses:
    @staticmethod
    def _is_exact(distribution) -> bool:
        return any(isinstance(v, Fraction) for v in distribution.values())

    def test_rows_above_an_escape_combine_exactly(self, monkeypatch):
        # The exact fallback stays exact upward: every row combined from
        # an escaped (Fraction) child row is itself a Fraction row.
        backend = ArrayBackend(width_threshold=1)
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        above = []
        row_step = EvaluationEngine.combine_row
        pinned = EvaluationEngine.combine_pinned
        is_exact = self._is_exact

        def spy_row(engine, node, memo, gate, exact_below=True):
            row = row_step(engine, node, memo, gate, exact_below)
            if any(is_exact(memo[c.node_id]) for c in node.children):
                above.append(row)
            return row

        def spy_pinned(
            engine, node, memo, candidate_set, exact_below=True, state=None
        ):
            entry = pinned(
                engine, node, memo, candidate_set, exact_below, state
            )
            if any(is_exact(memo[c.node_id][0]) for c in node.children):
                above.append(entry[0])
            return entry

        monkeypatch.setattr(EvaluationEngine, "combine_row", spy_row)
        monkeypatch.setattr(EvaluationEngine, "combine_pinned", spy_pinned)
        got = QuerySession(p, backend=backend).answer_many(queries)
        assert backend.fallbacks > 0
        assert above
        assert all(is_exact(row) for row in above)
        assert all(rel_close(e, g) for e, g in zip(expected, got))

    def test_interned_rows_keep_their_exactness(self, monkeypatch):
        # A narrow exact row above an escape can equal a float row of the
        # same pass (Fraction(1, 2) == 0.5, and both hash alike): the
        # pass's row intern table must not hand out one for the other.
        rng = random.Random(0)
        p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
        queries = [
            random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 3))
            for _ in range(3)
        ]
        above = []
        row = _StackedGroup._row
        is_exact = self._is_exact

        def spy(group, node, forms, lane, exact_below):
            result = row(group, node, forms, lane, exact_below)
            if any(is_exact(form.rows[lane]) for form in forms):
                above.append(result)
            return result

        monkeypatch.setattr(_StackedGroup, "_row", spy)
        backend = ArrayBackend(width_threshold=1)
        got = QuerySession(p, backend=backend).answer_many(queries)
        assert above
        assert all(is_exact(result) for result in above)
        expected = [query_answer(p, q) for q in queries]
        assert all(rel_close(e, g) for e, g in zip(expected, got))

    def test_one_blocked_combine_per_distinct_part(self, monkeypatch):
        # A cold pass combines each node's blocked rows once per lane
        # class: once per distinct non-neutral keyer part among the
        # lanes without a candidate below the node.
        p, queries = batch_workload(persons=16, projects=4, seed=3)
        expected = [query_answer(p, q) for q in queries]
        calls: Counter = Counter()
        single = EvaluationEngine._combine_single_gated

        def spy(engine, node, memo, gate):
            calls[node.node_id] += 1
            return single(engine, node, memo, gate)

        monkeypatch.setattr(EvaluationEngine, "_combine_single_gated", spy)
        session = QuerySession(p, backend="array")
        got = session.answer_many(queries)
        assert all(rel_close(e, g) for e, g in zip(expected, got))

        backend = session.backend
        labels = p.label_index()
        keyers = [
            SubtreeKeyer(p, EvaluationEngine(p, [q], backend=backend), backend)
            for q in queries
        ]
        lives = [p.ancestral_closure(cs) for cs in candidate_sets(p, queries)]
        lane_rows = 0
        parts_per_node = {}
        for node_id in calls:
            label_set = labels[node_id]
            parts = [
                keyer.token(node_id, label_set, GATE_BLOCKED)[0][1:4]
                for keyer, live in zip(keyers, lives)
                if node_id not in live and keyer.table_labels & label_set
            ]
            lane_rows += len(parts)
            parts_per_node[node_id] = len(set(parts))
        assert dict(calls) == parts_per_node
        assert sum(calls.values()) < lane_rows  # sharing happened


    def test_wide_root_combines_once_per_distinct_row(self, monkeypatch):
        # 1024 persons under one ordinary root: the lane group interns
        # the persons' rows, so each live lane's root combine works per
        # distinct row — its convolutions, and one readout per row group
        # holding candidates, with no per-candidate convolution or
        # rewrite — not per child: a prefix/suffix pass over the
        # children runs 2304 convolutions.
        p, queries = batch_workload(1024, seed=1)
        per_lane = []
        combine = EvaluationEngine._combine_ordinary_pinned

        class Counting:
            """The engine's ops, counting root kernels."""

            def __init__(self, ops):
                self.ops = ops
                self.readouts = self.rewrites = 0

            def readout(self, *args):
                self.readouts += 1
                return self.ops.readout(*args)

            def rewrite(self, *args):
                self.rewrites += 1
                return self.ops.rewrite(*args)

            def __getattr__(self, name):
                return getattr(self.ops, name)

        def spy(engine, node, state, changes, candidate_set):
            if node.parent is not None:
                return combine(engine, node, state, changes, candidate_set)
            calls = [0]
            convolve, ops = engine._convolve, engine._ops
            counting = engine._ops = Counting(ops)

            def counted(left, right):
                calls[0] += 1
                return convolve(left, right)

            engine._convolve = counted
            try:
                return combine(engine, node, state, changes, candidate_set)
            finally:
                engine._convolve, engine._ops = convolve, ops
                assert counting.rewrites == 1  # the blocked row only
                assert counting.readouts > 0
                per_lane.append(calls[0] + counting.readouts)

        monkeypatch.setattr(
            EvaluationEngine, "_combine_ordinary_pinned", spy
        )
        session = QuerySession(p, backend="array")
        got = session.answer_many(queries)
        assert len(per_lane) == len(queries)
        assert max(per_lane) <= 200
        sizes = [len(answer) for answer in got]
        assert min(sizes) > 0 and sum(sizes) <= 1024


class TestSqliteArrayCodec:
    KEY = ("digest" * 10, "fp" * 20, None, None, "array")

    def test_v3_lane_rows_payload_is_a_miss(self, tmp_path):
        # A file written when a lane group saved a whole batch under one
        # combined key holds v3 payloads (distinct rows plus a lane ->
        # row index).  Even under a key that is probed today, a reopened
        # store treats them as foreign: every probe misses and the batch
        # is recombined correctly.
        import sqlite3

        path = tmp_path / "memo.sqlite"
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        store = SqliteStore(path)
        QuerySession(p, backend="array", store=store).answer_many(queries)
        store.put(self.KEY, {0: 1.0}, weight=1)
        store.close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE memo SET payload = ?",
            ('{"v": 3, "r": [[[0, 0.5], [3, 0.5]], [[1, 1.0]]], '
             '"i": [0, 1, 0]}',),
        )
        conn.commit()
        conn.close()
        reopened = SqliteStore(path)
        assert reopened.get(self.KEY) is None
        assert reopened.misses == 1
        got = QuerySession(p, backend="array", store=reopened).answer_many(
            queries
        )
        assert all(rel_close(e, g) for e, g in zip(expected, got))
        # Nothing on disk served: the pass counts exactly as a cold one.
        cold = SqliteStore(tmp_path / "cold.sqlite")
        QuerySession(p, backend="array", store=cold).answer_many(queries)
        assert (reopened.hits, reopened.misses - 1) == (cold.hits, cold.misses)
        cold.close()
        reopened.close()

    def test_numpy_lane_group_payload_is_a_miss(self, tmp_path):
        # A file written by the retired numpy lane group holds v2 kind
        # "s" payloads: a reopened store treats them as foreign, so the
        # probe misses and the batch is recombined correctly.
        import sqlite3

        path = tmp_path / "memo.sqlite"
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        store = SqliteStore(path)
        QuerySession(p, backend="array", store=store).answer_many(queries)
        store.put(self.KEY, {0: 1.0}, weight=1)
        store.close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE memo SET payload = ?",
            ('{"v": 2, "k": "s", "m": [[0], [0]], "p": [[1.0], [1.0]]}',),
        )
        conn.commit()
        conn.close()
        reopened = SqliteStore(path)
        assert reopened.get(self.KEY) is None
        assert reopened.misses == 1
        got = QuerySession(p, backend="array", store=reopened).answer_many(
            queries
        )
        assert all(rel_close(e, g) for e, g in zip(expected, got))
        # Nothing on disk served: the pass counts exactly as a cold one.
        cold = SqliteStore(tmp_path / "cold.sqlite")
        QuerySession(p, backend="array", store=cold).answer_many(queries)
        assert (reopened.hits, reopened.misses - 1) == (cold.hits, cold.misses)
        cold.close()
        reopened.close()

    def test_v2_array_payload_is_a_miss(self, tmp_path):
        # A file written before the array backend dropped numpy holds v2
        # kind "a" payloads: a reopened store treats them as foreign, so
        # the probe misses and the query is answered correctly.
        import sqlite3

        path = tmp_path / "memo.sqlite"
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        q = queries[0]
        expected = query_answer(p, q)
        store = SqliteStore(path)
        QuerySession(p, backend="array", store=store).answer(q)
        store.put(self.KEY, {0: 1.0}, weight=1)
        store.close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE memo SET payload = ?",
            ('{"v": 2, "k": "a", "m": [0], "p": [1.0]}',),
        )
        conn.commit()
        conn.close()
        reopened = SqliteStore(path)
        assert reopened.get(self.KEY) is None
        assert reopened.misses == 1
        got = QuerySession(p, backend="array", store=reopened).answer(q)
        assert rel_close(expected, got)
        # Nothing on disk served: the pass counts exactly as a cold one.
        cold = SqliteStore(tmp_path / "cold.sqlite")
        QuerySession(p, backend="array", store=cold).answer(q)
        assert (reopened.hits, reopened.misses - 1) == (cold.hits, cold.misses)
        cold.close()
        reopened.close()

    def test_warm_session_from_disk(self, tmp_path):
        p, queries = batch_workload(persons=8, projects=4, seed=8)
        expected = [query_answer(p, q) for q in queries]
        path = tmp_path / "memo.sqlite"
        store = SqliteStore(path)
        QuerySession(p, backend="array", store=store).answer_many(queries)
        store.close()
        reopened = SqliteStore(path)
        got = QuerySession(p, backend="array", store=reopened).answer_many(
            queries
        )
        assert reopened.hits > 0
        assert all(rel_close(e, g) for e, g in zip(expected, got))
        reopened.close()
