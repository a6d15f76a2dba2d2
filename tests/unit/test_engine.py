"""Unit tests for the single-pass evaluation engine.

Covers the three engine pillars — one DP traversal for all candidates,
interned bitmask goal sets behind the classic semantics, and pluggable
numeric backends — plus the stable anchoring API.
"""

from fractions import Fraction

import pytest

from repro.errors import PatternError, ProbabilityError
from repro.probability import (
    BACKENDS,
    ExactBackend,
    FastBackend,
    get_backend,
)
from repro.prob import (
    EvaluationEngine,
    ProbEvaluator,
    brute_force_boolean_probability,
    brute_force_query_answer,
    node_probability,
    query_answer,
)
from repro.prob.engine import (
    boolean_probability,
    intersection_answer,
    normalize_anchors,
)
from repro.pxml import ind, mux, ordinary, pdoc
from repro.tp import parse_pattern
from repro.workloads import paper
from repro.workloads.synthetic import personnel_pdocument, personnel_query


def relevant_nodes(p, table_labels) -> int:
    """Nodes whose subtree holds a goal-table label — exactly what one
    store-less DP walk combines (query-neutral subtrees are skipped)."""
    return sum(1 for labels in p.label_index().values() if labels & table_labels)


class TestSingleTraversal:
    """The acceptance criterion: one DP traversal regardless of answer size."""

    def test_one_visit_per_node_on_scaling_workload(self):
        p = personnel_pdocument(persons=12, projects=3, seed=7)
        q = personnel_query("project0")
        engine = EvaluationEngine(p, [q])
        candidates = engine.candidate_ids()
        assert len(candidates) > 1  # several answers, still one traversal
        answer = engine.answer(candidates)
        assert engine.visits == relevant_nodes(p, engine.table_labels)
        expected = {
            n: pr
            for n in sorted(candidates)
            if (pr := node_probability(p, q, n)) > 0
        }
        assert answer == expected

    def test_visits_independent_of_candidate_count(self):
        # Twice the persons → more candidates, but visits stay at most
        # one per node.
        for persons in (4, 16):
            p = personnel_pdocument(persons=persons, projects=3, seed=persons)
            q = personnel_query("project0")
            stats: dict = {}
            query_answer(p, q, stats=stats)
            assert stats["candidates"] > 1
            assert stats["node_visits"] == relevant_nodes(
                p, EvaluationEngine(p, [q]).table_labels
            )

    def test_query_answer_stats_instrumentation(self, p_per):
        stats: dict = {}
        answer = query_answer(p_per, paper.v2_bon(), stats=stats)
        assert answer == {5: Fraction(1), 7: Fraction(1)}
        assert stats["candidates"] == 2
        assert stats["node_visits"] == relevant_nodes(
            p_per, EvaluationEngine(p_per, [paper.v2_bon()]).table_labels
        )

    def test_intersection_single_pass(self, p_per):
        stats: dict = {}
        patterns = [
            paper.v1_bon(), parse_pattern("IT-personnel//person/bonus[laptop]")
        ]
        answer = intersection_answer(p_per, patterns, stats=stats)
        assert answer == {5: Fraction(27, 40)}
        assert stats["node_visits"] == relevant_nodes(
            p_per, EvaluationEngine(p_per, patterns).table_labels
        )

    def test_empty_candidate_set_skips_dp(self, p_per):
        engine = EvaluationEngine(p_per, [parse_pattern("nosuchlabel")])
        assert engine.answer() == {}
        assert engine.visits == 0


class TestPinnedCombinators:
    """The blocked/pinned recombination at each p-document node kind."""

    def test_candidates_below_mux(self):
        p = pdoc(
            ordinary(0, "a",
                     mux(1,
                         (ordinary(2, "b", ordinary(3, "c")), "0.4"),
                         (ordinary(4, "b"), "0.5")))
        )
        q = parse_pattern("a/b")
        assert query_answer(p, q) == brute_force_query_answer(p, q)
        both = parse_pattern("a/b[c]")
        assert query_answer(p, both) == brute_force_query_answer(p, both)

    def test_candidates_below_ind(self):
        p = pdoc(
            ordinary(0, "a",
                     ind(1,
                         (ordinary(2, "b"), "0.5"),
                         (ordinary(3, "b", ordinary(4, "c")), "0.25"),
                         (ordinary(5, "b"), "1")))
        )
        q = parse_pattern("a/b")
        assert query_answer(p, q) == brute_force_query_answer(p, q)

    def test_candidate_with_candidate_descendants(self):
        # b-nodes nested below other b-nodes: pinning at the ancestor must
        # not let the descendant's match leak into the anchored run.
        p = pdoc(
            ordinary(0, "a",
                     ordinary(1, "b",
                              ind(2, (ordinary(3, "b"), "0.5"))))
        )
        q = parse_pattern("a//b")
        assert query_answer(p, q) == brute_force_query_answer(p, q)

    def test_nested_distributional_chain(self):
        p = pdoc(
            ordinary(0, "a",
                     mux(1,
                         (ind(2,
                              (ordinary(3, "b", ordinary(4, "c")), "0.5"),
                              (ordinary(5, "b"), "0.5")), "0.8")))
        )
        q = parse_pattern("a/b")
        assert query_answer(p, q) == brute_force_query_answer(p, q)


class TestBackends:
    def test_registry(self):
        assert {"exact", "fast", "array"} <= set(BACKENDS)
        assert get_backend("exact") is BACKENDS["exact"]
        backend = FastBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ProbabilityError):
            get_backend("quantum")
        with pytest.raises(ProbabilityError):
            get_backend(42)

    def test_exact_is_default_and_bit_exact(self, p_per):
        answer = query_answer(p_per, paper.q_rbon())
        assert answer == {5: Fraction(27, 40)}
        assert all(isinstance(v, Fraction) for v in answer.values())

    def test_fast_agrees_on_paper_examples(self, p_per):
        for q in (paper.q_bon(), paper.q_rbon(), paper.v1_bon(), paper.v2_bon()):
            exact = query_answer(p_per, q)
            fast = query_answer(p_per, q, backend="fast")
            assert set(fast) == set(exact)
            for node_id, value in exact.items():
                assert isinstance(fast[node_id], float)
                assert abs(fast[node_id] - float(value)) < 1e-9

    def test_fast_boolean_probability(self, p_per):
        exact = boolean_probability(p_per, paper.q_bon())
        fast = boolean_probability(p_per, paper.q_bon(), backend="fast")
        assert abs(fast - float(exact)) < 1e-9

    def test_backend_conversions(self):
        assert ExactBackend().convert(0.1) == Fraction(1, 10)
        assert FastBackend().convert(Fraction(1, 4)) == 0.25
        assert FastBackend().to_fraction(0.25) == Fraction(1, 4)


class TestStableAnchors:
    def test_anchor_by_pattern_node(self, p_per):
        q = paper.v2_bon()
        engine = EvaluationEngine(p_per, [q], {q.out: 5})
        assert engine.match_probability() == Fraction(1)

    def test_anchor_by_bare_path(self, p_per):
        # path_to output anchors directly in single-pattern evaluation
        q = paper.v2_bon()
        engine = EvaluationEngine(p_per, [q], {q.path_to(q.out): 4})
        assert engine.match_probability() == Fraction(0)  # 4 is a name node
        engine = EvaluationEngine(p_per, [q], {q.path_to(q.out): 5})
        assert engine.match_probability() == Fraction(1)

    def test_anchor_by_indexed_path(self, p_per):
        q1, q2 = paper.v1_bon(), paper.v2_bon()
        engine = EvaluationEngine(
            p_per, [q1, q2], {(1, q2.path_to(q2.out)): 5}
        )
        assert engine.match_probability() == Fraction(3, 4)

    def test_bare_path_resolves_deep_node_not_prefix(self, p_per):
        # A bare (0, 0) path must mean root→child0→child0, never be
        # misread as (pattern_index=0, path=(0,)).
        q = paper.q_rbon()  # IT-personnel//person[name/Rick]/bonus[laptop]
        deep = q.node_at((0, 0))
        assert q.path_to(deep) == (0, 0)
        engine = EvaluationEngine(p_per, [q], {q.path_to(deep): 99})
        assert id(deep) in engine.anchors
        assert engine.anchors[id(deep)] == frozenset({99})

    def test_paths_survive_copies(self):
        q = parse_pattern("a/b[c]/d")
        path = q.path_to(q.out)
        copy = q.copy()
        assert copy.node_at(path).label == q.out.label
        assert copy.node_at(path) is copy.out

    def test_legacy_id_anchors_still_accepted(self, p_per):
        q = paper.v2_bon()
        assert ProbEvaluator(
            p_per, [q], {id(q.out): 5}
        ).all_match_probability() == Fraction(1)

    def test_foreign_keys_rejected(self, p_per):
        q = paper.v2_bon()
        stranger = parse_pattern("a/b")
        with pytest.raises(PatternError):
            normalize_anchors([q], {stranger.out: 5})
        with pytest.raises(PatternError):
            normalize_anchors([q], {123456789: 5})  # not an id() of q's nodes
        with pytest.raises(PatternError):
            normalize_anchors([q], {"out": 5})

    def test_bad_path_rejected(self):
        q = parse_pattern("a/b")
        with pytest.raises(PatternError):
            normalize_anchors([q], {(0, 7): 5})  # no such child
        with pytest.raises(PatternError):
            normalize_anchors([q], {(3, (0,)): 5})  # no pattern with index 3
        with pytest.raises(PatternError):
            normalize_anchors([q], {(0, "out"): 5})  # malformed path
        with pytest.raises(PatternError):
            # bare paths are ambiguous over several patterns
            normalize_anchors([q, parse_pattern("a/b")], {(0,): 5})
        with pytest.raises(PatternError):
            q.path_to(parse_pattern("a").root)  # node of another pattern

    def test_brute_force_accepts_stable_anchors(self):
        p = pdoc(ordinary(0, "a", ind(1, (ordinary(2, "b"), "0.5"))))
        q = parse_pattern("a/b")
        assert brute_force_boolean_probability(p, q, {q.out: 2}) == Fraction(1, 2)


class TestShimCompatibility:
    def test_prob_evaluator_matches_engine(self, p_per):
        q = paper.q_bon()
        shim = ProbEvaluator(p_per, [q], {id(q.out): 5})
        engine = EvaluationEngine(p_per, [q], {q.out: 5})
        assert shim.all_match_probability() == engine.match_probability()

    def test_goal_ids_exposed(self, p_per):
        q = paper.q_bon()
        shim = ProbEvaluator(p_per, [q])
        assert shim.a_goal(q.root) == shim.d_goal(q.root) + 1


class TestAnchorSets:
    """Anchor targets may be sets of admissible document node Ids."""

    def test_set_target_matches_any_member(self, p_per):
        q = paper.v2_bon()
        either = EvaluationEngine(p_per, [q], {q.out: (5, 7)})
        assert either.match_probability() == Fraction(1)
        neither = EvaluationEngine(p_per, [q], {q.out: (4,)})
        assert neither.match_probability() == Fraction(0)

    def test_empty_target_pins_to_nothing(self, p_per):
        q = paper.v2_bon()
        engine = EvaluationEngine(p_per, [q], {q.out: ()})
        assert engine.match_probability() == Fraction(0)

    def test_set_target_equals_disjunction_of_scalars(self, p_per):
        # Pr(out -> {a, b}) = Pr(out -> a) + Pr(out -> b) only absent
        # correlation; here just check it lies between max and sum, and
        # equals the brute-force Boolean with the same set anchor.
        q = paper.q_bon()
        joint = EvaluationEngine(p_per, [q], {q.out: (5, 7)}).match_probability()
        singles = [
            EvaluationEngine(p_per, [q], {q.out: n}).match_probability()
            for n in (5, 7)
        ]
        assert max(singles) <= joint <= sum(singles)
        assert joint == brute_force_boolean_probability(p_per, q, {q.out: (5, 7)})

    def test_non_iterable_target_rejected(self, p_per):
        q = paper.q_bon()
        with pytest.raises(PatternError):
            normalize_anchors([q], {q.out: object()})

    def test_string_target_is_a_scalar_not_an_iterable(self, p_per):
        # "12" must anchor to node 12 (the legacy int() coercion), never
        # be iterated into nodes 1 and 2.
        q = paper.q_bon()
        assert normalize_anchors([q], {q.out: "12"}) == {
            id(q.out): frozenset({12})
        }
        with pytest.raises(PatternError):
            normalize_anchors([q], {q.out: "bonus"})

    def test_fingerprint_abstracts_anchor_values(self, p_per):
        # Same query, different anchors: identical abstract fingerprint,
        # different target tuples — the store key separates them via
        # canonical positions, not via the table.
        q = paper.q_bon()
        e5 = EvaluationEngine(p_per, [q], {q.out: 5})
        e7 = EvaluationEngine(p_per, [q], {q.out: 7})
        t5, out5, a5 = e5.goal_table_fingerprint(e5.table_labels)
        t7, out7, a7 = e7.goal_table_fingerprint(e7.table_labels)
        assert t5 == t7 and out5 == out7
        assert a5 == ((5,),) and a7 == ((7,),)


class TestUnitFastPaths:
    def test_mixture_returns_unit_operand_unchanged(self, p_per):
        engine = EvaluationEngine(p_per, [paper.q_bon()])
        unit = {0: Fraction(1)}
        assert engine._mixture(Fraction(1, 2), unit) is unit
        other = {0: Fraction(1, 2), 3: Fraction(1, 2)}
        assert engine._mixture(Fraction(1), other) is other

    def test_mixture_still_mixes_non_unit(self, p_per):
        engine = EvaluationEngine(p_per, [paper.q_bon()])
        mixed = engine._mixture(Fraction(1, 4), {3: Fraction(1)})
        assert mixed == {0: Fraction(3, 4), 3: Fraction(1, 4)}

    def test_convolve_unit_short_circuit(self, p_per):
        engine = EvaluationEngine(p_per, [paper.q_bon()])
        unit = {0: Fraction(1)}
        other = {0: Fraction(1, 2), 3: Fraction(1, 2)}
        assert engine._convolve(unit, other) is other
        assert engine._convolve(other, unit) is other
