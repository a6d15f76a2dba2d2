"""Unit tests for TPrewrite (Figure 6) and single-view plans (§4)."""

from fractions import Fraction

import pytest

from repro.errors import RewritingError
from repro.prob import query_answer
from repro.rewrite import (
    fact1_holds,
    fact1_reformulation_holds,
    find_deterministic_tp_rewriting,
    probabilistic_tp_plan,
    tp_rewrite,
)
from repro.tp import parse_pattern
from repro.views import View, probabilistic_extension
from repro.workloads import paper


class TestFact1:
    def test_paper_instance(self):
        assert fact1_holds(paper.q_rbon(), paper.v1_bon())

    def test_example11_instance(self):
        assert fact1_holds(paper.example11_query(), paper.example11_view())

    def test_negative_wrong_out_label(self):
        # No main-branch node of q at the view's output depth carries "name".
        assert not fact1_holds(paper.q_rbon(), parse_pattern("IT-personnel//name"))

    def test_bare_prefix_view_still_rewrites(self):
        # IT-personnel//person *does* rewrite q_RBON: the compensation
        # re-adds every predicate below depth 2.
        assert fact1_holds(paper.q_rbon(), parse_pattern("IT-personnel//person"))

    def test_negative_view_too_weak(self):
        # The view loses [name/Rick] above the compensation depth.
        q = paper.q_rbon()
        v = parse_pattern("IT-personnel//person/bonus")
        # comp(v, bonus[laptop]) = qBON ≢ qRBON.
        assert not fact1_holds(q, v) or q == paper.q_bon()

    def test_view_longer_than_query(self):
        assert not fact1_holds(parse_pattern("a/b"), parse_pattern("a/b/c"))

    def test_reformulation_agrees(self):
        cases = [
            (paper.q_rbon(), paper.v1_bon()),
            (paper.q_rbon(), paper.v2_bon()),
            (paper.q_bon(), paper.v2_bon()),
            (paper.q_bon(), paper.v1_bon()),
            (paper.example11_query(), paper.example11_view()),
            (paper.example12_query(), paper.example12_view()),
        ]
        for q, v in cases:
            assert fact1_holds(q, v) == fact1_reformulation_holds(q, v)

    def test_find_deterministic(self):
        views = [View("v1", paper.v1_bon()), View("v2", paper.v2_bon())]
        found = find_deterministic_tp_rewriting(paper.q_rbon(), views)
        assert found is not None and found.name == "v1"


class TestTPrewriteDecision:
    def test_example13_restricted_plan(self):
        plan = probabilistic_tp_plan(paper.q_bon(), View("v2BON", paper.v2_bon()))
        assert plan is not None and plan.restricted
        assert plan.k == 3

    def test_example11_no_probabilistic_plan(self):
        """Deterministic rewriting exists but f_r does not (Prop. 3)."""
        plan = probabilistic_tp_plan(
            paper.example11_query(), View("v", paper.example11_view())
        )
        assert plan is None

    def test_example12_no_probabilistic_plan(self):
        """Theorem 2's u-condition fails: [e] sits on the first token node."""
        plan = probabilistic_tp_plan(
            paper.example12_query(), View("v", paper.example12_view())
        )
        assert plan is None

    def test_example12_variant_without_predicate_has_plan(self):
        """Dropping [e] from the view makes Theorem 2 applicable."""
        q = parse_pattern("a//b/c/b/c//d")
        v = View("v", parse_pattern("a//b/c/b/c"))
        plan = probabilistic_tp_plan(q, v)
        assert plan is not None and not plan.restricted
        assert plan.u == 2

    def test_tp_rewrite_collects_all(self):
        # v2BON loses [name/Rick] above its output depth, so it cannot
        # single-view-rewrite q_RBON (that is what Example 15's intersection
        # is for); only v1BON yields a plan.
        views = [
            View("v1", paper.v1_bon()),
            View("v2", paper.v2_bon()),
            View("bad", parse_pattern("IT-personnel//name")),
        ]
        plans = tp_rewrite(paper.q_rbon(), views)
        assert {p.view.name for p in plans} == {"v1"}

    def test_tp_rewrite_collects_several(self):
        # For q_BON both views are usable (prefix views always are).
        views = [View("v2", paper.v2_bon()), View("self", paper.q_bon())]
        plans = tp_rewrite(paper.q_bon(), views)
        assert {p.view.name for p in plans} == {"v2", "self"}


class TestPlanEvaluation:
    def test_example13_probability(self, p_per, v2_bon, ext_v2):
        plan = probabilistic_tp_plan(paper.q_bon(), v2_bon)
        assert plan.fr(ext_v2, 5) == Fraction(9, 10)
        assert plan.fr(ext_v2, 7) == 0

    def test_full_answer_matches_direct(self, p_per, ext_v1, v1_bon):
        plan = probabilistic_tp_plan(paper.q_rbon(), v1_bon)
        assert plan.evaluate(ext_v1) == query_answer(p_per, paper.q_rbon())

    def test_wrong_extension_rejected(self, ext_v1, v2_bon):
        plan = probabilistic_tp_plan(paper.q_bon(), v2_bon)
        with pytest.raises(RewritingError):
            plan.fr(ext_v1, 5)

    def test_view_with_output_predicates(self):
        """Theorem 1's division by Pr(n_a ∈ v_(k)) at work."""
        from repro.pxml import ind, ordinary, pdoc

        p = pdoc(ordinary(0, "a",
                          ordinary(1, "b",
                                   ind(2, (ordinary(3, "c"), "0.5")),
                                   ind(4, (ordinary(5, "d"), "0.25")))))
        q = parse_pattern("a/b[c][d]")
        v = View("v", parse_pattern("a/b[c]"))
        plan = probabilistic_tp_plan(q, v)
        assert plan is not None
        ext = probabilistic_extension(p, v)
        assert ext.selection == {1: Fraction(1, 2)}
        assert plan.evaluate(ext) == query_answer(p, q)


class TestPlanReuseAcrossExtensions:
    """A plan's per-extension caches must never leak between extensions
    of the same view over different documents (regression test)."""

    def test_restricted_plan_reused_on_second_extension(self):
        from repro.pxml import ind, ordinary, pdoc

        q = parse_pattern("a/b[c]/d")
        view = View("v", parse_pattern("a/b[c]"))
        plan = probabilistic_tp_plan(q, view)
        assert plan is not None

        def doc(c_probability):
            return pdoc(
                ordinary(0, "a",
                         ordinary(1, "b",
                                  ind(2, (ordinary(3, "c"), c_probability)),
                                  ordinary(5, "d")))
            )

        p1, p2 = doc("0.5"), doc("0.25")
        ext1 = probabilistic_extension(p1, view)
        ext2 = probabilistic_extension(p2, view)
        # Same plan object against both extensions, both orders.
        assert plan.evaluate(ext1) == query_answer(p1, q)
        assert plan.evaluate(ext2) == query_answer(p2, q)
        assert plan.evaluate(ext1) == query_answer(p1, q)

    def test_evaluate_rejects_foreign_extension(self):
        q = parse_pattern("a/b[c]/d")
        plan = probabilistic_tp_plan(q, View("v", parse_pattern("a/b[c]")))
        assert plan is not None
        from repro.pxml import ordinary, pdoc

        p = pdoc(ordinary(0, "a", ordinary(1, "b", ordinary(2, "c"),
                                           ordinary(3, "d"))))
        other = probabilistic_extension(p, View("w", parse_pattern("a/b")))
        with pytest.raises(RewritingError):
            plan.evaluate(other)
        with pytest.raises(RewritingError):
            plan.fr(other, 3)

    def test_evaluate_rejects_mismatched_session(self):
        from repro.prob import QuerySession
        from repro.pxml import ordinary, pdoc

        q = parse_pattern("a/b[c]/d")
        view = View("v", parse_pattern("a/b[c]"))
        plan = probabilistic_tp_plan(q, view)
        p = pdoc(ordinary(0, "a", ordinary(1, "b", ordinary(2, "c"),
                                           ordinary(3, "d"))))
        ext = probabilistic_extension(p, view)
        base_session = QuerySession(p)  # base document, not the extension
        with pytest.raises(RewritingError):
            plan.evaluate(ext, session=base_session)

    def test_unrestricted_plan_reused_on_second_extension(self):
        import random

        from repro.workloads.synthetic import random_pdocument

        q = parse_pattern("a//b/c//d")
        view = View("v", parse_pattern("a//b/c"))
        plan = probabilistic_tp_plan(q, view)
        assert plan is not None and not plan.restricted
        rng = random.Random(5)
        documents = [
            random_pdocument(rng, labels=("a", "b", "c", "d"),
                             max_depth=5, max_children=2)
            for _ in range(3)
        ]
        for p in documents:
            ext = probabilistic_extension(p, view)
            assert plan.evaluate(ext) == query_answer(p, q)


class TestRestrictedOnePass:
    """Theorem 1 over a whole extension is one pinned session pass."""

    @pytest.mark.parametrize("backend", ["exact", "array"])
    def test_tiny_copy_probability_survives(self, backend):
        """An answer of probability 1e-20 must not round away: the copy
        union is ``acc + p − acc·p``, never ``1 − Π(1 − p)``."""
        from repro.pxml import mux, ordinary, pdoc
        from repro.workloads.synthetic import personnel_query, personnel_views

        p = pdoc(
            ordinary(1, "IT-personnel",
                     ordinary(100, "person",
                              ordinary(2, "name", ordinary(3, "Rick")),
                              ordinary(101, "bonus",
                                       mux(4, (ordinary(5, "project0"),
                                               "1e-20"))))))
        q = personnel_query("project0")
        view = personnel_views()[0]
        plan = probabilistic_tp_plan(q, view, backend=backend)
        assert plan is not None and plan.restricted
        got = plan.evaluate(probabilistic_extension(p, view, backend=backend))
        assert set(got) == {101}
        if backend == "exact":
            assert got[101] == Fraction(1, 10**20)
        else:
            assert got[101] == pytest.approx(1e-20, rel=1e-9)

    @pytest.mark.parametrize("persons", [2, 12])
    def test_one_traversal_and_no_subdocument_sessions(
        self, persons, monkeypatch
    ):
        import repro.rewrite.plans as plans
        from repro.prob import QuerySession
        from repro.workloads.synthetic import (
            personnel_pdocument,
            personnel_query,
            personnel_views,
        )

        p = personnel_pdocument(persons=persons, projects=3, seed=persons)
        q = personnel_query("project0")
        view = personnel_views()[0]
        plan = probabilistic_tp_plan(q, view)
        ext = probabilistic_extension(p, view)
        session = QuerySession(ext.pdocument)

        def no_session(*args, **kwargs):
            raise AssertionError("restricted evaluate opened a session")

        monkeypatch.setattr(plans, "QuerySession", no_session)
        monkeypatch.setattr(ext, "result_subdocument", no_session)
        answer = plan.evaluate(ext, session=session)
        assert answer == query_answer(p, q)
        assert len(answer) >= 1
        assert session.stats.traversals == 1
