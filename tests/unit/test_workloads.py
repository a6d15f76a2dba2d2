"""Unit tests for the workload generators."""

from repro.prob import query_answer
from repro.pxml import enumerate_worlds
from repro.tp import evaluate as evaluate_deterministic
from repro.workloads import paper
from repro.workloads.hypergraph import (
    Hypergraph,
    has_perfect_matching,
    matching_hypergraph,
    random_hypergraph,
    reduction_query,
    reduction_views,
)
from repro.workloads.synthetic import (
    adversarial_intersection,
    batch_workload,
    chain_query,
    churn_workload,
    personnel_pdocument,
    personnel_query,
    personnel_views,
    prefix_views,
    random_pdocument,
    random_tree_pattern,
)


class TestPaperFixtures:
    def test_dper_is_world_of_pper(self):
        worlds = {w.canonical_key() for w, _ in enumerate_worlds(paper.p_per())}
        assert paper.d_per().canonical_key() in worlds

    def test_example12_family_parametric(self):
        from fractions import Fraction
        from repro.prob import node_probability

        p = paper.example12_family("0.5", "0.5", "0.5")
        got = node_probability(p, paper.example12_query(), 12)
        assert got == Fraction(1, 2) * Fraction(3, 4)


class TestHypergraph:
    def test_matching_construction(self):
        h = matching_hypergraph(k=3, groups=2, extra_edges=2, seed=1)
        assert h.s == 6 and h.k == 3
        assert has_perfect_matching(h)

    def test_reference_solver_negative(self):
        h = Hypergraph(4, (frozenset({1, 2}), frozenset({2, 3})))
        assert not has_perfect_matching(h)

    def test_reduction_shapes(self):
        h = matching_hypergraph(k=2, groups=2, seed=0)
        q = reduction_query(h)
        assert q.main_branch_length() == h.s + 1
        views = reduction_views(h)
        assert len(views) == len(h.edges)
        for view in views:
            assert view.pattern.main_branch_length() == h.s + 1

    def test_random_hypergraph_uniform(self):
        h = random_hypergraph(k=3, s=9, m=5, seed=2)
        assert all(len(e) == 3 for e in h.edges)


class TestSynthetic:
    def test_random_pdocument_valid(self, rng):
        for _ in range(10):
            p = random_pdocument(rng)
            total = sum(pr for _, pr in enumerate_worlds(p))
            assert total == 1

    def test_random_tree_pattern_shape(self, rng):
        q = random_tree_pattern(rng, mb_length=4)
        assert q.main_branch_length() == 4

    def test_prefix_views_satisfy_fact1(self):
        from repro.rewrite import fact1_holds

        q = chain_query(4)
        for view in prefix_views(q):
            assert fact1_holds(q, view.pattern)

    def test_personnel_family(self):
        p = personnel_pdocument(persons=4, projects=2, seed=1)
        q = personnel_query()
        answer = query_answer(p, q)
        assert all(0 < pr <= 1 for pr in answer.values())
        for view in personnel_views():
            assert view.pattern.root_label() == "IT-personnel"

    def test_personnel_query_selects_bonus_nodes(self):
        p = personnel_pdocument(persons=3, projects=2, seed=5)
        world = p.max_world()
        selected = evaluate_deterministic(personnel_views()[1].pattern, world)
        assert selected == {100 * i + 1 for i in (1, 2, 3)}

    def test_personnel_ids_never_collide_past_ten_thousand_persons(self):
        # Person i is 100·i and its bonus 100·i + 1; the other nodes
        # count up from 10^6 and skip those, which 10^4 persons reach.
        p = personnel_pdocument(10_000, projects=1)
        ids = [n.node_id for n in p.root.iter_subtree()]
        assert len(ids) == len(set(ids))
        assert p.node(1_000_000).label == "person"
        assert p.node(1_000_001).label == "bonus"

    def test_batch_workload_ids_are_unchanged_below_ten_thousand(self):
        # Captured before the generators skipped person and bonus Ids:
        # documents below 10^4 persons keep every Id.
        p, _ = batch_workload(1024, seed=1)
        assert p.identity_digest() == "09f4a4d722baf296275d54716f4af580"

    def test_adversarial_family(self):
        patterns = adversarial_intersection(3)
        assert len(patterns) == 3
        assert patterns[0].root_label() == "a"

    def test_churn_workload_shape_and_epochs(self):
        p, steps = churn_workload(persons=3, projects=2, rounds=2, seed=4)
        kinds = [kind for kind, _ in steps]
        assert kinds[0] == "queries"
        assert kinds.count("mutate") == 4 and kinds.count("queries") == 5
        digest_before = p.document_digest
        epoch_before = p.mutation_epoch
        for kind, payload in steps:
            if kind == "mutate":
                payload()
        assert p.mutation_epoch == epoch_before + 4
        # probability scaling and amount relabels both alter the digest
        assert p.document_digest != digest_before

    def test_churn_queries_stay_answerable_after_mutations(self):
        p, steps = churn_workload(persons=3, projects=2, rounds=1, seed=9)
        answers = None
        for kind, payload in steps:
            if kind == "mutate":
                payload()
            else:
                answers = [query_answer(p, q) for q in payload]
        assert answers is not None
        assert all(0 <= pr <= 1 for a in answers for pr in a.values())
