"""Unit tests for view extensions (deterministic and probabilistic, §3.1).

Extensions are Id-free: original identity is recorded in a provenance
side table, never as ``Id(n)`` marker nodes in the tree.
"""

from fractions import Fraction

import pytest

from repro.errors import ProbabilityError
from repro.prob import boolean_probability
from repro.pxml.builder import ind, ordinary, pdoc
from repro.tp import Axis, PatternNode, parse_pattern
from repro.tp.embedding import evaluate
from repro.views import (
    View,
    deterministic_extension,
    parse_marker_label,
    probabilistic_extension,
)
from repro.workloads import paper


class TestLegacyMarkerShim:
    def test_roundtrip(self):
        assert parse_marker_label("Id(42)") == 42

    def test_non_marker(self):
        assert parse_marker_label("bonus") is None
        assert parse_marker_label("Id(x)") is None

    def test_marker_pattern_matches_nothing(self, ext_v2):
        # A pre-Id-free pattern pinned its output through an Id(n) child;
        # Id-free extensions hold no such node.
        qr = parse_pattern("doc(v2BON)/bonus[laptop]")
        qr.out.add_child(PatternNode("Id(5)", Axis.CHILD))
        assert boolean_probability(ext_v2.pdocument, qr) == 0

    def test_parse_is_a_silent_decode_shim(self, recwarn):
        assert parse_marker_label("Id(3)") == 3
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestDeterministicExtension:
    def test_figure4_left(self, d_per, v1_bon):
        ext = deterministic_extension(d_per, v1_bon)
        assert ext.document.name == "doc(v1BON)"
        assert list(ext.subtree_roots) == [5]
        # The bonus subtree: laptop(44, 50) and pda(50) — and nothing else.
        labels = {n.label for n in ext.document.nodes()}
        assert {"laptop", "pda", "44", "50"} <= labels
        assert not any(parse_marker_label(label) is not None for label in labels)

    def test_provenance_maps_selected_root(self, d_per, v1_bon):
        ext = deterministic_extension(d_per, v1_bon)
        assert ext.provenance.copies_of(5) == (ext.subtree_roots[5],)
        assert ext.provenance.original_of(ext.subtree_roots[5]) == 5
        assert ext.provenance.holder_of(ext.subtree_roots[5]) == 5

    def test_v2_has_two_subtrees(self, d_per, v2_bon):
        ext = deterministic_extension(d_per, v2_bon)
        assert sorted(ext.subtree_roots) == [5, 7]

    def test_fresh_ids_are_disjoint_from_original(self, d_per, v1_bon):
        ext = deterministic_extension(d_per, v1_bon)
        # Copy semantics: Ids are fresh (sequential), original identity only
        # through the provenance table.
        assert ext.document.node(ext.subtree_roots[5]).label == "bonus"

    def test_queryable_through_doc_label(self, d_per, v1_bon):
        ext = deterministic_extension(d_per, v1_bon)
        result = evaluate(parse_pattern("doc(v1BON)/bonus/laptop"), ext.document)
        assert len(result) == 1


class TestProbabilisticExtension:
    def test_figure4_right_selection(self, ext_v1):
        assert ext_v1.selection == {5: Fraction(3, 4)}

    def test_subtree_preserves_internal_distribution(self, ext_v1):
        sub = ext_v1.result_subdocument(5)
        assert boolean_probability(sub, parse_pattern("bonus/laptop")) == Fraction(
            9, 10
        )
        assert boolean_probability(sub, parse_pattern("bonus/pda")) == 1

    def test_no_marker_nodes_anywhere(self, ext_v1):
        labels = {
            n.label for n in ext_v1.pdocument.ordinary_nodes() if n.label
        }
        assert not any(parse_marker_label(label) is not None for label in labels)

    def test_provenance_covers_every_copied_original(self, ext_v1):
        sub = ext_v1.result_subdocument(5)
        for original in (5, 24, 22, 31, 25, 26, 32, 23):
            copies = ext_v1.occurrence_copies(original, within=sub)
            assert len(copies) == 1
            assert ext_v1.provenance.original_of(copies[0]) == original
            assert ext_v1.provenance.holder_of(copies[0]) == 5

    def test_occurrences(self, ext_v2):
        assert ext_v2.occurrences[5] == {5}
        assert ext_v2.occurrences[24] == {5}
        assert ext_v2.occurrences[54] == {7}

    def test_selected_ancestors_or_self_nested(self):
        # Example 12's view selects nested nodes 9 (c2) and 11 (c3).
        p = paper.p3_example12()
        ext = probabilistic_extension(p, View("v", paper.example12_view()))
        assert ext.selected_ancestors_or_self(11) == [9, 11]
        assert ext.selected_ancestors_or_self(12) == [9, 11]
        assert ext.selected_ancestors_or_self(9) == [9]

    def test_nodes_between(self):
        p = paper.p3_example12()
        ext = probabilistic_extension(p, View("v", paper.example12_view()))
        assert ext.nodes_between(9, 11) == 3  # c2, b3, c3
        assert ext.nodes_between(9, 9) == 1

    def test_nodes_between_missing_raises(self):
        p = paper.p3_example12()
        ext = probabilistic_extension(p, View("v", paper.example12_view()))
        with pytest.raises(KeyError):
            ext.nodes_between(11, 9)  # 9 does not occur below 11

    def test_example11_indistinguishability(self):
        """The central §4.1 fact: (P̂1)_v = (P̂2)_v although q differs."""
        v = View("v", paper.example11_view())
        ext1 = probabilistic_extension(paper.p1_example11(), v)
        ext2 = probabilistic_extension(paper.p2_example11(), v)
        assert ext1.pdocument == ext2.pdocument
        assert ext1.selection == ext2.selection

    def test_example12_indistinguishability(self):
        v = View("v", paper.example12_view())
        ext3 = probabilistic_extension(paper.p3_example12(), v)
        ext4 = probabilistic_extension(paper.p4_example12(), v)
        assert ext3.pdocument == ext4.pdocument
        assert ext3.selection == ext4.selection

    def test_empty_view_result(self, p_per):
        ext = probabilistic_extension(p_per, View("none", parse_pattern(
            "IT-personnel/nothing")))
        assert ext.selection == {}
        assert ext.pdocument.size() == 1

    @pytest.mark.parametrize(
        "mass, capped",
        [(1.0 + 2**-52, 1.0), (1.5, None), (1 + Fraction(1, 10**15), None)],
    )
    def test_selection_past_one_is_capped_only_by_rounding(
        self, p_per, v1_bon, mass, capped
    ):
        class Session:  # answers one selection of the given mass
            p = p_per
            backend = type("Backend", (), {"one": mass.__class__(1)})

            @staticmethod
            def answer(pattern):
                return {5: mass}

        if capped is None:
            with pytest.raises(ProbabilityError, match="exceeds 1"):
                probabilistic_extension(p_per, v1_bon, session=Session())
        else:
            ext = probabilistic_extension(p_per, v1_bon, session=Session())
            (bundle,) = ext.pdocument.root.children
            assert list(bundle.probabilities.values()) == [capped]

    def test_rank_paths_are_isomorphism_invariant(self, p_per, ext_v2):
        from repro.workloads.synthetic import isomorphic_twin

        v = ext_v2.view
        twin = probabilistic_extension(isomorphic_twin(p_per, 1000), v)
        for original in (5, 7, 24, 54):
            assert ext_v2.provenance.anchor_positions(original) == (
                twin.provenance.anchor_positions(original + 1000)
            )


class TestProvenanceAnchoring:
    def test_anchoring_pins_occurrence(self, ext_v2):
        qr = parse_pattern("doc(v2BON)/bonus[laptop]")
        hit = boolean_probability(
            ext_v2.pdocument, qr, anchors={qr.out: ext_v2.occurrence_copies(5)}
        )
        miss = boolean_probability(
            ext_v2.pdocument, qr, anchors={qr.out: ext_v2.occurrence_copies(7)}
        )
        assert hit == Fraction(9, 10)
        assert miss == 0

    def test_never_copied_node_anchors_to_nothing(self, ext_v2):
        qr = parse_pattern("doc(v2BON)/bonus")
        assert ext_v2.occurrence_copies(9999) == ()
        assert (
            boolean_probability(
                ext_v2.pdocument,
                qr,
                anchors={qr.out: ext_v2.occurrence_copies(9999)},
            )
            == 0
        )


def _deep_chain(levels: int):
    """``a`` over ``b`` over ``levels - 1`` ``c``s, each behind an
    ``ind(½)`` — one selected node whose subtree is the whole chain."""
    node = ordinary(2 * levels, "c")
    for level in range(levels - 1, -1, -1):
        label = "a" if level == 0 else ("b" if level == 1 else "c")
        node = ordinary(2 * level, label, ind(2 * level + 1, (node, "0.5")))
    return pdoc(node)


class TestDeepExtensions:
    """Copying a result subtree has no recursion limit."""

    LEVELS = 5000

    def test_probabilistic_extension_of_deep_chain(self):
        p = _deep_chain(self.LEVELS)
        ext = probabilistic_extension(p, View("v", parse_pattern("a//b")))
        assert ext.selection == {2: Fraction(1, 2)}
        copied = ext.pdocument.node(ext.subtree_roots[2])
        # root + ind bundle + the copy of b's subtree (b, then one
        # ind + ordinary pair per level below it).
        assert ext.pdocument.size() == 2 + 2 * (self.LEVELS - 1) + 1
        # Pre-order fresh Ids: the copy of b is 2, its ind 3, and so on —
        # here every copy's Id equals its original's.
        node, expected = copied, 2
        while True:
            assert node.node_id == expected
            if node.is_ordinary:
                assert ext.provenance.copies_of(expected) == (expected,)
            if not node.children:
                break
            node, expected = node.children[0], expected + 1
        assert expected == 2 * self.LEVELS

    def test_deterministic_extension_of_deep_chain(self):
        d = _deep_chain(self.LEVELS).max_world()
        ext = deterministic_extension(d, View("v", parse_pattern("a//b")))
        assert ext.document.size() == 1 + self.LEVELS
        assert ext.subtree_roots == {2: 1}
