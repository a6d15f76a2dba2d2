"""Unit tests for p-documents (Definition 1 validation + accessors)."""

from fractions import Fraction

import pytest

from repro.errors import PDocumentError
from repro.pxml import PDocument, PNodeKind, det, ind, mux, ordinary, pdoc
from repro.workloads import paper
from repro.workloads.synthetic import isomorphic_twin


class TestValidation:
    def test_distributional_root_rejected(self):
        with pytest.raises(PDocumentError):
            pdoc_root = mux(1, (ordinary(2, "a"), "0.5"))
            PDocument(pdoc_root)

    def test_distributional_leaf_rejected(self):
        with pytest.raises(PDocumentError):
            bad = ordinary(1, "a")
            bad.add_child(mux(2).__class__(2, PNodeKind.MUX))  # empty mux leaf
            pdoc(bad)

    def test_mux_overflow_rejected(self):
        with pytest.raises(PDocumentError):
            pdoc(ordinary(1, "a",
                          mux(2, (ordinary(3, "b"), "0.7"),
                                 (ordinary(4, "c"), "0.7"))))

    def test_ind_may_exceed_one_total(self):
        p = pdoc(ordinary(1, "a",
                          ind(2, (ordinary(3, "b"), "0.7"),
                                 (ordinary(4, "c"), "0.7"))))
        assert p.size() == 4

    def test_probability_out_of_range(self):
        with pytest.raises(Exception):
            pdoc(ordinary(1, "a", mux(2, (ordinary(3, "b"), "1.5"))))

    def test_duplicate_ids(self):
        with pytest.raises(PDocumentError):
            pdoc(ordinary(1, "a", ordinary(1, "b")))

    def test_det_builder_is_sure_ind(self):
        p = pdoc(ordinary(1, "a", det(2, ordinary(3, "b"), ordinary(4, "c"))))
        assert p.appearance_probability(3) == 1
        assert p.appearance_probability(4) == 1


class TestAccessors:
    def test_paper_document_size(self):
        p = paper.p_per()
        # 21 ordinary nodes + 4 distributional (11, 21, 52, 53).
        assert len(p.ordinary_nodes()) == 21
        assert len(p.distributional_nodes()) == 4

    def test_appearance_probability(self):
        p = paper.p_per()
        assert p.appearance_probability(8) == Fraction(3, 4)     # Rick
        assert p.appearance_probability(24) == Fraction(9, 10)   # laptop
        assert p.appearance_probability(5) == 1                  # bonus n5
        assert p.appearance_probability(54) == Fraction(7, 10)   # 15 under ind

    def test_ancestors_or_self_ordinary(self):
        p = paper.p_per()
        ids = [n.node_id for n in p.ancestors_or_self_ordinary(25)]
        assert ids == [25, 24, 5, 2, 1]

    def test_is_ancestor_or_self(self):
        p = paper.p_per()
        assert p.is_ancestor_or_self(5, 25)
        assert p.is_ancestor_or_self(25, 25)
        assert not p.is_ancestor_or_self(25, 5)
        assert p.is_ancestor_or_self(21, 24)  # through the mux

    def test_subdocument(self):
        p = paper.p_per()
        sub = p.subdocument(5)
        assert sub.root.node_id == 5
        assert sub.has_node(24) and sub.has_node(22)
        assert not sub.has_node(4)

    def test_subdocument_of_distributional_rejected(self):
        with pytest.raises(PDocumentError):
            paper.p_per().subdocument(21)

    def test_max_world_contracts_distributional(self):
        world = paper.p_per().max_world()
        assert world.has_node(22) and world.has_node(24)  # both mux children
        assert not world.has_node(21)
        # laptop attaches to bonus (closest ordinary ancestor)
        assert world.node(24).parent.node_id == 5

    def test_effective_children(self):
        p = paper.p_per()
        ids = {c.node_id for c in p.effective_children(p.node(5))}
        assert ids == {22, 24, 31}


class TestEquality:
    def test_example12_pair_not_equal_with_probabilities(self):
        assert paper.p3_example12() != paper.p4_example12()

    def test_self_equality(self):
        assert paper.p_per() == paper.p_per()

    def test_shape_only(self):
        p3 = paper.p3_example12()
        p4 = paper.p4_example12()
        # Same shape, different probabilities — distinguishable even without Ids.
        assert p3.canonical_key(with_ids=False) != p4.canonical_key(with_ids=False)


class TestStructuralIdentity:
    def test_document_digest_matches_between_equal_builds(self):
        assert paper.p_per().document_digest == paper.p_per().document_digest
        assert (
            paper.p3_example12().document_digest
            != paper.p4_example12().document_digest
        )

    def test_subdocument_digest_agrees_with_subtree_digest(self):
        p = paper.p_per()
        for node in p.ordinary_nodes():
            assert (
                p.subdocument(node.node_id).document_digest
                == p.structural_digest(node.node_id)
            )

    def test_structural_index_covers_every_node(self):
        p = paper.p_per()
        digests, sizes = p.structural_index()
        assert set(digests) == {n.node_id for n in p.nodes()}
        assert sizes[p.root.node_id] == p.size()
        leaf = p.node(8)  # Rick leaf
        assert sizes[leaf.node_id] == 1 and p.subtree_size(8) == 1

    def test_label_index_interns_and_accumulates(self):
        p = paper.p_per()
        labels = p.label_index()
        assert labels[8] == frozenset({"Rick"})
        assert "Rick" in labels[p.root.node_id]
        assert labels[11] == frozenset({"John", "Rick"})  # mux adds no label

    def test_ancestral_closure(self):
        p = paper.p_per()
        closure = p.ancestral_closure([8])  # Rick: mux 11, name 4, person 2
        assert closure == frozenset({8, 11, 4, 2, 1})
        assert p.ancestral_closure([]) == frozenset()


class TestGoldenDigests:
    """Digests pinned as literals: memo-store keys are built from the
    structural digests and candidate-set keys from the identity digest,
    so any drift would silently turn every existing store file cold."""

    def test_document_digest(self):
        assert (
            paper.p_per().document_digest
            == "4592308b4acebc1c73088e3c6ad3ea4b"
        )

    def test_identity_digest(self):
        assert (
            paper.p_per().identity_digest()
            == "576f5a892bab9d99907c87b2855ba609"
        )

    @pytest.mark.parametrize(
        "node_id, digest, size",
        [
            (5, "fec2dbe3a7e4bcb39ea1d52d0c362367", 9),  # ordinary bonus
            (8, "f1b8b0800beb37b3a8cdec0e1ce36925", 1),  # ordinary leaf
            (21, "161181a7b1df0dac0e34eef13369eee0", 6),  # mux
            (53, "fa8064dc442cca956745cb61a4419888", 3),  # ind
        ],
    )
    def test_subtree_digest_and_size(self, node_id, digest, size):
        p = paper.p_per()
        assert p.structural_digest(node_id) == digest
        assert p.subtree_size(node_id) == size


def _ind_chain(levels: int) -> PDocument:
    """``a`` over a chain of ``levels`` ``b``s, each behind an ``ind(½)``."""
    node = ordinary(2 * levels, "b")
    for level in range(levels - 1, -1, -1):
        label = "a" if level == 0 else "b"
        node = ordinary(2 * level, label, ind(2 * level + 1, (node, "0.5")))
    return pdoc(node)


class TestDeepDocuments:
    """No recursion limit on copies, canonical keys, equality or hashing."""

    LEVELS = 5000

    def test_subdocument_copies_whole_chain(self):
        p = _ind_chain(self.LEVELS)
        sub = p.subdocument(p.root.node_id)
        assert len(sub.ordinary_nodes()) == self.LEVELS + 1
        assert sub.document_digest == p.document_digest

    def test_equality_and_hash(self):
        p = _ind_chain(self.LEVELS)
        assert p == p
        assert p == _ind_chain(self.LEVELS)
        assert hash(p) == hash(_ind_chain(self.LEVELS))
        assert p != _ind_chain(self.LEVELS - 1)

    def test_canonical_key_without_ids_matches_twin(self):
        p = _ind_chain(self.LEVELS)
        twin = isomorphic_twin(p)
        assert twin.canonical_key(with_ids=False) == p.canonical_key(
            with_ids=False
        )
        assert twin.canonical_key() != p.canonical_key()
