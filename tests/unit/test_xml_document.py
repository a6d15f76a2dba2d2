"""Unit tests for the deterministic XML substrate."""

import pytest

from repro.errors import DocumentError
from repro.xml import Document, DocNode, doc, node


def small_doc() -> Document:
    return doc(
        node(1, "a",
             node(2, "b", node(4, "d")),
             node(3, "c")))


class TestStructure:
    def test_name_is_root_label(self):
        assert small_doc().name == "a"

    def test_size(self):
        assert small_doc().size() == 4

    def test_node_lookup(self):
        assert small_doc().node(4).label == "d"

    def test_missing_node_raises(self):
        with pytest.raises(DocumentError):
            small_doc().node(99)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DocumentError):
            doc(node(1, "a", node(1, "b")))

    def test_parent_pointers(self):
        d = small_doc()
        assert d.node(4).parent is d.node(2)
        assert d.node(1).parent is None

    def test_depth_convention_root_is_one(self):
        d = small_doc()
        assert d.node(1).depth() == 1
        assert d.node(4).depth() == 3

    def test_ancestors_or_self(self):
        d = small_doc()
        assert [n.node_id for n in d.node(4).ancestors_or_self()] == [4, 2, 1]

    def test_descendants_proper(self):
        d = small_doc()
        ids = {n.node_id for n in d.node(1).descendants()}
        assert ids == {2, 3, 4}

    def test_labels(self):
        assert small_doc().labels() == {"a", "b", "c", "d"}

    def test_nodes_with_label(self):
        assert [n.node_id for n in small_doc().nodes_with_label("b")] == [2]


class TestDerived:
    def test_subdocument_preserves_ids(self):
        sub = small_doc().subdocument(2)
        assert sub.node_ids() == frozenset({2, 4})
        assert sub.root.label == "b"

    def test_subdocument_is_a_copy(self):
        d = small_doc()
        sub = d.subdocument(2)
        sub.root.add_child(DocNode(99, "x"))
        assert not d.has_node(99)

    def test_map_nodes(self):
        mapped = small_doc().map_nodes(lambda n: (n.node_id + 10, n.label.upper()))
        assert mapped.node(11).label == "A"
        assert mapped.size() == 4


class TestEquality:
    def test_order_insensitive(self):
        d1 = doc(node(1, "a", node(2, "b"), node(3, "c")))
        d2 = doc(node(1, "a", node(3, "c"), node(2, "b")))
        assert d1 == d2
        assert hash(d1) == hash(d2)

    def test_ids_matter_by_default(self):
        d1 = doc(node(1, "a", node(2, "b")))
        d2 = doc(node(1, "a", node(5, "b")))
        assert d1 != d2

    def test_shape_only_comparison(self):
        d1 = doc(node(1, "a", node(2, "b")))
        d2 = doc(node(7, "a", node(5, "b")))
        assert d1.canonical_key(with_ids=False) == d2.canonical_key(with_ids=False)


def _chain(levels: int, offset: int = 0) -> Document:
    """``a`` over a chain of ``levels`` ``b``s, built bottom-up."""
    current = DocNode(offset + levels, "b")
    for level in range(levels - 1, -1, -1):
        parent = DocNode(offset + level, "a" if level == 0 else "b")
        parent.add_child(current)
        current = parent
    return Document(current)


class TestDeepDocuments:
    """No recursion limit on copies, mapping, canonical keys or hashing."""

    LEVELS = 5000

    def test_subdocument_copies_whole_chain(self):
        d = _chain(self.LEVELS)
        sub = d.subdocument(d.root.node_id)
        assert sub.size() == self.LEVELS + 1
        assert sub == d

    def test_map_nodes_keeps_the_chain(self):
        mapped = _chain(self.LEVELS).map_nodes(
            lambda n: (n.node_id + 1, n.label.upper())
        )
        assert mapped.size() == self.LEVELS + 1
        assert mapped.node(self.LEVELS + 1).depth() == self.LEVELS + 1
        assert mapped.canonical_key(with_ids=False) == _chain(
            self.LEVELS
        ).map_nodes(lambda n: (n.node_id, n.label.upper())).canonical_key(
            with_ids=False
        )

    def test_equality_and_hash(self):
        d = _chain(self.LEVELS)
        assert d == _chain(self.LEVELS)
        assert hash(d) == hash(_chain(self.LEVELS))
        assert d != _chain(self.LEVELS - 1)
        shifted = _chain(self.LEVELS, offset=10)
        assert shifted != d
        assert shifted.canonical_key(with_ids=False) == d.canonical_key(
            with_ids=False
        )

    def test_canonical_key_is_order_insensitive_on_branches(self):
        d1 = doc(node(1, "a", node(2, "b", node(4, "d")), node(3, "b")))
        d2 = doc(node(1, "a", node(3, "b"), node(2, "b", node(4, "d"))))
        assert d1 == d2
        assert d1.canonical_key(with_ids=False) != doc(
            node(1, "a", node(2, "b"), node(3, "b", node(4, "c")))
        ).canonical_key(with_ids=False)
