"""Unranked, unordered, labeled XML trees with persistent node Ids (paper §2).

A :class:`Document` is a rooted tree of :class:`DocNode` objects.  Every node
carries a *label* (subsuming both XML tags and text values, per the paper) and
a *node Id* that is unique within the document.  Children are unordered; all
comparison and serialization routines are therefore order-insensitive.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from ..errors import DocumentError

__all__ = ["DocNode", "Document"]


class DocNode:
    """A single node of a deterministic XML document.

    Attributes:
        node_id: integer Id, unique within the owning document.
        label: the node label (tag or value).
        children: list of child nodes (unordered semantics).
        parent: the parent node, or ``None`` for the root.
    """

    __slots__ = ("node_id", "label", "children", "parent")

    def __init__(self, node_id: int, label: str) -> None:
        self.node_id = int(node_id)
        self.label = str(label)
        self.children: list[DocNode] = []
        self.parent: Optional[DocNode] = None

    def add_child(self, child: "DocNode") -> "DocNode":
        """Attach ``child`` below this node and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def iter_subtree(self) -> Iterator["DocNode"]:
        """Yield this node and all descendants (pre-order)."""
        stack = [self]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(current.children)

    def descendants(self) -> Iterator["DocNode"]:
        """Yield all proper descendants of this node."""
        for child in self.children:
            yield from child.iter_subtree()

    def ancestors_or_self(self) -> Iterator["DocNode"]:
        """Yield this node, its parent, ... up to the root."""
        current: Optional[DocNode] = self
        while current is not None:
            yield current
            current = current.parent

    def depth(self) -> int:
        """Distance from the root; the root has depth 1 (paper convention)."""
        return sum(1 for _ in self.ancestors_or_self())

    def __repr__(self) -> str:
        return f"DocNode(id={self.node_id}, label={self.label!r})"


class Document:
    """A deterministic XML document: a rooted tree with unique node Ids."""

    def __init__(self, root: DocNode) -> None:
        self.root = root
        self._index: dict[int, DocNode] = {}
        for n in root.iter_subtree():
            if n.node_id in self._index:
                raise DocumentError(f"duplicate node Id {n.node_id}")
            self._index[n.node_id] = n

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The document name = label of the root (paper §2)."""
        return self.root.label

    def node(self, node_id: int) -> DocNode:
        """Return the node with the given Id.

        Raises:
            DocumentError: if no such node exists.
        """
        try:
            return self._index[node_id]
        except KeyError:
            raise DocumentError(f"no node with Id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._index

    def nodes(self) -> Iterable[DocNode]:
        """All nodes of the document (no order guaranteed)."""
        return self._index.values()

    def node_ids(self) -> frozenset[int]:
        return frozenset(self._index)

    def size(self) -> int:
        return len(self._index)

    def labels(self) -> set[str]:
        return {n.label for n in self.nodes()}

    def nodes_with_label(self, label: str) -> list[DocNode]:
        return [n for n in self.nodes() if n.label == label]

    # ------------------------------------------------------------------
    # Derived documents
    # ------------------------------------------------------------------
    def subdocument(self, node_id: int) -> "Document":
        """``d_n``: a fresh document that copies the subtree rooted at ``node_id``.

        Node Ids are preserved (the paper keeps original Ids in subtrees).
        """
        return Document(copy_subtree(self.node(node_id)))

    def map_nodes(self, fn: Callable[[DocNode], tuple[int, str]]) -> "Document":
        """Structure-preserving copy; ``fn`` supplies ``(new_id, new_label)``.

        Built iteratively, so depth is unbounded."""

        def mapped(source: DocNode) -> DocNode:
            return DocNode(*fn(source))

        return Document(_copy_tree(self.root, mapped))

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def canonical_key(self, with_ids: bool = True) -> tuple:
        """Order-insensitive canonical form, usable as a dict key.

        With ``with_ids=True`` two documents compare equal iff they are
        identical trees over identical node Ids — the notion of world
        equality used by the px-space semantics.  With ``with_ids=False``
        comparison is by shape and labels only (isomorphism).

        The key is flat, so documents of any depth compare and hash.
        Each subtree gets an entry ``(Id (with_ids only), label, sorted
        child numbers)``.  Subtrees are numbered bottom-up, one height
        at a time, in the sorted order of their distinct entries; the
        key lists those entries in number order, so it ends with the
        root's.
        """
        order = [self.root]
        for node in order:
            order.extend(node.children)
        heights: dict[int, int] = {}
        for node in reversed(order):
            heights[node.node_id] = 1 + max(
                (heights[c.node_id] for c in node.children), default=-1
            )
        levels: list[list] = [
            [] for _ in range(heights[self.root.node_id] + 1)
        ]
        for node in order:
            levels[heights[node.node_id]].append(node)
        numbers: dict[int, int] = {}
        key: list[tuple] = []
        for level in levels:
            entries = {}
            for node in level:
                entries[node.node_id] = (
                    (node.node_id,) if with_ids else ()
                ) + (
                    node.label,
                    tuple(sorted(numbers[c.node_id] for c in node.children)),
                )
            ranked = sorted(set(entries.values()))
            rank = {entry: len(key) + i for i, entry in enumerate(ranked)}
            for node_id, entry in entries.items():
                numbers[node_id] = rank[entry]
            key.extend(ranked)
        return tuple(key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"Document(name={self.name!r}, size={self.size()})"


def copy_subtree(source: DocNode) -> DocNode:
    """Deep-copy a subtree, preserving node Ids and labels."""
    return _copy_tree(source, lambda node: DocNode(node.node_id, node.label))


def _copy_tree(source: DocNode, duplicate: Callable[[DocNode], DocNode]) -> DocNode:
    """Copy ``source``'s subtree, node by node through ``duplicate``,
    with an explicit stack (no recursion, so depth is unbounded).
    Children keep their order."""
    root = duplicate(source)
    stack = [(source, root)]
    while stack:
        original, copy = stack.pop()
        for child in original.children:
            stack.append((child, copy.add_child(duplicate(child))))
    return root
