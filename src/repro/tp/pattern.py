"""Tree-pattern queries (TP) — paper §2, Definition 2.

A tree pattern is a non-empty, unordered, unranked rooted tree whose nodes are
labeled, with a distinguished *output node* and two edge types: child (``/``)
and descendant (``//``).  The *main branch* is the path from the root to the
output node; subtrees hanging off it are *predicates*.

The same data structure serves queries, views, compensations, prefixes,
suffixes and tokens: prefixes, for instance, are obtained simply by moving the
output-node designation up the main branch (what used to be main branch below
the new output node is then, by definition, a predicate).
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, Optional

from ..errors import PatternError

__all__ = ["Axis", "PatternNode", "TreePattern"]


class Axis(enum.Enum):
    """Edge type between a pattern node and its parent."""

    CHILD = "/"
    DESC = "//"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PatternNode:
    """A node of a tree pattern.

    Attributes:
        label: node label from L.
        axis: the edge type connecting this node to its parent
            (:data:`Axis.CHILD` for the root, by convention).
        children: child pattern nodes.
        parent: parent node or ``None`` for the root.
    """

    __slots__ = ("label", "axis", "children", "parent")

    def __init__(self, label: str, axis: Axis = Axis.CHILD) -> None:
        self.label = str(label)
        self.axis = axis
        self.children: list[PatternNode] = []
        self.parent: Optional[PatternNode] = None

    def add_child(self, child: "PatternNode") -> "PatternNode":
        child.parent = self
        self.children.append(child)
        return child

    def remove_child(self, child: "PatternNode") -> None:
        self.children.remove(child)
        child.parent = None

    def iter_subtree(self) -> Iterator["PatternNode"]:
        stack = [self]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(current.children)

    def __repr__(self) -> str:
        return f"PatternNode({self.label!r}, axis={self.axis.value!r})"


class TreePattern:
    """A tree-pattern query: a rooted pattern tree plus an output node."""

    def __init__(self, root: PatternNode, out: PatternNode) -> None:
        self.root = root
        self.out = out
        self._check()

    def _check(self) -> None:
        nodes = list(self.root.iter_subtree())
        if self.out not in nodes:
            raise PatternError("output node is not part of the pattern tree")
        if self.root.parent is not None:
            raise PatternError("root must not have a parent")

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    def nodes(self) -> list[PatternNode]:
        return list(self.root.iter_subtree())

    def size(self) -> int:
        return sum(1 for _ in self.root.iter_subtree())

    def main_branch(self) -> list[PatternNode]:
        """``mb(q)``: the path root → out (paper §2)."""
        branch: list[PatternNode] = []
        current: Optional[PatternNode] = self.out
        while current is not None:
            branch.append(current)
            current = current.parent
        branch.reverse()
        if branch[0] is not self.root:
            raise PatternError("output node is not below the root")
        return branch

    def main_branch_length(self) -> int:
        """``|mb(q)|`` = the depth of the output node (root has depth 1)."""
        return len(self.main_branch())

    def label(self) -> str:
        """``lbl(q)`` = the label of the output node (paper shorthand)."""
        return self.out.label

    def root_label(self) -> str:
        return self.root.label

    def predicate_nodes(self) -> list[PatternNode]:
        """All nodes that are *not* on the main branch."""
        on_branch = set(map(id, self.main_branch()))
        return [n for n in self.nodes() if id(n) not in on_branch]

    def mb_depth(self, node: PatternNode) -> int:
        """Depth of a main-branch node (root = 1, out = |mb|)."""
        branch = self.main_branch()
        for index, candidate in enumerate(branch, start=1):
            if candidate is node:
                return index
        raise PatternError("node is not on the main branch")

    # ------------------------------------------------------------------
    # Structural addressing
    # ------------------------------------------------------------------
    def path_to(self, node: PatternNode) -> tuple[int, ...]:
        """The structural address of ``node``: child indices from the root.

        Paths survive :meth:`copy` (``copy.node_at(self.path_to(n))`` is the
        copy of ``n``) and serialization, which makes them the stable way to
        refer to a pattern node — e.g. when anchoring pattern nodes to
        document nodes in :mod:`repro.prob.engine`.
        """
        indices: list[int] = []
        current = node
        while current.parent is not None:
            parent = current.parent
            for position, child in enumerate(parent.children):
                if child is current:
                    indices.append(position)
                    break
            else:  # pragma: no cover - inconsistent parent pointer
                raise PatternError("node is not a child of its parent")
            current = parent
        if current is not self.root:
            raise PatternError("node is not part of this pattern tree")
        return tuple(reversed(indices))

    def node_at(self, path: tuple[int, ...]) -> PatternNode:
        """The node at a structural address produced by :meth:`path_to`."""
        current = self.root
        for index in path:
            try:
                current = current.children[index]
            except IndexError:
                raise PatternError(
                    f"no node at path {tuple(path)!r} in {self.xpath()}"
                ) from None
        return current

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self) -> "TreePattern":
        copied, _ = self.copy_with_mapping()
        return copied

    def copy_with_mapping(self) -> tuple["TreePattern", dict[int, PatternNode]]:
        """Deep copy; the mapping sends ``id(original node)`` to its copy."""
        mapping: dict[int, PatternNode] = {}

        def rec(source: PatternNode) -> PatternNode:
            copy = PatternNode(source.label, source.axis)
            mapping[id(source)] = copy
            for child in source.children:
                copy.add_child(rec(child))
            return copy

        new_root = rec(self.root)
        return TreePattern(new_root, mapping[id(self.out)]), mapping

    def map_labels(self, fn: Callable[[str], str]) -> "TreePattern":
        copied, mapping = self.copy_with_mapping()
        for node in copied.nodes():
            node.label = fn(node.label)
        return copied

    # ------------------------------------------------------------------
    # Rendering / canonical form
    # ------------------------------------------------------------------
    def xpath(self) -> str:
        """Render in the paper's XPath-style notation, e.g. ``a[.//c]/b``."""
        branch = self.main_branch()
        on_branch = set(map(id, branch))
        parts: list[str] = []
        for index, node in enumerate(branch):
            if index > 0:
                parts.append(node.axis.value)
            parts.append(node.label)
            for pred in sorted(
                (c for c in node.children if id(c) not in on_branch),
                key=_predicate_sort_key,
            ):
                parts.append(f"[{_render_predicate(pred)}]")
        return "".join(parts)

    def canonical_key(self) -> tuple:
        """Order-insensitive structural key; equal keys ⇔ identical patterns.

        The output node is marked in the key, so two patterns that differ only
        in the position of the output node get different keys.
        """

        def key(node: PatternNode, is_out: bool) -> tuple:
            children = tuple(
                sorted(key(c, c is self.out) for c in node.children)
            )
            return (node.axis.value, node.label, is_out, children)

        return key(self.root, self.root is self.out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreePattern):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"TreePattern({self.xpath()!r})"


def _render_predicate(node: PatternNode) -> str:
    """Render a predicate subtree, using ``/`` chains where linear.

    ``name`` with single child ``Rick`` renders as ``name/Rick`` (paper style);
    branching nodes fall back to nested brackets: ``b[c][d]``.
    """
    prefix = ".//" if node.axis is Axis.DESC else ""
    parts = [prefix, node.label]
    children = sorted(node.children, key=_predicate_sort_key)
    if len(children) == 1:
        child = children[0]
        sep = "//" if child.axis is Axis.DESC else "/"
        return "".join(parts) + sep + _render_chain(child)
    for child in children:
        parts.append(f"[{_render_predicate(child)}]")
    return "".join(parts)


def _render_chain(node: PatternNode) -> str:
    """Continue a linear rendering (the axis was already emitted)."""
    parts = [node.label]
    children = sorted(node.children, key=_predicate_sort_key)
    if len(children) == 1:
        child = children[0]
        sep = "//" if child.axis is Axis.DESC else "/"
        return "".join(parts) + sep + _render_chain(child)
    for child in children:
        parts.append(f"[{_render_predicate(child)}]")
    return "".join(parts)


def _predicate_sort_key(node: PatternNode) -> tuple:
    def key(n: PatternNode) -> tuple:
        return (n.axis.value, n.label, tuple(sorted(key(c) for c in n.children)))

    return key(node)
