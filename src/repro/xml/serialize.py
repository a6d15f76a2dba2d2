"""Textual serialization of deterministic documents.

The format is a compact, line-oriented, indentation-based notation::

    [1] IT-personnel
      [2] person
        [4] name
          [8] Rick

It round-trips exactly (Ids, labels, shape) and is convenient both for golden
tests and for eyeballing fixtures against the paper's figures.
"""

from __future__ import annotations

from ..errors import DocumentError
from .document import DocNode, Document

__all__ = ["document_to_text", "document_from_text"]

_INDENT = "  "


def document_to_text(document: Document) -> str:
    """Serialize ``document`` to the indented text format.

    Children are emitted in (label, id) order so the output is canonical for
    the unordered tree semantics.
    """
    lines: list[str] = []
    # Iterative pre-order: children are pushed in reverse sorted order,
    # so deep chains need no recursion.
    stack: list[tuple[DocNode, int]] = [(document.root, 0)]
    while stack:
        n, depth = stack.pop()
        lines.append(f"{_INDENT * depth}[{n.node_id}] {n.label}")
        for child in sorted(
            n.children, key=lambda c: (c.label, c.node_id), reverse=True
        ):
            stack.append((child, depth + 1))
    return "\n".join(lines) + "\n"


def document_from_text(text: str) -> Document:
    """Parse the indented text format back into a :class:`Document`."""
    root: DocNode | None = None
    stack: list[tuple[int, DocNode]] = []  # (depth, node)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        stripped = raw.lstrip(" ")
        pad = len(raw) - len(stripped)
        if pad % len(_INDENT) != 0:
            raise DocumentError(f"line {line_no}: bad indentation")
        depth = pad // len(_INDENT)
        if not stripped.startswith("["):
            raise DocumentError(f"line {line_no}: expected '[id] label'")
        close = stripped.index("]")
        node_id = int(stripped[1:close])
        label = stripped[close + 1 :].strip()
        built = DocNode(node_id, label)
        if depth == 0:
            if root is not None:
                raise DocumentError(f"line {line_no}: multiple roots")
            root = built
            stack = [(0, built)]
            continue
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack or stack[-1][0] != depth - 1:
            raise DocumentError(f"line {line_no}: orphan node at depth {depth}")
        stack[-1][1].add_child(built)
        stack.append((depth, built))
    if root is None:
        raise DocumentError("empty document text")
    return Document(root)
