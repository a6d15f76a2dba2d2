"""Textual (de)serialization of p-documents.

The indented format mirrors the figures of the paper and round-trips
exactly; it is what the command-line interface reads and writes::

    [1] IT-personnel
      [11] mux
        (3/4) [2] person
        (1/4) [13] John
"""

from __future__ import annotations

from ..errors import PDocumentError
from ..probability import as_probability
from .pdocument import PDocument, PNode, PNodeKind

__all__ = ["pdocument_to_text", "pdocument_from_text"]

_INDENT = "  "


def pdocument_to_text(p: PDocument) -> str:
    """Render a p-document in an indented format with edge probabilities::

        [1] IT-personnel
          [11] mux
            (0.75) [2] person
            (0.25) [13] John
    """
    lines: list[str] = []
    # Iterative pre-order: children are pushed in reverse sorted order,
    # so deep chains need no recursion.
    stack: list[tuple[PNode, int, object]] = [(p.root, 0, None)]
    while stack:
        n, depth, probability = stack.pop()
        prefix = f"({probability}) " if probability is not None else ""
        title = n.label if n.is_ordinary else n.kind.value
        lines.append(f"{_INDENT * depth}{prefix}[{n.node_id}] {title}")
        edges = n.probabilities
        for child in sorted(n.children, key=_child_key, reverse=True):
            p_edge = edges[child.node_id] if edges is not None else None
            stack.append((child, depth + 1, p_edge))
    return "\n".join(lines) + "\n"


def _child_key(c: PNode):
    return (c.label or c.kind.value, c.node_id)


def pdocument_from_text(text: str) -> PDocument:
    """Parse the indented p-document format back into a :class:`PDocument`.

    Lines look like ``(probability) [id] title`` where the probability
    parenthesis is present exactly on children of distributional nodes and
    ``title`` is a label, ``mux`` or ``ind``.
    """
    root: PNode | None = None
    stack: list[tuple[int, PNode]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        stripped = raw.lstrip(" ")
        pad = len(raw) - len(stripped)
        if pad % len(_INDENT) != 0:
            raise PDocumentError(f"line {line_no}: bad indentation")
        depth = pad // len(_INDENT)
        probability = None
        if stripped.startswith("("):
            close = stripped.index(")")
            probability = as_probability(stripped[1:close])
            stripped = stripped[close + 1 :].lstrip()
        if not stripped.startswith("["):
            raise PDocumentError(f"line {line_no}: expected '[id] title'")
        close = stripped.index("]")
        node_id = int(stripped[1:close])
        title = stripped[close + 1 :].strip()
        if title == "mux":
            built = PNode(node_id, PNodeKind.MUX)
        elif title == "ind":
            built = PNode(node_id, PNodeKind.IND)
        else:
            built = PNode(node_id, PNodeKind.ORDINARY, title)
        if depth == 0:
            if root is not None:
                raise PDocumentError(f"line {line_no}: multiple roots")
            if probability is not None:
                raise PDocumentError(f"line {line_no}: the root has no probability")
            root = built
            stack = [(0, built)]
            continue
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack or stack[-1][0] != depth - 1:
            raise PDocumentError(f"line {line_no}: orphan node at depth {depth}")
        parent = stack[-1][1]
        if parent.is_distributional and probability is None:
            raise PDocumentError(
                f"line {line_no}: children of {parent.kind.value} need a probability"
            )
        if parent.is_ordinary and probability is not None:
            raise PDocumentError(
                f"line {line_no}: children of ordinary nodes carry no probability"
            )
        parent.add_child(built, probability)
        stack.append((depth, built))
    if root is None:
        raise PDocumentError("empty p-document text")
    return PDocument(root)
