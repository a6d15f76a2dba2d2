"""Views: named tree-pattern queries (paper §3).

A view is a TP query together with a name drawn from a set ``V`` disjoint
from the label alphabet.  Its extension over a document is rooted at the
special label ``doc(v)``; original node identity is exposed through a
*provenance* side table (:mod:`repro.views.provenance`) instead of the
paper's structural ``Id(n)`` marker children — extensions are Id-free,
so isomorphic base documents yield digest-identical extensions that
share content-addressed memo entries.

**Legacy markers.**  :func:`parse_marker_label` recognizes the §3.1
``Id(n)`` label in old marker-bearing documents (e.g. serialized
extensions from pre-Id-free runs) and is the *single* place in the
production code that knows the marker prefix.  Nothing builds markers
any more: pattern nodes are pinned to provenance anchor sets
(:meth:`repro.views.extension.ProbabilisticViewExtension.
occurrence_copies`, :meth:`repro.views.provenance.ProvenanceTable.
anchor_positions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tp.pattern import TreePattern

__all__ = ["View", "doc_label", "parse_marker_label"]


def doc_label(view_name: str) -> str:
    """The special root label ``doc(v)`` of a view extension."""
    return f"doc({view_name})"


def parse_marker_label(label: str) -> int | None:
    """Decode a legacy ``Id(n)`` marker label; ``None`` if not a marker.

    Any marker-label sniffing must route through this function rather
    than re-deriving the prefix.  Marker-bearing and Id-free extensions
    have different structural digests by construction, so the two
    generations can never silently share store entries.
    """
    if label.startswith("Id(") and label.endswith(")"):
        try:
            return int(label[3:-1])
        except ValueError:
            return None
    return None


@dataclass(frozen=True)
class View:
    """A named view.

    Attributes:
        name: the view name from ``V``.
        pattern: the TP query defining the view.
    """

    name: str
    pattern: TreePattern = field(compare=False)

    @property
    def doc_label(self) -> str:
        return doc_label(self.name)

    def __repr__(self) -> str:
        return f"View({self.name}: {self.pattern.xpath()})"
