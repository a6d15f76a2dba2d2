"""Provenance layer for view extensions: identity *beside* the tree.

The paper's §3.1 construction exposes original node identity by planting
a fresh ``Id(n)`` marker child under every copied node.  That bakes
*identity* into *structure*: extensions built over isomorphic base
documents get distinct Merkle digests (every marker label names a
concrete original Id) and never share content-addressed memo entries —
exactly where the structural store should pay off most.  Following the
structural-sharing line of work (Amarilli, "Structurally Tractable
Uncertain Data"; Amarilli–Bourhis–Senellart, "Tractable Lineages on
Treelike Instances"), tractability and reuse come from *shape*, so
identity must live outside the tree.

This module is that outside place.  A :class:`ProvenanceTable` is a side
table carried by every extension, recording for each copied node

* which **original** node it is a copy of (``original_of``),
* which **holder** (selected original) roots the result subtree it lives
  in (``holder_of``), and
* the **canonical rank path** locating it inside the extension document
  (:meth:`rank_path` — reusing :func:`repro.store.digest.
  compute_positions`), an isomorphism-*invariant* coordinate: equal rank
  paths in digest-equal extensions name corresponding nodes.

The ``Id(n)``-equivalent anchoring device becomes "pin this pattern node
to this Id set": :meth:`copies_of` / :meth:`ProbabilisticViewExtension.
occurrence_copies` feed engine anchor sets
(:data:`repro.prob.engine.AnchorsLike`), which the evaluation engine and
the canonical anchor-position store keys already support — with zero
structural residue in the extension document itself.

Marker-bearing and marker-free extensions have different structural
digests by construction (the marker children are extra nodes), so store
entries warmed by marker-era runs can never be silently mis-shared with
Id-free ones — they simply stop matching.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import PDocumentError

__all__ = ["ProvenanceTable"]


class ProvenanceTable:
    """Copy provenance of one view extension (the ``Id(n)`` replacement).

    Built incrementally by the marker-free extension builders
    (:func:`repro.views.extension.probabilistic_extension` /
    :func:`~repro.views.extension.deterministic_extension`): one
    :meth:`record` call per copied ordinary node, then one :meth:`bind`
    call attaching the finished extension document (rank paths are
    derived from it lazily).
    """

    __slots__ = ("_copies", "_originals", "_holders", "_occurrences", "document")

    def __init__(self, document=None) -> None:
        #: original Id -> copy Ids, in holder (top-down selection) order.
        self._copies: dict[int, list[int]] = {}
        #: copy Id -> original Id.
        self._originals: dict[int, int] = {}
        #: copy Id -> holder: the selected original whose result subtree
        #: contains the copy.
        self._holders: dict[int, int] = {}
        #: original Id -> holders whose result subtree contains a copy of
        #: it (the paper's occurrence information, §4).
        self._occurrences: dict[int, set[int]] = {}
        #: the extension (p-)document, attached by :meth:`bind`.
        self.document = document

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def record(self, original_id: int, copy_id: int, holder: int) -> None:
        """Register that ``copy_id`` is the copy of ``original_id`` inside
        ``holder``'s result subtree."""
        self._copies.setdefault(original_id, []).append(copy_id)
        self._originals[copy_id] = original_id
        self._holders[copy_id] = holder
        self._occurrences.setdefault(original_id, set()).add(holder)

    def bind(self, document) -> "ProvenanceTable":
        """Attach the finished extension document (enables rank paths)."""
        self.document = document
        return self

    # ------------------------------------------------------------------
    # Identity queries (the Id(n) device, Id-free)
    # ------------------------------------------------------------------
    def copies_of(self, original_id: int) -> tuple[int, ...]:
        """Ids of *all* copies of ``original_id`` across result subtrees.

        Empty when the node was never copied — a pattern anchored to the
        empty set cannot match, exactly like a marker pattern with no
        ``Id(n)`` node in the document.
        """
        return tuple(self._copies.get(original_id, ()))

    def original_of(self, copy_id: int) -> Optional[int]:
        """The original node a copy stands for; ``None`` for non-copies
        (the ``doc(v)`` root, the ``ind`` bundle)."""
        return self._originals.get(copy_id)

    def holder_of(self, copy_id: int) -> Optional[int]:
        """The selected original whose result subtree holds ``copy_id``."""
        return self._holders.get(copy_id)

    def copy_within(self, holder: int, original_id: int) -> Optional[int]:
        """The unique copy of ``original_id`` inside ``holder``'s result
        subtree, or ``None`` when the original does not occur below it."""
        for copy_id in self._copies.get(original_id, ()):
            if self._holders.get(copy_id) == holder:
                return copy_id
        return None

    def originals_of(self, copy_ids: Iterable[int]) -> set[int]:
        """Map extension node Ids back to original Ids (non-copies skipped).

        The marker-free form of candidate extraction: where the rewrite
        layer used to scan ``Id(n)`` marker children of the selected
        nodes, it now resolves the selected copies through this table.
        """
        originals: set[int] = set()
        for copy_id in copy_ids:
            original = self._originals.get(copy_id)
            if original is not None:
                originals.add(original)
        return originals

    # Mapping views used by the extension object's back-compat surface.
    @property
    def occurrence_index(self) -> dict[int, set[int]]:
        """``original Id -> set of holders`` (live, do not mutate)."""
        return self._occurrences

    @property
    def copy_index(self) -> dict[int, list[int]]:
        """``original Id -> copy Ids`` (live, do not mutate)."""
        return self._copies

    def __len__(self) -> int:
        return len(self._originals)

    # ------------------------------------------------------------------
    # Canonical rank paths (isomorphism-invariant coordinates)
    # ------------------------------------------------------------------
    def rank_path(self, copy_id: int) -> tuple:
        """The canonical rank path of a copy inside the extension document.

        Rank paths (:func:`repro.store.digest.compute_positions`, served
        from the document's epoch-cached
        :meth:`~repro.pxml.pdocument.PDocument.anchor_index`) order
        siblings by digest sort key, so they are invariant under
        isomorphism: the twin of an extension assigns the *same* path to
        the corresponding copy even though every node Id differs.  They
        are the Id-free serialization coordinate — what a wire format or
        a cross-process anchor exchange should name instead of node Ids.
        """
        document = self.document
        if document is None or not hasattr(document, "anchor_index"):
            raise PDocumentError(
                "provenance table is not bound to a p-document; rank paths "
                "need the extension's anchor index"
            )
        return document.anchor_index()[copy_id]

    def anchor_positions(self, original_id: int) -> tuple[tuple, ...]:
        """Sorted canonical rank paths of every copy of ``original_id``.

        The fully Id-free form of the ``Id(n)`` device: two isomorphic
        extensions agree on these tuples for corresponding originals, so
        they key anchored store entries identically
        (:class:`repro.store.keys.SubtreeKeyer`).
        """
        return tuple(
            sorted(self.rank_path(copy_id) for copy_id in self.copies_of(original_id))
        )
