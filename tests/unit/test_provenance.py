"""Unit tests for the provenance layer (the Id-free ``Id(n)`` replacement).

Covers: round-trip equivalence against a legacy marker-bearing reference
implementation (``occurrence_copies`` / ``selected_ancestors_or_self`` /
``nodes_between`` answer identically), digest sharing between extensions
and their base documents, and the no-silent-mis-share guarantee for
marker-era documents.
"""

import itertools

import pytest

from repro.prob import QuerySession, query_answer
from repro.pxml.pdocument import PDocument, PNode, PNodeKind
from repro.store import InMemoryStore
from repro.tp import parse_pattern
from repro.views import ProvenanceTable, View, probabilistic_extension
from repro.views.extension import ProbabilisticViewExtension
from repro.views.view import parse_marker_label
from repro.workloads import paper
from repro.workloads.synthetic import isomorphic_twin


# ----------------------------------------------------------------------
# Legacy reference implementation: the pre-Id-free §3.1 construction
# (markers planted in the tree), kept here as the round-trip oracle.
# ----------------------------------------------------------------------
def _marker_label(original: int) -> str:
    return f"Id({original})"


def legacy_marker_extension(p: PDocument, view: View) -> ProbabilisticViewExtension:
    """Markers planted in the tree; the provenance table is recorded
    while copying, so provenance queries and marker scans run over the
    same document."""
    answer = query_answer(p, view.pattern)
    fresh = itertools.count(1)
    root = PNode(0, PNodeKind.ORDINARY, view.doc_label)
    bundle = PNode(next(fresh), PNodeKind.IND)
    subtree_roots: dict[int, int] = {}
    provenance = ProvenanceTable()

    def copy_with_markers(source: PNode, holder: int) -> PNode:
        copy = PNode(next(fresh), source.kind, source.label)
        if source.is_ordinary:
            provenance.record(source.node_id, copy.node_id, holder)
            copy.add_child(
                PNode(next(fresh), PNodeKind.ORDINARY, _marker_label(source.node_id))
            )
        for child in source.children:
            probability = (
                source.probabilities[child.node_id]
                if source.probabilities is not None
                else None
            )
            copy.add_child(copy_with_markers(child, holder), probability)
        return copy

    for selected in sorted(answer):
        copy = copy_with_markers(p.node(selected), selected)
        bundle.add_child(copy, answer[selected])
        subtree_roots[selected] = copy.node_id
    if subtree_roots:
        root.add_child(bundle)
    pdocument = PDocument(root)
    return ProbabilisticViewExtension(
        view=view,
        pdocument=pdocument,
        selection=dict(answer),
        subtree_roots=subtree_roots,
        provenance=provenance.bind(pdocument),
    )


def legacy_occurrence_copies(ext: ProbabilisticViewExtension, original: int):
    """Marker-scan reference for ``occurrence_copies``."""
    marker = _marker_label(original)
    return sorted(
        node.parent.node_id
        for node in ext.pdocument.ordinary_nodes()
        if node.label == marker
    )


def legacy_nodes_between(
    ext: ProbabilisticViewExtension, ancestor: int, descendant: int
) -> int:
    """The original marker-scan ``nodes_between`` implementation."""
    sub = ext.pdocument.subdocument(ext.subtree_roots[ancestor])
    marker = _marker_label(descendant)
    target = None
    for node in sub.ordinary_nodes():
        if node.label == marker:
            target = node.parent
            break
    if target is None:
        raise KeyError(f"node {descendant} does not occur below {ancestor}")
    count = 0
    current = target
    while current is not None:
        if current.is_ordinary and parse_marker_label(current.label or "") is None:
            count += 1
        current = current.parent
    return count


def _subtree_has_marker(ext, holder: int, original: int) -> bool:
    sub = ext.pdocument.subdocument(ext.subtree_roots[holder])
    marker = _marker_label(original)
    return any(node.label == marker for node in sub.ordinary_nodes())


def legacy_selected_ancestors_or_self(ext, original):
    """Marker-scan reference: holders whose subtree bears ``Id(original)``,
    ordered top-down (the topmost holder's marker appears in the fewest
    other holders' subtrees)."""
    holders = [
        m for m in ext.subtree_roots if _subtree_has_marker(ext, m, original)
    ]
    return sorted(
        holders,
        key=lambda m: (
            sum(1 for h in holders if _subtree_has_marker(ext, h, m)),
            m,
        ),
    )


FIXTURES = [
    (paper.p_per, lambda: View("v2BON", paper.v2_bon())),
    (paper.p3_example12, lambda: View("v", paper.example12_view())),
]


@pytest.mark.parametrize("make_p,make_view", FIXTURES)
class TestRoundTripAgainstMarkers:
    """The provenance implementation answers identically to the marker one.

    The legacy extension carries both markers and a provenance table,
    so both code paths run over the same document and must agree
    node-for-node.
    """

    def test_occurrence_copies(self, make_p, make_view):
        legacy = legacy_marker_extension(make_p(), make_view())
        originals = set(legacy.provenance.copy_index)
        assert originals
        for original in originals:
            assert sorted(legacy.occurrence_copies(original)) == (
                legacy_occurrence_copies(legacy, original)
            )

    def test_selected_ancestors_or_self(self, make_p, make_view):
        legacy = legacy_marker_extension(make_p(), make_view())
        modern = probabilistic_extension(make_p(), make_view())
        for original in legacy.provenance.copy_index:
            want = legacy_selected_ancestors_or_self(legacy, original)
            assert legacy.selected_ancestors_or_self(original) == want
            assert modern.selected_ancestors_or_self(original) == want

    def test_nodes_between(self, make_p, make_view):
        legacy = legacy_marker_extension(make_p(), make_view())
        modern = probabilistic_extension(make_p(), make_view())
        checked = 0
        for original in legacy.provenance.copy_index:
            for holder in legacy.selected_ancestors_or_self(original):
                want = legacy_nodes_between(legacy, holder, original)
                assert legacy.nodes_between(holder, original) == want
                assert modern.nodes_between(holder, original) == want
                checked += 1
        assert checked

    def test_selection_and_occurrences_agree(self, make_p, make_view):
        legacy = legacy_marker_extension(make_p(), make_view())
        modern = probabilistic_extension(make_p(), make_view())
        assert legacy.selection == modern.selection
        assert legacy.occurrences == modern.occurrences


class TestDigestSharing:
    """The tentpole payoff: extension subtrees keep base-document digests."""

    def test_extension_subtree_digests_equal_base(self, p_per):
        ext = probabilistic_extension(p_per, View("v2BON", paper.v2_bon()))
        for original, copy_root in ext.subtree_roots.items():
            assert ext.pdocument.structural_digest(copy_root) == (
                p_per.structural_digest(original)
            )

    def test_marker_era_digests_differ_no_silent_share(self, p_per):
        # Legacy marker-bearing extensions are structurally different
        # (extra marker children), so their digests can never collide
        # with Id-free extensions' or the base document's: old warmed
        # store entries become misses, never wrong shares.
        view = View("v2BON", paper.v2_bon())
        legacy = legacy_marker_extension(p_per, view)
        modern = probabilistic_extension(p_per, view)
        assert legacy.pdocument.document_digest != modern.pdocument.document_digest
        for original in legacy.subtree_roots:
            assert legacy.pdocument.structural_digest(
                legacy.subtree_roots[original]
            ) != p_per.structural_digest(original)

    def test_extension_vs_base_evaluations_hit_same_entries(self, p_per):
        # One store serves the base document and the extension: the same
        # query over the base subdocument and over the result subdocument
        # (structurally identical now that markers are gone) must share
        # entries — the extension's cold pass starts warm.
        ext = probabilistic_extension(p_per, View("v2BON", paper.v2_bon()))
        q = parse_pattern("bonus[laptop]")
        store = InMemoryStore()
        base_answer = QuerySession(p_per.subdocument(5), store=store).answer_many([q])
        before = store.stats()["hits"]
        ext_answer = QuerySession(
            ext.result_subdocument(5), store=store
        ).answer_many([q])
        assert store.stats()["hits"] > before
        assert [set(a) for a in base_answer] != [] and len(base_answer) == len(
            ext_answer
        )

    def test_twin_extensions_hit_same_entries_cold(self, p_per):
        # Extensions of isomorphic twin documents are digest-identical:
        # the second twin's *first* store-backed pass must already hit,
        # and must recompute nothing (0 misses), on every backend.
        view = View("v2BON", paper.v2_bon())
        ext1 = probabilistic_extension(p_per, view)
        ext2 = probabilistic_extension(isomorphic_twin(p_per), view)
        assert ext1.pdocument.document_digest == ext2.pdocument.document_digest
        q = parse_pattern("doc(v2BON)/bonus[laptop]")
        for backend in ("exact", "array"):
            store = InMemoryStore()
            first = QuerySession(
                ext1.pdocument, backend=backend, store=store
            ).answer_many([q])
            before = store.stats()
            second = QuerySession(
                ext2.pdocument, backend=backend, store=store
            ).answer_many([q])
            after = store.stats()
            assert after["hits"] > before["hits"]
            assert after["misses"] == before["misses"]
            assert first == second


class TestRankPaths:
    def test_requires_bound_pdocument(self):
        table = ProvenanceTable()
        table.record(1, 2, 1)
        from repro.errors import PDocumentError

        with pytest.raises(PDocumentError):
            table.rank_path(2)

    def test_anchor_positions_sorted_and_complete(self, p_per):
        ext = probabilistic_extension(p_per, View("v2BON", paper.v2_bon()))
        positions = ext.pdocument.anchor_index()
        for original, copies in ext.provenance.copy_index.items():
            got = ext.provenance.anchor_positions(original)
            assert got == tuple(sorted(positions[c] for c in copies))
