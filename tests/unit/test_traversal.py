"""Unit tests for the one store-consulting walk, ``stored_postorder``.

A *lane group* is one lane standing for ``width`` queries (every session
batch runs as one): the walk probes and saves it like any lane, counts
its hits, misses and neutral skips ``× width``, and stores only what its
``cacheable`` hook returns.
"""

from repro.prob.session import SessionStats
from repro.prob.traversal import Lane, stored_postorder
from repro.pxml import ordinary, pdoc
from repro.store import InMemoryStore


class DigestKeyer:
    """A StackedKeyer-shaped key source: one key per structural digest."""

    def __init__(self, p) -> None:
        self.digests, self.sizes = p.structural_index()

    def token(self, node_id, label_set):
        return (self.digests[node_id], "group", None, None, "test"), False

    def weight(self, node_id, value) -> int:
        return self.sizes[node_id]


def twin_document():
    # a( b(c), b(c), d ): the two b-subtrees are isomorphic, d and the
    # c-leaves hold no "b" and are neutral.
    return pdoc(
        ordinary(
            0, "a",
            ordinary(1, "b", ordinary(2, "c")),
            ordinary(3, "b", ordinary(4, "c")),
            ordinary(5, "d"),
        )
    )


def count_b_nodes(node, entries):
    """Toy combine: the number of ``b`` nodes in the subtree."""
    return (node.label == "b") + sum(entries[c.node_id] for c in node.children)


def group_lane(p, **overrides):
    options = dict(
        table_labels=frozenset({"b"}),
        combine=count_b_nodes,
        unit=0,
        keyer=DigestKeyer(p),
        width=3,
    )
    options.update(overrides)
    return Lane(**options)


class TestLaneGroup:
    def test_counters_scale_with_width(self):
        p = twin_document()
        stats = SessionStats()
        store = InMemoryStore()
        root = stored_postorder(p, group_lane(p), store, stats)
        assert root == 2
        # d and both c-leaves are neutral for all three queries; the
        # second b-subtree hits the entry its twin saved in this pass.
        assert stats.neutral_skips == 3 * 2
        assert stats.memo_misses == 3 * 2  # the root and one b
        assert stats.memo_hits == 3 * 1
        assert stats.node_visits == 2
        assert stats.subtree_skips == 3
        # One store probe serves the whole group.
        assert store.stats()["hits"] == 1

    def test_uncacheable_entries_are_recombined(self):
        p = twin_document()
        stats = SessionStats()
        store = InMemoryStore()
        lane = group_lane(p, cacheable=lambda entry: None)
        root = stored_postorder(p, lane, store, stats)
        assert root == 2
        assert len(store) == 0
        assert stats.memo_hits == 0
        assert stats.node_visits == 3  # both b-subtrees and the root
