"""Unit tests for the one store-consulting walk, ``stored_postorder``.

A *lane group* is one lane standing for ``width`` queries (every session
batch runs as one): the walk probes one key per lane class, counts its
hits, misses and neutral skips ``× width``, and saves each missed class's
row.  Live nodes are combined without a probe and never saved.
"""

from repro.prob.session import SessionStats
from repro.prob.traversal import Lane, stored_postorder
from repro.probability_array import LaneRows
from repro.pxml import ordinary, pdoc
from repro.store import InMemoryStore

WIDTH = 3


class DigestKeyer:
    """A StackedKeyer-shaped key source: one lane class, keyed by the
    structural digest."""

    def __init__(self, p) -> None:
        self.digests = p.structural_index()[0]

    def token(self, node_id, label_set):
        key = (self.digests[node_id], "group", None, None, "test")
        return (key,), False, (0,) * WIDTH


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


def rows_of(count: int) -> LaneRows:
    return LaneRows(({count: 1},) * WIDTH)


def count_b_nodes(node, entries):
    """Toy combine: every lane's row ``{number of b nodes: 1}``."""
    count = (node.label == "b") + sum(
        next(iter(entries[c.node_id].rows[0])) for c in node.children
    )
    return rows_of(count)


def assemble(lane_class, class_rows):
    return LaneRows(tuple(class_rows[c] for c in lane_class))


def group_lane(p, **overrides):
    options = dict(
        table_labels=frozenset({"b"}),
        combine=count_b_nodes,
        unit=rows_of(0),
        keyer=DigestKeyer(p),
        width=WIDTH,
        assemble=assemble,
    )
    options.update(overrides)
    return Lane(**options)


class TestLaneGroup:
    def test_counters_scale_with_width(self):
        p = twin_document()
        stats = SessionStats()
        store = InMemoryStore()
        root = stored_postorder(p, group_lane(p), store, stats)
        assert root.rows == ({2: 1},) * WIDTH
        # d and both c-leaves are neutral for all three queries; the
        # second b-subtree hits the entry its twin saved in this pass.
        assert stats.neutral_skips == WIDTH * 2
        assert stats.memo_misses == WIDTH * 2  # the root and one b
        assert stats.memo_hits == WIDTH * 1
        assert stats.node_visits == 2
        assert stats.subtree_skips == 3
        # One store probe per class serves the whole group.
        assert store.stats()["hits"] == 1
        # Each saved class row weighs its support × the subtree size.
        assert store.weight == 1 * p.size() + 1 * 2

    def test_live_nodes_are_combined_without_probe_or_save(self):
        p = twin_document()
        stats = SessionStats()
        store = InMemoryStore()
        lane = group_lane(p, live=frozenset({0, 1}))
        root = stored_postorder(p, lane, store, stats)
        assert root.rows == ({2: 1},) * WIDTH
        # Only b-subtree 3 is probed: a miss, since its live twin 1 was
        # combined but not saved; its row is the one entry saved.
        assert (store.hits, store.misses, store.puts) == (0, 1, 1)
        assert len(store) == 1
        assert stats.memo_hits == 0
        assert stats.memo_misses == WIDTH * 1
        assert stats.node_visits == 3  # both b-subtrees and the root

    def test_partial_hit_recombines_and_saves_only_missed_classes(self):
        p = twin_document()

        class TwoClassKeyer(DigestKeyer):
            def token(self, node_id, label_set):
                digest = self.digests[node_id]
                keys = tuple(
                    (digest, part, None, None, "test") for part in ("x", "y")
                )
                return keys, False, (0, 1, 0)

        store = InMemoryStore()
        b_digest = p.structural_index()[0][1]
        store.put((b_digest, "x", None, None, "test"), {1: 1})
        stats = SessionStats()
        lane = group_lane(p, keyer=TwoClassKeyer(p))
        root = stored_postorder(p, lane, store, stats)
        assert root.rows == ({2: 1},) * WIDTH
        # b-subtree 1: class x hits, class y misses, so the node is
        # combined and only y is saved; its twin 3 then hits both.
        assert stats.memo_misses == WIDTH * 2  # the root and b-subtree 1
        assert stats.memo_hits == WIDTH * 1
        assert stats.node_visits == 2
        assert (store.hits, store.misses) == (3, 3)
        assert store.puts == 1 + 1 + 2  # seed, y at b, x and y at root
