"""Property tests for the bulk store protocol (ISSUE-10).

The acceptance bar: a probe-plan (bulk) pass is *observably identical*
to the per-key pass — same answers (bit-exact on ``exact``, within
``1e-9`` on ``array``) AND the same ``stats()`` hit/miss/put accounting
— on random p-documents and query batches, against memory and SQLite
stores, cold, warm, warm-from-disk, and across spine-only in-place
mutations (``mark_mutated(node)``).  Only the round-trip *shape* (the
``bulk_probes``/``bulk_probe_keys``/``flushes`` counters) may differ
between the arms.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.prob import QuerySession, query_answer
from repro.pxml.pdocument import PDocument
from repro.store import InMemoryStore, SqliteStore
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9

#: The stats() keys that must match between the bulk and per-key arms.
#: (bulk_probes / bulk_probe_keys / flushes are the round-trip shape —
#: exactly what the two arms legitimately differ in.)
ACCOUNTING = (
    "hits", "misses", "puts",
    "anchored_hits", "anchored_misses", "anchored_puts",
    "entries",
)


class BulkMemoryStore(InMemoryStore):
    """An in-memory store whose passes take the probe-plan (bulk) path."""

    prefers_bulk = True


class PerKeySqliteStore(SqliteStore):
    """A SQLite store whose passes take the per-key (point) path."""

    prefers_bulk = False


def make_batch(seed: int, max_queries: int = 3):
    rng = random.Random(seed)
    p = random_pdocument(rng, labels=LABELS, max_depth=4, max_children=3)
    queries = [
        random_tree_pattern(rng, labels=LABELS, mb_length=rng.randint(1, 4))
        for _ in range(rng.randint(1, max_queries))
    ]
    return p, queries, rng


def mutate_node(p: PDocument, rng: random.Random) -> None:
    """A random in-place edit with node-scoped ``mark_mutated(node)``."""
    distributional = p.distributional_nodes()
    ordinary = [n for n in p.ordinary_nodes() if n is not p.root]
    if distributional and (not ordinary or rng.random() < 0.5):
        node = rng.choice(distributional)
        child = rng.choice(node.children)
        assert node.probabilities is not None
        node.probabilities[child.node_id] *= Fraction(rng.choice((0, 1, 2)), 2)
    elif ordinary:
        node = rng.choice(ordinary)
        node.label = rng.choice(LABELS)
    else:
        return  # a root-only document has nothing to churn
    p.mark_mutated(node)


def accounting(store) -> dict:
    stats = store.stats()
    return {key: stats[key] for key in ACCOUNTING}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bulk_matches_perkey_on_memory_store(seed):
    # Same document, same batch, one session per arm on its own store;
    # interleaved node-scoped mutations churn the digests under both.
    p, queries, rng = make_batch(seed)
    perkey = QuerySession(p, store=InMemoryStore())
    bulk = QuerySession(p, store=BulkMemoryStore())
    for round_ in range(3):
        expected = [query_answer(p, q) for q in queries]
        assert perkey.answer_many(queries) == expected
        assert bulk.answer_many(queries) == expected
        assert accounting(perkey.store) == accounting(bulk.store)
        if round_ < 2:
            mutate_node(p, rng)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bulk_matches_perkey_on_sqlite_warm_from_disk(
    tmp_path_factory, seed
):
    # Cold fill, then a simulated restart (fresh lazy store over the
    # same file): the warm-from-disk pass must serve identical answers
    # and identical hit/miss/put counts whichever probe shape runs.
    p, queries, _ = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    tmp = tmp_path_factory.mktemp("bulk")
    snapshots = {}
    for arm, store_class in (("perkey", PerKeySqliteStore), ("bulk", SqliteStore)):
        # A live SqliteStore prefers bulk probing — the production
        # default takes the bulk path.
        path = tmp / f"{arm}_{seed}.db"
        store = store_class(path, preload=False)
        assert store.prefers_bulk == (arm == "bulk")
        cold = QuerySession(p, store=store)
        assert cold.answer_many(queries) == expected
        cold_counts = accounting(store)
        store.close()
        reopened = store_class(path, preload=False)
        warm = QuerySession(p, store=reopened)
        assert warm.answer_many(queries) == expected
        warm_counts = accounting(reopened)
        if arm == "bulk":
            assert reopened.bulk_probes > 0
        reopened.close()
        snapshots[arm] = (cold_counts, warm_counts)
    assert snapshots["perkey"] == snapshots["bulk"]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bulk_matches_perkey_on_stacked_array_pass(seed):
    # The stacked (array-backend) pass uses the same probe object; its
    # bulk plan must preserve answers within 1e-9 of exact and keep the
    # combined-key store accounting identical to per-key stacked runs.
    pytest.importorskip("numpy")
    p, queries, rng = make_batch(seed)
    exact = [query_answer(p, q) for q in queries]
    perkey = QuerySession(p, backend="array", store=InMemoryStore())
    bulk = QuerySession(p, backend="array", store=BulkMemoryStore())
    for session in (perkey, bulk):
        for answers in (session.answer_many(queries),
                        session.answer_many(queries)):
            for got, want in zip(answers, exact):
                for node_id in set(got) | set(want):
                    assert abs(
                        got.get(node_id, 0.0) - float(want.get(node_id, 0))
                    ) < TOLERANCE
    assert accounting(perkey.store) == accounting(bulk.store)
