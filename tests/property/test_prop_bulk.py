"""Property tests for the one store I/O path.

Every pass probes with ``get`` and lands its saves with one
``put_many``, whatever the store.  So an in-memory store and a SQLite
store must be *observably identical* to a session: same answers
(bit-exact on ``exact``, within ``1e-9`` relative on ``array``) AND the
same ``stats()`` hit/miss/put accounting — on random p-documents and
query batches, cold, warm, and across spine-only in-place mutations
(``mark_mutated(node)``).  A lazy SQLite store reopened from disk must
answer a warmed batch without a single miss.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.prob import QuerySession, query_answer
from repro.pxml.pdocument import PDocument
from repro.store import InMemoryStore, SqliteStore
from repro.workloads.synthetic import random_pdocument, random_tree_pattern

LABELS = ("a", "b", "c")
TOLERANCE = 1e-9

#: The stats() keys that must match between the two stores.  (The
#: ``flushes`` counter is the write shape — a memory store never
#: flushes.)
ACCOUNTING = (
    "hits", "misses", "puts",
    "anchored_hits", "anchored_misses", "anchored_puts",
    "bulk_puts", "bulk_put_keys",
    "entries",
)


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


def assert_relatively_close(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for node_id, exact in want.items():
        assert abs(got[node_id] - float(exact)) <= TOLERANCE * float(exact)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_memory_and_sqlite_agree_across_mutations(tmp_path_factory, seed):
    # Same document, same batch, one session per store; the batch runs
    # cold, then warm, and interleaved node-scoped mutations churn the
    # digests under both.
    p, queries, rng = make_batch(seed)
    path = tmp_path_factory.mktemp("agree") / f"{seed}.db"
    memory = QuerySession(p, store=InMemoryStore())
    sqlite = QuerySession(p, store=SqliteStore(path))
    try:
        for round_ in range(3):
            expected = [query_answer(p, q) for q in queries]
            for _ in range(2):
                assert memory.answer_many(queries) == expected
                assert sqlite.answer_many(queries) == expected
                assert accounting(memory.store) == accounting(sqlite.store)
            if round_ < 2:
                mutate_node(p, rng)
    finally:
        sqlite.store.close()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_lazy_sqlite_reopened_from_disk_answers_without_misses(
    tmp_path_factory, seed
):
    # Cold fill, then a simulated restart: a fresh lazy store over the
    # same file serves the whole batch from disk by point reads.
    p, queries, _ = make_batch(seed)
    expected = [query_answer(p, q) for q in queries]
    path = tmp_path_factory.mktemp("lazy") / f"{seed}.db"
    store = SqliteStore(path, preload=False)
    assert QuerySession(p, store=store).answer_many(queries) == expected
    store.close()
    reopened = SqliteStore(path, preload=False)
    warm = QuerySession(p, store=reopened)
    assert warm.answer_many(queries) == expected
    assert reopened.misses == 0
    assert reopened.puts == 0
    reopened.close()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_memory_and_sqlite_agree_on_array_pass(tmp_path_factory, seed):
    # The array backend's pass takes the same I/O path: answers within
    # 1e-9 relative of exact on both stores, cold and warm, with the
    # same combined-key store accounting.
    p, queries, _ = make_batch(seed)
    exact = [query_answer(p, q) for q in queries]
    path = tmp_path_factory.mktemp("array") / f"{seed}.db"
    memory = QuerySession(p, backend="array", store=InMemoryStore())
    sqlite = QuerySession(p, backend="array", store=SqliteStore(path))
    try:
        for _ in range(2):
            for session in (memory, sqlite):
                for got, want in zip(session.answer_many(queries), exact):
                    assert_relatively_close(got, want)
            assert accounting(memory.store) == accounting(sqlite.store)
    finally:
        sqlite.store.close()
