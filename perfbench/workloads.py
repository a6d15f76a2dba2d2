"""The three benchmark workloads: set-up, exact oracles, and op streams.

Each workload is a closed loop of one caller calling the library's
public API the way a user of ``RewritingCache`` / ``QuerySession``
does.  ``setup()`` is what ``setup_s`` times; ``prepare_oracles()``
computes the exact ``query_answer`` oracles untimed; ``ops()`` yields
the endless op stream, doing any untimed preparation (fresh caches,
oracle maintenance) between ops.  Every workload names a *primary* and
a *secondary* op kind: the two latencies BENCHMARK.json gates.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from functools import partial
from pathlib import Path
from typing import Iterator

from repro import QuerySession, SqliteStore, ordinary, pdoc, query_answer
from repro.cache import AnswerSource, RewritingCache
from repro.pxml.pdocument import PNode

from inputs import (
    CHURN_WRITE_BEHIND,
    churn_inputs,
    direct_batch_inputs,
    view_cache_inputs,
)
from measure import FLOAT_REL_TOL, Op, compare, compare_many

#: Where runs keep their temporary SQLite files and their reports.
OUT_DIR = Path(__file__).resolve().parent / "out"


def _cached_check(oracle: dict, expected: AnswerSource):
    def check(result):
        if result.source is not expected:
            return f"answered by {result.source.name}, declared {expected.name}"
        return compare(result.answer, oracle)

    return check


def _cached_answers(result) -> int:
    return len(result.answer)


def _cached_source(result) -> str:
    return result.source.name.lower()


def _shuffled(rng, n: int) -> Iterator[int]:
    """``0..n-1`` in a fresh seeded order each pass: every query gets the
    same share of the ops, so a run's median does not hinge on which
    queries the draws happened to favour."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield from order


def _batch_answers(result) -> int:
    return sum(len(answer) for answer in result)


class ViewCache:
    """The paper's pipeline (exact backend): materialize, decide, answer.

    Ops, round-robin, each cycling through its queries in seeded order:

    * ``tp_cold`` — the first answer of a TP query through a fresh cache
      holding ``personnel_views()`` (built untimed just before);
    * ``tp_warm`` — a repeat answer on a cache warmed during set-up;
    * ``tpi`` — a TPIrewrite answer on a cache holding one view trio;
    * ``direct_cold`` — the same TP query on a fresh ``QuerySession``.
    """

    name = "view_cache"
    backend = "exact"
    primary, secondary = "tp_cold", "tpi"
    kinds = ("tp_cold", "tpi", "tp_warm", "direct_cold")

    def __init__(self, persons: int, seed: int, probe) -> None:
        self.inputs = view_cache_inputs(persons, seed)
        self.probe = probe
        self.p = None

    def _cache(self, views) -> RewritingCache:
        cache = self.probe.cache(
            RewritingCache(
                self.p, backend=self.backend, store=self.probe.memory_store()
            )
        )
        for view in views:
            cache.materialize(view)
        return cache

    def setup(self) -> None:
        inputs = self.inputs
        self.p = self.probe.document(inputs.document())
        self.warm = self._cache(inputs.views)
        for query in inputs.tp_queries:
            self.warm.answer(query)
        self.tpi_caches = []
        for trio in inputs.trios:
            cache = self._cache(trio.views)
            cache.answer(trio.query)
            self.tpi_caches.append(cache)

    def prepare_oracles(self) -> None:
        self.tp_oracles = [query_answer(self.p, q) for q in self.inputs.tp_queries]
        self.tpi_oracles = [
            query_answer(self.p, trio.query) for trio in self.inputs.trios
        ]

    def size(self) -> int:
        return self.p.size()

    def ops(self) -> Iterator[Op]:
        inputs = self.inputs
        queries = inputs.tp_queries
        cold, warm, direct = (_shuffled(inputs.rng, len(queries)) for _ in range(3))
        trios = _shuffled(inputs.rng, len(inputs.trios))
        single, multi = AnswerSource.SINGLE_VIEW, AnswerSource.MULTI_VIEW
        while True:
            j = next(cold)
            fresh = self._cache(inputs.views)
            yield Op(
                "tp_cold",
                partial(fresh.answer, queries[j]),
                _cached_check(self.tp_oracles[j], single),
                _cached_answers,
                _cached_source,
            )
            del fresh
            j = next(warm)
            yield Op(
                "tp_warm",
                partial(self.warm.answer, queries[j]),
                _cached_check(self.tp_oracles[j], single),
                _cached_answers,
                _cached_source,
            )
            t = next(trios)
            yield Op(
                "tpi",
                partial(self.tpi_caches[t].answer, inputs.trios[t].query),
                _cached_check(self.tpi_oracles[t], multi),
                _cached_answers,
                _cached_source,
            )
            j = next(direct)
            session = QuerySession(
                self.p, backend=self.backend, store=self.probe.memory_store()
            )
            yield Op(
                "direct_cold",
                partial(session.answer, queries[j]),
                partial(compare, oracle=self.tp_oracles[j]),
                len,
            )

    def layer_extra(self) -> dict:
        return {}

    def close(self) -> None:
        self.p = self.warm = self.tpi_caches = None


class DirectBatch:
    """Cold ``answer_many`` of the 8-query batch (``array`` backend).

    * ``batch_cold`` — ``mark_all_mutated()``, a fresh session and the
      batch: every op pays the index builds, candidate discovery and the
      stacked DP pass, as a newly loaded document does;
    * ``batch_indexed`` — a fresh session on the document whose indexes
      the previous op built: the same work minus the index builds.
    """

    name = "direct_batch"
    backend = "array"
    primary, secondary = "batch_cold", "batch_indexed"
    kinds = ("batch_cold", "batch_indexed")

    def __init__(self, persons: int, seed: int, probe) -> None:
        self.persons, self.seed, self.probe = persons, seed, probe
        self.p = None

    def setup(self) -> None:
        p, self.queries = direct_batch_inputs(self.persons, self.seed)
        self.p = self.probe.document(p)

    def prepare_oracles(self) -> None:
        self.oracles = [query_answer(self.p, q) for q in self.queries]

    def size(self) -> int:
        return self.p.size()

    def _fresh_session_batch(self) -> list:
        session = QuerySession(
            self.p, backend=self.backend, store=self.probe.memory_store()
        )
        return session.answer_many(self.queries)

    def _cold_batch(self) -> list:
        self.p.mark_all_mutated()
        return self._fresh_session_batch()

    def ops(self) -> Iterator[Op]:
        check = partial(compare_many, oracles=self.oracles, rel_tol=FLOAT_REL_TOL)
        while True:
            yield Op("batch_cold", self._cold_batch, check, _batch_answers)
            yield Op("batch_indexed", self._fresh_session_batch, check, _batch_answers)

    def layer_extra(self) -> dict:
        return {}

    def close(self) -> None:
        self.p = None


class Churn:
    """Writes beside reads on one resident ``array`` session over a
    ``SqliteStore`` (write-behind of ``CHURN_WRITE_BEHIND`` rows, drained
    when full and on close; no other flush).

    * ``read`` — the 4-query batch after at least one write;
    * ``write`` — one edit of the stream plus ``mark_mutated(node)``;
    * ``replay`` — a batch right after another batch (a plan replay).

    The stream's first step, a cold read of the whole document, is part
    of set-up.  The oracle replays the same stream on a twin document
    and re-evaluates, exactly and on its own, the one person each edit
    touched: persons hang off the ordinary root, so an answer node's
    probability depends on its own person's subtree alone.
    """

    name = "churn"
    backend = "array"
    primary, secondary = "read", "write"
    kinds = ("read", "write", "replay")

    def __init__(self, persons: int, seed: int, probe) -> None:
        self.persons, self.seed, self.probe = persons, seed, probe
        self.p = self.store = self.directory = None

    def setup(self) -> None:
        p, self.steps = churn_inputs(self.persons, self.seed)
        self.p = self.probe.document(p)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="churn-", dir=OUT_DIR)
        self.store = SqliteStore(
            os.path.join(self.directory, "memo.sqlite"),
            write_behind=CHURN_WRITE_BEHIND,
        )
        self.session = QuerySession(
            self.p, backend=self.backend, store=self.probe.store(self.store)
        )
        self.queries = self.steps[0][1]  # the stream opens with a read
        self.session.answer_many(self.queries)

    def prepare_oracles(self) -> None:
        twin, self.twin_steps = churn_inputs(self.persons, self.seed)
        self.twin = twin
        self.touched: list[PNode] = []
        twin.mark_mutated = self.touched.append
        self.oracles = [query_answer(twin, q) for q in self.queries]

    def _update_oracles(self) -> None:
        """Re-evaluate the persons the twin's last edit touched."""
        for node in self.touched:
            while node.label != "person":
                node = node.parent
            person = self.twin.subdocument(node.node_id).root
            alone = pdoc(ordinary(self.twin.root.node_id, self.twin.root.label, person))
            bonus = node.node_id + 1
            for oracle, query in zip(self.oracles, self.queries):
                oracle.pop(bonus, None)
                oracle.update(query_answer(alone, query))
        self.touched.clear()

    def size(self) -> int:
        return self.p.size()

    def ops(self) -> Iterator[Op]:
        check = partial(compare_many, oracles=self.oracles, rel_tol=FLOAT_REL_TOL)
        steps = itertools.cycle(zip(self.steps, self.twin_steps))
        next(steps)  # the set-up read
        wrote = False
        for (kind, action), (_, twin_action) in steps:
            if kind == "mutate":
                twin_action()
                self._update_oracles()
                wrote = True
                yield Op("write", action, lambda result: None)
                continue
            yield Op(
                "read" if wrote else "replay",
                partial(self.session.answer_many, action),
                check,
                _batch_answers,
            )
            wrote = False

    def layer_extra(self) -> dict:
        self.store.flush()
        entries = len(self.store)
        size = os.path.getsize(os.path.join(self.directory, "memo.sqlite"))
        return {"store.bytes_per_entry": size / entries if entries else 0.0}

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
        self.p = self.store = self.directory = None


WORKLOADS = {w.name: w for w in (ViewCache, DirectBatch, Churn)}
