"""Store benchmark: cold vs warm-in-process vs warm-from-disk sessions.

Three strategies answer the same 8-query workload (one personnel query
per project; ``workloads/synthetic.batch_workload``) at growing document
sizes:

* ``cold``              — a fresh ``QuerySession`` over a fresh, empty
  ``InMemoryStore`` (the default production configuration on first use);
* ``warm_in_process``   — the same session re-answers the batch, with
  every structural entry already resident in memory;
* ``warm_from_disk``    — a *restarted worker*: a previous run populated
  a ``SqliteStore`` file, then a fresh store instance over that file and
  a fresh session answer the batch, preloading the persisted entries.

Run standalone to emit the machine-readable comparison::

    PYTHONPATH=src python benchmarks/bench_store.py           # full sizes
    PYTHONPATH=src python benchmarks/bench_store.py --quick   # CI smoke

which writes ``BENCH_store.json`` at the repository root.  The full run
asserts the ISSUE-3 acceptance bar: warm-from-disk startup beats cold
evaluation on the 8-query workload at 64 persons.  Both runs also assert
the structural-sharing bar (in a document holding isomorphic subtrees,
the store is hit already during the first cold pass).  Under pytest the same strategies run through
pytest-benchmark with exactness asserted against sequential evaluation.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import pytest

from common import best_of as _best_of, write_report

from repro.prob import QuerySession, query_answer
from repro.pxml import ind, mux, ordinary, pdoc
from repro.store import InMemoryStore, SqliteStore
from repro.tp import parse_pattern
from repro.workloads.synthetic import batch_workload

SIZES = [8, 16]
FULL_SIZES = [8, 16, 32, 64]
PROJECTS = 8
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _setup(persons: int):
    return batch_workload(persons=persons, projects=PROJECTS, seed=persons)


def cold_answers(p, queries):
    """Fresh session, fresh in-memory store: the first-ever evaluation."""
    return QuerySession(p, store=InMemoryStore()).answer_many(queries)


def warm_disk_answers(p, queries, path):
    """A restarted worker: fresh session over a populated store file."""
    store = SqliteStore(path)
    try:
        return QuerySession(p, store=store).answer_many(queries)
    finally:
        store.close()


def _populate(p, queries, path):
    store = SqliteStore(path)
    QuerySession(p, store=store).answer_many(queries)
    store.close()


def isomorphic_cold_hits() -> int:
    """Store hits during one cold pass over a document with twin subtrees."""

    def person(i):
        base = 100 * i
        return ordinary(
            base, "person",
            ordinary(base + 1, "name",
                     mux(base + 2, (ordinary(base + 3, "Rick"), "0.5"))),
            ordinary(base + 4, "bonus",
                     ind(base + 5,
                         (ordinary(base + 6, "project0",
                                   ordinary(base + 7, "42")), "0.8"))),
        )

    p = pdoc(ordinary(1, "IT-personnel", person(1), person(2)))
    q = parse_pattern("IT-personnel//person[name/Rick]/bonus")
    session = QuerySession(p)
    answer = session.answer(q)
    assert answer == query_answer(p, q)
    return session.store.stats()["hits"]


# ----------------------------------------------------------------------
# pytest-benchmark harness
# ----------------------------------------------------------------------
@pytest.mark.paper("§6 cost model — cold store-backed session")
@pytest.mark.parametrize("persons", SIZES)
def test_store_cold(benchmark, report, persons):
    p, queries = _setup(persons)
    answers = benchmark(cold_answers, p, queries)
    assert answers == [query_answer(p, q) for q in queries]
    report.append(f"store persons={persons}: cold session + empty store")


@pytest.mark.paper("§6 cost model — warm-in-process store")
@pytest.mark.parametrize("persons", SIZES)
def test_store_warm_in_process(benchmark, report, persons):
    p, queries = _setup(persons)
    session = QuerySession(p, store=InMemoryStore())
    session.answer_many(queries)  # warm outside the timer
    answers = benchmark(session.answer_many, queries)
    assert answers == [query_answer(p, q) for q in queries]
    report.append(f"store persons={persons}: warm in-process entries")


@pytest.mark.paper("§6 cost model — warm-from-disk store (restart)")
@pytest.mark.parametrize("persons", SIZES)
def test_store_warm_from_disk(benchmark, report, tmp_path, persons):
    p, queries = _setup(persons)
    path = tmp_path / f"memo_{persons}.db"
    _populate(p, queries, path)
    answers = benchmark(warm_disk_answers, p, queries, path)
    assert answers == [query_answer(p, q) for q in queries]
    report.append(f"store persons={persons}: restarted worker, disk entries")


def test_isomorphic_subtrees_hit_cold(report):
    hits = isomorphic_cold_hits()
    assert hits > 0
    report.append(f"store twins: {hits} structural hits on the cold pass")


# ----------------------------------------------------------------------
# Standalone JSON emitter
# ----------------------------------------------------------------------
def run(sizes: list[int], store_dir: Path, repeats: int = 3) -> dict:
    results = []
    for persons in sizes:
        p, queries = _setup(persons)
        expected = [query_answer(p, q) for q in queries]
        assert cold_answers(p, queries) == expected
        path = store_dir / f"bench_store_{persons}.db"
        _populate(p, queries, path)
        assert warm_disk_answers(p, queries, path) == expected
        warm_session = QuerySession(p, store=InMemoryStore())
        warm_session.answer_many(queries)
        timings = {
            "cold_s": _best_of(repeats, cold_answers, p, queries),
            "warm_in_process_s": _best_of(
                repeats, warm_session.answer_many, queries
            ),
            "warm_from_disk_s": _best_of(
                repeats, warm_disk_answers, p, queries, path
            ),
        }
        probe = SqliteStore(path)
        store_gauges = probe.stats()
        probe.close()
        results.append(
            {
                "persons": persons,
                "pdocument_size": p.size(),
                "queries": len(queries),
                "answers": sum(len(a) for a in expected),
                **timings,
                "speedup_disk_vs_cold": timings["cold_s"]
                / timings["warm_from_disk_s"],
                "speedup_memory_vs_cold": timings["cold_s"]
                / timings["warm_in_process_s"],
                "store_entries": store_gauges["entries"],
                "store_weight": store_gauges["weight"],
            }
        )
    return {
        "benchmark": "bench_store",
        "workload": "workloads/synthetic batch_workload "
        f"({PROJECTS} per-project queries, neutral profile subtrees)",
        "strategies": ["cold", "warm_in_process", "warm_from_disk"],
        "repeats": repeats,
        "isomorphic_cold_hits": isomorphic_cold_hits(),
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes / single repeat (CI smoke pass)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT,
        help=f"where to write the JSON report (default: {OUTPUT})",
    )
    args = parser.parse_args(argv)
    sizes = SIZES if args.quick else FULL_SIZES
    with tempfile.TemporaryDirectory(prefix="bench_store_") as scratch:
        report = run(sizes, Path(scratch), repeats=1 if args.quick else 3)
    write_report(args.output, report)
    largest = report["results"][-1]
    print(f"wrote {args.output}")
    print(
        f"persons={largest['persons']}: "
        f"disk-warm vs cold ×{largest['speedup_disk_vs_cold']:.1f}, "
        f"memory-warm vs cold ×{largest['speedup_memory_vs_cold']:.1f}, "
        f"{largest['store_entries']} persisted entries, "
        f"{report['isomorphic_cold_hits']} isomorphic cold hits"
    )
    if report["isomorphic_cold_hits"] <= 0:
        print("FAIL: isomorphic subtrees did not share work on the cold pass",
              file=sys.stderr)
        return 1
    if not args.quick and largest["speedup_disk_vs_cold"] <= 1.0:
        print("FAIL: warm-from-disk startup not faster than cold evaluation",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
