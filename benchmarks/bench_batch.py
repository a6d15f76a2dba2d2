"""Batch benchmark: sequential answer() calls vs one QuerySession pass.

Three strategies answer the same 8-query workload (one personnel query
per project; ``workloads/synthetic.batch_workload``) at growing document
sizes:

* ``sequential``   — eight independent ``answer()`` evaluations, one
  fresh single-pass engine per query (the PR-1 state of the art);
* ``batched_cold`` — ``QuerySession.answer_many`` on a fresh session:
  one shared post-order traversal with cross-query subtree memoization;
* ``batched_warm`` — the same batch repeated on a warm session, where
  candidate-free subtrees are skipped without traversal.

Run standalone to emit the machine-readable comparison::

    PYTHONPATH=src python benchmarks/bench_batch.py           # full sizes
    PYTHONPATH=src python benchmarks/bench_batch.py --quick   # CI smoke

which writes ``BENCH_batch.json`` at the repository root.  The full run
asserts the ISSUE-2 acceptance bar: batched-cold ≥ 3× sequential at the
largest size.  Under pytest the same strategies run through
pytest-benchmark with exactness asserted against each other.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

from common import best_of as _best_of, max_abs_error as _max_abs_error, write_report
from repro.prob import QuerySession, query_answer
from repro.workloads.synthetic import batch_workload

SIZES = [8, 16]
FULL_SIZES = [8, 16, 32, 64]
PROJECTS = 8
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch.json"


def _setup(persons: int):
    return batch_workload(persons=persons, projects=PROJECTS, seed=persons)


def sequential_answers(p, queries, backend="exact"):
    """The pre-session control flow: one engine pass per query."""
    return [query_answer(p, q, backend=backend) for q in queries]


def batched_answers(p, queries, backend="exact", session=None):
    if session is None:
        session = QuerySession(p, backend=backend)
    return session.answer_many(queries)


# ----------------------------------------------------------------------
# pytest-benchmark harness
# ----------------------------------------------------------------------
@pytest.mark.paper("§6 cost model — per-query sequential baseline")
@pytest.mark.parametrize("persons", SIZES)
def test_sequential_baseline(benchmark, report, persons):
    p, queries = _setup(persons)
    answers = benchmark(sequential_answers, p, queries)
    report.append(
        f"batch persons={persons}: sequential, {len(queries)} queries, "
        f"{sum(len(a) for a in answers)} answers"
    )


@pytest.mark.paper("§6 cost model — batched session, cold memo")
@pytest.mark.parametrize("persons", SIZES)
def test_batched_cold(benchmark, report, persons):
    p, queries = _setup(persons)
    answers = benchmark(batched_answers, p, queries)
    assert answers == sequential_answers(p, queries)  # exactness
    report.append(f"batch persons={persons}: one shared traversal per batch")


@pytest.mark.paper("§6 cost model — batched session, warm memo")
@pytest.mark.parametrize("persons", SIZES)
def test_batched_warm(benchmark, report, persons):
    p, queries = _setup(persons)
    session = QuerySession(p)
    session.answer_many(queries)  # warm the memo outside the timer
    answers = benchmark(batched_answers, p, queries, "exact", session)
    assert answers == sequential_answers(p, queries)
    report.append(f"batch persons={persons}: warm memo skips subtrees")


@pytest.mark.paper("§6 cost model — stacked array backend, warm plan")
@pytest.mark.parametrize("persons", SIZES)
def test_batched_warm_array(benchmark, report, persons):
    p, queries = _setup(persons)
    exact = sequential_answers(p, queries)
    session = QuerySession(p, backend="array")
    session.answer_many(queries)  # build + memoize the stacked plan
    answers = benchmark(batched_answers, p, queries, "array", session)
    for d_exact, d_got in zip(exact, answers):
        for node_id in set(d_exact) | set(d_got):
            assert abs(
                float(d_got.get(node_id, 0.0))
                - float(d_exact.get(node_id, 0))
            ) < 1e-9
    report.append(
        f"batch persons={persons}: one lane-group pass (rows shared by class)"
    )


# ----------------------------------------------------------------------
# Standalone JSON emitter
# ----------------------------------------------------------------------
def _backend_columns(
    p, queries, exact: list[dict], backends: list[str], repeats: int
) -> dict:
    """Cold/warm ``answer_many`` timings and exactness per float
    backend.  A warm batch is a plan replay: the session memoizes every
    batch plan's answers per epoch, so a repeat costs a plan lookup
    instead of a traversal."""
    columns = {}
    for name in backends:
        got = batched_answers(p, queries, backend=name)
        warm_session = QuerySession(p, backend=name)
        warm_session.answer_many(queries)
        columns[name] = {
            "batched_cold_s": _best_of(
                repeats,
                lambda: batched_answers(p, queries, backend=name),
            ),
            "batched_warm_s": _best_of(
                repeats,
                lambda: batched_answers(p, queries, name, warm_session),
            ),
            "max_abs_error_vs_exact": _max_abs_error(exact, got),
        }
    return columns


def run(sizes: list[int], repeats: int = 3) -> dict:
    backends = ["array"]
    results = []
    for persons in sizes:
        p, queries = _setup(persons)
        exact = sequential_answers(p, queries)
        batched = batched_answers(p, queries)
        assert batched == exact
        warm_session = QuerySession(p)
        warm_session.answer_many(queries)
        timings = {
            "sequential_s": _best_of(repeats, sequential_answers, p, queries),
            "batched_cold_s": _best_of(repeats, batched_answers, p, queries),
            "batched_warm_s": _best_of(
                repeats, batched_answers, p, queries, "exact", warm_session
            ),
        }
        stats_session = QuerySession(p)
        stats_session.answer_many(queries)
        results.append(
            {
                "persons": persons,
                "pdocument_size": p.size(),
                "queries": len(queries),
                "answers": sum(len(a) for a in exact),
                **timings,
                "speedup_batched_vs_sequential": timings["sequential_s"]
                / timings["batched_cold_s"],
                "speedup_warm_vs_sequential": timings["sequential_s"]
                / timings["batched_warm_s"],
                "backends": _backend_columns(
                    p, queries, exact, backends, repeats
                ),
                "cold_session_stats": stats_session.stats.snapshot(),
            }
        )
    report = {
        "benchmark": "bench_batch",
        "workload": "workloads/synthetic batch_workload "
        f"({PROJECTS} per-project queries, neutral profile subtrees)",
        "strategies": ["sequential", "batched_cold", "batched_warm"],
        "backends": backends,
        "repeats": repeats,
        "results": results,
        "array_vs_exact_max_abs_error": max(
            row["backends"]["array"]["max_abs_error_vs_exact"]
            for row in results
        ),
    }
    return report


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
    report = run(sizes, repeats=1 if args.quick else 3)
    write_report(args.output, report)
    largest = report["results"][-1]
    print(f"wrote {args.output}")
    print(
        f"persons={largest['persons']}: "
        f"batched vs sequential ×{largest['speedup_batched_vs_sequential']:.1f} "
        f"cold / ×{largest['speedup_warm_vs_sequential']:.1f} warm, "
        f"max |array − exact| = {report['array_vs_exact_max_abs_error']:.2e}"
    )
    if largest["speedup_batched_vs_sequential"] <= 1.0:
        print("FAIL: batched evaluation not faster than sequential",
              file=sys.stderr)
        return 1
    if not args.quick and largest["speedup_batched_vs_sequential"] < 3.0:
        print("FAIL: batched speedup below the 3x acceptance bar",
              file=sys.stderr)
        return 1
    if report["array_vs_exact_max_abs_error"] > 1e-9:
        print("FAIL: array backend outside the 1e-9 exactness bar",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
