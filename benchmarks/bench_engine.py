"""Engine benchmark: per-candidate baseline vs the single-pass engine.

Two strategies answer the same ``q(P̂)`` on the ``workloads/synthetic``
personnel scaling family:

* ``per_candidate`` — the pre-engine formulation: one full anchored DP
  (``node_probability``) per candidate node, exact arithmetic;
* ``engine_exact``  — the single-pass engine (one DP traversal for all
  candidates), exact ``Fraction`` backend.

The committed ``BENCH_engine.json`` also records an ``engine_fast`` arm
of the retired ``fast`` float backend, as a historical number.

Run standalone to emit the machine-readable comparison::

    PYTHONPATH=src python benchmarks/bench_engine.py           # full sizes
    PYTHONPATH=src python benchmarks/bench_engine.py --quick   # CI smoke

which writes ``BENCH_engine.json`` at the repository root.  Under pytest
the same strategies run through pytest-benchmark with exactness asserted
against each other.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

from common import best_of as _best_of, write_report

from repro.prob import EvaluationEngine, node_probability
from repro.workloads.synthetic import personnel_pdocument, personnel_query

SIZES = [4, 8, 16]
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _setup(persons: int):
    p = personnel_pdocument(persons=persons, projects=3, seed=persons)
    q = personnel_query("project0")
    candidates = sorted(EvaluationEngine(p, [q]).candidate_ids())
    return p, q, candidates


def per_candidate_answer(p, q, candidates):
    """The old ``query_answer`` control flow: one anchored DP per node."""
    answer = {}
    for node_id in candidates:
        probability = node_probability(p, q, node_id)
        if probability > 0:
            answer[node_id] = probability
    return answer


def engine_answer(p, q, candidates, backend):
    return EvaluationEngine(p, [q], backend=backend).answer(candidates)


# ----------------------------------------------------------------------
# pytest-benchmark harness
# ----------------------------------------------------------------------
@pytest.mark.paper("§7 cost claim — per-candidate anchored DP baseline")
@pytest.mark.parametrize("persons", SIZES)
def test_per_candidate_baseline(benchmark, report, persons):
    p, q, candidates = _setup(persons)
    answer = benchmark(per_candidate_answer, p, q, candidates)
    report.append(
        f"engine persons={persons}: per-candidate baseline, "
        f"{len(candidates)} candidates, {len(answer)} answers"
    )


@pytest.mark.paper("§7 cost claim — single-pass engine, exact backend")
@pytest.mark.parametrize("persons", SIZES)
def test_engine_exact(benchmark, report, persons):
    p, q, candidates = _setup(persons)
    answer = benchmark(engine_answer, p, q, candidates, "exact")
    assert answer == per_candidate_answer(p, q, candidates)  # exactness
    report.append(f"engine persons={persons}: single-pass exact, one traversal")


# ----------------------------------------------------------------------
# Standalone JSON emitter
# ----------------------------------------------------------------------
def run(sizes: list[int], repeats: int = 3) -> dict:
    results = []
    for persons in sizes:
        p, q, candidates = _setup(persons)
        exact = engine_answer(p, q, candidates, "exact")
        assert exact == per_candidate_answer(p, q, candidates)
        timings = {
            "per_candidate_s": _best_of(repeats, per_candidate_answer, p, q, candidates),
            "engine_exact_s": _best_of(repeats, engine_answer, p, q, candidates, "exact"),
        }
        results.append(
            {
                "persons": persons,
                "pdocument_size": p.size(),
                "candidates": len(candidates),
                "answers": len(exact),
                **timings,
                "speedup_engine_vs_per_candidate": timings["per_candidate_s"]
                / timings["engine_exact_s"],
            }
        )
    return {
        "benchmark": "bench_engine",
        "workload": "workloads/synthetic personnel scaling family",
        "query": personnel_query("project0").xpath(),
        "strategies": ["per_candidate", "engine_exact"],
        "repeats": repeats,
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
    sizes = [4, 8] if args.quick else [4, 8, 16, 32]
    report = run(sizes, repeats=1 if args.quick else 3)
    write_report(args.output, report)
    largest = report["results"][-1]
    print(f"wrote {args.output}")
    print(
        f"persons={largest['persons']}: "
        f"engine vs per-candidate ×{largest['speedup_engine_vs_per_candidate']:.1f}"
    )
    if largest["speedup_engine_vs_per_candidate"] <= 1.0:
        print("FAIL: single-pass engine not faster than per-candidate",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
