"""Telemetry-overhead micro-benchmark: the disabled path must be free.

The guard: with tracing *disabled* (the default), the telemetry layer
may cost at most **2%** on a warm batch pass: a fresh session answering
the ``batch_workload`` per-project queries over a warm shared store.  Three
measurements establish it:

* ``disabled_overhead_fraction`` — the *measured* cost of the no-op
  span fast path on the real workload: the per-call cost of a disabled
  ``span(...)`` (timed in a tight loop) times the number of spans one
  warm batch emits (counted under tracing), divided by the warm batch
  wall time.  Spans are per pass/phase, never per node, so this is a
  handful of dict-free calls against milliseconds of work.
* ``replay_disabled_overhead_fraction`` — the same measure on a
  repeat on one session, a plan replay that runs no pass: its spans
  wrap only a dict copy of the memoized answers, so the ratio is far
  above the bar.  Reported so the number is tracked, not gated.
* ``enabled_overhead_fraction`` — what turning tracing *on* costs on
  the same warm batch (not subject to the 2% bar; reported so the docs
  can quote the price of a profiled run).

Run standalone to emit the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_obs.py           # full
    PYTHONPATH=src python benchmarks/bench_obs.py --quick   # CI smoke

which writes ``BENCH_obs.json`` at the repository root and exits
non-zero when the disabled-path bar is missed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.obs import (
    disable_tracing,
    enable_tracing,
    get_registry,
    span,
    take_spans,
    tracing_enabled,
)
from repro.prob import QuerySession
from repro.store import InMemoryStore
from repro.workloads.synthetic import batch_workload

PERSONS = 32
QUICK_PERSONS = 12
PROJECTS = 8
OVERHEAD_BAR = 0.02
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def best_of(repeats: int, fn, *args) -> float:
    """Minimum wall time of ``fn(*args)`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _count_spans(spans) -> int:
    total = 0
    stack = list(spans)
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.children)
    return total


def _null_span_cost_s(calls: int = 200_000) -> float:
    """Per-call wall cost of a disabled span at a realistic call site."""
    assert not tracing_enabled()
    start = time.perf_counter()
    for index in range(calls):
        sp = span("bench.null", queries=index, backend="array")
        if sp:  # pragma: no cover - disabled, never taken
            sp.set("unreachable", True)
        with sp:
            pass
    return (time.perf_counter() - start) / calls


def run(persons: int, repeats: int = 5) -> dict:
    p, queries = batch_workload(persons=persons, projects=PROJECTS, seed=persons)
    store = InMemoryStore()

    def warm_batch():
        return QuerySession(p, backend="array", store=store).answer_many(
            queries
        )

    baseline = warm_batch()  # warm the store, untimed
    replay_session = QuerySession(p, backend="array", store=store)
    replay_session.answer_many(queries)  # build the plan, untimed

    def replay():
        return replay_session.answer_many(queries)

    disable_tracing()
    warm_disabled_s = best_of(repeats, warm_batch)
    replay_disabled_s = best_of(repeats, replay)

    enable_tracing()
    try:
        traced = warm_batch()
        spans_per_batch = _count_spans(take_spans())
        assert replay() == baseline
        spans_per_replay = _count_spans(take_spans())
        warm_enabled_s = best_of(repeats, warm_batch)
    finally:
        disable_tracing()
    assert traced == baseline  # tracing never changes answers

    null_span_s = _null_span_cost_s()
    disabled_overhead = spans_per_batch * null_span_s / warm_disabled_s
    return {
        "benchmark": "bench_obs",
        "workload": "workloads/synthetic batch_workload "
        f"({PROJECTS} per-project queries, fresh array-backend session "
        "over a warm store)",
        "persons": persons,
        "queries": len(queries),
        "repeats": repeats,
        "warm_disabled_s": warm_disabled_s,
        "warm_enabled_s": warm_enabled_s,
        "spans_per_batch": spans_per_batch,
        "null_span_call_s": null_span_s,
        "disabled_overhead_fraction": disabled_overhead,
        "replay_disabled_s": replay_disabled_s,
        "spans_per_replay": spans_per_replay,
        "replay_disabled_overhead_fraction": spans_per_replay
        * null_span_s
        / replay_disabled_s,
        "enabled_overhead_fraction": max(
            0.0, warm_enabled_s / warm_disabled_s - 1.0
        ),
        "overhead_bar": OVERHEAD_BAR,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small document / fewer repeats (CI smoke pass)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT,
        help=f"where to write the JSON report (default: {OUTPUT})",
    )
    args = parser.parse_args(argv)
    report = run(
        QUICK_PERSONS if args.quick else PERSONS,
        repeats=3 if args.quick else 5,
    )
    # The registry snapshot records the session / store / backend
    # counters that produced the numbers.
    report["telemetry"] = get_registry().snapshot()
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    print(
        f"spans/batch={report['spans_per_batch']}, "
        f"null span {report['null_span_call_s'] * 1e9:.0f} ns, "
        f"disabled overhead {report['disabled_overhead_fraction']:.4%} "
        f"(bar {OVERHEAD_BAR:.0%}), "
        f"replay {report['replay_disabled_overhead_fraction']:.1%} "
        "(not gated), "
        f"enabled overhead {report['enabled_overhead_fraction']:.1%}"
    )
    if report["disabled_overhead_fraction"] >= OVERHEAD_BAR:
        print(
            "FAIL: disabled telemetry exceeds the "
            f"{OVERHEAD_BAR:.0%} warm-batch overhead bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
