"""End-to-end benchmark of the view cache and the evaluation engine.

Run from the repository root::

    python3 perfbench/run.py --workload view_cache --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
is the separate traced run that reports per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A full report
(and, traced, the span log) is written under ``perfbench/out/``.
Workloads, metrics and their meaning are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Shares of ``--seconds`` given to the traced run's three phases: an
#: untraced reference (for ``trace.overhead``), the traced full-size
#: pass, and the traced half-size pass (for the slopes).
TRACE_SHARES = (0.25, 0.5, 0.25)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "primary_ms_p50": "ms",
    "secondary_ms_p50": "ms",
}

PER_LAYER_UNITS = {
    "pxml.index_s": "s/op",
    "pxml.splice_ms": "ms/op",
    "session.candidates_s": "s/op",
    "session.answers_per_candidate": "ratio",
    "session.refresh_ms": "ms/op",
    "dp.traversal_s": "s/op",
    "dp.node_visits": "count/op",
    "dp.neutral_skips": "count/op",
    "stacked.plan_build_s": "s/op",
    "stacked.survived_plans": "count/op",
    "store.probe_s": "s/op",
    "store.probes": "count/op",
    "store.probes_per_answer": "ratio",
    "store.hit_ratio": "ratio",
    "store.put_s": "s/op",
    "store.sql_statements": "count/op",
    "store.flushes": "count/op",
    "store.bytes_per_entry": "B",
    "store.evictions": "count/op",
    "views.materialize_s": "s",
    "rewrite.decide_s": "s/op",
    "rewrite.decisions_per_answer": "ratio",
    "rewrite.t1_numerators_s": "s/op",
    "rewrite.numerator_lanes": "count/op",
    "rewrite.t1_denominators_s": "s/op",
    "cache.answers.single_view": "count",
    "cache.answers.multi_view": "count",
    "cache.answers.direct": "count",
    "trace.overhead": "x",
    "trace.ops": "count",
    "trace.spans": "count",
    "pxml.index_s.slope": "slope",
    "session.candidates_s.slope": "slope",
    "dp.traversal_s.slope": "slope",
    "rewrite.t1_numerators_s.slope": "slope",
    "store.probes.slope": "slope",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("view_cache", "direct_batch", "churn")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="document sizes: 'full' as in BENCHMARK.json, 'tiny' for the self-test",
    )
    return parser.parse_args(argv)


def import_library() -> None:
    """Make ``repro`` importable from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def _ms(stats: dict, key: str) -> float:
    value = stats[key]
    return 0.0 if value is None else value


def run_end_to_end(workload_cls, persons: int, seed: int, seconds: float):
    from layers import NullProbe
    from measure import SpeedGauge, peak_rss_mb, run_loop, summarize, timed_setups

    gauge = SpeedGauge()
    workload = workload_cls(persons, seed, NullProbe())
    setups = timed_setups(workload, SETUPS, gauge)
    workload.prepare_oracles()
    nodes = workload.size()
    loop = run_loop(workload, seconds, gauge)
    workload.close()
    stats = {kind: summarize(loop.samples[kind]) for kind in workload.kinds}
    for kind in workload.kinds:
        stats[kind]["wall_p50"] = summarize(loop.raw[kind])["p50"]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "primary_ms_p50": _ms(stats[workload.primary], "p50"),
        "secondary_ms_p50": _ms(stats[workload.secondary], "p50"),
    }
    report = {"nodes": nodes, "setups_s": setups, "ops": stats}
    if workload.name == "view_cache" and stats["direct_cold"]["p50"]:
        report["tp_cold_over_direct_cold"] = (
            _ms(stats["tp_cold"], "p50") / stats["direct_cold"]["p50"]
        )
    return loop, metrics, report


def _traced_phase(workload_cls, persons: int, seed: int, seconds: float, gauge):
    from layers import TracedProbe, layer_metrics
    from measure import run_loop

    probe = TracedProbe()
    workload = workload_cls(persons, seed, probe)
    workload.setup()
    probe.begin("oracle")
    workload.prepare_oracles()
    probe.begin("prep")
    with probe.decisions():
        loop = run_loop(workload, seconds, gauge, probe)
    probe.begin("end")
    metrics = layer_metrics(probe.ops, probe.setup_materialize_s, workload.layer_extra())
    size = workload.size()
    primary = loop.samples[workload.primary]
    workload.close()
    return loop, probe, metrics, size, primary


def run_traced(workload_cls, persons: int, seed: int, seconds: float):
    from layers import NullProbe, SLOPE_METRICS, slope
    from measure import SpeedGauge, run_loop

    gauge = SpeedGauge()
    share_base, share_full, share_half = TRACE_SHARES
    base = workload_cls(persons, seed, NullProbe())
    base.setup()
    base.prepare_oracles()
    base_loop = run_loop(base, seconds * share_base, gauge)
    base_primary = base_loop.samples[base.primary]
    base.close()
    full_loop, probe, metrics, full_size, full_primary = _traced_phase(
        workload_cls, persons, seed, seconds * share_full, gauge
    )
    half_loop, _, half_metrics, half_size, _ = _traced_phase(
        workload_cls, max(1, persons // 2), seed, seconds * share_half, gauge
    )
    for name in SLOPE_METRICS:
        metrics[f"{name}.slope"] = slope(
            metrics[name], half_metrics[name], full_size, half_size
        )
    metrics["trace.overhead"] = (
        statistics.median(full_primary) / statistics.median(base_primary)
        if full_primary and base_primary
        else 0.0
    )
    metrics["trace.ops"] = float(len(probe.ops))
    metrics["trace.spans"] = float(len(probe.log.records))
    loop = full_loop
    for other in (base_loop, half_loop):
        loop.attempted += other.attempted
        loop.failed += other.failed
        loop.reasons.update(other.reasons)
    report = {"nodes": full_size, "half_nodes": half_size, "traced_ops": len(probe.ops)}
    return loop, metrics, report, probe


def print_report(workload, args, persons, loop, metrics, report) -> None:
    print(
        f"perfbench {workload.name} seed={args.seed} persons={persons} "
        f"nodes={report['nodes']} backend={workload.backend} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    for kind, stats in report.get("ops", {}).items():
        role = {workload.primary: "primary", workload.secondary: "secondary"}.get(kind)
        p90 = f"{stats['p90']:.3f} ms" if stats["p90"] is not None else "n/a (<100 samples)"
        p50 = f"{stats['p50']:.3f} ms" if stats["p50"] is not None else "n/a"
        wall = f"{stats['wall_p50']:.3f} ms" if stats["wall_p50"] is not None else "n/a"
        print(
            f"  {kind:<14} p50 {p50:<12} p90 {p90:<20} n={stats['n']:<5} wall p50 {wall}"
            + (f"  [{role}_ms_p50]" if role else "")
        )
    if "tp_cold_over_direct_cold" in report:
        print(
            "  tp_cold p50 / direct_cold p50 = "
            f"{report['tp_cold_over_direct_cold']:.3f} (ROADMAP target <= 1.5; not gated)"
        )
    share = loop.failed / loop.attempted if loop.attempted else 0.0
    print(f"  failed_share {loop.failed}/{loop.attempted} = {share:g}")
    for reason, count in loop.reasons.most_common():
        print(f"    {count} x {reason}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from inputs import PERSONS
    from workloads import OUT_DIR, WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    persons = PERSONS[args.scale][args.workload]
    if args.trace:
        loop, metrics, report, probe = run_traced(
            workload_cls, persons, args.seed, args.seconds
        )
        units = PER_LAYER_UNITS
        probe.log.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        loop, metrics, report = run_end_to_end(
            workload_cls, persons, args.seed, args.seconds
        )
        units = END_TO_END_UNITS
    print_report(workload_cls, args, persons, loop, metrics, report)
    report.update(
        workload=args.workload,
        seed=args.seed,
        persons=persons,
        attempted=loop.attempted,
        failed=loop.failed,
        failed_share=loop.failed / loop.attempted if loop.attempted else 0.0,
        reasons=dict(loop.reasons),
        metrics=metrics,
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    correct = loop.failed == 0 and loop.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
