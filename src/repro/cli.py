"""Command-line interface: evaluate, rewrite, and inspect p-documents.

Examples::

    python -m repro demo                       # reproduce paper examples
    python -m repro eval  doc.pxml "a/b[c]"    # probabilistic evaluation
    python -m repro eval  doc.pxml "a/b" "a//c" --batch   # one shared pass
    python -m repro eval  doc.pxml "a/b" --store memo.db  # persistent memo
    python -m repro eval  doc.pxml "a/b" --trace out.jsonl  # span trace
    python -m repro eval  doc.pxml "a/b" --profile  # per-query cost profile
    python -m repro store warm  memo.db doc.pxml "a/b" "a//c"
    python -m repro store stats memo.db        # inspect a memo store
    python -m repro stats doc.pxml "a/b"       # metrics registry dump
    python -m repro worlds doc.pxml            # enumerate possible worlds
    python -m repro rewrite doc.pxml "a/b[c]" --view "a/b" --view "a//b"
    python -m repro skeleton "a[b//c]/d//e"    # extended-skeleton check

P-documents are read in the indented text format of
:mod:`repro.pxml.serialize` (see ``pdocument_to_text``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .probability import BACKENDS, prob_str
from .prob.engine import query_answer
from .prob.session import QuerySession
from .pxml.serialize import pdocument_from_text, pdocument_to_text
from .pxml.worlds import enumerate_worlds
from .rewrite.single_view import probabilistic_tp_plan
from .store import SqliteStore
from .tp.parser import parse_pattern
from .tpi.skeleton import is_extended_skeleton
from .views.extension import probabilistic_extension
from .views.view import View

__all__ = ["main"]


def _load(path: str):
    return pdocument_from_text(Path(path).read_text(encoding="utf-8"))


def _cmd_eval(args: argparse.Namespace) -> int:
    from .obs import disable_tracing, enable_tracing, tracing_enabled

    p = _load(args.document)
    queries = [parse_pattern(text) for text in args.query]
    store = SqliteStore(args.store) if args.store else None
    tracing_was_on = tracing_enabled()
    if args.trace:
        enable_tracing(sink=args.trace)
    # One session: the whole batch as one pass with --batch, else one
    # single-query batch per query (the keys ``store warm`` writes for
    # a single query).
    session = QuerySession(p, backend=args.backend, store=store)
    batches = [queries] if args.batch else [[q] for q in queries]
    answers, profiles = [], []
    for batch in batches:
        if args.profile:
            batch_answers, batch_profiles = session.answer_many(
                batch, profile=True
            )
            profiles.extend(batch_profiles)
        else:
            batch_answers = session.answer_many(batch)
        answers.extend(batch_answers)
    for text, answer in zip(args.query, answers):
        if len(queries) > 1:
            print(f"query {text}")
        if not answer:
            print("no answers with positive probability")
            continue
        for node_id, probability in sorted(answer.items()):
            print(f"node {node_id}\tPr = {prob_str(probability)}")
    for profile in profiles:
        print(profile.render())
    if store is not None:
        stats = store.stats()
        store.close()
        print(
            f"store {args.store}: {stats.get('entries', 0)} entries, "
            f"{stats.get('hits', 0)} hits / {stats.get('misses', 0)} "
            f"misses this run "
            f"({stats.get('anchored_hits', 0)} anchored hits / "
            f"{stats.get('anchored_misses', 0)} anchored misses)"
        )
    if args.trace:
        from .obs import get_tracer

        roots = len(get_tracer().roots) + get_tracer().dropped
        if not tracing_was_on:
            disable_tracing()
        else:
            get_tracer().close_sink()
        print(f"trace: {roots} root spans written to {args.trace}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Evaluate a workload, then dump the process metrics registry."""
    from .obs import get_registry, metrics_table, prometheus_text

    store = SqliteStore(args.store) if args.store else None
    if args.document and args.query:
        p = _load(args.document)
        queries = [parse_pattern(text) for text in args.query]
        session = QuerySession(p, backend=args.backend, store=store)
        session.answer_many(queries)
    registry = get_registry()
    if args.format == "prometheus":
        print(prometheus_text(registry), end="")
    else:
        print(metrics_table(registry))
    if store is not None:
        store.close()
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    if not Path(args.path).exists():
        print(f"no store file at {args.path}", file=sys.stderr)
        return 1
    # Inspection only: lazy mode counts rows without decoding the table.
    store = SqliteStore(args.path, preload=False)
    stats = store.stats()
    store.close()

    # Tolerate missing/None values (older or foreign stats dicts): render
    # '?' instead of KeyError-ing — the unified schema is documented in
    # repro/store/api.py but renderers must stay graceful.
    def cell(key, default="?"):
        value = stats.get(key)
        return default if value is None else value

    print(f"path     {cell('path', args.path)}")
    print(f"entries  {cell('entries', 0)}")
    print(f"anchored {cell('anchored_entries')}")
    print(f"weight   {cell('weight')}")
    if stats.get("degraded"):
        print("state    DEGRADED (file unusable; see warning)")
    return 0


def _cmd_store_clear(args: argparse.Namespace) -> int:
    if not Path(args.path).exists():
        print(f"no store file at {args.path}", file=sys.stderr)
        return 1
    store = SqliteStore(args.path, preload=False)
    before = len(store)
    store.clear()
    store.close()
    print(f"cleared {before} entries from {args.path}")
    return 0


def _cmd_store_warm(args: argparse.Namespace) -> int:
    p = _load(args.document)
    queries = [parse_pattern(text) for text in args.query]
    store = SqliteStore(args.path)
    session = QuerySession(p, backend=args.backend, store=store)
    session.answer_many(queries)
    stats = store.stats()
    store.close()
    print(
        f"warmed {args.path} with {len(queries)} queries over "
        f"{args.document}: {stats['entries']} entries, "
        f"weight {stats['weight']}"
    )
    return 0


def _cmd_worlds(args: argparse.Namespace) -> int:
    p = _load(args.document)
    worlds = enumerate_worlds(p)
    worlds.sort(key=lambda pair: (-pair[1], sorted(pair[0].node_ids())))
    for world, probability in worlds[: args.limit]:
        ids = ",".join(map(str, sorted(world.node_ids())))
        print(f"Pr = {prob_str(probability)}\tnodes = {{{ids}}}")
    if len(worlds) > args.limit:
        print(f"... and {len(worlds) - args.limit} more worlds")
    return 0


def _cmd_rewrite(args: argparse.Namespace) -> int:
    p = _load(args.document)
    q = parse_pattern(args.query)
    exit_code = 1
    for index, text in enumerate(args.view, start=1):
        view = View(f"v{index}", parse_pattern(text))
        plan = probabilistic_tp_plan(q, view, backend=args.backend)
        if plan is None:
            print(f"{text}: no probabilistic TP-rewriting")
            continue
        exit_code = 0
        kind = "restricted" if plan.restricted else "unrestricted"
        print(f"{text}: {kind} rewriting (k={plan.k}, u={plan.u})")
        if args.evaluate:
            extension = probabilistic_extension(p, view)
            for node_id, probability in sorted(plan.evaluate(extension).items()):
                print(f"  node {node_id}\tPr = {prob_str(probability)}")
    return exit_code


def _cmd_skeleton(args: argparse.Namespace) -> int:
    q = parse_pattern(args.query)
    verdict = is_extended_skeleton(q)
    print("extended skeleton" if verdict else "not an extended skeleton")
    return 0 if verdict else 1


def _cmd_show(args: argparse.Namespace) -> int:
    print(pdocument_to_text(_load(args.document)), end="")
    return 0


def _cmd_demo(_: argparse.Namespace) -> int:
    from .workloads import paper

    p = paper.p_per()
    print("Figure 2 p-document P̂_PER:")
    print(pdocument_to_text(p))
    for name, q in [
        ("q_BON ", paper.q_bon()),
        ("v1_BON", paper.v1_bon()),
        ("q_RBON", paper.q_rbon()),
        ("v2_BON", paper.v2_bon()),
    ]:
        answer = {n: prob_str(pr) for n, pr in query_answer(p, q).items()}
        print(f"{name} = {q.xpath()}\n        -> {answer}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Answering queries using views over probabilistic XML "
        "(Cautis & Kharlamov, VLDB 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate TP queries over a p-document"
    )
    p_eval.add_argument("document")
    p_eval.add_argument("query", nargs="+",
                        help="one or more TP queries (XPath-style)")
    p_eval.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="exact",
        help="numeric backend: 'exact' Fractions (default) or 'array' "
        "floats (rows escape to exact past the width threshold)",
    )
    p_eval.add_argument(
        "--batch",
        action="store_true",
        help="evaluate all queries in one shared session traversal "
        "(QuerySession.answer_many); without it, each query runs its own "
        "traversal of the same session",
    )
    p_eval.add_argument(
        "--store",
        metavar="PATH",
        help="persistent structural memo store (SQLite file): subtree "
        "evaluations are reused across queries, documents and runs "
        "(a query reads what 'store warm' wrote for that query, a "
        "--batch run what it wrote for that batch)",
    )
    p_eval.add_argument(
        "--trace",
        metavar="FILE",
        help="enable span tracing and stream root spans to FILE as JSON "
        "lines (one span tree per line; see README 'Observability')",
    )
    p_eval.add_argument(
        "--profile",
        action="store_true",
        help="print a per-query cost profile (attributed wall time, "
        "counters, span tree) after each answer",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_metrics = sub.add_parser(
        "stats",
        help="dump the process metrics registry, optionally after "
        "evaluating a workload",
    )
    p_metrics.add_argument("document", nargs="?",
                           help="optional p-document to evaluate first")
    p_metrics.add_argument("query", nargs="*",
                           help="TP queries evaluated before the dump")
    p_metrics.add_argument(
        "--format",
        choices=("table", "prometheus"),
        default="table",
        help="output format: aligned table (default) or Prometheus text "
        "exposition",
    )
    p_metrics.add_argument(
        "--store",
        metavar="PATH",
        help="persistent memo store consulted by the workload (its "
        "counters then appear in the dump)",
    )
    p_metrics.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="exact",
        help="numeric backend for the workload evaluation",
    )
    p_metrics.set_defaults(func=_cmd_stats)

    p_store = sub.add_parser(
        "store", help="inspect/manage a persistent memo store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_stats = store_sub.add_parser("stats", help="entry count and weight")
    p_stats.add_argument("path")
    p_stats.set_defaults(func=_cmd_store_stats)
    p_clear = store_sub.add_parser("clear", help="drop every cached entry")
    p_clear.add_argument("path")
    p_clear.set_defaults(func=_cmd_store_clear)
    p_warm = store_sub.add_parser(
        "warm",
        help="pre-populate a store by evaluating queries over a document",
    )
    p_warm.add_argument("path")
    p_warm.add_argument("document")
    p_warm.add_argument("query", nargs="+",
                        help="one or more TP queries (XPath-style)")
    p_warm.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="exact",
        help="numeric backend the warmed entries are computed in",
    )
    p_warm.set_defaults(func=_cmd_store_warm)

    p_worlds = sub.add_parser("worlds", help="enumerate possible worlds")
    p_worlds.add_argument("document")
    p_worlds.add_argument("--limit", type=int, default=20)
    p_worlds.set_defaults(func=_cmd_worlds)

    p_rw = sub.add_parser("rewrite", help="decide/evaluate TP-rewritings")
    p_rw.add_argument("document")
    p_rw.add_argument("query")
    p_rw.add_argument("--view", action="append", required=True,
                      help="view definition (repeatable)")
    p_rw.add_argument("--evaluate", action="store_true",
                      help="also evaluate the plans over the extensions")
    p_rw.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="exact",
        help="numeric backend the plans evaluate in",
    )
    p_rw.set_defaults(func=_cmd_rewrite)

    p_skel = sub.add_parser("skeleton", help="extended-skeleton check")
    p_skel.add_argument("query")
    p_skel.set_defaults(func=_cmd_skeleton)

    p_show = sub.add_parser("show", help="pretty-print a p-document file")
    p_show.add_argument("document")
    p_show.set_defaults(func=_cmd_show)

    p_demo = sub.add_parser("demo", help="reproduce the paper's examples")
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
