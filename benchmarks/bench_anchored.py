"""Anchored-evaluation benchmark: canonical anchor positions, with the
node-keyed baseline kept as a recorded number.

The rewrite layer's anchored traffic — Theorem 2's α-pattern
conjunctions and the per-node ``fr`` numerators — pins pattern nodes to
concrete document nodes.  Those evaluations used to bypass the
structural memo store (anchors pin node Ids, which are
document identity, not structure) and lived in per-session node-keyed
memos, so every fresh plan, extension, restart or isomorphic twin paid
them cold.  Canonical anchor *positions* (digest-sorted rank paths)
turn them into content-addressed store entries.

Two workloads, each timed against a shared
:class:`~repro.store.InMemoryStore`:

* ``theorem1`` — the personnel family (restricted plan: every
  numerator and denominator from one unanchored pinned pass, so it
  reports 0 anchored entries — the unanchored reference);
* ``theorem2`` — nested ``b/c``-chain documents where
  ``a//b/c/b/c`` rewrites ``a//b/c/b/c//d`` unrestrictedly
  (inclusion-exclusion over overlapping holders, α-patterns with
  engine-anchored ``Id(·)`` pins);

plus a **cross-twin extension** section (ISSUE 9): Theorem-1 plans
evaluated over extensions of a document and of its Id-disjoint
isomorphic twin, in two arms — ``marker`` (the paper's literal §3.1
construction with ``Id(n)`` marker children, rebuilt locally since the
production builders no longer plant markers) and ``id_free`` (the
provenance-layer extensions).  Marker labels bake original node Ids
into the tree, so the marker twin's extension is digest-distinct and
its first pass runs cold; Id-free twin extensions are digest-identical
and the second twin's *first, cold* pass must already hit the shared
store (``twin_cold_store_hits > 0`` is asserted).

For the two main workloads, a *fresh* plan over the warm shared store
starts warm (``warm_anchored_s``), probing anchor-position keys filled
by the previous evaluation.  The node-keyed baseline — anchored entries
in session-local memos, so a fresh plan recomputed every anchored DP —
no longer exists in the library; its last measured numbers are carried
into the report under ``recorded`` (:data:`RECORDED_NODE_KEYED`), not
re-measured.

Run standalone to emit the machine-readable comparison::

    PYTHONPATH=src python benchmarks/bench_anchored.py           # full sizes
    PYTHONPATH=src python benchmarks/bench_anchored.py --quick   # CI smoke

which writes ``BENCH_anchored.json`` at the repository root.  Both runs
assert that the ``array`` backend stays within 1e-9 of ``exact``
(``exact`` and ``array`` backend columns), and the structural-sharing
bar: anchored entries hit the store on the
*first cold pass* over an isomorphic twin document (same shapes,
disjoint node Ids).  Under pytest the same strategies run through
pytest-benchmark with exactness asserted against direct evaluation.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from pathlib import Path

import pytest

from common import best_of as _best_of, write_report

from repro.prob import QuerySession, query_answer
from repro.pxml import ind, mux, ordinary, pdoc
from repro.pxml.pdocument import PDocument, PNode, PNodeKind
from repro.rewrite import probabilistic_tp_plan
from repro.store import InMemoryStore
from repro.tp import parse_pattern
from repro.views import ProvenanceTable, View, probabilistic_extension
from repro.views.extension import ProbabilisticViewExtension
from repro.workloads.synthetic import (
    batch_workload,
    isomorphic_twin,
    personnel_pdocument,
    personnel_query,
    personnel_views,
)

SIZES = [8, 16]
FULL_SIZES = [8, 16, 32, 64]
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_anchored.json"

_TWIN_OFFSET = 10_000_000

#: The node-keyed arm (``anchored_store=False``, since removed) as last
#: measured at FULL_SIZES, copied from the committed BENCH_anchored.json;
#: ``warm_speedup`` is warm node-keyed ÷ warm anchored of that run.
RECORDED_NODE_KEYED = {
    "theorem1": [
        {"persons": 8, "cold_node_keyed_s": 0.0023817520013835747,
         "warm_node_keyed_s": 0.0012729420013783965,
         "warm_speedup": 1.979953806782264},
        {"persons": 16, "cold_node_keyed_s": 0.021133289999852423,
         "warm_node_keyed_s": 0.005562131998885889,
         "warm_speedup": 4.68248504383912},
        {"persons": 32, "cold_node_keyed_s": 0.025294929999290616,
         "warm_node_keyed_s": 0.02055193100022734,
         "warm_speedup": 8.98368881438654},
        {"persons": 64, "cold_node_keyed_s": 0.12492171799931384,
         "warm_node_keyed_s": 0.08346063700082595,
         "warm_speedup": 18.905834220629334},
    ],
    "theorem2": [
        {"persons": 8, "cold_node_keyed_s": 0.027443703000244568,
         "warm_node_keyed_s": 0.020259152999642538,
         "warm_speedup": 2.6184298381814464},
        {"persons": 16, "cold_node_keyed_s": 0.05465292200096883,
         "warm_node_keyed_s": 0.03984385300100257,
         "warm_speedup": 2.95127322086336},
        {"persons": 32, "cold_node_keyed_s": 0.08747370700075408,
         "warm_node_keyed_s": 0.07672135700158833,
         "warm_speedup": 3.2916005777250112},
        {"persons": 64, "cold_node_keyed_s": 0.17413696699986758,
         "warm_node_keyed_s": 0.145294465999541,
         "warm_speedup": 3.0832244261014843},
    ],
}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def theorem1_setup(persons: int):
    """Restricted single-view rewriting over the personnel family."""
    p = personnel_pdocument(persons=persons, projects=3, seed=persons)
    q = personnel_query("project0")
    view = personnel_views()[0]
    extension = probabilistic_extension(p, view)
    return p, q, view, extension


def theorem2_pdocument(chains: int, seed: int = 0, width: int = 4) -> PDocument:
    """``chains`` nested ``b/c`` chains with probabilistic ``d`` leaves.

    ``a//b/c/b/c`` selects two overlapping holders per chain (the depth-4
    and depth-6 ``c`` nodes), so the unrestricted plan's
    inclusion-exclusion and α-patterns genuinely fire; ``width``
    independent ``d`` leaves per chain give the per-candidate DP real
    distribution mass to recompute when it cannot hit the store.
    """
    rng = random.Random(seed)
    counter = itertools.count(1)
    kids = []
    for _ in range(chains):
        leaves = [
            ind(
                next(counter),
                (ordinary(next(counter), "d"),
                 rng.choice(["0.25", "0.5", "0.75"])),
            )
            for _ in range(width)
        ]
        chain = ordinary(next(counter), "c", *leaves)
        for label in ("b", "c", "b", "c", "b"):
            chain = ordinary(next(counter), label, chain)
        kids.append(
            mux(next(counter), (chain, "0.9"))
            if rng.random() < 0.5
            else chain
        )
    return pdoc(ordinary(0, "a", *kids))


def theorem2_setup(chains: int):
    """Unrestricted (Theorem 2) single-view rewriting over chain documents."""
    p = theorem2_pdocument(chains, seed=chains)
    q = parse_pattern("a//b/c/b/c//d")
    view = View("v", parse_pattern("a//b/c/b/c"))
    extension = probabilistic_extension(p, view)
    return p, q, view, extension


def evaluate_fresh_plan(q, view, extension, store, backend: str = "exact"):
    """One plan evaluation as a *fresh* consumer of the shared store.

    A fresh plan means fresh per-extension sessions; anchor-position
    entries in the shared store survive them.
    """
    plan = probabilistic_tp_plan(q, view, store=store, backend=backend)
    assert plan is not None
    return plan.evaluate(extension)


def twin_cold_anchored_hits(persons: int = 6) -> int:
    """Anchored store hits during the *first* pass over an isomorphic twin.

    One document fills a shared store with anchored Boolean evaluations
    (``Pr(out ↦ n)`` per candidate); its Id-disjoint twin then evaluates
    the corresponding anchors.  Rank paths are Id-free, so the twin's
    first, cold pass must already hit the anchor-position entries.
    """
    p1, _ = batch_workload(persons=persons, projects=3, seed=persons)
    p2 = isomorphic_twin(p1, _TWIN_OFFSET)
    q = personnel_query("project0")
    candidates = sorted(query_answer(p1, q))
    store = InMemoryStore()
    first = QuerySession(p1, store=store).boolean_many(
        [(q, {q.out: n}) for n in candidates]
    )
    before = store.anchored_hits
    second = QuerySession(p2, store=store).boolean_many(
        [(q, {q.out: n + _TWIN_OFFSET}) for n in candidates]
    )
    assert first == second  # isomorphic twins answer identically
    return store.anchored_hits - before


def _legacy_marker_extension(p: PDocument, view: View) -> ProbabilisticViewExtension:
    """The pre-ISSUE-9 §3.1 construction: ``Id(n)`` markers in the tree.

    Rebuilt locally for the benchmark's ``marker`` arm — the production
    builders are Id-free and no longer plant markers.  The provenance
    table is recorded while copying, so plan evaluation works unchanged;
    only the document structure (and hence the digests) differs.
    """
    answer = query_answer(p, view.pattern)
    fresh = itertools.count(1)
    root = PNode(0, PNodeKind.ORDINARY, view.doc_label)
    bundle = PNode(next(fresh), PNodeKind.IND)
    subtree_roots: dict[int, int] = {}
    provenance = ProvenanceTable()

    def copy_with_markers(source: PNode, holder: int) -> PNode:
        node = PNode(next(fresh), source.kind, source.label)
        if source.is_ordinary:
            provenance.record(source.node_id, node.node_id, holder)
            node.add_child(
                PNode(next(fresh), PNodeKind.ORDINARY, f"Id({source.node_id})")
            )
        for child in source.children:
            probability = (
                source.probabilities[child.node_id]
                if source.probabilities is not None
                else None
            )
            node.add_child(copy_with_markers(child, holder), probability)
        return node

    for selected in sorted(answer):
        sub = copy_with_markers(p.node(selected), selected)
        bundle.add_child(sub, answer[selected])
        subtree_roots[selected] = sub.node_id
    if subtree_roots:
        root.add_child(bundle)
    pdocument = PDocument(root)
    return ProbabilisticViewExtension(
        view=view,
        pdocument=pdocument,
        selection=dict(answer),
        subtree_roots=subtree_roots,
        provenance=provenance.bind(pdocument),
    )


def twin_extension_measure(persons: int, repeats: int = 1) -> dict:
    """Theorem-1 plans over a document's extension and its twin's, per arm.

    Each arm shares one store between both extensions.  ``twin_cold_s``
    times the twin extension's *first* evaluation; the Id-free arm's
    extensions are digest-identical, so that pass probes the entries the
    first extension warmed (``twin_cold_store_hits``), while the marker
    arm's digests differ (marker labels name concrete original Ids) and
    it recomputes everything.
    """
    p1 = personnel_pdocument(persons=persons, projects=3, seed=persons)
    p2 = isomorphic_twin(p1, _TWIN_OFFSET)
    q = personnel_query("project0")
    view = personnel_views()[0]
    expected = query_answer(p1, q)
    row = {"persons": persons, "answers": len(expected)}
    for arm, build in (
        ("marker", _legacy_marker_extension),
        ("id_free", probabilistic_extension),
    ):
        store = InMemoryStore()
        plan = probabilistic_tp_plan(q, view, store=store)
        assert plan is not None
        ext1, ext2 = build(p1, view), build(p2, view)
        start = time.perf_counter()
        first = plan.evaluate(ext1)
        cold = time.perf_counter() - start
        assert first == expected
        before = store.stats()
        before_hits = before["hits"]  # anchored_hits is a subset of hits
        before_misses = before["misses"]
        start = time.perf_counter()
        second = plan.evaluate(ext2)
        twin_cold = time.perf_counter() - start
        assert second == {
            node_id + _TWIN_OFFSET: probability
            for node_id, probability in expected.items()
        }
        after = store.stats()
        row[arm] = {
            "extension_size": ext1.pdocument.size(),
            "cold_s": cold,
            "twin_cold_s": twin_cold,
            # Hits high in the tree short-circuit whole-subtree descents,
            # so the decisive cross-twin column is the *miss* count: the
            # digest-identical id_free twin barely misses, while the
            # marker twin (digest-distinct) recomputes cold.
            "twin_cold_store_hits": after["hits"] - before_hits,
            "twin_cold_store_misses": after["misses"] - before_misses,
            "warm_s": _best_of(repeats, plan.evaluate, ext2),
        }
    row["twin_cold_speedup"] = (
        row["marker"]["twin_cold_s"] / row["id_free"]["twin_cold_s"]
    )
    return row


# ----------------------------------------------------------------------
# pytest-benchmark harness
# ----------------------------------------------------------------------
@pytest.mark.paper("§4 Theorems 1/2 — warm anchored rewrite answering")
@pytest.mark.parametrize("persons", SIZES)
def test_theorem1_warm(benchmark, report, persons):
    p, q, view, extension = theorem1_setup(persons)
    expected = query_answer(p, q)
    store = InMemoryStore()
    evaluate_fresh_plan(q, view, extension, store)  # fill, untimed
    answer = benchmark(evaluate_fresh_plan, q, view, extension, store)
    assert answer == expected
    report.append(
        f"anchored persons={persons}: warm Theorem-1 plan, "
        "one pinned pass over the shared store"
    )


def test_twin_document_hits_anchored_entries_cold(report):
    hits = twin_cold_anchored_hits()
    assert hits > 0
    report.append(
        f"anchored twins: {hits} anchor-position hits on the first cold pass"
    )


def test_twin_extension_cold_pass_hits_store(report):
    # ISSUE-9: Id-free extensions of isomorphic twins share the store on
    # the very first pass; the marker arm shows what that replaced.
    row = twin_extension_measure(persons=6)
    assert row["id_free"]["twin_cold_store_hits"] > 0
    # Hits alone mislead (a high hit short-circuits a whole descent, so
    # the marker arm's deep self-hits inflate its count): the decisive
    # column is misses — the digest-identical twin barely recomputes.
    assert (
        row["id_free"]["twin_cold_store_misses"]
        < row["marker"]["twin_cold_store_misses"]
    )
    report.append(
        "twin extensions: id_free cold pass "
        f"{row['id_free']['twin_cold_store_misses']} store misses vs "
        f"{row['marker']['twin_cold_store_misses']} with markers"
    )


# ----------------------------------------------------------------------
# Standalone JSON emitter
# ----------------------------------------------------------------------
def _measure(setup, persons: int, repeats: int) -> dict:
    p, q, view, extension = setup(persons)
    expected = query_answer(p, q)
    result = {"persons": persons, "pdocument_size": p.size(),
              "extension_size": extension.pdocument.size(),
              "answers": len(expected)}
    store = InMemoryStore()
    # The first evaluation over the empty store IS the cold pass — time
    # it and assert its answer, so the warm runs below find the store
    # exactly as one production evaluation leaves it.
    start = time.perf_counter()
    answer = evaluate_fresh_plan(q, view, extension, store)
    result["cold_anchored_s"] = time.perf_counter() - start
    assert answer == expected
    result["warm_anchored_s"] = _best_of(
        repeats, evaluate_fresh_plan, q, view, extension, store
    )
    gauges = store.stats()
    result["anchored_entries"] = gauges["anchored_entries"]
    result["anchored_hits"] = gauges["anchored_hits"]
    # Numeric-backend columns.  Two warm measurements per backend:
    #
    # * ``warm_anchored_s`` — a *fresh* plan over the warm shared store
    #   (the benchmark's headline scenario).  Fresh plans mean fresh
    #   sessions, so this cost is dominated by backend-independent
    #   rewrite bookkeeping — an honest like-for-like column.
    # * ``warm_session_s`` — the anchored hot path itself: the full
    #   candidate batch ``Pr(out ↦ n)`` repeated on a *resident*
    #   session, i.e. a serving process that keeps its session between
    #   requests.  The session memoizes the batch per epoch, so a
    #   repeat is a memo hit on either backend.
    candidates = sorted(expected)
    items = [(q, {q.out: n}) for n in candidates]
    exact_masses = QuerySession(p, store=InMemoryStore()).boolean_many(items)
    result["backends"] = {}
    for backend in ("exact", "array"):
        store = InMemoryStore()
        start = time.perf_counter()
        answer = evaluate_fresh_plan(q, view, extension, store, backend)
        cold = time.perf_counter() - start
        error = 0.0
        for node_id in set(expected) | set(answer):
            error = max(
                error,
                abs(
                    float(answer.get(node_id, 0.0))
                    - float(expected.get(node_id, 0))
                ),
            )
        session = QuerySession(p, backend=backend, store=InMemoryStore())
        masses = session.boolean_many(items)  # cold fill, untimed
        error = max(
            error,
            max(
                abs(float(got) - float(want))
                for got, want in zip(masses, exact_masses)
            ),
        )
        assert error < 1e-9
        result["backends"][backend] = {
            "cold_anchored_s": cold,
            "warm_anchored_s": _best_of(
                repeats, evaluate_fresh_plan, q, view, extension, store,
                backend,
            ),
            "warm_session_s": _best_of(
                repeats, session.boolean_many, items
            ),
            "max_abs_error_vs_exact": error,
        }
    return result


def run(sizes: list[int], repeats: int = 3) -> dict:
    workloads = {}
    for name, setup in (("theorem1", theorem1_setup), ("theorem2", theorem2_setup)):
        workloads[name] = [
            _measure(setup, persons, repeats) for persons in sizes
        ]
    report = {
        "benchmark": "bench_anchored",
        "workloads": {
            "theorem1": "personnel family, restricted plan "
            "(one unanchored pinned pass: numerators and denominators "
            "of every candidate, 0 anchored entries)",
            "theorem2": "nested b/c chains, unrestricted plan "
            "(inclusion-exclusion, engine-anchored α-patterns)",
        },
        "strategies": ["anchored"],
        "recorded": {
            "node_keyed": {
                "description": "node-keyed baseline (anchored_store=False, "
                "since removed): last measured numbers, not re-measured",
                "results": RECORDED_NODE_KEYED,
            },
        },
        "repeats": repeats,
        "twin_cold_anchored_hits": twin_cold_anchored_hits(),
        "results": workloads,
        "cross_twin_extension": {
            "description": "Theorem-1 plans over extensions of a document "
            "and its Id-disjoint isomorphic twin, one shared store per "
            "arm: marker (legacy §3.1 Id(n) children) vs id_free "
            "(provenance-layer extensions, digest-identical across twins)",
            "results": [
                twin_extension_measure(persons, repeats) for persons in sizes
            ],
        },
    }
    # Acceptance summary: the worst array-vs-exact error anywhere.
    report["array_vs_exact_max_abs_error"] = max(
        row["backends"]["array"]["max_abs_error_vs_exact"]
        for rows in workloads.values()
        for row in rows
    )
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
    print(f"wrote {args.output}")
    exit_code = 0
    for name, rows in report["results"].items():
        largest = rows[-1]
        recorded = next(
            (row for row in RECORDED_NODE_KEYED[name]
             if row["persons"] == largest["persons"]),
            RECORDED_NODE_KEYED[name][-1],
        )
        print(
            f"{name} persons={largest['persons']}: warm plan "
            f"{largest['warm_anchored_s'] * 1e3:.2f} ms "
            f"({largest['anchored_entries']} anchored entries"
            f"{'; one unanchored pass' if name == 'theorem1' else ''}); recorded "
            f"node-keyed baseline ×{recorded['warm_speedup']:.1f} slower "
            f"at persons={recorded['persons']}"
        )
    print(
        f"max |array − exact| = "
        f"{report['array_vs_exact_max_abs_error']:.2e}"
    )
    if report["array_vs_exact_max_abs_error"] > 1e-9:
        print("FAIL: array backend outside the 1e-9 exactness bar",
              file=sys.stderr)
        exit_code = 1
    print(f"twin cold anchored hits: {report['twin_cold_anchored_hits']}")
    if report["twin_cold_anchored_hits"] <= 0:
        print("FAIL: isomorphic twin did not hit anchored entries cold",
              file=sys.stderr)
        exit_code = 1
    twin_rows = report["cross_twin_extension"]["results"]
    largest = twin_rows[-1]
    print(
        f"twin extensions persons={largest['persons']}: id_free cold pass "
        f"{largest['id_free']['twin_cold_store_hits']} hits / "
        f"{largest['id_free']['twin_cold_store_misses']} misses "
        f"(marker arm: {largest['marker']['twin_cold_store_hits']} / "
        f"{largest['marker']['twin_cold_store_misses']}), "
        f"twin cold ×{largest['twin_cold_speedup']:.1f}"
    )
    if any(row["id_free"]["twin_cold_store_hits"] <= 0 for row in twin_rows):
        print("FAIL: Id-free twin extension did not hit the store on its "
              "first cold pass", file=sys.stderr)
        exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
