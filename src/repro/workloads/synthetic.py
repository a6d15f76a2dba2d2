"""Parameterized synthetic workloads for benchmarks and property tests.

Three families:

* random p-documents and random tree patterns (property tests, fuzzing);
* *personnel*-style documents scaling Figure 1/2's scenario to ``n`` persons
  and ``p`` projects (the rewrite-vs-direct evaluation benchmarks);
* structured query/view families with known rewriting behaviour (the
  PTime-scaling benchmarks for ``TPrewrite``/``TPIrewrite``).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

from ..pxml.builder import ind, mux, ordinary, pdoc
from ..pxml.pdocument import PDocument, PNode, PNodeKind
from ..tp import ops
from ..tp.parser import parse_pattern
from ..tp.pattern import Axis, PatternNode, TreePattern
from ..views.view import View

__all__ = [
    "random_pdocument",
    "random_tree_pattern",
    "prefix_views",
    "personnel_pdocument",
    "personnel_query",
    "personnel_views",
    "batch_workload",
    "churn_workload",
    "chain_query",
    "chain_views",
    "adversarial_intersection",
    "isomorphic_twin",
]


# ----------------------------------------------------------------------
# Random instances (property tests)
# ----------------------------------------------------------------------
def random_pdocument(
    rng: random.Random,
    labels: Sequence[str] = ("a", "b", "c", "d"),
    max_depth: int = 4,
    max_children: int = 3,
    distributional_bias: float = 0.5,
) -> PDocument:
    """A small random p-document over ``labels`` with mux/ind gadgets."""
    counter = itertools.count(0)
    probabilities = ["0.2", "0.25", "0.5", "0.75", "0.8"]

    def build_ordinary(depth: int) -> PNode:
        label = labels[0] if depth == 0 else rng.choice(labels)
        children = []
        if depth < max_depth:
            for _ in range(rng.randint(0, max_children)):
                children.append(build_child(depth + 1))
        return ordinary(next(counter), label, *children)

    def build_child(depth: int) -> PNode:
        roll = rng.random()
        if roll < distributional_bias / 2:
            choices = [
                (build_ordinary(depth), rng.choice(["0.2", "0.3", "0.4"]))
                for _ in range(rng.randint(1, 2))
            ]
            return mux(next(counter), *choices)
        if roll < distributional_bias:
            return ind(
                next(counter), (build_ordinary(depth), rng.choice(probabilities))
            )
        return build_ordinary(depth)

    return pdoc(build_ordinary(0))


def random_tree_pattern(
    rng: random.Random,
    labels: Sequence[str] = ("a", "b", "c", "d"),
    mb_length: int = 3,
    desc_probability: float = 0.3,
    predicate_probability: float = 0.5,
    max_predicate_size: int = 2,
) -> TreePattern:
    """A random TP query with the given main-branch length."""
    root = PatternNode(labels[0], Axis.CHILD)
    current = root
    for _ in range(mb_length - 1):
        axis = Axis.DESC if rng.random() < desc_probability else Axis.CHILD
        current = current.add_child(PatternNode(rng.choice(labels), axis))
    out = current
    # Snapshot before decorating: predicates must not themselves sprout
    # predicates, or the walk would chase its own insertions.
    for node in list(root.iter_subtree()):
        if rng.random() < predicate_probability:
            pred = PatternNode(
                rng.choice(labels),
                Axis.DESC if rng.random() < desc_probability else Axis.CHILD,
            )
            node.add_child(pred)
            for _ in range(rng.randint(0, max_predicate_size - 1)):
                pred = pred.add_child(
                    PatternNode(
                        rng.choice(labels),
                        Axis.DESC
                        if rng.random() < desc_probability
                        else Axis.CHILD,
                    )
                )
    return TreePattern(root, out)


def prefix_views(q: TreePattern, name_prefix: str = "v") -> list[View]:
    """All prefix views ``q^(k)`` of a query — each satisfies Fact 1 by
    construction (``comp(q^(k), q_(k)) ≡ q``)."""
    views = []
    for k in range(1, q.main_branch_length() + 1):
        views.append(View(f"{name_prefix}{k}", ops.prefix(q, k)))
    return views


# ----------------------------------------------------------------------
# Personnel-style scaling family (Figures 1/2 writ large)
# ----------------------------------------------------------------------
def personnel_pdocument(
    persons: int, projects: int = 3, seed: int = 0
) -> PDocument:
    """A scaled ``P̂_PER``: ``persons`` persons, probabilistic names/bonuses.

    Node Ids: person ``i`` has id ``100·i``, its bonus ``100·i + 1``;
    project nodes get sequential ids above ``10^6``.
    """
    rng = random.Random(seed)
    counter = itertools.count(1_000_000)
    project_names = [f"project{j}" for j in range(projects)]
    people = []
    for i in range(1, persons + 1):
        name_choice = mux(
            next(counter),
            (ordinary(next(counter), "Rick"), "0.5"),
            (ordinary(next(counter), f"emp{i}"), "0.5"),
        )
        bonus_children: list[PNode] = []
        for project in rng.sample(project_names, rng.randint(1, projects)):
            amount = ordinary(next(counter), str(rng.randint(10, 99)))
            project_node = ordinary(next(counter), project, amount)
            if rng.random() < 0.5:
                bonus_children.append(
                    mux(next(counter), (project_node, "0.8"))
                )
            else:
                bonus_children.append(project_node)
        people.append(
            ordinary(
                100 * i,
                "person",
                ordinary(next(counter), "name", name_choice),
                ordinary(100 * i + 1, "bonus", *bonus_children),
            )
        )
    return pdoc(ordinary(1, "IT-personnel", *people))


def personnel_query(project: str = "project0") -> TreePattern:
    return parse_pattern(f"IT-personnel//person[name/Rick]/bonus[{project}]")


def personnel_views() -> list[View]:
    return [
        View("rickbonus", parse_pattern("IT-personnel//person[name/Rick]/bonus")),
        View("allbonus", parse_pattern("IT-personnel//person/bonus")),
    ]


# ----------------------------------------------------------------------
# Batched-workload family (multi-query sessions)
# ----------------------------------------------------------------------
def batch_workload(
    persons: int, projects: int = 8, seed: int = 0, profile: int = 6
) -> tuple[PDocument, list[TreePattern]]:
    """A view-cache style workload: one personnel query per project.

    Models the batched-evaluation regime of ``QuerySession.answer_many``:
    ``projects`` structurally identical queries (differing only in the
    project label) over one p-document where each person holds exactly one
    project — so every query's answers touch ``1/projects`` of the
    document — plus a query-neutral probabilistic ``profile`` subtree of
    ``profile`` log entries per person, whose evaluation is shared by
    every query of a batch.

    Node Ids follow :func:`personnel_pdocument`: person ``i`` is
    ``100·i``, its bonus ``100·i + 1``.

    Returns ``(pdocument, queries)``.
    """
    rng = random.Random(seed)
    counter = itertools.count(1_000_000)
    people = []
    for i in range(1, persons + 1):
        project = f"project{(i - 1) % projects}"
        amount = ordinary(next(counter), str(rng.randint(10, 99)))
        project_node = ordinary(next(counter), project, amount)
        if rng.random() < 0.5:
            bonus_children = [mux(next(counter), (project_node, "0.8"))]
        else:
            bonus_children = [project_node]
        entries = []
        for _ in range(profile):
            entry = ordinary(
                next(counter),
                "entry",
                ordinary(next(counter), f"day{rng.randint(1, 28)}"),
                ordinary(next(counter), "note"),
            )
            entries.append(
                ind(next(counter), (entry, rng.choice(["0.25", "0.5", "0.75"])))
            )
        people.append(
            ordinary(
                100 * i,
                "person",
                ordinary(
                    next(counter),
                    "name",
                    mux(
                        next(counter),
                        (ordinary(next(counter), "Rick"), "0.5"),
                        (ordinary(next(counter), f"emp{i}"), "0.5"),
                    ),
                ),
                ordinary(100 * i + 1, "bonus", *bonus_children),
                ordinary(next(counter), "profile", *entries),
            )
        )
    p = pdoc(ordinary(1, "IT-personnel", *people))
    queries = [personnel_query(f"project{j}") for j in range(projects)]
    return p, queries


def churn_workload(
    persons: int,
    projects: int = 4,
    rounds: int = 3,
    seed: int = 0,
    *,
    write_ratio: Optional[float] = None,
    hot_fraction: float = 0.25,
    skew: float = 0.9,
    bump_share: float = 0.25,
) -> tuple[PDocument, list[tuple[str, object]]]:
    """A mutating workload: query batches interleaved with in-place edits.

    Models a long-lived session over a document that keeps changing under
    it — the regime that exercises spine-only index maintenance and
    memo-entry survival (``PDocument.mark_mutated(node)``).  Built on
    :func:`batch_workload`; returns ``(p, steps)`` where each step is

    * ``("queries", [TreePattern, ...])`` — evaluate the per-project
      batch (through a session, a cache, or per-query calls), or
    * ``("mutate", mutate)`` — ``mutate()`` edits the document in place
      and records the mutated node via ``p.mark_mutated(node)``;
      ``mutate(full=True)`` performs the identical edit but invalidates
      the whole document (``mark_all_mutated()``), the baseline arm of
      ``benchmarks/bench_churn.py``.  Two edit kinds occur: scaling a
      mux child probability by 3/4 (changes answer probabilities *and*
      the digests on the mutated path, but not the maximal world) and
      bumping a bonus-amount label (changes digests and the world —
      answer probabilities must stay put).

    With the default ``write_ratio=None`` the historical shape is kept:
    ``rounds`` rounds of exactly ``mutate(prob), queries, mutate(label),
    queries`` with uniformly random targets.  Passing ``write_ratio``
    switches to a mixed read/write stream of ``rounds`` steps: each step
    is a mutation with probability ``write_ratio`` (else a query batch),
    and mutation targets follow a *skewed hot-subtree* distribution —
    with probability ``skew`` the target comes from the "hot" first
    ``hot_fraction`` of the document's mux nodes (early persons), which
    is the regime where spine-only maintenance pays: the same short
    spine churns while everything else stays warm.  Label bumps (which
    change the maximal world, unlike probability scalings) make up
    ``bump_share`` of the mutations — default a quarter; the rest are
    probability scalings.

    Drivers replay the steps in order and can check, after every batch,
    that session/store answers equal fresh store-free evaluation.
    """
    p, queries = batch_workload(persons, projects=projects, seed=seed)
    rng = random.Random(seed + 1)
    muxes = sorted(
        (n for n in p.nodes() if n.kind is PNodeKind.MUX),
        key=lambda n: n.node_id,
    )
    amounts = sorted(
        (n for n in p.ordinary_nodes() if n.label is not None and n.label.isdigit()),
        key=lambda n: n.node_id,
    )

    def scale_probability(target: PNode) -> Callable[..., None]:
        def mutate(full: bool = False) -> None:
            child = target.children[0]
            assert target.probabilities is not None
            target.probabilities[child.node_id] *= Fraction(3, 4)
            if full:
                p.mark_all_mutated()
            else:
                p.mark_mutated(target)

        return mutate

    def bump_amount(target: PNode) -> Callable[..., None]:
        def mutate(full: bool = False) -> None:
            target.label = str(int(target.label) + 1)
            if full:
                p.mark_all_mutated()
            else:
                p.mark_mutated(target)

        return mutate

    steps: list[tuple[str, object]] = [("queries", queries)]
    if write_ratio is None:
        for _ in range(rounds):
            steps.append(("mutate", scale_probability(rng.choice(muxes))))
            steps.append(("queries", queries))
            steps.append(("mutate", bump_amount(rng.choice(amounts))))
            steps.append(("queries", queries))
        return p, steps
    hot = muxes[: max(1, int(len(muxes) * hot_fraction))]
    for _ in range(rounds):
        if rng.random() >= write_ratio:
            steps.append(("queries", queries))
            continue
        if rng.random() < bump_share:
            steps.append(("mutate", bump_amount(rng.choice(amounts))))
            continue
        pool = hot if rng.random() < skew else muxes
        steps.append(("mutate", scale_probability(rng.choice(pool))))
    return p, steps


def isomorphic_twin(p: PDocument, offset: Optional[int] = None) -> PDocument:
    """An isomorphic copy of ``p`` with every node Id shifted by ``offset``.

    Same shapes, labels, probabilities and child order — only the Ids
    differ — so structural digests and canonical anchor positions match
    node-for-node while identity-keyed state (candidate sets, stacked
    batch plans) cannot accidentally collide.  The workload for testing and
    benchmarking content-addressed sharing across lookalike documents.

    By default the offset is derived from the source document's largest
    node Id (the next power of ten past it), so twin Ids can never
    collide with source Ids no matter how large the generated document
    grew; pass ``offset`` explicitly to pin the historical shift.
    """
    if offset is None:
        top = max(n.node_id for n in p.nodes())
        offset = 10
        while offset <= top:
            offset *= 10

    def copy(node: PNode) -> PNode:
        duplicate = PNode(node.node_id + offset, node.kind, node.label)
        for child in node.children:
            probability = (
                node.probabilities[child.node_id]
                if node.probabilities is not None
                else None
            )
            duplicate.add_child(copy(child), probability)
        return duplicate

    return PDocument(copy(p.root))


# ----------------------------------------------------------------------
# Structured families for decision-procedure scaling
# ----------------------------------------------------------------------
def chain_query(length: int, predicate_every: int = 2) -> TreePattern:
    """``a1/a2[p2]/a3/a4[p4]/...`` — a /-chain with periodic predicates."""
    steps = []
    for i in range(1, length + 1):
        step = f"l{i}"
        if predicate_every and i % predicate_every == 0:
            step += f"[p{i}]"
        steps.append(step)
    return parse_pattern("/".join(steps))


def chain_views(q: TreePattern) -> list[View]:
    """Prefix views of a chain query (all admit deterministic rewritings)."""
    return prefix_views(q)


def adversarial_intersection(k: int) -> list[TreePattern]:
    """``a//x1//z ∩ a//x2//z ∩ ...`` — ``k`` patterns whose interleavings
    are the permutations of ``x1..xk`` (``k!`` of them): the coNP-hardness
    driver of TP∩ equivalence, measured in ``bench_scaling.py``."""
    return [parse_pattern(f"a//x{i}//z") for i in range(1, k + 1)]
