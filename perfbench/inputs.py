"""Seeded input generator for the three benchmark workloads.

Everything the library sees during a run is built here from the run's
``--seed``: the same seed always yields the same documents, views,
query streams and churn edits.  The families come from
:mod:`repro.workloads.synthetic`; this module adds what the benchmark
needs on top of them — the TPIrewrite view trios, the per-op query
schedules, and the sizes of each workload.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.tp.parser import parse_pattern
from repro.tp.pattern import TreePattern
from repro.views.view import View
from repro.workloads.synthetic import (
    batch_workload,
    churn_workload,
    personnel_pdocument,
    personnel_query,
    personnel_views,
)

#: Persons per workload and scale.  ``full`` is what BENCHMARK.json
#: describes; ``tiny`` is the self-test's size.  The traced run also
#: replays each workload at half the persons to fit per-layer slopes.
PERSONS = {
    "full": {"view_cache": 48, "direct_batch": 1024, "churn": 512},
    "tiny": {"view_cache": 8, "direct_batch": 32, "churn": 32},
}

VIEW_CACHE_PROJECTS = 8
BATCH_PROJECTS = 8
CHURN_PROJECTS = 4
#: TPIrewrite trios per view_cache run; each lives in a cache of its own,
#: because with several trios in one cache the query falls back to
#: direct evaluation.
TPI_TRIOS = 4
#: Churn stream length; the loop cycles the stream if a run outlasts it
#: (every edit is relative, so replaying it is another valid edit).
CHURN_STEPS = 4000
CHURN_MIX = dict(write_ratio=0.5, hot_fraction=0.25, skew=0.9, bump_share=0.15)
#: Rows the churn store buffers before one ``executemany`` drain.
CHURN_WRITE_BEHIND = 128


@dataclass
class TpiTrio:
    """One TPIrewrite case: a TP query and the three views answering it."""

    query: TreePattern
    views: list[View]


def tpi_trio(answer_project: int, filter_project: int) -> TpiTrio:
    """``IT-personnel//person[name/Rick]/bonus[project_k]/project_j``
    with the views ``//person[name/Rick]/bonus/project_j``,
    ``//person/bonus[project_k]/project_j`` and ``//person/bonus/project_j``."""
    j, k = f"project{answer_project}", f"project{filter_project}"
    query = parse_pattern(f"IT-personnel//person[name/Rick]/bonus[{k}]/{j}")
    views = [
        View("rick", parse_pattern(f"IT-personnel//person[name/Rick]/bonus/{j}")),
        View("filtered", parse_pattern(f"IT-personnel//person/bonus[{k}]/{j}")),
        View("all", parse_pattern(f"IT-personnel//person/bonus/{j}")),
    ]
    return TpiTrio(query, views)


def balanced_personnel_seed(persons: int, seed: int) -> int:
    """The first document seed, from ``seed``'s own sequence, whose
    ``personnel_pdocument`` holds the expected number of bonus projects
    (``persons`` × 4.5, within 1%).

    Each person draws 1–8 projects, so at 48 persons the project count —
    and the cost of every op with it — varies by ±7% from seed to seed.
    Holding it fixed keeps runs with different seeds comparable while
    the documents themselves still differ.
    """
    target = persons * (VIEW_CACHE_PROJECTS + 1) / 2
    for attempt in itertools.count():
        candidate = seed * 1000 + attempt
        p = personnel_pdocument(persons, projects=VIEW_CACHE_PROJECTS, seed=candidate)
        projects = sum(
            1 for node in p.nodes() if node.label and node.label.startswith("project")
        )
        if abs(projects - target) <= 0.01 * target:
            return candidate


@dataclass
class ViewCacheInputs:
    persons: int
    document_seed: int
    tp_queries: list[TreePattern]
    views: list[View]
    trios: list[TpiTrio]
    #: Endless schedules are drawn from this generator, one index per op.
    rng: random.Random

    def document(self):
        return personnel_pdocument(
            self.persons, projects=VIEW_CACHE_PROJECTS, seed=self.document_seed
        )


def view_cache_inputs(persons: int, seed: int) -> ViewCacheInputs:
    rng = random.Random(seed)
    pairs = [
        (j, k)
        for j in range(VIEW_CACHE_PROJECTS)
        for k in range(VIEW_CACHE_PROJECTS)
        if j != k
    ]
    trios = [tpi_trio(j, k) for j, k in rng.sample(pairs, TPI_TRIOS)]
    return ViewCacheInputs(
        persons=persons,
        document_seed=balanced_personnel_seed(persons, seed),
        tp_queries=[
            personnel_query(f"project{j}") for j in range(VIEW_CACHE_PROJECTS)
        ],
        views=personnel_views(),
        trios=trios,
        rng=random.Random(seed + 1),
    )


def direct_batch_inputs(persons: int, seed: int):
    """``(p-document, 8 queries)`` of ``batch_workload``."""
    return batch_workload(persons, projects=BATCH_PROJECTS, seed=seed)


def churn_inputs(persons: int, seed: int):
    """``(p-document, steps)`` of the skewed read/write ``churn_workload``.

    Two calls with equal arguments return equal documents and streams
    whose edits hit the same node Ids — the oracle replays the second.
    """
    return churn_workload(
        persons,
        projects=CHURN_PROJECTS,
        rounds=CHURN_STEPS,
        seed=seed,
        **CHURN_MIX,
    )
