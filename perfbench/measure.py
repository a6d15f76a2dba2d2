"""The closed measuring loop, answer checks, and latency statistics."""

from __future__ import annotations

import collections
import gc
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

clock = time.perf_counter

#: Relative error a float backend may show against the exact oracle.
FLOAT_REL_TOL = 1e-9


class SpeedGauge:
    """Reads how fast the machine runs right now.

    Shared machines drift in speed by ±25% and more within seconds, and
    the drift hits pointer-chasing, allocating code hardest.  The gauge
    times a fixed pure-Python job of that kind — a Merkle-style hash of
    a seeded 4,000-node tree, independent of the library and of the
    run's seed — and :meth:`scale` turns the reading into the factor that
    maps a timing taken now onto a machine where the job takes
    ``REFERENCE_S``.  Speed moves within a second, so the loop takes a
    reading at most ``INTERVAL_S`` before each op and scales the op's
    timing by it (ops longer than that by the mean of the readings just
    before and after them).
    """

    REFERENCE_S = 0.006
    NODES = 4000
    INTERVAL_S = 0.1

    def __init__(self) -> None:
        rng = random.Random(0)
        nodes = [(f"l{rng.randrange(64)}", []) for _ in range(self.NODES)]
        for index in range(1, self.NODES):
            nodes[rng.randrange(max(0, index - 64), index)][1].append(nodes[index])
        self.root = nodes[0]

    def _walk(self) -> int:
        digests: dict = {}
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in node[1])
                continue
            children = sorted(digests[id(child)] for child in node[1])
            digests[id(node)] = hash((node[0], tuple(children)))
        return len(digests)

    def scale(self) -> float:
        """``REFERENCE_S`` over the job's current time (mean of three
        walks, so bursts of interference count as they do in an op):
        above 1 while the machine runs slow."""
        start = clock()
        for _ in range(3):
            self._walk()
        return 3 * self.REFERENCE_S / (clock() - start)


@dataclass
class Op:
    """One closed-loop request: ``run`` is timed, the rest is not.

    ``check`` returns a failure reason, or ``None`` for a correct result;
    ``answers`` counts the answer entries a result holds and ``source``
    names the rewriting-cache strategy that produced it, if any.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    answers: Callable[[object], int] = lambda result: 0
    source: Callable[[object], Optional[str]] = lambda result: None


def compare(answer: dict, oracle: dict, rel_tol: float = 0.0) -> Optional[str]:
    """Why ``answer`` differs from the exact ``oracle``, or ``None``.

    A node whose exact probability is positive but that the answer drops
    is a *possibility flip*, reported before any value mismatch.  With
    ``rel_tol == 0`` values must be equal; otherwise they must agree
    within that relative error.
    """
    missing = [node for node in oracle if node not in answer]
    if missing:
        return f"possibility flip: {len(missing)} answers with Pr > 0 dropped"
    extra = [node for node in answer if node not in oracle]
    if extra:
        return f"{len(extra)} answers absent from the oracle"
    for node, exact in oracle.items():
        got = answer[node]
        if rel_tol == 0.0:
            if got != exact:
                return f"Pr({node}) = {got}, oracle {exact}"
        elif abs(Fraction(got) - exact) > rel_tol * exact:
            return f"Pr({node}) = {got!r}, oracle {float(exact)!r} (relative error)"
    return None


def compare_many(answers: list, oracles: list, rel_tol: float) -> Optional[str]:
    if len(answers) != len(oracles):
        return f"{len(answers)} answers for {len(oracles)} queries"
    for index, (answer, oracle) in enumerate(zip(answers, oracles)):
        reason = compare(answer, oracle, rel_tol)
        if reason is not None:
            return f"query {index}: {reason}"
    return None


@dataclass
class LoopResult:
    """Latencies per op kind: ``samples`` scaled to the reference speed,
    ``raw`` as the wall clock read them."""

    samples: dict[str, list[float]]
    raw: dict[str, list[float]]
    attempted: int = 0
    failed: int = 0
    reasons: collections.Counter = field(default_factory=collections.Counter)

    def add(self, kind: str, elapsed: float, before: float, after: float) -> None:
        """Record one op's latency, scaled by the mean of the two gauge
        readings around it."""
        self.samples[kind].append(elapsed * (before + after) / 2)
        self.raw[kind].append(elapsed)


def run_loop(workload, seconds: float, gauge: SpeedGauge, probe=None) -> LoopResult:
    """Run ``workload.ops()`` one op at a time until ``seconds`` pass.

    Closed loop, one caller: the next op is drawn only after the previous
    one returned and was checked.  A failed op (raised, wrong answer,
    wrong source) counts in ``failed`` and adds no latency sample.
    Every op starts from a freshly collected heap (collected untimed),
    so whether a full collection lands inside an op does not depend on
    what the ops before it left behind.  What set-up built (documents,
    caches, the oracles) is frozen out of the collector for the loop:
    the benchmark's own long-lived objects would otherwise add to the
    cost of every full collection the library's work triggers.
    """
    gc.collect()
    gc.freeze()
    try:
        return _loop(workload, seconds, gauge, probe)
    finally:
        gc.unfreeze()


def _loop(workload, seconds: float, gauge: SpeedGauge, probe) -> LoopResult:
    result = LoopResult(
        samples={kind: [] for kind in workload.kinds},
        raw={kind: [] for kind in workload.kinds},
    )
    traced = probe is not None and probe.traced
    ops = workload.ops()
    # An op longer than the gauge interval is scaled by the mean of the
    # readings just before and just after it; it waits here for the
    # second one, which is also the next op's first.
    bracketed = None
    deadline = clock() + seconds
    read_at = -gauge.INTERVAL_S
    while clock() < deadline:
        op = next(ops)
        result.attempted += 1
        gc.collect()
        if bracketed is not None or clock() - read_at >= gauge.INTERVAL_S:
            scale = gauge.scale()
            read_at = clock()
            if bracketed is not None:
                result.add(*bracketed, scale)
                bracketed = None
        try:
            if traced:
                value, start, end = probe.run_op(result.attempted, op.kind, op.run)
            else:
                start = clock()
                value = op.run()
                end = clock()
        except Exception as exc:  # the loop must outlive a failing op
            reason = f"{op.kind}: raised {type(exc).__name__}: {exc}"
            if reason not in result.reasons:
                traceback.print_exc(file=sys.stderr)
            result.failed += 1
            result.reasons[reason] += 1
            continue
        reason = op.check(value)
        if reason is not None:
            result.failed += 1
            result.reasons[f"{op.kind}: {reason}"] += 1
            if traced:
                probe.discard_last()
            continue
        if end - start >= gauge.INTERVAL_S:
            bracketed = (op.kind, end - start, scale)
        else:
            result.add(op.kind, end - start, scale, scale)
        if traced:
            probe.annotate(op.answers(value), op.source(value), scale)
    if bracketed is not None:
        gc.collect()
        result.add(*bracketed, gauge.scale())
    return result


def timed_setups(workload, count: int, gauge: SpeedGauge) -> list[float]:
    """Set the workload up ``count`` times, each timing scaled by the mean
    of gauge readings before and after it; the last set-up stays live."""
    times = []
    for _ in range(count):
        workload.close()
        gc.collect()
        before = gauge.scale()
        start = clock()
        workload.setup()
        elapsed = clock() - start
        gc.collect()
        times.append(elapsed * (before + gauge.scale()) / 2)
    return times


def summarize(latencies: list[float], scale: float = 1e3) -> dict:
    """``n``, ``p50`` and — with at least ten samples above it — ``p90``."""
    if not latencies:
        return {"n": 0, "p50": None, "p90": None}
    p90 = None
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[8] * scale
    return {"n": len(latencies), "p50": statistics.median(latencies) * scale, "p90": p90}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
