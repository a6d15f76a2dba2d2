"""Per-layer measurement for the traced (``--trace 1``) run.

Everything here measures the library from outside; nothing in ``src/``
is changed.  Three sources of spans are merged per timed op:

* **Benchmark spans** around each layer's public entry points, recorded
  by wrappers this module installs on objects the benchmark owns: the
  base document's index builders (``pxml.index``) and ``mark_mutated``
  (``pxml.splice``), ``RewritingCache.materialize`` (``views.materialize``),
  the rewrite decisions the cache calls (``rewrite.decide``) and every
  call into the memo store (:class:`TimedStore`).
* **Library spans** that ``repro.obs`` already emits for boundaries
  inside one public call (``session.candidates``, ``session.traversal``,
  ``stacked.pass``, ``rewrite.t1.*`` ...), read through the public
  :class:`repro.obs.capture` window.
* **Registry counters** (``repro.obs.get_registry().snapshot()``) read
  before and after each op: DP node visits, neutral skips, surviving
  stacked plans, store hits/misses/flushes/evictions, SQL statements.

Spans are kept in memory as flat records and nested afterwards by
interval containment (all three sources share ``time.perf_counter``).
A span's *self time* is its duration minus its direct children's.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

import repro.cache as repro_cache
from repro.obs import capture, get_registry
from repro.store import InMemoryStore, MemoStore
from repro.store.api import COUNTER_FIELDS

clock = time.perf_counter

#: Span name -> layer.  Names not listed fall back to their first
#: dotted component.
SPAN_LAYERS = {
    "pxml.index": "pxml.index",
    "pdocument.digest_index": "pxml.index",
    "pxml.splice": "pxml.splice",
    "pdocument.spine_splice": "pxml.splice",
    "session.candidates": "session.candidates",
    "session.refresh": "session.refresh",
    "session.traversal": "dp.traversal",
    "stacked.pass": "dp.traversal",
    "engine.answer": "dp.traversal",
    "engine.match": "dp.traversal",
    "stacked.plan_build": "stacked.plan_build",
    "store.bulk_prefetch": "store.probe",
    "store.get": "store.probe",
    "store.get_many": "store.probe",
    "store.contains": "store.probe",
    "store.contains_many": "store.probe",
    "store.reprobe": "store.probe",
    "store.put": "store.put",
    "store.put_many": "store.put",
    "store.flush": "store.put",
    "views.materialize": "views.materialize",
    "rewrite.decide": "rewrite.decide",
    "rewrite.t1.numerators": "rewrite.t1.numerators",
    "rewrite.t1.denominators": "rewrite.t1.denominators",
}

#: Per-layer metrics read off self times, in seconds (or ms) per op.
SELF_TIME_METRICS = {
    "pxml.index_s": ("pxml.index", 1.0),
    "pxml.splice_ms": ("pxml.splice", 1e3),
    "session.candidates_s": ("session.candidates", 1.0),
    "session.refresh_ms": ("session.refresh", 1e3),
    "dp.traversal_s": ("dp.traversal", 1.0),
    "stacked.plan_build_s": ("stacked.plan_build", 1.0),
    "store.probe_s": ("store.probe", 1.0),
    "store.put_s": ("store.put", 1.0),
    "rewrite.decide_s": ("rewrite.decide", 1.0),
}

#: Rewrite phases whose work happens in nested calls (the numerators'
#: ``boolean_many`` pass): reported as inclusive phase time per op.
PHASE_METRICS = {
    "rewrite.t1_numerators_s": "rewrite.t1.numerators",
    "rewrite.t1_denominators_s": "rewrite.t1.denominators",
}

_PHASE_SPANS = frozenset(PHASE_METRICS.values())

#: Leaf spans of single-key store calls, folded when written out.
_POINT_PROBES = frozenset(("store.get", "store.contains", "store.reprobe", "store.put"))

#: Registry series summed over their label sets, read around each op.
REGISTRY_COUNTERS = {
    "node_visits": "repro_session_node_visits_total",
    "neutral_skips": "repro_session_neutral_skips_total",
    "survived_plans": "repro_session_survived_plans_total",
    "sql_statements": "repro_store_sqlite_statements_total",
    "hits": "repro_store_hits_total",
    "misses": "repro_store_misses_total",
    "flushes": "repro_store_flushes_total",
    "evictions": "repro_store_evictions_total",
}

#: Layers whose log-log slope against document size the traced run fits.
SLOPE_METRICS = (
    "pxml.index_s",
    "session.candidates_s",
    "dp.traversal_s",
    "rewrite.t1_numerators_s",
    "store.probes",
)


def layer_of(name: str) -> str:
    layer = SPAN_LAYERS.get(name)
    if layer is not None:
        return layer
    return name.split(".", 1)[0]


class SpanLog:
    """Flat in-memory span records ``[name, start, end, parent, op, attrs]``.

    Records are grouped by the label current when they were added (an op
    index, ``"setup"`` or ``"prep"``); :meth:`nest` rebuilds the parent
    links of one group from interval containment.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self.label = "setup"
        self._group_start = 0

    def add(self, name: str, start: float, end: float, attrs=None) -> None:
        self.records.append([name, start, end, None, self.label, attrs])

    def wrap(self, name: str, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, start, clock())

        return timed

    def add_library_spans(self, roots) -> None:
        stack = list(roots)
        while stack:
            sp = stack.pop()
            self.add(sp.name, sp.start, sp.start + sp.duration, dict(sp.attrs))
            stack.extend(sp.children)

    def begin(self, label) -> list[int]:
        """Close the current group (nesting it) and start ``label``'s."""
        group = self.nest()
        self.label = label
        self._group_start = len(self.records)
        return group

    def nest(self) -> list[int]:
        records = self.records
        group = sorted(
            range(self._group_start, len(records)),
            key=lambda i: (records[i][1], -records[i][2]),
        )
        stack: list[int] = []
        for index in group:
            end = records[index][2]
            while stack and records[stack[-1]][2] < end:
                stack.pop()
            records[index][3] = stack[-1] if stack else None
            stack.append(index)
        return group

    def write(self, path: Path) -> None:
        """One JSON line per span, gzip-compressed; runs of sibling
        single-key store calls with the same name are folded into one line
        carrying ``count`` and ``busy_s`` (a cold view answer makes
        thousands)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as sink:
            folded = None
            for index, (name, start, end, parent, op, attrs) in enumerate(
                self.records
            ):
                if (
                    folded is not None
                    and name in _POINT_PROBES
                    and folded["name"] == name
                    and folded["parent"] == parent
                    and folded["op"] == op
                ):
                    folded["end"] = end
                    folded["count"] += 1
                    folded["busy_s"] += end - start
                    continue
                if folded is not None:
                    sink.write(json.dumps(folded, default=str) + "\n")
                folded = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                    "count": 1,
                    "busy_s": end - start,
                }
                if attrs:
                    folded["attrs"] = attrs
            if folded is not None:
                sink.write(json.dumps(folded, default=str) + "\n")


class TimedStore(MemoStore):
    """A delegating memo-store proxy that times every call.

    It forwards ``prefers_bulk`` and the bulk protocol, so the library
    takes exactly the code path it would take with the wrapped store,
    and reads every counter from the wrapped store (its own counter bag
    stays zero, so the registry does not count the traffic twice).
    """

    def __init__(self, inner: MemoStore, log: SpanLog) -> None:
        super().__init__()
        self.inner = inner
        self.store_kind = inner.store_kind
        self.prefers_bulk = inner.prefers_bulk
        self._log = log

    def _timed(self, name, method, *args, **kwargs):
        start = clock()
        try:
            return method(*args, **kwargs)
        finally:
            self._log.add(name, start, clock())

    def get(self, key):
        return self._timed("store.get", self.inner.get, key)

    def get_many(self, keys, record: bool = True) -> dict:
        return self._timed("store.get_many", self.inner.get_many, keys, record)

    def contains(self, key) -> bool:
        return self._timed("store.contains", self.inner.contains, key)

    def contains_many(self, keys) -> set:
        return self._timed("store.contains_many", self.inner.contains_many, keys)

    def reprobe(self, key):
        return self._timed("store.reprobe", self.inner.reprobe, key)

    def put(self, key, distribution, weight: int = 1) -> None:
        self._timed("store.put", self.inner.put, key, distribution, weight)

    def put_many(self, entries) -> None:
        self._timed("store.put_many", self.inner.put_many, entries)

    def flush(self) -> None:
        self._timed("store.flush", self.inner.flush)

    def record_probe(self, key, hit: bool) -> None:
        self.inner.record_probe(key, hit)

    def record_spine_recompute(self, survived: int) -> None:
        self.inner.record_spine_recompute(survived)

    def clear(self) -> None:
        self.inner.clear()

    def __len__(self) -> int:
        return len(self.inner)

    def stats(self) -> dict:
        return self.inner.stats()

    def close(self) -> None:
        self.inner.close()


for _field in COUNTER_FIELDS:
    setattr(
        TimedStore,
        _field,
        property(lambda self, field=_field: getattr(self.inner, field)),
    )


_COUNTER_OF_SERIES = {series: key for key, series in REGISTRY_COUNTERS.items()}


def registry_counters() -> dict:
    totals = dict.fromkeys(REGISTRY_COUNTERS, 0)
    for name, value in get_registry().snapshot().items():
        key = _COUNTER_OF_SERIES.get(name.split("{", 1)[0])
        if key is not None:
            totals[key] += value
    return totals


class NullProbe:
    """Untraced runs: every hook hands the object back untouched."""

    traced = False

    def store(self, inner: MemoStore) -> MemoStore:
        return inner

    def memory_store(self) -> Optional[MemoStore]:
        """The store for a view cache: ``None`` keeps the cache's default."""
        return None

    def document(self, p):
        return p

    def cache(self, cache):
        return cache

    @contextmanager
    def decisions(self):
        yield


class TracedProbe:
    """Traced runs: installs the wrappers and collects per-op summaries."""

    traced = True

    def __init__(self) -> None:
        self.log = SpanLog()
        self.ops: list[dict] = []
        self.setup_materialize_s: list[float] = []

    # -- wrappers -------------------------------------------------------
    def store(self, inner: MemoStore) -> MemoStore:
        return TimedStore(inner, self.log)

    def memory_store(self) -> MemoStore:
        # The session's own default store, made explicit so it can be
        # wrapped (QuerySession's default memo_limit).
        return TimedStore(InMemoryStore(max_entries=1 << 18), self.log)

    def document(self, p):
        for name in (
            "structural_index",
            "anchor_index",
            "label_index",
            "identity_digest",
            "max_world",
        ):
            setattr(p, name, self.log.wrap("pxml.index", getattr(p, name)))
        p.mark_mutated = self.log.wrap("pxml.splice", p.mark_mutated)
        return p

    def cache(self, cache):
        cache.materialize = self.log.wrap("views.materialize", cache.materialize)
        return cache

    @contextmanager
    def decisions(self):
        """Time the rewrite decisions ``RewritingCache`` calls."""
        names = ("probabilistic_tp_plan", "tpi_rewrite")
        originals = {name: getattr(repro_cache, name) for name in names}
        for name, fn in originals.items():
            setattr(repro_cache, name, self.log.wrap("rewrite.decide", fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(repro_cache, name, fn)

    # -- grouping -------------------------------------------------------
    def begin(self, label) -> list[int]:
        """Close the current span group and start ``label``'s (an op
        index, ``"prep"``, ``"oracle"``...); returns the closed group."""
        records = self.log.records
        group = self.log.begin(label)
        if group and records[group[0]][4] == "setup":
            self.setup_materialize_s.append(
                sum(
                    records[i][2] - records[i][1]
                    for i in group
                    if records[i][0] == "views.materialize"
                )
            )
        return group

    def run_op(self, index: int, kind: str, fn: Callable):
        """Run one timed op inside a capture window; returns
        ``(result, start, end)`` and appends the op's summary."""
        self.begin(index)
        before = registry_counters()
        with capture() as window:
            start = clock()
            try:
                result = fn()
            finally:
                end = clock()
        after = registry_counters()
        self.log.add(f"op.{kind}", start, end)
        self.log.add_library_spans(window.spans)
        group = self.begin("prep")
        self.ops.append(
            self._summarize(index, kind, end - start, group, before, after)
        )
        return result, start, end

    def _summarize(self, index, kind, wall, group, before, after) -> dict:
        records = self.log.records
        children: dict[int, float] = {}
        for i in group:
            parent = records[i][3]
            if parent is not None:
                children[parent] = (
                    children.get(parent, 0.0) + records[i][2] - records[i][1]
                )
        self_times: dict[str, float] = {}
        phases: dict[str, float] = {}
        lanes = decisions = candidates = 0
        answers_with_candidates = 0
        for i in group:
            name, start, end, _, _, attrs = records[i]
            duration = end - start
            if not name.startswith("op."):
                layer = layer_of(name)
                self_times[layer] = (
                    self_times.get(layer, 0.0) + duration - children.get(i, 0.0)
                )
            if name in _PHASE_SPANS:
                phases[name] = phases.get(name, 0.0) + duration
            if name == "rewrite.t1.numerators":
                lanes += attrs.get("items", 0)
            elif name == "rewrite.decide":
                decisions += 1
            elif name == "session.answer_many" and attrs:
                found = self._candidates_below(i, group)
                if found:
                    candidates += found
                    answers_with_candidates += attrs.get("answers", 0)
        return {
            "op": index,
            "kind": kind,
            "wall": wall,
            "self": self_times,
            "phases": phases,
            "counts": {key: after[key] - before[key] for key in after},
            "numerator_lanes": lanes,
            "decisions": decisions,
            "candidates": candidates,
            "candidate_answers": answers_with_candidates,
            "answers": 0,
            "source": None,
            "scale": 1.0,
        }

    def _candidates_below(self, root: int, group: list[int]) -> int:
        records = self.log.records
        total = 0
        for i in group:
            if records[i][0] != "session.candidates" or not records[i][5]:
                continue
            parent = records[i][3]
            while parent is not None and parent != root:
                parent = records[parent][3]
            if parent == root:
                total += records[i][5].get("candidates", 0)
        return total

    def annotate(self, answers: int, source: Optional[str], scale: float) -> None:
        """Complete the last op's summary: its answer count, its
        rewriting-cache source, and the speed scale of its timing."""
        self.ops[-1].update(answers=answers, source=source, scale=scale)

    def discard_last(self) -> None:
        """Drop the summary of an op that failed."""
        self.ops.pop()


def layer_metrics(ops: list[dict], materialize_s: list[float], extra: dict) -> dict:
    """Per-layer metrics from op summaries: times (scaled to the reference
    speed like the end-to-end latencies) and counts, per op."""
    n = max(1, len(ops))
    metrics: dict[str, float] = {}
    for metric, (layer, unit) in SELF_TIME_METRICS.items():
        metrics[metric] = (
            unit * sum(op["self"].get(layer, 0.0) * op["scale"] for op in ops) / n
        )
    for metric, name in PHASE_METRICS.items():
        metrics[metric] = (
            sum(op["phases"].get(name, 0.0) * op["scale"] for op in ops) / n
        )
    counts = {
        key: sum(op["counts"][key] for op in ops) for key in REGISTRY_COUNTERS
    }
    probes = counts["hits"] + counts["misses"]
    answers = sum(op["answers"] for op in ops)
    cache_answers = [op for op in ops if op["source"] is not None]
    candidates = sum(op["candidates"] for op in ops)
    metrics.update(
        {
            "session.answers_per_candidate": (
                sum(op["candidate_answers"] for op in ops) / candidates
                if candidates
                else 0.0
            ),
            "dp.node_visits": counts["node_visits"] / n,
            "dp.neutral_skips": counts["neutral_skips"] / n,
            "stacked.survived_plans": counts["survived_plans"] / n,
            "store.probes": probes / n,
            "store.probes_per_answer": probes / answers if answers else 0.0,
            "store.hit_ratio": counts["hits"] / probes if probes else 0.0,
            "store.sql_statements": counts["sql_statements"] / n,
            "store.flushes": counts["flushes"] / n,
            "store.evictions": counts["evictions"] / n,
            "views.materialize_s": (
                sum(materialize_s) / len(materialize_s) if materialize_s else 0.0
            ),
            "rewrite.decisions_per_answer": (
                sum(op["decisions"] for op in cache_answers) / len(cache_answers)
                if cache_answers
                else 0.0
            ),
            "rewrite.numerator_lanes": sum(op["numerator_lanes"] for op in ops) / n,
        }
    )
    for source in ("single_view", "multi_view", "direct"):
        metrics[f"cache.answers.{source}"] = float(
            sum(1 for op in cache_answers if op["source"] == source)
        )
    metrics["store.bytes_per_entry"] = extra.get("store.bytes_per_entry", 0.0)
    return metrics


def slope(full: float, half: float, full_size: int, half_size: int) -> float:
    """Log-log slope of a per-op cost between two document sizes
    (0 when the layer did no work at either size)."""
    if full <= 0 or half <= 0 or full_size == half_size:
        return 0.0
    return math.log(full / half) / math.log(full_size / half_size)
