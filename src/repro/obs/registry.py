"""Process-wide metrics registry: counters, gauges, histograms, collectors.

One :class:`MetricsRegistry` (the module singleton, :func:`get_registry`)
holds every metric the repro layers publish, under Prometheus-style
names with optional label sets::

    repro_store_hits_total{kind="memory"}     1234
    repro_session_node_visits_total           5678
    repro_store_sqlite_probe_seconds_bucket{le="0.001"}  42

Two publication styles coexist, chosen by hot-path cost:

* **Direct metrics** — :meth:`MetricsRegistry.counter` /
  :meth:`~MetricsRegistry.gauge` / :meth:`~MetricsRegistry.histogram`
  get-or-create a metric child for a ``(name, labels)`` pair and hand
  back the live object; incrementing is one attribute add.  Used for
  event counts that have no natural owner (spine splices, array
  exact-fallback escapes, span counts).

* **Pull collectors** — :meth:`MetricsRegistry.register_collector`
  accepts a zero-argument callable returning an iterable of
  :class:`Sample` tuples, evaluated only when the registry is read
  (:meth:`collect` / :meth:`snapshot` / the exporters).  The existing
  ad-hoc stat bags — :class:`repro.prob.session.SessionStats` and the
  :class:`repro.store.api.MemoStore` counters — publish this way: their
  instances keep plain-int fields on the hot evaluation path (zero added
  cost, and their ``stats()`` dict shapes are unchanged) and a
  weakref-walking collector aggregates the live instances at read time.
  This is the classic Prometheus *custom collector* pattern; the
  registry is the single pane of glass, the instance dicts are thin
  per-component views of the same numbers.

The registry itself is read-path-only machinery: nothing here runs per
p-document node, and constructing a metric is a dict lookup.  Everything
is plain single-threaded Python, like the evaluation layers it observes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, NamedTuple, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Sample",
    "MetricsRegistry",
    "get_registry",
]

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Counter:
    """A monotonically increasing count; ``inc`` is one attribute add."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def read(self):
        return self.value


class Gauge:
    """A point-in-time value that may move both ways."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def read(self):
        return self.value


class Histogram:
    """A bucketed distribution of observations (e.g. probe latencies).

    ``bounds`` are inclusive upper bucket bounds; one implicit ``+Inf``
    bucket catches the rest.  ``read()`` returns the cumulative
    Prometheus form: ``{"count": n, "sum": total, "buckets": {bound:
    cumulative_count, ...}}``.
    """

    __slots__ = ("bounds", "counts", "count", "total")
    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def read(self) -> dict:
        cumulative = 0
        buckets = {}
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            buckets[bound] = cumulative
        return {"count": self.count, "sum": self.total, "buckets": buckets}


class Sample(NamedTuple):
    """One exported metric reading.

    ``value`` is a number for counters/gauges and the
    :meth:`Histogram.read` dict for histograms.
    """

    name: str
    kind: str
    labels: tuple  # sorted ((label, value), ...) pairs
    value: object
    help: str = ""


def _label_key(labels: Optional[dict]) -> tuple:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """The process-wide metric namespace; see the module docstring."""

    def __init__(self) -> None:
        # name -> (kind, help, {label_key: metric object})
        self._families: dict[str, tuple[str, str, dict]] = {}
        self._collectors: list[Callable[[], Iterable[Sample]]] = []

    # ------------------------------------------------------------------
    # Direct metrics (get-or-create; the returned object is the handle)
    # ------------------------------------------------------------------
    def counter(
        self, name: str, labels: Optional[dict] = None, help: str = ""
    ) -> Counter:
        return self._child(name, "counter", Counter, labels, help)

    def gauge(
        self, name: str, labels: Optional[dict] = None, help: str = ""
    ) -> Gauge:
        return self._child(name, "gauge", Gauge, labels, help)

    def histogram(
        self,
        name: str,
        labels: Optional[dict] = None,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._child(
            name, "histogram", lambda: Histogram(buckets), labels, help
        )

    def _child(self, name, kind, factory, labels, help):
        family = self._families.get(name)
        if family is None:
            family = (kind, help, {})
            self._families[name] = family
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {family[0]}, "
                f"not a {kind}"
            )
        children = family[2]
        key = _label_key(labels)
        child = children.get(key)
        if child is None:
            child = children[key] = factory()
        return child

    # ------------------------------------------------------------------
    # Pull collectors
    # ------------------------------------------------------------------
    def register_collector(
        self, collector: Callable[[], Iterable[Sample]]
    ) -> None:
        """Add a read-time sample source (see the module docstring).

        Collectors are evaluated on every :meth:`collect`; samples that
        share ``(name, labels)`` with other collector or direct samples
        are summed (counters/gauges aggregate across shards).
        """
        self._collectors.append(collector)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def collect(self) -> list[Sample]:
        """Every metric reading, direct children and collectors merged.

        Counter/gauge samples with equal ``(name, labels)`` sum their
        values; histograms never merge (they are direct-only).  Sorted
        by name, then labels.
        """
        merged: dict[tuple, Sample] = {}
        for name, (kind, help, children) in self._families.items():
            for key, child in children.items():
                merged[(name, key)] = Sample(name, kind, key, child.read(), help)
        for collector in self._collectors:
            for sample in collector():
                slot = (sample.name, sample.labels)
                present = merged.get(slot)
                if present is None or sample.kind == "histogram":
                    merged[slot] = sample
                else:
                    merged[slot] = present._replace(
                        value=present.value + sample.value
                    )
        return [merged[slot] for slot in sorted(merged)]

    def snapshot(self) -> dict:
        """Flat ``{"name{a=b,...}": value}`` dict of :meth:`collect`.

        The form embedded into ``BENCH_obs.json`` and asserted in
        tests; histogram values stay as their ``read()`` dicts.
        """
        flat = {}
        for sample in self.collect():
            if sample.labels:
                rendered = ",".join(f"{k}={v}" for k, v in sample.labels)
                flat[f"{sample.name}{{{rendered}}}"] = sample.value
            else:
                flat[sample.name] = sample.value
        return flat

    def reset(self) -> None:
        """Zero every *direct* metric (collector-backed shards live on
        their components and reset with them).  Mainly for tests and
        benchmark isolation."""
        for _, _, children in self._families.values():
            for child in children.values():
                if isinstance(child, Histogram):
                    child.counts = [0] * (len(child.bounds) + 1)
                    child.count = 0
                    child.total = 0.0
                else:
                    child.value = 0


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry all repro layers publish into."""
    return _REGISTRY
