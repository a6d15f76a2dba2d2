"""Span-based tracing with a no-op fast path.

A :class:`Span` is one timed region of work — a shared traversal, an
engine DP pass, a rewrite-plan phase, a stacked plan build — carrying a
name, wall time, free-form attributes (node visits, store hit/miss
deltas, distribution widths, exact-fallback counts) and nested child
spans.  The module-level :func:`span` helper is what the evaluation
layers call:

* **Tracing disabled (the default):** :func:`span` returns the
  :data:`NULL_SPAN` singleton — falsy, every method a no-op — so the
  instrumented code costs one global read, one function call and one
  ``with`` enter/exit per *pass* (never per p-document node; per-node
  bookkeeping stays on the plain-int stat bags).  The
  ``benchmarks/bench_obs.py`` micro-benchmark holds this under 2% of
  the warm batch path.

* **Tracing enabled** (:func:`enable_tracing`, the ``REPRO_TRACE``
  environment variable, or a :func:`capture` window): real spans nest
  via the tracer's stack; finished *root* spans land in a bounded ring
  (oldest dropped, counted) and — when a sink is configured — stream
  out as JSON lines, one root span tree per line.

Spans are truthy only when real, so call sites guard their delta
bookkeeping with ``if sp:`` and pay nothing when disabled::

    sp = span("stacked.pass", lanes=lane.width)
    before = self.stats.snapshot() if sp else None
    with sp:
        root = stored_postorder(...)
    if sp:
        sp.set("node_visits", self.stats.node_visits - before["node_visits"])

Single-threaded by design, like the evaluation engine it observes.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional, Union

from .registry import get_registry

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "take_spans",
    "capture",
]


class Span:
    """One timed, attributed, nestable region of work."""

    __slots__ = ("name", "attrs", "children", "start", "duration", "_tracer")

    def __init__(self, name: str, attrs: dict, tracer: "Tracer") -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.start = 0.0
        self.duration = 0.0
        self._tracer = tracer

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    def inc(self, key: str, amount=1) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        stack = self._tracer._stack
        # Tolerate an out-of-order exit (an exception unwinding through
        # several spans): pop everything above and including this span.
        while stack:
            top = stack.pop()
            if top is self:
                break
        if stack:
            stack[-1].children.append(self)
        else:
            self._tracer._finish_root(self)
        return False

    def to_dict(self) -> dict:
        """JSON-ready form: name, duration, attrs, nested children."""
        entry = {
            "name": self.name,
            "duration_s": self.duration,
            "attrs": dict(self.attrs),
        }
        if self.children:
            entry["children"] = [child.to_dict() for child in self.children]
        return entry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms)"


class _NullSpan:
    """The shared disabled-path span: falsy, every operation a no-op."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def set(self, key, value) -> None:
        pass

    def inc(self, key, amount=1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Span factory, nesting stack, and bounded finished-root ring."""

    def __init__(self, max_roots: int = 512) -> None:
        self.enabled = False
        self.max_roots = max_roots
        self.roots: list[Span] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._sink = None
        self._owns_sink = False
        self._span_counter = get_registry().counter(
            "repro_trace_spans_total",
            help="finished root spans recorded by the tracer",
        )

    def span(self, name: str, **attrs) -> Union[Span, _NullSpan]:
        if not self.enabled:
            return NULL_SPAN
        return Span(name, attrs, self)

    def _finish_root(self, root: Span) -> None:
        self._span_counter.inc()
        if self._sink is not None:
            self._sink.write(json.dumps(root.to_dict()) + "\n")
        self.roots.append(root)
        if len(self.roots) > self.max_roots:
            del self.roots[0]
            self.dropped += 1

    def take(self) -> list[Span]:
        """Drain and return the finished root spans."""
        spans = self.roots
        self.roots = []
        return spans

    def set_sink(self, sink) -> None:
        """Stream finished root spans to ``sink`` (a path or file object)
        as JSON lines; a path is opened (and later closed) by the tracer."""
        self.close_sink()
        if isinstance(sink, (str, os.PathLike)):
            self._sink = open(sink, "w", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = sink
            self._owns_sink = False

    def close_sink(self) -> None:
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
            self._sink = None
            self._owns_sink = False


_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def span(name: str, **attrs) -> Union[Span, _NullSpan]:
    """A span under the global tracer — :data:`NULL_SPAN` when disabled."""
    if not _TRACER.enabled:
        return NULL_SPAN
    return Span(name, attrs, _TRACER)


def enable_tracing(
    sink=None, max_roots: Optional[int] = None
) -> Tracer:
    """Turn span recording on, optionally streaming roots to ``sink``."""
    if max_roots is not None:
        _TRACER.max_roots = max_roots
    if sink is not None:
        _TRACER.set_sink(sink)
    _TRACER.enabled = True
    return _TRACER


def disable_tracing() -> None:
    """Back to the no-op fast path; flushes and closes an owned sink."""
    _TRACER.enabled = False
    _TRACER.close_sink()


def tracing_enabled() -> bool:
    return _TRACER.enabled


def take_spans() -> list[Span]:
    """Drain the global tracer's finished root spans."""
    return _TRACER.take()


class capture:
    """Record the spans of one region regardless of the global switch.

    ``with capture() as cap:`` enables tracing for the window (restoring
    the previous state on exit) and drains into ``cap.spans`` exactly
    the root spans finished inside it — the building block of the
    per-query cost profiles (:mod:`repro.obs.profile`).
    """

    __slots__ = ("spans", "_was_enabled", "_mark")

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def __enter__(self) -> "capture":
        self._was_enabled = _TRACER.enabled
        self._mark = len(_TRACER.roots)
        _TRACER.enabled = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.spans = _TRACER.roots[self._mark:]
        del _TRACER.roots[self._mark:]
        _TRACER.enabled = self._was_enabled
        return False


def _env_autoenable() -> None:
    """Honour ``REPRO_TRACE``: truthy enables tracing at import; any
    value other than 1/true/yes/on is taken as a JSON-lines sink path."""
    value = os.environ.get("REPRO_TRACE", "").strip()
    if not value or value.lower() in ("0", "false", "no", "off"):
        return
    if value.lower() in ("1", "true", "yes", "on"):
        enable_tracing()
    else:
        enable_tracing(sink=value)


_env_autoenable()
