"""A view cache with automatic rewriting — the paper's optimization story.

``RewritingCache`` materializes probabilistic view extensions once and then
answers TP queries from the cache whenever the paper's machinery proves it
possible, trying in order:

1. single-view probabilistic TP-rewritings (``TPrewrite``, §4);
2. multi-view TP∩-rewritings through the canonical plan and the ``S(q, V)``
   system (``TPIrewrite``, §5);
3. optionally, direct evaluation over the base p-document (disabled when
   the cache is *strict*, e.g. when the base document is no longer
   available — the situation Definition 4 models).

The cache owns one :class:`repro.prob.session.QuerySession` over the base
p-document for its whole lifetime: view materializations and direct
evaluations share the session's structural subtree memo (one
:class:`repro.store.MemoStore`, persistable across restarts via
``store=SqliteStore(path)``), and
:meth:`RewritingCache.answer_many` evaluates a whole workload batch of
direct-path queries in a single shared traversal.  Rewriting plans are
built with the cache's numeric backend, so ``backend="array"`` flows into
the plans' numerators, denominators and α-pattern evaluations too.

Every answer records which strategy produced it, and :meth:`RewritingCache.
stats` exposes per-source hit counts plus the session counters, so the
cache doubles as an instrument for the cost experiments in
``benchmarks/``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import weakref

from .errors import NoRewritingError, UnknownViewError
from .obs.registry import Sample, get_registry
from .probability import BackendLike, get_backend
from .prob.session import QuerySession
from .pxml.pdocument import PDocument
from .store import MemoStore
from .rewrite.multi_view import tpi_rewrite
from .rewrite.single_view import probabilistic_tp_plan
from .tp.pattern import TreePattern
from .views.extension import ProbabilisticViewExtension, probabilistic_extension
from .views.view import View

__all__ = ["AnswerSource", "CachedAnswer", "RewritingCache"]


class AnswerSource(enum.Enum):
    """How an answer was obtained."""

    SINGLE_VIEW = "single-view rewriting"
    MULTI_VIEW = "multi-view rewriting"
    DIRECT = "direct evaluation"


@dataclass
class CachedAnswer:
    """An answer together with its provenance.

    Probability values are in the cache backend's domain —
    :class:`Fraction` for ``exact``, ``float`` for ``array``.
    """

    answer: dict[int, Union[Fraction, float]]
    source: AnswerSource
    plan_description: str = ""


class RewritingCache:
    """Materialized views over one p-document, with automatic rewriting.

    Args:
        p: the base p-document (kept only when ``strict`` is false).
        strict: when true, queries that admit no probabilistic rewriting
            raise :class:`NoRewritingError` instead of falling back to
            direct evaluation — extensions are then the *only* data source,
            exactly the access model of Definition 4.
        backend: numeric backend (name or instance) used whenever the
            cache evaluates probabilities — materializing extensions,
            rewriting-plan probability functions, and direct evaluation.
            ``"exact"`` (default) keeps everything bit-exact; ``"array"``
            trades exactness for float throughput.
        store: optional :class:`repro.store.MemoStore` backing the
            cache's session — view materialization and direct answers
            then share one structural memo, and a
            :class:`repro.store.SqliteStore` makes it survive restarts.
            Anchored evaluations are content-addressed under canonical
            anchor-position keys, so the rewriting plans' per-extension
            sessions share their entries with the base document's
            store.
    """

    def __init__(
        self,
        p: PDocument,
        strict: bool = False,
        backend: BackendLike = "exact",
        store: Optional[MemoStore] = None,
    ) -> None:
        self._p: Optional[PDocument] = None if strict else p
        self._build_source = p
        self.strict = strict
        self.backend = get_backend(backend)
        self._session = QuerySession(p, backend=self.backend, store=store)
        self._views: dict[str, View] = {}
        self._extensions: dict[str, ProbabilisticViewExtension] = {}
        self._source_counts: dict[AnswerSource, int] = {
            source: 0 for source in AnswerSource
        }
        _LIVE_CACHES.add(self)
        weakref.finalize(self, _retire_cache_counts, self._source_counts)

    # ------------------------------------------------------------------
    # View management
    # ------------------------------------------------------------------
    def materialize(self, view: View) -> ProbabilisticViewExtension:
        """Evaluate the view over the base document and cache its extension.

        Runs through the cache's query session, so several
        ``materialize`` calls share per-subtree evaluation work.
        """
        if view.name in self._views:
            raise ValueError(f"view {view.name!r} is already materialized")
        extension = probabilistic_extension(
            self._build_source, view, session=self._session
        )
        self._views[view.name] = view
        self._extensions[view.name] = extension
        return extension

    def views(self) -> list[View]:
        return list(self._views.values())

    def extension(self, name: str) -> ProbabilisticViewExtension:
        return self._extensions[name]

    def drop(self, name: str) -> None:
        """Discard a materialized view and its extension.

        Raises:
            UnknownViewError: when no view of that name is materialized
                (also a :class:`KeyError`, wrapping the underlying lookup
                failure).
        """
        try:
            del self._views[name]
        except KeyError as exc:
            raise UnknownViewError(
                f"no materialized view named {name!r}; materialized views: "
                f"{sorted(self._views) or '(none)'}"
            ) from exc
        del self._extensions[name]

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def answer(self, q: TreePattern) -> CachedAnswer:
        """Answer ``q`` from the cache, falling back per the cache policy.

        Raises:
            NoRewritingError: in strict mode, when no rewriting exists.
        """
        result = self._try_single_view(q)
        if result is None:
            result = self._try_multi_view(q)
        if result is None:
            if self._p is None:
                raise NoRewritingError(
                    f"no probabilistic rewriting of {q.xpath()} over "
                    f"{sorted(self._views)} and the cache is strict"
                )
            result = CachedAnswer(
                answer=self._session.answer(q),
                source=AnswerSource.DIRECT,
                plan_description="evaluated on the base p-document "
                f"({self.backend.name} backend, session single-pass engine)",
            )
        self._source_counts[result.source] += 1
        return result

    def answer_many(self, queries: Sequence[TreePattern]) -> list[CachedAnswer]:
        """Answer a whole workload batch, in input order.

        Queries that rewrite over the extensions are answered by their
        plans; all remaining (direct-path) queries are evaluated together
        in **one** shared session traversal of the base p-document with
        cross-query subtree memoization.

        Raises:
            NoRewritingError: in strict mode, as soon as any query of the
                batch admits no rewriting.
        """
        queries = list(queries)
        results: list[Optional[CachedAnswer]] = [None] * len(queries)
        direct_indices: list[int] = []
        for index, q in enumerate(queries):
            result = self._try_single_view(q)
            if result is None:
                result = self._try_multi_view(q)
            if result is not None:
                results[index] = result
            elif self._p is None:
                raise NoRewritingError(
                    f"no probabilistic rewriting of {q.xpath()} over "
                    f"{sorted(self._views)} and the cache is strict"
                )
            else:
                direct_indices.append(index)
        # Count sources only once the whole batch is known answerable, so a
        # strict-mode raise above leaves the instrumentation untouched.
        for result in results:
            if result is not None:
                self._source_counts[result.source] += 1
        if direct_indices:
            answers = self._session.answer_many(
                [queries[index] for index in direct_indices]
            )
            for index, answer in zip(direct_indices, answers):
                self._source_counts[AnswerSource.DIRECT] += 1
                results[index] = CachedAnswer(
                    answer=answer,
                    source=AnswerSource.DIRECT,
                    plan_description="batched direct evaluation "
                    f"({self.backend.name} backend, "
                    f"{len(direct_indices)} queries in one session pass)",
                )
        return results  # type: ignore[return-value]

    def answerable(self, q: TreePattern) -> bool:
        """Decision only: can ``q`` be answered from the extensions alone?"""
        if self._try_single_view(q, decide_only=True) is not None:
            return True
        return self._try_multi_view(q, decide_only=True) is not None

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-source answer counts plus the session's cache counters.

        Keys ``"SINGLE_VIEW"`` / ``"MULTI_VIEW"`` / ``"DIRECT"`` count the
        answers produced by each strategy (decisions via ``answerable``
        are not counted); ``"total"`` sums them; ``"session"`` is a
        snapshot of :class:`repro.prob.session.SessionStats` for the
        cache's base-document session; ``"store"`` holds the structural
        memo store's counters (``None`` when memoization is off);
        ``"anchored"`` aggregates the anchored hit/miss/put traffic —
        store-level counters cover every session sharing the store (the
        plans' per-extension sessions included), the session-level pair
        covers the base-document session alone.
        """
        counts = {
            source.name: count for source, count in self._source_counts.items()
        }
        counts["total"] = sum(self._source_counts.values())
        counts["session"] = self._session.stats.snapshot()
        store = self._session.store
        counts["store"] = store.stats() if store is not None else None
        counts["anchored"] = {
            "store_hits": store.anchored_hits if store is not None else 0,
            "store_misses": store.anchored_misses if store is not None else 0,
            "store_puts": store.anchored_puts if store is not None else 0,
            "session_hits": self._session.stats.anchored_hits,
            "session_misses": self._session.stats.anchored_misses,
        }
        return counts

    @property
    def session(self) -> QuerySession:
        """The cache-owned query session over the base p-document."""
        return self._session

    # ------------------------------------------------------------------
    # Strategies
    # ------------------------------------------------------------------
    def _try_single_view(
        self, q: TreePattern, decide_only: bool = False
    ) -> Optional[CachedAnswer]:
        for view in self._views.values():
            plan = probabilistic_tp_plan(
                q,
                view,
                backend=self.backend,
                store=self._session.store,
            )
            if plan is None:
                continue
            if decide_only:
                return CachedAnswer({}, AnswerSource.SINGLE_VIEW, plan.describe())
            return CachedAnswer(
                answer=plan.evaluate(self._extensions[view.name]),
                source=AnswerSource.SINGLE_VIEW,
                plan_description=plan.describe(),
            )
        return None

    def _try_multi_view(
        self, q: TreePattern, decide_only: bool = False
    ) -> Optional[CachedAnswer]:
        if not self._views:
            return None
        plan = tpi_rewrite(
            q,
            list(self._views.values()),
            self._extensions,
            backend=self.backend,
            store=self._session.store,
        )
        if plan is None:
            return None
        if decide_only:
            return CachedAnswer({}, AnswerSource.MULTI_VIEW, plan.description)
        return CachedAnswer(
            answer=plan.evaluate(),
            source=AnswerSource.MULTI_VIEW,
            plan_description=plan.description,
        )


#: Live caches feeding the process registry (pull collector): answer
#: counts stay plain ints per instance; the registry aggregates at read,
#: folding in the counts of garbage-collected caches (retired by a
#: finalizer that holds only the counts dict, never the cache).
_LIVE_CACHES: "weakref.WeakSet[RewritingCache]" = weakref.WeakSet()

_RETIRED_COUNTS: dict = {source: 0 for source in AnswerSource}


def _retire_cache_counts(counts: dict) -> None:
    for source, count in counts.items():
        _RETIRED_COUNTS[source] += count


def _collect_cache_samples():
    totals = dict(_RETIRED_COUNTS)
    for cache in list(_LIVE_CACHES):
        for source, count in cache._source_counts.items():
            totals[source] += count
    for source in AnswerSource:
        yield Sample(
            "repro_cache_answers_total",
            "counter",
            (("source", source.name.lower()),),
            totals[source],
            "answers produced per rewriting-cache strategy",
        )


get_registry().register_collector(_collect_cache_samples)
