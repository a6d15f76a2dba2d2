"""The ``array`` numeric backend: float dict kernels with an exact escape.

Scalar values are plain floats, and every goal-set distribution is a
``{mask: float}`` dict computed by the per-entry
:class:`~repro.probability.ScalarOps` kernels.  What the backend adds
is a width guard:

**Session batches.**  A :class:`~repro.prob.session.QuerySession` runs
every batch as one lane group (:mod:`repro.prob.stacked`) whose entries
are :class:`LaneRows` — one dict per lane, shared by lane class; the
store holds each class's row.

**Exact fallback.**  Supports normally stay tiny (the goal-set DP
collapses masks aggressively), but adversarial documents can blow them
up.  A node's float result whose support exceeds ``width_threshold``
escapes to a dict with :class:`~fractions.Fraction` values
(:meth:`ArrayBackend.escape`, counted in :attr:`ArrayBackend.fallbacks`)
— from that subtree upward the computation runs through the exact
per-entry kernels (:meth:`ArrayBackend.exact_ops`), where float
operands convert exactly, so fallback regions compose with float ones.
The engine's combine steps apply this one rule per node, for engine
passes and lane groups alike (see :mod:`repro.prob.engine`).
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Optional

from .obs.registry import Sample, get_registry
from .probability import ProbabilityLike, ScalarOps, as_fraction

__all__ = [
    "ArrayBackend",
    "LaneRows",
]


class LaneRows:
    """A whole batch of lane distributions as one tuple of rows.

    The lane group of :mod:`repro.prob.stacked` advances every query
    lane of a batch through a subtree in one combine step; this is the
    result — ``rows[i]`` is lane ``i``'s blocked (or unpinned)
    distribution as a plain ``{mask: value}`` dict.  Lanes of one *lane
    class* (equal restricted goal table, anchor positions and gate)
    share one row object, and neutral lanes share the unit dict.

    Values are floats, or :class:`~fractions.Fraction` in rows that
    escaped the width threshold or were combined above such a row
    (``exact`` is set when any row is).  Immutable by convention, like
    every engine distribution.
    """

    __slots__ = ("rows", "exact")

    def __init__(self, rows: tuple, exact: bool = False) -> None:
        self.rows = rows
        self.exact = exact

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaneRows(lanes={len(self.rows)}, exact={self.exact})"


def _is_exact(distribution: dict) -> bool:
    """Whether ``distribution`` holds :class:`Fraction` values (a row is
    all float or all Fraction, so its first value tells)."""
    for value in distribution.values():
        return value.__class__ is Fraction
    return False


def _lift(distribution: dict) -> dict:
    """``distribution`` in the exact domain (floats convert exactly)."""
    if _is_exact(distribution):
        return distribution
    return {mask: Fraction(value) for mask, value in distribution.items()}


class _ExactFallbackOps(ScalarOps):
    """Exact per-entry kernels fed by the array backend's float scalars.

    Edge probabilities reach the ops layer already converted by the
    array backend (floats); the exact-fallback domain lifts them to the
    :class:`Fraction` they exactly represent, so arithmetic above a
    fallen-back subtree is exact over its (float-valued) inputs.
    """

    __slots__ = ()

    @staticmethod
    def _lift(probability) -> Fraction:
        if isinstance(probability, Fraction):
            return probability
        return Fraction(float(probability))

    def mixture(self, probability, distribution: dict) -> dict:
        return super().mixture(self._lift(probability), distribution)

    def mux_mixture(self, pairs) -> dict:
        return super().mux_mixture(
            (self._lift(p), d) for p, d in pairs
        )

    def scale_subtract(self, base, probability, distribution):
        return super().scale_subtract(
            base, self._lift(probability), distribution
        )

    def scale_accumulate(self, base, probability, distribution):
        return super().scale_accumulate(
            base, self._lift(probability), distribution
        )


class _ExactProxy:
    """Zero/one source for the exact-fallback ScalarOps (no registry pull)."""

    name = "array-exact-fallback"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def convert(value: ProbabilityLike) -> Fraction:
        return value if isinstance(value, Fraction) else as_fraction(value)

    @staticmethod
    def to_fraction(value) -> Fraction:
        return value


_EXACT_PROXY = _ExactProxy()
#: The exact-fallback kernels (stateless, shared by every backend).
_EXACT_OPS = _ExactFallbackOps(_EXACT_PROXY)


#: Live array backends feeding the registry pull collector below; the
#: per-instance ``fallbacks`` counter stays a plain int slot on the hot
#: path, retired into the process total when a backend is collected.
_LIVE_BACKENDS: "weakref.WeakSet" = weakref.WeakSet()

_RETIRED_FALLBACKS = [0]


def _retire_fallbacks(count: list) -> None:
    _RETIRED_FALLBACKS[0] += count[0]


def _collect_backend_samples():
    total = _RETIRED_FALLBACKS[0] + sum(
        backend.fallbacks for backend in list(_LIVE_BACKENDS)
    )
    yield Sample(
        "repro_array_fallbacks_total", "counter", (), total,
        "width-threshold escapes from float kernels to exact dicts",
    )


get_registry().register_collector(_collect_backend_samples)


class ArrayBackend:
    """The float backend (``"array"``).

    Scalar values are plain floats.  A
    :class:`repro.prob.session.QuerySession` runs every batch as one
    lane group of :mod:`repro.prob.stacked`: one :class:`LaneRows`
    entry per subtree, each row computed once per lane class with float
    dict kernels and stored under that class's own key.

    Args:
        width_threshold: support width beyond which a float result
            escapes to the exact per-entry fallback (see module docs).
    """

    name = "array"
    zero = 0.0
    one = 1.0

    def __init__(self, width_threshold: int = 4096) -> None:
        self.width_threshold = int(width_threshold)
        # One-slot bag for the fallback counter so a finalizer can
        # retire it into the process total without holding the backend.
        self._fallback_count = [0]
        self._scalar_ops: Optional[ScalarOps] = None
        _LIVE_BACKENDS.add(self)
        weakref.finalize(self, _retire_fallbacks, self._fallback_count)

    @property
    def fallbacks(self) -> int:
        """Cumulative count of width-threshold escapes to exact dicts."""
        return self._fallback_count[0]

    @staticmethod
    def convert(value: ProbabilityLike) -> float:
        return float(value)

    @staticmethod
    def to_fraction(value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        # ``Fraction(float)`` is the exact binary expansion (0.1 ->
        # 3602879701896397 / 36028797018963968).  Snap to the nearest
        # small-denominator fraction instead: 1e12 resolves far below
        # the float error the backend already tolerates.
        return Fraction(float(value)).limit_denominator(10**12)

    def escape(self, row: dict) -> dict:
        """``row`` — or, when the float row is wider than
        ``width_threshold``, its exact :class:`Fraction` form (counted
        in :attr:`fallbacks`)."""
        if len(row) > self.width_threshold:
            self._fallback_count[0] += 1
            return {mask: Fraction(value) for mask, value in row.items()}
        return row

    def scalar_ops(self) -> ScalarOps:
        """Plain float dict kernels (shared instance): every float row
        is computed with them."""
        if self._scalar_ops is None:
            self._scalar_ops = ScalarOps(self)
        return self._scalar_ops

    @staticmethod
    def exact_ops() -> ScalarOps:
        """The exact-fallback dict kernels (:class:`~fractions.Fraction`
        values; float edge probabilities are lifted exactly)."""
        return _EXACT_OPS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayBackend(width_threshold={self.width_threshold})"
