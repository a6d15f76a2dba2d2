"""The ``array`` numeric backend: goal-set distributions in numpy.

The evaluation engine's distributions map interned goal bitmasks to
scalars.  The scalar backends keep them as dicts and pay an interpreted
loop per convolution/mixture/rewrite; this module packs each
distribution into a pair of aligned arrays instead —

* ``masks``  — ``int64`` goal bitmasks (the support), and
* ``values`` — ``float64`` probabilities,

so the hot kernels become a handful of vectorized numpy operations:
convolution is a broadcast ``|`` / outer product followed by one
mask-dedup pass, mixtures and mux mixtures are scaled concatenations,
the ordinary-node goal rewrite is a batch of masked bit-ors, and the
target-mass projection is one boolean reduction.

**Dense vs hashed-sparse dedup.**  Every kernel ends by merging equal
masks.  When the engine's goal-mask space is narrow (``goal_bits`` ≤
``dense_span``) the merge is a *dense* ``bincount`` over the mask value
itself; wider spaces fall back to the hashed-sparse path (``np.unique``
over the masks).  Both are pure numpy; the switch is per ops object.

**Exact fallback.**  Supports normally stay tiny (the goal-set DP
collapses masks aggressively), but adversarial documents can blow them
up.  A kernel whose result support exceeds ``width_threshold`` returns
a plain dict with :class:`~fractions.Fraction` values instead — from
that subtree upward the computation runs through the per-entry
:class:`~repro.probability.ScalarOps` kernels in exact arithmetic
(:attr:`ArrayBackend.fallbacks` counts these escapes).  Mixed operands
(array × dict) are resolved by converting the array side into the
dict's domain, so fallback regions compose with vectorized regions.

**Session batches.**  A :class:`~repro.prob.session.QuerySession` runs
a batch of two or more queries as one lane group
(:mod:`repro.prob.stacked`) whose entries are :class:`LaneRows` — one
float dict per lane, not arrays.  The same width threshold applies per
row, and rows above an escaped row combine exactly.

``numpy`` is an optional dependency (the ``[array]`` packaging extra);
constructing an :class:`ArrayBackend` without it raises
:class:`~repro.errors.MissingDependencyError`.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Optional

from .errors import MissingDependencyError
from .obs.registry import Sample, get_registry
from .probability import ProbabilityLike, ScalarOps, as_fraction

__all__ = [
    "ArrayBackend",
    "ArrayDistribution",
    "ArrayOps",
    "LaneRows",
]


def _import_numpy():
    """Import numpy, raising the library's graceful error when absent."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - numpy present in CI
        raise MissingDependencyError(
            "the 'array' numeric backend requires numpy; install the "
            "optional extra (pip install 'repro[array]') or pick the "
            "'exact' / 'fast' backend"
        ) from exc
    return numpy


class ArrayDistribution:
    """One goal-set distribution as aligned ``(masks, values)`` arrays.

    Immutable by convention, like every engine distribution: kernels
    build fresh instances and never mutate an operand, so instances may
    be shared freely between memo entries and store consumers.
    ``__len__`` is the support size (store eviction weights rely on it).
    """

    __slots__ = ("masks", "values")

    def __init__(self, masks, values) -> None:
        self.masks = masks
        self.values = values

    def __len__(self) -> int:
        return int(self.masks.shape[0])

    def to_dict(self) -> dict:
        """Plain ``{mask: float}`` form (drops nothing; no padding here)."""
        return {
            int(mask): float(value)
            for mask, value in zip(self.masks.tolist(), self.values.tolist())
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayDistribution({self.to_dict()!r})"


class LaneRows:
    """A whole batch of lane distributions as one tuple of rows.

    The lane group of :mod:`repro.prob.stacked` advances every query
    lane of a batch through a subtree in one combine step; this is the
    memoized result — ``rows[i]`` is lane ``i``'s blocked (or unpinned)
    distribution as a plain ``{mask: value}`` dict.  Lanes of one *lane
    class* (equal restricted goal table, anchor positions and gate)
    share one row object, and neutral lanes share the unit dict.

    Values are floats, or :class:`~fractions.Fraction` in rows that
    escaped the width threshold or were combined above such a row
    (``exact`` is set when any row is).  Immutable by convention, like
    every engine distribution.  ``__len__`` is the total support over
    all lanes (shared rows count once per lane): the store's eviction
    weight.
    """

    __slots__ = ("rows", "exact")

    def __init__(self, rows: tuple, exact: bool = False) -> None:
        self.rows = rows
        self.exact = exact

    def __len__(self) -> int:
        return sum(map(len, self.rows))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaneRows(lanes={len(self.rows)}, exact={self.exact})"


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


class ArrayOps:
    """Vectorized distribution kernels for one engine's goal-mask space.

    Operands are :class:`ArrayDistribution` on the vector path, or plain
    dicts from the two scalar domains — ``float``-valued (the session
    layer's live-spine distributions) and :class:`Fraction`-valued (the
    width-threshold exact fallback).  Every kernel dispatches per
    operand: all-array runs vectorized; any Fraction dict pulls the
    operation into the exact domain; otherwise floats.
    """

    __slots__ = (
        "np", "backend", "goal_bits", "zero", "one", "width_threshold",
        "dense", "_unit", "_float_ops", "_exact_ops", "_int64",
    )

    def __init__(self, backend: "ArrayBackend", goal_bits: int) -> None:
        np = backend.np
        self.np = np
        self.backend = backend
        self.goal_bits = goal_bits
        self.zero = 0.0
        self.one = 1.0
        self.width_threshold = backend.width_threshold
        self.dense = goal_bits <= backend.dense_span
        self._int64 = np.int64
        self._unit = ArrayDistribution(
            np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.float64)
        )
        self._float_ops = ScalarOps(backend)
        self._exact_ops = _EXACT_OPS

    # -- domain dispatch ------------------------------------------------
    def _scalar_ops(self, *dists) -> ScalarOps:
        for d in dists:
            if type(d) is dict and d:
                if isinstance(next(iter(d.values())), Fraction):
                    return self._exact_ops
        return self._float_ops

    def _as_dict(self, d, exact: bool) -> dict:
        if type(d) is ArrayDistribution:
            d = d.to_dict()
            if exact:
                return {m: Fraction(v) for m, v in d.items()}
            return d
        if exact and d and not isinstance(next(iter(d.values())), Fraction):
            return {m: Fraction(float(v)) for m, v in d.items()}
        return d

    def _result(self, masks, values):
        """Wrap compacted arrays — or escape to the exact fallback."""
        if masks.shape[0] > self.width_threshold:
            self.backend.fallbacks += 1
            return {
                int(mask): Fraction(value)
                for mask, value in zip(masks.tolist(), values.tolist())
            }
        return ArrayDistribution(masks, values)

    def _compact(self, masks, values):
        """Merge equal masks, dropping zero mass (padding and cancels)."""
        np = self.np
        if masks.shape[0] <= 1:
            keep = values != 0.0
            if keep.all():
                return masks, values
            return masks[keep], values[keep]
        if self.dense:
            sums = np.bincount(masks, weights=values)
            nz = np.nonzero(sums)[0]
            return nz.astype(self._int64), sums[nz]
        uniq, inverse = np.unique(masks, return_inverse=True)
        sums = np.bincount(inverse, weights=values)
        keep = sums != 0.0
        return uniq[keep], sums[keep]

    def _is_unit(self, d: ArrayDistribution) -> bool:
        return (
            d.masks.shape[0] == 1
            and d.masks[0] == 0
            and d.values[0] == 1.0
        )

    # -- kernels --------------------------------------------------------
    def unit(self) -> ArrayDistribution:
        return self._unit

    def convolve(self, d1, d2):
        if type(d1) is ArrayDistribution and type(d2) is ArrayDistribution:
            if self._is_unit(d1):
                return d2
            if self._is_unit(d2):
                return d1
            masks = (d1.masks[:, None] | d2.masks[None, :]).ravel()
            values = (d1.values[:, None] * d2.values[None, :]).ravel()
            return self._result(*self._compact(masks, values))
        ops = self._scalar_ops(d1, d2)
        exact = ops is self._exact_ops
        return ops.convolve(self._as_dict(d1, exact), self._as_dict(d2, exact))

    def mixture(self, probability, distribution):
        if type(distribution) is not ArrayDistribution:
            ops = self._scalar_ops(distribution)
            return ops.mixture(
                probability, self._as_dict(distribution, ops is self._exact_ops)
            )
        probability = float(probability)
        if probability == 1.0 or self._is_unit(distribution):
            return distribution
        np = self.np
        masks = np.concatenate(
            (np.zeros(1, dtype=self._int64), distribution.masks)
        )
        values = np.concatenate(
            ((1.0 - probability,), distribution.values * probability)
        )
        return self._result(*self._compact(masks, values))

    def mux_mixture(self, pairs):
        pairs = [(p, d) for p, d in pairs]
        if any(type(d) is not ArrayDistribution for _, d in pairs):
            ops = self._scalar_ops(*(d for _, d in pairs))
            exact = ops is self._exact_ops
            return ops.mux_mixture(
                (p, self._as_dict(d, exact)) for p, d in pairs
            )
        np = self.np
        mask_parts = []
        value_parts = []
        chosen = 0.0
        for probability, distribution in pairs:
            probability = float(probability)
            if not probability:
                continue
            chosen += probability
            mask_parts.append(distribution.masks)
            value_parts.append(distribution.values * probability)
        deficit = 1.0 - chosen
        if deficit:
            mask_parts.append(np.zeros(1, dtype=self._int64))
            value_parts.append(np.asarray((deficit,)))
        masks = np.concatenate(mask_parts)
        values = np.concatenate(value_parts)
        return self._result(*self._compact(masks, values))

    def rewrite(self, distribution, entries, node_id, grant_out, a_mask):
        if type(distribution) is not ArrayDistribution:
            ops = self._scalar_ops(distribution)
            return ops.rewrite(
                self._as_dict(distribution, ops is self._exact_ops),
                entries, node_id, grant_out, a_mask,
            )
        masks = distribution.masks
        emitted = masks & a_mask  # A goals propagate upward
        if entries:
            for d_bit, a_bit, need, anchor, is_out in entries:
                if anchor is not None and node_id not in anchor:
                    continue
                if is_out and not grant_out:
                    continue
                emitted[(masks & need) == need] |= d_bit | a_bit
        return self._result(*self._compact(emitted, distribution.values))

    def scale_subtract(self, base, probability, distribution):
        if (
            type(base) is ArrayDistribution
            and type(distribution) is ArrayDistribution
        ):
            if not probability:
                return base
            np = self.np
            masks = np.concatenate((base.masks, distribution.masks))
            values = np.concatenate(
                (base.values, distribution.values * -float(probability))
            )
            return self._result(*self._compact(masks, values))
        ops = self._scalar_ops(base, distribution)
        exact = ops is self._exact_ops
        return ops.scale_subtract(
            self._as_dict(base, exact), probability,
            self._as_dict(distribution, exact),
        )

    def scale_accumulate(self, base, probability, distribution):
        if (
            type(base) is ArrayDistribution
            and type(distribution) is ArrayDistribution
        ):
            if not probability:
                return base
            np = self.np
            masks = np.concatenate((base.masks, distribution.masks))
            values = np.concatenate(
                (base.values, distribution.values * float(probability))
            )
            return self._result(*self._compact(masks, values))
        ops = self._scalar_ops(base, distribution)
        exact = ops is self._exact_ops
        return ops.scale_accumulate(
            self._as_dict(base, exact), probability,
            self._as_dict(distribution, exact),
        )

    def mass(self, distribution, targets: int):
        if type(distribution) is ArrayDistribution:
            covered = (distribution.masks & targets) == targets
            return float(distribution.values[covered].sum())
        return self._scalar_ops(distribution).mass(distribution, targets)

    def to_dict(self, distribution) -> dict:
        if type(distribution) is ArrayDistribution:
            return distribution.to_dict()
        return distribution


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

#: int64 masks leave 62 usable bits; cap the per-engine goal space of
#: the vector kernels well below the machine-word limit.
_MAX_VECTOR_GOAL_BITS = 48

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
        "width-threshold escapes from vectorized kernels to exact dicts",
    )


get_registry().register_collector(_collect_backend_samples)


class ArrayBackend:
    """Numpy-vectorized ``float`` backend (``"array"``).

    Scalar values are plain floats (``convert``/``to_fraction`` mirror
    the ``fast`` backend), but the distribution kernels returned by
    :meth:`engine_ops` operate on :class:`ArrayDistribution` packed
    arrays — and :class:`repro.prob.session.QuerySession` additionally
    recognizes :attr:`vectorized_sessions` and runs every batch of two
    or more queries as one lane group of :mod:`repro.prob.stacked`:
    one combined store key and one :class:`LaneRows` entry per subtree,
    each row computed once per lane class with float dict kernels.

    Args:
        width_threshold: support width beyond which a kernel result
            escapes to the exact per-entry fallback (see module docs).
        dense_span: goal-bit width up to which mask dedup uses the dense
            ``bincount`` path instead of hashed-sparse ``np.unique``.
    """

    name = "array"
    zero = 0.0
    one = 1.0
    #: QuerySession hook: run query batches as one lane group.
    vectorized_sessions = True

    def __init__(
        self, width_threshold: int = 4096, dense_span: int = 14
    ) -> None:
        self.np = _import_numpy()
        self.width_threshold = int(width_threshold)
        self.dense_span = int(dense_span)
        # One-slot bag for the fallback counter so a finalizer can
        # retire it into the process total without holding the backend.
        self._fallback_count = [0]
        self._ops_cache: dict[int, ArrayOps] = {}
        self._scalar_fallback: Optional[ScalarOps] = None
        _LIVE_BACKENDS.add(self)
        weakref.finalize(self, _retire_fallbacks, self._fallback_count)

    @property
    def fallbacks(self) -> int:
        """Cumulative count of width-threshold escapes to exact dicts."""
        return self._fallback_count[0]

    @fallbacks.setter
    def fallbacks(self, value: int) -> None:
        self._fallback_count[0] = value

    @staticmethod
    def convert(value: ProbabilityLike) -> float:
        return float(value)

    @staticmethod
    def to_fraction(value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        return Fraction(float(value)).limit_denominator(10**12)

    def scalar_ops(self) -> ScalarOps:
        """Plain float dict kernels (shared instance).

        Used when the goal-mask space outgrows the int64 vector
        representation, and by the lane group of :mod:`repro.prob.stacked`
        for every row it combines: rows are tiny dicts, where the vector
        ops' domain dispatch is pure overhead.
        """
        if self._scalar_fallback is None:
            self._scalar_fallback = ScalarOps(self)
        return self._scalar_fallback

    @staticmethod
    def exact_ops() -> ScalarOps:
        """The exact-fallback dict kernels (:class:`~fractions.Fraction`
        values; float edge probabilities are lifted exactly)."""
        return _EXACT_OPS

    def engine_ops(self, goal_bits: int):
        """Vector kernels — or plain float ScalarOps when the engine's
        goal-mask space outgrows the int64 vector representation."""
        if goal_bits > _MAX_VECTOR_GOAL_BITS:
            return self.scalar_ops()
        ops = self._ops_cache.get(goal_bits)
        if ops is None:
            ops = self._ops_cache[goal_bits] = ArrayOps(self, goal_bits)
        return ops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayBackend(width_threshold={self.width_threshold}, "
            f"dense_span={self.dense_span})"
        )
