"""Probability arithmetic helpers and pluggable numeric backends.

P-documents always *store* probabilities as :class:`fractions.Fraction`
values so that the worked examples of the paper (0.4725, 0.325, 0.288, ...)
are reproduced *exactly*.  The public API accepts ``float``, ``int``,
``str``, ``Decimal`` or ``Fraction`` and converts decimal-faithfully: a
float such as ``0.1`` is interpreted as the decimal literal ``1/10`` (via
``str``), not as its binary expansion.

Probability *computation* (the dynamic program of
:mod:`repro.prob.engine`) is parameterized by a :class:`NumericBackend`:

* ``"exact"`` — :class:`Fraction` arithmetic, the default and the
  oracle; keeps every paper example bit-exact;
* ``"array"`` — IEEE ``float`` dict kernels for throughput, with a
  configurable support-width threshold beyond which a subtree falls
  back to exact per-entry arithmetic (see
  :mod:`repro.probability_array`); results agree with ``exact`` within
  1e-9 relative on the property suite's random instances.

Backends are looked up by name with :func:`get_backend`; any object
satisfying the protocol (``zero``/``one`` constants plus ``convert`` /
``to_fraction``) may be passed wherever a backend name is accepted, so
interval or log-space arithmetic can be plugged in without touching the
engine.  Third-party backends register under a name with
:func:`register_backend` (instances, or lazy factories for backends with
costly set-up).

The *distribution kernels* of the evaluation engine — unit / convolution
/ mixture / goal-rewrite / projection over goal-set distributions — are
:class:`ScalarOps`, per-entry dict kernels in the backend's scalar
domain (:func:`distribution_ops`).  A backend may add an exact fallback
with three optional hooks, which the engine's combine steps read (see
:mod:`repro.prob.engine`): ``scalar_ops()`` (its shared row kernels),
``escape(row)`` (the width rule: a too-wide row comes back in the exact
:class:`Fraction` domain) and ``exact_ops()`` (the kernels of nodes above
an escaped row).  The ``array`` backend has all three.  A backend
without them, like ``exact``, computes every row with :class:`ScalarOps`
and never escapes.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Callable, Optional, Protocol, Union, runtime_checkable

from .errors import ProbabilityError

__all__ = [
    "Probability",
    "ProbabilityLike",
    "as_probability",
    "as_fraction",
    "prob_str",
    "NumericBackend",
    "BackendLike",
    "ExactBackend",
    "BACKENDS",
    "get_backend",
    "register_backend",
    "ScalarOps",
    "distribution_ops",
    "emission",
]

#: The internal representation of probabilities.
Probability = Fraction

#: Anything the public API accepts where a probability is expected.
ProbabilityLike = Union[Fraction, float, int, str, Decimal]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: ProbabilityLike) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Floats are converted through their ``repr`` so that ``0.1`` becomes
    ``1/10`` rather than ``3602879701896397/36028797018963968``.

    >>> as_fraction(0.75)
    Fraction(3, 4)
    >>> as_fraction("0.1")
    Fraction(1, 10)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise ProbabilityError(f"booleans are not probabilities: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, (str, Decimal)):
        return Fraction(str(value))
    raise ProbabilityError(f"cannot interpret {value!r} as a probability")


def as_probability(value: ProbabilityLike) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction` in ``[0, 1]``.

    Raises:
        ProbabilityError: if the converted value lies outside ``[0, 1]``.
    """
    frac = as_fraction(value)
    if frac < ZERO or frac > ONE:
        raise ProbabilityError(f"probability out of range [0, 1]: {frac}")
    return frac


def prob_str(value: Union[Fraction, float], digits: int = 6) -> str:
    """Human-friendly rendering of a probability.

    For exact values, shows the exact decimal when it terminates within
    ``digits`` digits, otherwise the fraction followed by a float
    approximation.  ``float`` values (the ``array`` backend's output) are
    rendered with ``digits`` significant digits.

    >>> prob_str(Fraction(189, 400))
    '0.4725'
    """
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    scaled = value * 10**digits
    if scaled.denominator == 1:
        text = f"{float(value):.{digits}f}".rstrip("0")
        return text + "0" if text.endswith(".") else text
    return f"{value} (~{float(value):.6g})"


# ----------------------------------------------------------------------
# Numeric backends
# ----------------------------------------------------------------------
@runtime_checkable
class NumericBackend(Protocol):
    """The numeric layer the evaluation engine computes in.

    Backend values must support ``+``, ``-``, ``*``, ``/``, comparison
    with each other and truthiness (zero is falsy); the engine otherwise
    treats them opaquely.
    """

    name: str
    zero: object
    one: object

    def convert(self, value: ProbabilityLike) -> object:
        """Bring a stored (exact) probability into this backend's domain."""

    def to_fraction(self, value: object) -> Fraction:
        """Project a backend value back onto an exact :class:`Fraction`."""


class ExactBackend:
    """:class:`Fraction` arithmetic — bit-exact, the default."""

    name = "exact"
    zero = ZERO
    one = ONE

    @staticmethod
    def convert(value: ProbabilityLike) -> Fraction:
        return value if isinstance(value, Fraction) else as_fraction(value)

    @staticmethod
    def to_fraction(value: Fraction) -> Fraction:
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ExactBackend()"


# ----------------------------------------------------------------------
# Distribution kernels (the ops layer of the evaluation engine)
# ----------------------------------------------------------------------
class ScalarOps:
    """Per-entry dict kernels over goal-set distributions.

    A *distribution* maps interned goal bitmasks to backend scalars.
    :class:`ScalarOps` implements the evaluation engine's kernel surface
    — unit / convolve / mixture / mux-mixture / goal rewrite / scaled
    add-subtract / target-mass projection / root readout — with plain
    dict loops in the backend's scalar domain: the kernels every
    backend's rows are computed with (:func:`distribution_ops`).

    Distributions are immutable by convention: every kernel builds a
    fresh dict or returns an existing operand unmodified, so results may
    be shared freely between memo entries.
    """

    __slots__ = ("backend", "zero", "one")

    def __init__(self, backend: NumericBackend) -> None:
        self.backend = backend
        self.zero = backend.zero
        self.one = backend.one

    def unit(self) -> dict:
        """``δ_∅`` — the distribution of an empty/neutral subtree."""
        return {0: self.one}

    def convolve(self, d1: dict, d2: dict) -> dict:
        """Distribution of ``S1 | S2`` for independent ``S1 ~ d1, S2 ~ d2``."""
        one = self.one
        if len(d1) == 1:
            ((mask, value),) = d1.items()
            if mask == 0 and value == one:
                return d2
        if len(d2) == 1:
            ((mask, value),) = d2.items()
            if mask == 0 and value == one:
                return d1
        zero = self.zero
        result: dict = {}
        get = result.get
        for mask1, p1 in d1.items():
            for mask2, p2 in d2.items():
                weighted = p1 * p2
                if weighted:
                    union = mask1 | mask2
                    result[union] = get(union, zero) + weighted
        return result

    def mixture(self, probability, distribution: dict) -> dict:
        """``p · distribution + (1 − p) · δ_∅`` — one ind-edge mixture."""
        zero, one = self.zero, self.one
        # Unit fast paths: the neutral-skip machinery mints unit
        # distributions constantly, and mixing the unit (or mixing with
        # p = 1) is the identity — skip the dict rebuild.
        if probability == one:
            return distribution
        if len(distribution) == 1:
            ((mask, value),) = distribution.items()
            if mask == 0 and value == one:
                return distribution
        result: dict = {}
        deficit = one - probability
        if deficit:
            result[0] = deficit
        if probability:
            get = result.get
            for mask, value in distribution.items():
                weighted = probability * value
                if weighted:
                    result[mask] = get(mask, zero) + weighted
        if not result:  # pragma: no cover - distributions carry total mass 1
            result[0] = zero
        return result

    def mux_mixture(self, pairs) -> dict:
        """``Σ pᵢ · dᵢ + (1 − Σ pᵢ) · δ_∅`` over ``(pᵢ, dᵢ)`` ``pairs``."""
        zero, one = self.zero, self.one
        result: dict = {}
        get = result.get
        chosen_mass = zero
        for p_child, distribution in pairs:
            if not p_child:
                continue
            chosen_mass = chosen_mass + p_child
            for mask, probability in distribution.items():
                weighted = p_child * probability
                if weighted:
                    result[mask] = get(mask, zero) + weighted
        deficit = one - chosen_mass
        if deficit:
            result[0] = get(0, zero) + deficit
        return result

    def rewrite(
        self, distribution: dict, entries, node_id: int, grant_out: bool,
        a_mask: int,
    ) -> dict:
        """Apply an ordinary node's goal rewrite to every mask.

        ``entries`` is the engine's per-label goal list ``[(bit, need,
        anchor, is_out), ...]`` (possibly ``None``), one live goal bit
        per pattern node; ``grant_out`` gates the output nodes' goals
        (the blocked evaluations suppress them); ``a_mask`` selects the
        goals that propagate upward (the ``//`` children's ``A`` goals).
        """
        zero = self.zero
        result: dict = {}
        get = result.get
        emit_cache: dict[int, int] = {}
        for mask, probability in distribution.items():
            emitted = emit_cache.get(mask)
            if emitted is None:
                emitted = emit_cache[mask] = emission(
                    mask, entries, node_id, grant_out, a_mask
                )
            result[emitted] = get(emitted, zero) + probability
        return result

    def readout(
        self, others: dict, pins, entries, node_id: int, grant_out: bool,
        a_mask: int, targets: int,
    ) -> dict:
        """``{candidate: Pr}`` at an ordinary root, without building the
        root's pinned distributions.

        ``pins`` yields ``(candidate, pin)`` pairs whose pins combine
        with the same ``others`` (the convolution of every other child).
        A candidate's probability is the mass over ``targets`` of the
        rewrite (see :meth:`rewrite`) of ``others ⊛ pin``.  That equals
        ``Σ_b pin[b] · w[b]`` with one weight per pin mask ``b``:
        ``w[b] = Σ_a others[a] · [emission(a | b) covers targets]`` —
        computed once per distinct ``b`` and shared by every pin.
        """
        zero = self.zero
        covers: dict[int, bool] = {}
        weights: dict = {}
        result: dict = {}
        for candidate, pin in pins:
            total = zero
            for pin_mask, probability in pin.items():
                weight = weights.get(pin_mask)
                if weight is None:
                    weight = zero
                    for mask, value in others.items():
                        union = mask | pin_mask
                        covered = covers.get(union)
                        if covered is None:
                            covered = covers[union] = emission(
                                union, entries, node_id, grant_out, a_mask
                            ) & targets == targets
                        if covered:
                            weight = weight + value
                    weights[pin_mask] = weight
                total = total + probability * weight
            result[candidate] = total
        return result

    def scale_subtract(self, base: dict, probability, distribution: dict) -> dict:
        """``base − p · distribution``, dropping masks that cancel to zero."""
        result = dict(base)
        if probability:
            zero = self.zero
            get = result.get
            for mask, value in distribution.items():
                weighted = probability * value
                if weighted:
                    remaining = get(mask, zero) - weighted
                    if remaining:
                        result[mask] = remaining
                    else:
                        del result[mask]
        return result

    def scale_accumulate(self, base: dict, probability, distribution: dict) -> dict:
        """``base + p · distribution``."""
        result = dict(base)
        if probability:
            zero = self.zero
            get = result.get
            for mask, value in distribution.items():
                weighted = probability * value
                if weighted:
                    result[mask] = get(mask, zero) + weighted
        return result

    def mass(self, distribution: dict, targets: int):
        """Total probability of goal sets covering ``targets``."""
        total = self.zero
        for mask, probability in distribution.items():
            if mask & targets == targets:
                total = total + probability
        return total


def emission(
    mask: int, entries, node_id: int, grant_out: bool, a_mask: int
) -> int:
    """The goal set an ordinary node emits for the child goal set ``mask``.

    The goals in ``a_mask`` (the ``//`` children's ``A`` goals)
    propagate upward, every other goal of ``mask`` stops here; each
    applicable entry of ``entries`` (see :meth:`ScalarOps.rewrite`)
    adds its one goal bit when ``mask`` holds the goals it needs below.
    The one emission rule of :meth:`ScalarOps.rewrite` and
    :meth:`ScalarOps.readout`.
    """
    emitted = mask & a_mask
    if entries:
        for bit, need, anchor, is_out in entries:
            if anchor is not None and node_id not in anchor:
                continue
            if is_out and not grant_out:
                continue
            if mask & need == need:
                emitted |= bit
    return emitted


def distribution_ops(backend: NumericBackend) -> ScalarOps:
    """The row kernels for ``backend``: its shared ``scalar_ops()``
    when it has the hook, else fresh :class:`ScalarOps`."""
    hook = getattr(backend, "scalar_ops", None)
    if hook is not None:
        return hook()
    return ScalarOps(backend)


#: The built-in backend registry, keyed by backend name.  Values are
#: backend instances, or zero-argument factories for backends that are
#: instantiated lazily (the ``array`` backend's module loads on first use).
BACKENDS: dict[str, Union[NumericBackend, Callable[[], NumericBackend]]] = {}

#: A backend name or a backend instance.
BackendLike = Union[str, NumericBackend]

# Types resolved through the registry — passed through get_backend
# without the (expensive) runtime-Protocol check; get_backend sits on
# the engine/session construction hot path, called once per batch item.
_BACKEND_TYPES: set = set()


def register_backend(
    backend: Union[NumericBackend, Callable[[], NumericBackend]],
    name: Optional[str] = None,
) -> None:
    """Register a backend under its name, replacing any previous entry.

    ``backend`` is an instance (its ``name`` attribute keys the
    registry) or a zero-argument factory returning one — lazy factories
    let backends with optional dependencies or costly set-up register
    unconditionally and defer the import to first use; for a factory,
    ``name`` is required.
    """
    if name is None:
        name = getattr(backend, "name", None)
        if not isinstance(name, str):
            raise ProbabilityError(
                f"cannot register backend {backend!r}: it has no string "
                "'name' attribute and no explicit name was given"
            )
    BACKENDS[name] = backend
    if not callable(backend) or isinstance(backend, NumericBackend):
        _BACKEND_TYPES.add(type(backend))


def get_backend(backend: BackendLike) -> NumericBackend:
    """Resolve a backend name (``"exact"``, ``"array"``) or
    pass through an object already satisfying :class:`NumericBackend`.

    Raises:
        ProbabilityError: for unknown names or non-backend objects.
    """
    if isinstance(backend, str):
        try:
            resolved = BACKENDS[backend]
        except KeyError:
            raise ProbabilityError(
                f"unknown numeric backend {backend!r}; "
                f"registered backends: {', '.join(sorted(BACKENDS))}"
            ) from None
        if callable(resolved) and not isinstance(resolved, NumericBackend):
            # Lazy factory: instantiate once and memoize the instance.
            resolved = resolved()
            register_backend(resolved, backend)
        return resolved
    if type(backend) in _BACKEND_TYPES or isinstance(backend, NumericBackend):
        return backend
    raise ProbabilityError(f"not a numeric backend: {backend!r}")


def _array_backend_factory() -> NumericBackend:
    from .probability_array import ArrayBackend

    return ArrayBackend()


register_backend(ExactBackend())
register_backend(_array_backend_factory, "array")
