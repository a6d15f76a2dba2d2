"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DocumentError",
    "PDocumentError",
    "PatternError",
    "PatternParseError",
    "CompensationError",
    "IntersectionError",
    "UnsatisfiableIntersectionError",
    "UnknownViewError",
    "RewritingError",
    "NoRewritingError",
    "ProbabilityError",
    "LinearSystemError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class DocumentError(ReproError):
    """An XML document is malformed (duplicate Ids, broken tree shape, ...)."""


class PDocumentError(ReproError):
    """A p-document violates Definition 1 of the paper.

    Examples: a distributional root or leaf, mux child probabilities summing
    to more than one, probabilities outside [0, 1].
    """


class PatternError(ReproError):
    """A tree pattern is structurally invalid (e.g. output not in the tree)."""


class PatternParseError(PatternError):
    """The XPath-style textual notation for a tree pattern cannot be parsed."""


class CompensationError(PatternError):
    """``comp(q1, q2)`` is undefined: ``lbl(out(q1)) != lbl(root(q2))``."""


class IntersectionError(ReproError):
    """A TP-intersection operation failed."""


class UnsatisfiableIntersectionError(IntersectionError):
    """The TP∩ pattern has no satisfying document (no interleaving exists)."""


class UnknownViewError(ReproError, KeyError):
    """A view name does not refer to any materialized view of the cache.

    Subclasses :class:`KeyError` as well, so dict-style ``except KeyError``
    call sites keep working while library users can catch it as a
    :class:`ReproError`.
    """


class RewritingError(ReproError):
    """A rewriting plan cannot be built or evaluated."""


class NoRewritingError(RewritingError):
    """No (deterministic or probabilistic) rewriting exists for the input."""


class ProbabilityError(ReproError):
    """A value that must be a probability lies outside [0, 1]."""


class LinearSystemError(ReproError):
    """The S(q, V) system is inconsistent or does not determine Pr(n ∈ q(P))."""
