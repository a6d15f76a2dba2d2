"""Probabilistic query evaluation over p-documents.

``engine`` is the production path: a single-pass goal-set dynamic program
that is polynomial in the size of the p-document (data complexity) for
fixed queries — matching the tractability statement of [22] that the paper
builds on — supports both TP and TP∩ queries plus node anchors, computes
*all* candidate answers in one traversal, and is parameterized by a
numeric backend (``exact`` Fractions or ``array`` floats).
``session`` is the workload layer on top of the engine: a
:class:`QuerySession` evaluates *batches* of queries in one shared
post-order pass with a cross-query memo of per-subtree distributions,
invalidated by the p-document's mutation epoch.  ``bruteforce``
enumerates the px-space and is the reference semantics used by tests;
``approximate`` is the sampling estimator.
"""

from .engine import (
    EvaluationEngine,
    normalize_anchors,
    query_answer,
    boolean_probability,
    node_probability,
    conditional_node_probability,
    intersection_answer,
    intersection_node_probability,
)
from .session import QuerySession, SessionStats
from .bruteforce import (
    brute_force_query_answer,
    brute_force_node_probability,
    brute_force_boolean_probability,
)

__all__ = [
    "EvaluationEngine",
    "normalize_anchors",
    "QuerySession",
    "SessionStats",
    "query_answer",
    "boolean_probability",
    "node_probability",
    "conditional_node_probability",
    "intersection_answer",
    "intersection_node_probability",
    "brute_force_query_answer",
    "brute_force_node_probability",
    "brute_force_boolean_probability",
]
