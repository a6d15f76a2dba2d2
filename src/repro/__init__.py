"""repro — Answering Queries using Views over Probabilistic XML.

A complete, exact-arithmetic implementation of Cautis & Kharlamov,
"Answering Queries using Views over Probabilistic XML: Complexity and
Tractability", VLDB 2012 (PVLDB 5(11):1148-1159):

* p-documents ``PrXML{mux, ind}`` and their possible-world semantics;
* tree-pattern queries (TP) and intersections (TP∩) with containment,
  equivalence, minimization, interleavings and extended skeletons;
* probabilistic query evaluation (PTime in data complexity) through a
  single-pass engine with pluggable numeric backends — ``exact``
  Fractions (default) or ``array`` floats (see
  :class:`repro.prob.EvaluationEngine`);
* workload sessions (:class:`repro.prob.QuerySession`): batches of
  queries evaluated in one shared traversal with cross-query subtree
  memoization, invalidated by p-document mutation epochs;
* persistent structural memo stores (:mod:`repro.store`): subtree
  evaluations cached content-addressed — by structural digest and
  goal-table fingerprint — with cost-aware LRU eviction in memory and a
  SQLite tier that survives process restarts;
* Id-free view extensions with a provenance side table (original ↔ copy
  Ids and canonical rank paths beside the tree, no marker nodes);
* probabilistic condition-independence (c-independence);
* ``TPrewrite`` — single-view probabilistic rewritings (restricted and
  unrestricted, Theorems 1-2);
* ``TPIrewrite`` — multi-view rewritings via c-independent products
  (Theorem 3), view decompositions and the exact ``S(q, V)`` linear system
  (Theorem 5).

Quickstart::

    from repro import View, probabilistic_extension
    from repro.workloads import paper
    from repro.rewrite import probabilistic_tp_plan

    p = paper.p_per()
    view = View("v2BON", paper.v2_bon())
    plan = probabilistic_tp_plan(paper.q_bon(), view)
    answer = plan.evaluate(probabilistic_extension(p, view))
"""

from .errors import (
    ReproError,
    DocumentError,
    PDocumentError,
    PatternError,
    PatternParseError,
    CompensationError,
    IntersectionError,
    UnsatisfiableIntersectionError,
    UnknownViewError,
    RewritingError,
    NoRewritingError,
    ProbabilityError,
    LinearSystemError,
)
from .probability import (
    as_probability,
    as_fraction,
    prob_str,
    NumericBackend,
    ExactBackend,
    BACKENDS,
    get_backend,
)
from .xml import Document, DocNode, doc, node
from .pxml import (
    PDocument,
    PNode,
    PNodeKind,
    pdoc,
    ordinary,
    mux,
    ind,
    det,
    enumerate_worlds,
    sample_world,
)
from .tp import (
    TreePattern,
    PatternNode,
    Axis,
    parse_pattern,
    evaluate,
    contains,
    equivalent,
    minimize,
)
from .tpi import (
    TPIntersection,
    interleavings,
    tpi_satisfiable,
    tpi_equivalent_tp,
    is_extended_skeleton,
)
from .store import (
    MemoStore,
    InMemoryStore,
    SqliteStore,
    open_store,
)
from .prob import (
    EvaluationEngine,
    QuerySession,
    query_answer,
    node_probability,
    boolean_probability,
    intersection_answer,
)
from .views import (
    ProvenanceTable,
    View,
    probabilistic_extension,
    deterministic_extension,
)
from .rewrite import (
    c_independent,
    tp_rewrite,
    probabilistic_tp_plan,
    theorem3_plan,
    tpi_rewrite,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError", "DocumentError", "PDocumentError", "PatternError",
    "PatternParseError", "CompensationError", "IntersectionError",
    "UnsatisfiableIntersectionError", "UnknownViewError", "RewritingError",
    "NoRewritingError", "ProbabilityError", "LinearSystemError",
    "as_probability", "as_fraction", "prob_str",
    "NumericBackend", "ExactBackend", "BACKENDS", "get_backend",
    "Document", "DocNode", "doc", "node",
    "PDocument", "PNode", "PNodeKind", "pdoc", "ordinary", "mux", "ind",
    "det", "enumerate_worlds", "sample_world",
    "TreePattern", "PatternNode", "Axis", "parse_pattern", "evaluate",
    "contains", "equivalent", "minimize",
    "TPIntersection", "interleavings", "tpi_satisfiable",
    "tpi_equivalent_tp", "is_extended_skeleton",
    "MemoStore", "InMemoryStore", "SqliteStore", "open_store",
    "EvaluationEngine", "QuerySession",
    "query_answer", "node_probability", "boolean_probability",
    "intersection_answer",
    "View", "ProvenanceTable", "probabilistic_extension",
    "deterministic_extension",
    "c_independent", "tp_rewrite", "probabilistic_tp_plan",
    "theorem3_plan", "tpi_rewrite",
    "__version__",
]
