"""Views and their (deterministic / probabilistic) extensions (paper §3, §3.1).

Extensions are **Id-free**: original node identity lives in a provenance
side table (:mod:`repro.views.provenance`), not in ``Id(n)`` marker
nodes.
"""

from .view import View, doc_label, parse_marker_label
from .provenance import ProvenanceTable
from .extension import (
    DeterministicViewExtension,
    ProbabilisticViewExtension,
    deterministic_extension,
    probabilistic_extension,
)

__all__ = [
    "View",
    "doc_label",
    "parse_marker_label",
    "ProvenanceTable",
    "DeterministicViewExtension",
    "ProbabilisticViewExtension",
    "deterministic_extension",
    "probabilistic_extension",
]
