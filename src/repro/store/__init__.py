"""Persistent structural memo stores: content-addressed subtree caching.

The store subsystem turns the per-subtree memoization of
:mod:`repro.prob.session` from a node-identity cache into a
content-addressed one.  ``digest`` computes canonical structural digests
of p-subtrees (Merkle-style, order- and Id-insensitive); ``api`` defines
the :class:`MemoStore` contract and the canonical ``(structure,
fingerprint, anchor, gate, backend)`` key; ``memory`` implements
cost-aware LRU eviction (GreedyDual-Size); ``sqlite`` persists entries
across process restarts with graceful degradation; ``keys`` derives each
query's key parts, which a session's lane group digests into one key per
subtree.

Because keys carry no document or node identity, one store may be shared
across queries, across documents (a document and its probabilistic
extensions, or any documents with isomorphic subtrees), across
:class:`~repro.prob.session.QuerySession` instances, and — via
:class:`SqliteStore` — across process restarts.
"""

from .api import (
    GATE_BLOCKED,
    GATE_UNPINNED,
    MemoStore,
    StoreKey,
    is_anchored_key,
)
from .digest import (
    compute_indexes,
    compute_positions,
    fingerprint_digest,
    splice_indexes,
)
from .keys import SubtreeKeyer
from .memory import InMemoryStore
from .sqlite import SqliteStore, open_store

__all__ = [
    "MemoStore",
    "StoreKey",
    "GATE_BLOCKED",
    "GATE_UNPINNED",
    "InMemoryStore",
    "SqliteStore",
    "open_store",
    "SubtreeKeyer",
    "compute_indexes",
    "compute_positions",
    "fingerprint_digest",
    "is_anchored_key",
    "splice_indexes",
]
