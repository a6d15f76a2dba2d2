"""Store-key derivation shared by the engine and session layers.

A :class:`SubtreeKeyer` binds one evaluation (an
:class:`~repro.prob.engine.EvaluationEngine` over one p-document and one
numeric backend) and produces the canonical content-addressed keys of
:mod:`repro.store.api` for its subtree evaluations:

* the *structure* component comes from the document's cached
  :meth:`~repro.pxml.pdocument.PDocument.structural_index`;
* the *fingerprint* component is the engine's goal table restricted to
  the subtree's labels, with anchor values abstracted into slots, hashed
  — cached per relevant-label set, which repeats heavily across
  subtrees;
* the *anchor* component re-binds the fingerprint's anchor slots to
  canonical *positions*: for each slot, the sorted tuple of rank paths
  (:meth:`~repro.pxml.pdocument.PDocument.anchor_index`) of the
  admissible document nodes lying *inside* the keyed subtree, relative
  to its root.  Admissible nodes outside the subtree are dropped — they
  can never be granted below it, so the restricted evaluation does not
  depend on them — and a slot whose nodes all lie outside encodes as the
  empty tuple (pinned to nothing, which is *not* the same as
  unanchored).  ``None`` marks a genuinely unanchored restriction;
* the *gate* collapses to ``None`` for restrictions without output-node
  entries (blocked and unpinned evaluations coincide there).

**Why anchored sharing is sound.**  Equal structural digests admit a
rank-respecting isomorphism (children of equal rank have equal digests
and edge probabilities — see :func:`repro.store.digest.
compute_positions`), and that single isomorphism maps the admissible
node set of *every* slot onto its counterpart when the per-slot relative
position tuples agree.  The DP below a subtree depends only on the
subtree's structure, the abstract restricted table, and which concrete
subtree nodes each anchored entry admits — all preserved — so equal
keys imply equal distributions, exactly as in the unanchored case.

Every restriction — anchored or not — therefore gets one canonical
store key; there is no node-identity keying.  The node-keyed baseline
that anchored keys replaced survives only as a recorded arm of
``BENCH_anchored.json``.
"""

from __future__ import annotations

from typing import Optional

from .api import StoreKey
from .digest import fingerprint_digest

__all__ = ["SubtreeKeyer"]


class SubtreeKeyer:
    """Canonical store keys for one engine's subtree evaluations.

    Args:
        p: the p-document being traversed.
        engine: the evaluating engine (supplies ``table_labels`` and
            ``goal_table_fingerprint``).
        backend: the numeric backend (its ``name`` enters every key).
    """

    __slots__ = (
        "p", "digests", "sizes", "backend_name", "table_labels",
        "_fingerprint", "_described", "_positions",
    )

    def __init__(self, p, engine, backend) -> None:
        self.p = p
        self.digests, self.sizes = p.structural_index()
        self.backend_name = backend.name
        self.table_labels = engine.table_labels
        self._fingerprint = engine.goal_table_fingerprint
        # relevant-label frozenset -> (fp digest, out_sensitive, targets)
        self._described: dict[frozenset, tuple] = {}
        self._positions: Optional[dict] = None  # built on first anchored key

    def describe(self, label_set: frozenset) -> tuple:
        """``(fingerprint digest, out_sensitive, anchor_targets)`` for a
        subtree whose ordinary labels are ``label_set`` (cached per
        restriction).  ``anchor_targets`` is one sorted document-Id tuple
        per anchored entry of the restriction — empty when unanchored."""
        relevant = self.table_labels & label_set
        entry = self._described.get(relevant)
        if entry is None:
            table, out_sensitive, targets = self._fingerprint(relevant)
            entry = (fingerprint_digest(table), out_sensitive, targets)
            self._described[relevant] = entry
        return entry

    def token(
        self, node_id: int, label_set: frozenset, gate: str
    ) -> tuple:
        """``(key, is_anchored)`` for the subtree at ``node_id``: the
        canonical 5-part store key, and whether the restriction is
        anchored (its key then carries an anchor-position component).
        """
        fingerprint, out_sensitive, targets = self.describe(label_set)
        effective = gate if out_sensitive else None
        if not targets:
            return (
                (self.digests[node_id], fingerprint, None, effective,
                 self.backend_name),
                False,
            )
        return (
            (self.digests[node_id], fingerprint,
             self._encode(node_id, targets), effective, self.backend_name),
            True,
        )

    def store_key(
        self, node_id: int, label_set: frozenset, gate: str
    ) -> StoreKey:
        """The canonical store key for the subtree at ``node_id`` under
        ``gate``."""
        return self.token(node_id, label_set, gate)[0]

    def plan_keys(self, labels: dict, live: frozenset, gate: str) -> tuple:
        """``(probe_keys, guard_keys)`` for a whole store-consulting pass.

        ``probe_keys`` are the canonical store keys of every non-neutral,
        non-live subtree — the keys a :func:`~repro.prob.traversal.
        stored_postorder` pass may probe; ``guard_keys`` are the keys of
        the live-spine subtrees, whose saves are presence-guarded but
        never probed.  ``labels`` is the document's ``label_index()``
        mapping.
        """
        probe: set = set()
        guard: set = set()
        table_labels = self.table_labels
        for node_id, label_set in labels.items():
            if node_id in live:
                guard.add(self.token(node_id, label_set, gate)[0])
            elif table_labels & label_set:
                probe.add(self.token(node_id, label_set, gate)[0])
        return probe, guard

    def _encode(self, root_id: int, targets: tuple) -> tuple:
        """Per-slot sorted relative rank paths of the admissible nodes."""
        positions = self._positions
        if positions is None:
            positions = self._positions = self.p.anchor_index()
        root_path = positions[root_id]
        depth = len(root_path)
        encoded = []
        for members in targets:
            inside = []
            for doc_id in members:
                path = positions.get(doc_id)
                if path is not None and path[:depth] == root_path:
                    inside.append(path[depth:])
            inside.sort()
            encoded.append(tuple(inside))
        return tuple(encoded)

    def weight(self, node_id: int, distribution: dict) -> int:
        """Recomputation-cost estimate: support size × subtree size."""
        return len(distribution) * self.sizes[node_id]
