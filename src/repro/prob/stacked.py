"""Stacked session passes: a whole query batch as one numpy array axis.

The classic shared pass (:func:`repro.prob.traversal.stored_postorder`)
walks the p-document once per batch but still runs one combine, one
store token and one probe *per lane* (query) at every node.  With the
``array`` backend the lane dimension can instead become a **batch
axis**: every subtree's blocked/unpinned distributions for all ``L``
lanes are one :class:`~repro.probability_array.StackedDistribution` —
aligned ``(L × W)`` mask/value matrices — and a single vectorized
kernel advances the entire batch through a node:

* *convolution* is a per-row outer product followed by one row-wise
  dedup (masks are offset by ``row_index << B`` so a single
  ``np.unique``/``bincount`` pass compacts all rows at once);
* *fan-in* over many children runs as a log-depth pairwise reduction —
  a node with 64 children costs 6 stacked convolutions, not 63 × L
  scalar ones;
* the *ordinary-node rewrite* pads each lane's goal-table entries into
  ``(L × E)`` need/bit matrices and applies them with E masked bit-or
  sweeps (anchored entries, which depend on the concrete node, take a
  rare per-lane path);
* ``mux``/``ind`` mixtures are scaled column concatenations (document
  edge probabilities are lane-independent).

**Split nodes.**  For ``answer_many`` the ancestors of candidate nodes
(the union of all lanes' live sets) still need per-lane ``(blocked,
pinned)`` pairs; at these nodes the pass *splits* into the engine's
per-lane :meth:`~repro.prob.engine.EvaluationEngine.combine_pinned`,
viewing each stacked child through memoized per-lane dict rows
(:meth:`StackedDistribution.row_dict` caches on the instance, so the
conversions at the batch frontier amortize across warm passes — the
store serves the *same object* every pass).

**Combined store keys.**  A stacked subtree is memoized under ONE key
instead of L: ``(structural digest, digest of the per-lane (fingerprint,
anchors, gate) parts, None, None, backend)``.  The per-lane gate is
folded *inside* the parts (collapsing to ``None`` for gate-insensitive
lanes), so a blocked pinned-pass entry and an unpinned Boolean-pass
entry share whenever every lane is insensitive.  Warm passes resolve
the whole key with one dict lookup per node (:class:`StackedKeyer`
caches per node id, and the session caches the keyer per batch
signature).  Store calls go through the same pass-scoped probe object
as the classic pass (:func:`repro.prob.traversal.open_probe`): against
an in-memory store its ``probe`` is the store's bound ``get``; against
a bulk-preferring store (a live :class:`~repro.store.SqliteStore`) the
pass prefetches every combined key with one uncounted ``get_many`` and
lands its saves as one ``put_many``, with identical hit/miss/put
accounting.

**Exact fallback.**  When a stacked width exceeds the backend's
``width_threshold`` — or a row-offset would not fit int64 — the node
drops to per-lane scalar form (``Fraction`` dicts via the same exact
fallback as :mod:`repro.probability_array`), and ancestors follow
suit: any scalar-form child makes the parent combine per-lane through
the engine's ops dispatch, which keeps vectorized and fallen-back
regions composable.

Per-lane stats are necessarily approximate here (one combined probe
covers L lanes); hits/misses/skips are counted ``× L`` so cumulative
session counters stay comparable with the classic pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from ..obs.trace import span as trace_span
from ..probability_array import (
    ArrayDistribution,
    ArrayOps,
    StackedDistribution,
)
from ..pxml.pdocument import PNodeKind
from ..store import (
    GATE_BLOCKED,
    GATE_UNPINNED,
    SubtreeKeyer,
    fingerprint_digest,
)
from .engine import _GRANT_ALL, _GRANT_NONE, EvaluationEngine
from .traversal import open_probe

__all__ = ["StackedKeyer", "stacked_answer_many", "stacked_boolean_many"]

#: Entry tag for an all-lanes-neutral subtree (the stacked unit).
_UNIT_ENTRY = ("u",)
#: Shared empty pinned map (never mutated by the engine's combines).
_EMPTY: dict = {}
#: Unsatisfiable ``need`` padding for the stacked rewrite (masks use at
#: most 48 goal bits, see probability_array._MAX_VECTOR_GOAL_BITS).
_SENTINEL_NEED = 1 << 61


class _ScalarFallback(Exception):
    """A stacked kernel overflowed its row-offset budget; the node (and
    its ancestors) continue in per-lane scalar form."""


def _rows_to_exact(masks, values) -> list:
    """Padded row matrices -> per-lane exact ``{mask: Fraction}`` dicts."""
    out = []
    for row_masks, row_values in zip(masks.tolist(), values.tolist()):
        out.append(
            {
                int(mask): Fraction(value)
                for mask, value in zip(row_masks, row_values)
                if value
            }
        )
    return out


class StackedOps:
    """Row-batched distribution kernels shared by one stacked pass.

    All kernels operate on aligned ``(R × W)`` mask/value matrices,
    right-padded with ``(0, 0.0)`` entries; padding is self-cleaning —
    it contributes zero mass and every compaction drops it.
    """

    __slots__ = (
        "np", "lanes", "bits", "low_mask", "max_rows",
        "unit_masks", "unit_values", "_zero_col",
    )

    def __init__(self, np, lanes: int, bits: int) -> None:
        self.np = np
        self.lanes = lanes
        self.bits = bits
        self.low_mask = (1 << bits) - 1
        # Row offsets borrow the bits above the goal space; int64 keeps
        # 62 safely usable.
        self.max_rows = 1 << max(1, 62 - bits)
        self.unit_masks = np.zeros((lanes, 1), dtype=np.int64)
        self.unit_values = np.ones((lanes, 1), dtype=np.float64)
        self._zero_col = np.zeros((lanes, 1), dtype=np.int64)

    def compact_rows(self, masks, values):
        """Merge equal masks per row, drop zero mass, re-pad minimally."""
        np = self.np
        rows, width = masks.shape
        if rows > self.max_rows:
            raise _ScalarFallback
        if width == 1:
            return masks, values
        offsets = (np.arange(rows, dtype=np.int64) << self.bits)[:, None]
        flat = (masks | offsets).ravel()
        uniq, inverse = np.unique(flat, return_inverse=True)
        sums = np.bincount(inverse, weights=values.ravel())
        keep = sums != 0.0
        uniq = uniq[keep]
        sums = sums[keep]
        row_ids = (uniq >> self.bits).astype(np.intp)
        kept_masks = uniq & self.low_mask
        counts = np.bincount(row_ids, minlength=rows)
        new_width = max(int(counts.max()) if counts.size else 0, 1)
        starts = np.zeros(rows, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        cols = np.arange(uniq.shape[0], dtype=np.intp) - starts[row_ids]
        out_masks = np.zeros((rows, new_width), dtype=np.int64)
        out_values = np.zeros((rows, new_width), dtype=np.float64)
        out_masks[row_ids, cols] = kept_masks
        out_values[row_ids, cols] = sums
        return out_masks, out_values

    def convolve_rows(self, m1, v1, m2, v2):
        """Row-aligned convolution: per-row outer ``|``/product + compact."""
        rows = m1.shape[0]
        masks = (m1[:, :, None] | m2[:, None, :]).reshape(rows, -1)
        values = (v1[:, :, None] * v2[:, None, :]).reshape(rows, -1)
        return self.compact_rows(masks, values)

    def reduce_convolve(self, parts: list):
        """Log-depth pairwise convolution of ``(L × Wi)`` parts.

        Each round stacks all pairs into one ``(pairs·L × W)`` matrix and
        performs a single batched convolution — a node with ``C``
        children costs ``ceil(log2 C)`` kernel invocations total.
        """
        np = self.np
        lanes = self.lanes
        if not parts:
            return self.unit_masks, self.unit_values
        while len(parts) > 1:
            pair_count = len(parts) // 2
            lefts = parts[0 : 2 * pair_count : 2]
            rights = parts[1 : 2 * pair_count : 2]
            width_l = max(m.shape[1] for m, _ in lefts)
            width_r = max(m.shape[1] for m, _ in rights)
            rows = pair_count * lanes
            if rows > self.max_rows:
                raise _ScalarFallback
            lm = np.zeros((pair_count, lanes, width_l), dtype=np.int64)
            lv = np.zeros((pair_count, lanes, width_l), dtype=np.float64)
            rm = np.zeros((pair_count, lanes, width_r), dtype=np.int64)
            rv = np.zeros((pair_count, lanes, width_r), dtype=np.float64)
            for k, (m, v) in enumerate(lefts):
                lm[k, :, : m.shape[1]] = m
                lv[k, :, : m.shape[1]] = v
            for k, (m, v) in enumerate(rights):
                rm[k, :, : m.shape[1]] = m
                rv[k, :, : m.shape[1]] = v
            cm, cv = self.convolve_rows(
                lm.reshape(rows, width_l),
                lv.reshape(rows, width_l),
                rm.reshape(rows, width_r),
                rv.reshape(rows, width_r),
            )
            merged = [
                (cm[k * lanes : (k + 1) * lanes], cv[k * lanes : (k + 1) * lanes])
                for k in range(pair_count)
            ]
            if len(parts) & 1:
                merged.append(parts[-1])
            parts = merged
        return parts[0]

    def mux(self, parts: list, probabilities: list):
        """Stacked mux mixture: scaled column concat + deficit column."""
        np = self.np
        mask_cols = []
        value_cols = []
        chosen = 0.0
        for (masks, values), probability in zip(parts, probabilities):
            if not probability:
                continue
            chosen += probability
            mask_cols.append(masks)
            value_cols.append(values * probability)
        deficit = 1.0 - chosen
        if deficit or not mask_cols:
            mask_cols.append(self._zero_col)
            value_cols.append(
                np.full((self.lanes, 1), deficit, dtype=np.float64)
            )
        return self.compact_rows(
            np.concatenate(mask_cols, axis=1),
            np.concatenate(value_cols, axis=1),
        )

    def mixture_part(self, masks, values, probability: float):
        """``(1-p)·unit + p·d`` as columns (compacted by the consumer)."""
        if probability == 1.0:
            return masks, values
        np = self.np
        return (
            np.concatenate((self._zero_col, masks), axis=1),
            np.concatenate(
                (
                    np.full((self.lanes, 1), 1.0 - probability),
                    values * probability,
                ),
                axis=1,
            ),
        )

    def mass_rows(self, masks, values, targets):
        """Per-lane target mass: one boolean reduction over the batch."""
        covered = (masks & targets[:, None]) == targets[:, None]
        return (values * covered).sum(axis=1)


class StackedKeyer:
    """Combined content-addressed store keys for a stacked pass.

    Wraps one :class:`~repro.store.SubtreeKeyer` per lane and merges
    their per-subtree tokens into a single 5-part key whose fingerprint
    digests the ordered per-lane ``(fingerprint, anchors, effective
    gate)`` parts (``None`` for lanes neutral below the subtree).  Keys
    are cached per node id, so a warm pass resolves each node with one
    dict lookup; the session caches whole keyers per batch signature,
    making the cache effective across passes within a document epoch.
    """

    __slots__ = ("digests", "sizes", "keyers", "labels", "gate", "_cache")

    def __init__(self, p, keyers: list, gate: str) -> None:
        self.digests, self.sizes = p.structural_index()
        self.keyers = keyers
        self.labels = [keyer.table_labels for keyer in keyers]
        self.gate = gate
        # node_id -> (key, anchored)
        self._cache: dict[int, tuple] = {}

    def key(self, node_id: int, label_set) -> tuple:
        """``(combined key, is_anchored)`` for a subtree where at least
        one lane is non-neutral (callers shortcut all-neutral ones)."""
        entry = self._cache.get(node_id)
        if entry is not None:
            return entry
        parts = []
        anchored = False
        backend_name = None
        for keyer, labels in zip(self.keyers, self.labels):
            if not (labels & label_set):
                parts.append(None)
                continue
            token, is_anchored = keyer.token(node_id, label_set, self.gate)
            parts.append((token[1], token[2], token[3]))
            backend_name = token[4]
            anchored |= is_anchored
        entry = self._cache[node_id] = (
            (
                self.digests[node_id],
                fingerprint_digest(("stacked", tuple(parts))),
                None,
                None,
                backend_name,
            ),
            anchored,
        )
        return entry

    def weight(self, node_id: int, distribution) -> int:
        """Recomputation-cost estimate (matches SubtreeKeyer.weight)."""
        return len(distribution) * self.sizes[node_id]


class _StackedLane:
    """One query's slice of a stacked pass."""

    __slots__ = ("engine", "keyer", "table_labels", "live", "candidates")

    def __init__(
        self,
        engine: EvaluationEngine,
        keyer: SubtreeKeyer,
        live=frozenset(),
        candidates=frozenset(),
    ) -> None:
        self.engine = engine
        self.keyer = keyer
        self.table_labels = engine.table_labels
        self.live = live
        self.candidates = candidates


class _StackedPass:
    """One stacked post-order traversal (see the module docstring).

    Per-node entries take one of four forms:

    * ``("u",)`` — all lanes neutral below: the stacked unit.
    * ``("s", StackedDistribution)`` — the vectorized stacked form.
    * ``("d", [dict, ...])`` — per-lane scalar fallback (exact dicts
      after a width-threshold escape, float dicts after a row-budget
      one); ancestors combine per-lane through the engines' ops.
    * ``("p", [(blocked, pinned), ...])`` — per-lane split form at
      live-spine nodes of an answer pass.
    """

    __slots__ = (
        "p", "lanes", "ops", "store", "stats", "backend", "grant",
        "union_live", "all_labels", "keyer", "width_threshold",
        "unit_dict", "_rewrite_plans", "_a_mask_col",
    )

    def __init__(
        self,
        session,
        lanes: list,
        gate: str,
        keyer: StackedKeyer,
        union_live=frozenset(),
    ) -> None:
        backend = session.backend
        np = backend.np
        self.p = session.p
        self.lanes = lanes
        self.store = session.store
        self.stats = session.stats
        self.backend = backend
        self.grant = _GRANT_NONE if gate == GATE_BLOCKED else _GRANT_ALL
        self.union_live = union_live
        self.keyer = keyer
        self.width_threshold = backend.width_threshold
        self.unit_dict = {0: 1.0}
        all_labels: frozenset = frozenset()
        bits = 1
        for lane in lanes:
            all_labels |= lane.table_labels
            bits = max(bits, 2 * len(lane.engine._pattern_nodes))
        self.all_labels = all_labels
        self.ops = StackedOps(np, len(lanes), bits)
        self._rewrite_plans: dict = {}
        self._a_mask_col = np.array(
            [[lane.engine._a_mask] for lane in lanes], dtype=np.int64
        )

    # -- traversal ------------------------------------------------------
    def run(self):
        p = self.p
        labels = p.label_index()
        lane_count = len(self.lanes)
        union_live = self.union_live
        all_labels = self.all_labels
        keyer = self.keyer
        io = open_probe(self.store, lambda: (self._plan_keys(labels), ()))
        probe, save = io.probe, io.save
        stats = self.stats
        entries: dict = {}
        stack = [(p.root, False)]
        while stack:
            node, expanded = stack.pop()
            node_id = node.node_id
            if not expanded:
                label_set = labels[node_id]
                if node_id not in union_live:
                    if not (all_labels & label_set):
                        entries[node_id] = _UNIT_ENTRY
                        stats.neutral_skips += lane_count
                        stats.subtree_skips += 1
                        continue
                    key, anchored = keyer.key(node_id, label_set)
                    cached = probe(key)
                    if (
                        cached is not None
                        and getattr(cached, "lanes", -1) == lane_count
                    ):
                        entries[node_id] = ("s", cached)
                        stats.memo_hits += lane_count
                        stats.subtree_skips += 1
                        if anchored:
                            stats.anchored_hits += lane_count
                        continue
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
                continue
            stats.node_visits += 1
            label_set = labels[node_id]
            if node_id in union_live:
                entries[node_id] = self._split_combine(node, entries, label_set)
            else:
                entry = self._stacked_combine(node, entries, label_set)
                entries[node_id] = entry
                key, anchored = keyer.key(node_id, label_set)
                if entry[0] == "s":
                    stacked = entry[1]
                    save(key, stacked, keyer.weight(node_id, stacked))
                stats.memo_misses += lane_count
                if anchored:
                    stats.anchored_misses += lane_count
            for child in node.children:
                entries.pop(child.node_id, None)
        io.flush()  # a probe plan's saves land as one put_many
        return entries.pop(p.root.node_id)

    def _plan_keys(self, labels: dict) -> set:
        """Every combined key the pass may probe (live-spine nodes never
        probe or save here, so there is no save-guard set)."""
        keyer = self.keyer
        union_live = self.union_live
        all_labels = self.all_labels
        return {
            keyer.key(node_id, label_set)[0]
            for node_id, label_set in labels.items()
            if node_id not in union_live and all_labels & label_set
        }

    # -- per-lane views of child entries --------------------------------
    def _pinned_view(self, entry, lane_index: int):
        tag = entry[0]
        if tag == "u":
            return (self.unit_dict, _EMPTY)
        if tag == "s":
            return (entry[1].row_dict(lane_index), _EMPTY)
        if tag == "d":
            return (entry[1][lane_index], _EMPTY)
        return entry[1][lane_index]

    def _blocked_view(self, entry, lane_index: int):
        tag = entry[0]
        if tag == "u":
            return self.unit_dict
        if tag == "s":
            return entry[1].row_dict(lane_index)
        if tag == "d":
            return entry[1][lane_index]
        return entry[1][lane_index][0]

    # -- combines -------------------------------------------------------
    def _split_combine(self, node, entries, label_set):
        children = node.children
        views = [entries[child.node_id] for child in children]
        results = []
        for i, lane in enumerate(self.lanes):
            if node.node_id in lane.live:
                child_map = {
                    child.node_id: self._pinned_view(view, i)
                    for child, view in zip(children, views)
                }
                results.append(
                    lane.engine.combine_pinned(node, child_map, lane.candidates)
                )
            elif not (lane.table_labels & label_set):
                results.append((self.unit_dict, _EMPTY))
            else:
                child_map = {
                    child.node_id: self._blocked_view(view, i)
                    for child, view in zip(children, views)
                }
                results.append(
                    (
                        lane.engine._combine_single_gated(
                            node, child_map, self.grant
                        ),
                        _EMPTY,
                    )
                )
        return ("p", results)

    def _scalar_rows(self, node, forms) -> list:
        """Per-lane scalar combine (fallback regions)."""
        children = node.children
        rows = []
        for i, lane in enumerate(self.lanes):
            child_map = {
                child.node_id: self._blocked_view(form, i)
                for child, form in zip(children, forms)
            }
            rows.append(
                lane.engine._combine_single_gated(node, child_map, self.grant)
            )
        return rows

    def _stacked_combine(self, node, entries, label_set):
        children = node.children
        forms = [entries[child.node_id] for child in children]
        if any(form[0] == "d" for form in forms):
            return ("d", self._scalar_rows(node, forms))
        ops = self.ops
        parts = []
        for form in forms:
            if form[0] == "u":
                parts.append((ops.unit_masks, ops.unit_values))
            else:
                stacked = form[1]
                parts.append((stacked.masks, stacked.values))
        try:
            kind = node.kind
            if kind is PNodeKind.ORDINARY:
                masks, values = ops.reduce_convolve(parts)
                masks, values = self._rewrite_rows(node, masks, values)
            elif kind is PNodeKind.MUX:
                probabilities = [
                    float(self.backend.convert(node.probabilities[c.node_id]))
                    for c in children
                ]
                masks, values = ops.mux(parts, probabilities)
            else:  # IND
                mixed = [
                    ops.mixture_part(
                        part_masks,
                        part_values,
                        float(self.backend.convert(node.probabilities[c.node_id])),
                    )
                    for (part_masks, part_values), c in zip(parts, children)
                ]
                if len(mixed) == 1:
                    # A lone mixture reaches no convolution, so its
                    # duplicate-mask columns must be merged here.
                    masks, values = ops.compact_rows(*mixed[0])
                else:
                    masks, values = ops.reduce_convolve(mixed)
        except _ScalarFallback:
            return ("d", self._scalar_rows(node, forms))
        if masks.shape[1] > self.width_threshold:
            self.backend.fallbacks += 1
            return ("d", _rows_to_exact(masks, values))
        return ("s", StackedDistribution(masks, values))

    # -- the stacked ordinary-node rewrite ------------------------------
    def _rewrite_plan(self, label: str):
        plan = self._rewrite_plans.get(label)
        if plan is None:
            np = self.ops.np
            lanes = self.lanes
            grant_out = self.grant is _GRANT_ALL
            static: list[list] = []
            anchored: list[list] = []
            max_entries = 0
            any_anchored = False
            for lane in lanes:
                lane_static: list = []
                lane_anchored: list = []
                for d_bit, a_bit, need, anchor, is_out in (
                    lane.engine._by_label.get(label) or ()
                ):
                    if is_out and not grant_out:
                        continue
                    if anchor is not None:
                        lane_anchored.append((d_bit | a_bit, need, anchor))
                        any_anchored = True
                        continue
                    lane_static.append((need, d_bit | a_bit))
                static.append(lane_static)
                anchored.append(lane_anchored)
                max_entries = max(max_entries, len(lane_static))
            needs = np.full(
                (len(lanes), max_entries), _SENTINEL_NEED, dtype=np.int64
            )
            bits = np.zeros((len(lanes), max_entries), dtype=np.int64)
            for i, lane_static in enumerate(static):
                for e, (need, bit) in enumerate(lane_static):
                    needs[i, e] = need
                    bits[i, e] = bit
            plan = (needs, bits, anchored if any_anchored else None)
            self._rewrite_plans[label] = plan
        return plan

    def _rewrite_rows(self, node, masks, values):
        needs, bits, anchored = self._rewrite_plan(node.label)
        np = self.ops.np
        emitted = masks & self._a_mask_col
        for e in range(needs.shape[1]):
            need_col = needs[:, e : e + 1]
            bit_col = bits[:, e : e + 1]
            selected = (masks & need_col) == need_col
            emitted = emitted | np.where(selected, bit_col, 0)
        if anchored is not None:
            node_id = node.node_id
            grant_out = self.grant is _GRANT_ALL
            for i, lane_entries in enumerate(anchored):
                for bit, need, anchor in lane_entries:
                    if node_id not in anchor:
                        continue
                    row = masks[i]
                    selected = (row & need) == need
                    out_row = emitted[i]
                    out_row[selected] = out_row[selected] | bit
        return self.ops.compact_rows(emitted, values)


# ----------------------------------------------------------------------
# Session entry points
# ----------------------------------------------------------------------
def _vector_engines(engines: Sequence[EvaluationEngine]) -> bool:
    """Every lane must run the vectorized ops (goal space fits int64)."""
    return all(isinstance(engine._ops, ArrayOps) for engine in engines)


def _mask_bits(engines: Sequence[EvaluationEngine]) -> int:
    return max(2 * len(engine._pattern_nodes) for engine in engines)


def _supported(session, engines: Sequence[EvaluationEngine]) -> bool:
    if len(engines) < 2:
        return False
    if not _vector_engines(engines):
        return False
    # Row offsets (lane index, pair index) must share int64 with the
    # goal masks; leave 12 bits of headroom for reduction rows.
    return _mask_bits(engines) + (len(engines)).bit_length() + 12 <= 62


def stacked_answer_many(session, queries: list) -> Optional[list]:
    """Vectorized ``answer_many``; ``None`` when the batch must take the
    classic per-lane pass.  Caches the batch plan (engines, candidate
    and live sets, combined keyer) on the session per document epoch.

    The plan also memoizes its *answers*: within a document epoch a
    cached plan's candidate spine — the one region the content-addressed
    store can never serve, because pinned maps name document node ids —
    always recombines to the same per-candidate masses, so a repeated
    batch is a pure plan hit.  This is the session-local, identity-keyed
    completion of the store's structural memoization; ``invalidate()``
    and epoch changes drop it with the rest of ``session._stacked``.
    """
    cache = session._stacked
    key = ("answer", tuple(map(id, queries)))
    plan = cache.get(key)
    if plan is None:
        with trace_span("stacked.plan_build", queries=len(queries)):
            plan = _build_answer_plan(session, queries, cache, key)
    if plan[1] is None:
        return None
    lanes, keyer, union_live, targets, memo = plan[1]
    if memo:
        # Warm plan: the spine result is epoch-invariant — serve fresh
        # copies without a traversal.
        stats = session.stats
        stats.memo_hits += len(lanes)
        stats.subtree_skips += 1
        if sp := trace_span("stacked.replay", queries=len(queries)):
            with sp:
                sp.set("answers", sum(len(a) for a in memo[0]))
        return [dict(answer) for answer in memo[0]]
    if not union_live:
        # No candidates anywhere: every answer is empty, no pass needed.
        return [{} for _ in queries]
    sp = trace_span("stacked.pass", lanes=len(lanes), gate="blocked")
    if sp:
        fallbacks_before = getattr(session.backend, "fallbacks", 0)
    with sp:
        root = _StackedPass(
            session, lanes, GATE_BLOCKED, keyer, union_live
        ).run()
    if sp:
        sp.set(
            "fallbacks",
            getattr(session.backend, "fallbacks", 0) - fallbacks_before,
        )
    session.stats.traversals += 1
    zero = session.backend.zero
    # Root is a split entry ("p", per-lane (blocked, pinned)).
    answers: list[dict] = []
    for i, (lane, target) in enumerate(zip(lanes, targets)):
        _, pinned = root[1][i]
        engine = lane.engine
        answer: dict = {}
        for node_id in sorted(lane.candidates):
            distribution = pinned.get(node_id)
            if distribution is None:
                continue
            probability = engine.mass(distribution, target)
            if probability > zero:
                answer[node_id] = probability
        answers.append(answer)
    memo.append(answers)
    return [dict(answer) for answer in answers]


def _build_answer_plan(session, queries: list, cache: dict, key: tuple):
    """Build (and cache) the stacked batch plan entry for ``queries``.

    Returns the cache entry ``(strong query refs, plan-or-None)``; a
    ``None`` plan records that this batch must take the classic pass.
    """
    engines = [
        EvaluationEngine(session.p, [q], backend=session.backend)
        for q in queries
    ]
    if not _supported(session, engines):
        entry = cache[key] = (tuple(queries), None)
        return entry
    # The candidate spine combines per-lane on dict views; plain
    # float kernels beat the vector ops' domain dispatch on those
    # tiny dicts.  Rebind after the _supported probe (which checks
    # for the vector ops) — the stacked region never consults the
    # engines' kernels.
    scalar = session.backend.scalar_ops()
    for engine in engines:
        engine._ops = scalar
        engine._unit = scalar.unit
        engine._convolve = scalar.convolve
        engine._mixture = scalar.mixture
    candidate_sets = session._candidate_sets(engines, queries)
    live_sets = [session.p.ancestral_closure(cs) for cs in candidate_sets]
    union_live = frozenset().union(*live_sets) if live_sets else frozenset()
    lanes = [
        _StackedLane(
            engine,
            session._keyer(engine),
            live=live,
            candidates=candidates,
        )
        for engine, candidates, live in zip(
            engines, candidate_sets, live_sets
        )
    ]
    keyer = StackedKeyer(
        session.p, [lane.keyer for lane in lanes], GATE_BLOCKED
    )
    targets = [
        engine.pattern_target(q) for engine, q in zip(engines, queries)
    ]
    if len(cache) > 4096:
        cache.clear()
    entry = cache[key] = (
        tuple(queries), (lanes, keyer, union_live, targets, []),
    )
    return entry


def stacked_boolean_key(normalized: list) -> Optional[tuple]:
    """Identity-based memo key for a Boolean batch, ``None`` when the
    anchors cannot be frozen.

    Patterns key by identity (like the ``answer_many`` plan cache) and
    anchors by ``(id(pattern node), document node id)`` pairs — anchor
    *values* are plain ints, so content-equal bindings built fresh per
    call still match.  The caller stores the normalized batch alongside
    the masses, keeping every id in the key alive for as long as the
    entry exists.
    """
    try:
        return (
            "bool",
            tuple(
                (
                    tuple(map(id, patterns)),
                    None
                    if anchors is None
                    else tuple(
                        sorted(
                            (id(node), int(target))
                            for node, target in anchors.items()
                        )
                    ),
                )
                for patterns, anchors in normalized
            ),
        )
    except (TypeError, AttributeError, ValueError):
        return None


def stacked_boolean_many(
    session, engines: list, normalized: list
) -> Optional[list]:
    """Vectorized ``boolean_many`` over already-built engines; ``None``
    when the batch must take the classic per-lane pass."""
    if not _supported(session, engines):
        return None
    lanes = [_StackedLane(engine, session._keyer(engine)) for engine in engines]
    keyer = StackedKeyer(
        session.p, [lane.keyer for lane in lanes], GATE_UNPINNED
    )
    sp = trace_span("stacked.pass", lanes=len(lanes), gate="unpinned")
    if sp:
        fallbacks_before = getattr(session.backend, "fallbacks", 0)
    with sp:
        root = _StackedPass(session, lanes, GATE_UNPINNED, keyer).run()
    if sp:
        sp.set(
            "fallbacks",
            getattr(session.backend, "fallbacks", 0) - fallbacks_before,
        )
    session.stats.traversals += 1
    tag = root[0]
    if tag == "s":
        stacked = root[1]
        np = session.backend.np
        targets = np.array(
            [lane.engine._targets for lane in lanes], dtype=np.int64
        )
        ops = StackedOps(np, len(lanes), 1)
        masses = ops.mass_rows(stacked.masks, stacked.values, targets)
        return [float(m) for m in masses.tolist()]
    if tag == "u":
        return [0.0 for _ in lanes]
    # Per-lane scalar root (fallback form).
    return [
        float(lane.engine.mass(row)) for lane, row in zip(lanes, root[1])
    ]
