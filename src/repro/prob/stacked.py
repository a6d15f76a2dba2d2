"""Session passes: a whole query batch as one lane group.

Every :class:`~repro.prob.session.QuerySession` batch — ``answer_many``
and ``boolean_many``, on either backend, of any width including 1 —
runs as ONE *lane group* (``width = L``) of the one store-consulting
walk, :func:`repro.prob.traversal.stored_postorder`: every subtree's
blocked/unpinned distributions for all ``L`` lanes (queries) form one
:class:`~repro.probability_array.LaneRows` entry — a tuple of per-lane
``{mask: value}`` dicts — memoized under a single combined store key.
Probing, saving, neutral skips, store I/O and the session counters
all live in the skeleton; this module supplies only the
group's combine step, its combined keyer and the session entry points.

**Lane classes.**  At each node the lanes fall into *classes*: lanes
whose keyer parts agree — the restricted goal-table fingerprint, the
anchor positions and the effective gate — compute bit-identical
distributions on the subtree, the very premise under which the store
shares entries (:mod:`repro.store.keys`).  The group therefore combines
one row per class and lets every lane of the class share that row
object; neutral lanes share the unit dict.  In a batch of queries that
differ in one label, most subtrees see one or two classes.
:class:`StackedKeyer` derives the classes with the combined key and
caches both per node id.

**One combine kernel.**  Every row comes out of the engine's own
combine step — :meth:`~repro.prob.engine.EvaluationEngine.combine_row`
for blocked/unpinned rows, :meth:`~repro.prob.engine.EvaluationEngine.
combine_pinned` for lanes holding a candidate below — over the
backend's row kernels (exact :class:`~fractions.Fraction` kernels on
``exact``, float dict kernels on ``array``).

**Split nodes.**  For ``answer_many`` the ancestors of candidate nodes
(the union of all lanes' live sets) need per-lane ``(blocked, pinned)``
pairs: a live lane runs ``combine_pinned``, the other lanes share
blocked rows by class as above.  Split entries name candidate node Ids,
so the store never holds them.  At the document root ``combine_pinned``
reads each live lane's answer straight off the children (the engine's
root readout), so the root entry's pinned half *is* the answer.

**Retained spine.**  Instead, each answer plan keeps its split entries
(:attr:`_AnswerPlan.spine`) across passes and hands them to the walk as
the group lane's :attr:`~repro.prob.traversal.Lane.known` entries.  In
the local models a node's entry depends only on its own subtree (and on
the plan's candidate and live sets, fixed while the plan lives), so a
spine refresh drops exactly the nodes whose structural digest moved
(:meth:`_AnswerPlan.forget`) and the next read recombines only that
dirty path.  The candidate and live sets are ``q(max world)`` and its
ancestors, and no pattern node maps into a subtree that carries none of
the query's labels (tree patterns have no wildcards).  So a plan
survives every edit whose touched labels (:meth:`~repro.pxml.pdocument.
PDocument.dirty_labels_since`) miss its lanes' table labels — a
probability-only edit touches none — and dies, with its spine, with any
other world change.

**Interned rows.**  Each answer plan interns the rows its passes create
at live nodes and their children — the rows a live ordinary node's
pinned combine reads — by content, so isomorphic children of a wide
node hand the engine one row *object*, also when one child was
recombined in a later pass than its siblings; the engine's
ordinary-node pinned combine groups children by row identity and
combines each distinct row once (:meth:`~repro.prob.engine.
EvaluationEngine._combine_ordinary_pinned`).  Exact rows key by their
integer ratios, which hash without a :class:`~fractions.Fraction` call;
on ``array`` the key also holds the row's exactness, so a float row
never stands in for an equal ``Fraction`` row.  Rows orphaned by edits
are pruned: when the table outgrows ``_INTERN_PER_SPINE`` rows per
spine entry it is rebuilt from the rows the spine still holds.
Boolean passes have no live nodes and intern nothing.

**Combined store keys.**  A subtree is memoized under ONE key instead of
L: ``(structural digest, digest of the tagged per-lane parts, anchor
mark, None, backend)``.  The per-lane gate is folded *inside* the parts
(collapsing to ``None`` for gate-insensitive lanes), so a blocked
pinned-pass entry and an unpinned Boolean-pass entry share whenever
every lane is insensitive.  The per-lane anchor positions live in the
parts too; the key's anchor component only marks a group with an
anchored lane (:data:`_ANCHORED`), so stores count its traffic as
anchored (:func:`repro.store.api.is_anchored_key`).  The keyer supplies
the skeleton's ``token`` / ``weight``.

**Exact fallback.**  The engine's combine steps apply the one
exact-fallback rule (:mod:`repro.prob.engine`): a row or pin wider than
the backend's ``width_threshold`` escapes to a
:class:`~fractions.Fraction` dict, and a node above an exact child row
or pin combines exactly.  The group only keeps one flag per entry
(``exact``), so the engine scans a lane's child rows for exactness only
below an entry that holds one.  On a backend without the ``escape``
hook (``exact``) nothing escapes, and the group skips the flag.

Per-lane stats are necessarily approximate here (one combined probe
covers L lanes); the skeleton counts a group's hits/misses/skips
``× L`` so cumulative session counters read per query.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..obs.trace import span as trace_span
from ..probability_array import LaneRows, _is_exact
from ..store import (
    GATE_BLOCKED,
    GATE_UNPINNED,
    SubtreeKeyer,
    fingerprint_digest,
)
from .engine import (
    _GRANT_ALL,
    _GRANT_NONE,
    EvaluationEngine,
    positive_answers,
)
from .traversal import Lane

__all__ = ["StackedKeyer", "stacked_answer_many", "stacked_boolean_many"]

#: Shared empty pinned map (never mutated by the engine's combines).
_EMPTY: dict = {}
#: Tag of the combined key's fingerprint part.  It names the entry form,
#: so entries of an earlier form are never probed.
_KEY_TAG = "lane-rows"
#: Anchor component of a combined key with an anchored lane: one slot
#: pinned to nothing.  The positions themselves are in the parts digest;
#: the mark makes the key anchored for the stores' counters and
#: round-trips through the SQLite anchor codec.
_ANCHORED = ((),)
_ratio = Fraction.as_integer_ratio
#: An answer plan's row intern table is pruned once it holds more than
#: this many rows per retained spine entry.
_INTERN_PER_SPINE = 2


def _exact_row_key(row: dict) -> tuple:
    """Intern key of a :class:`~fractions.Fraction` row: its masks and
    integer ratios, hashed and compared without a ``Fraction`` call."""
    return tuple(zip(row, map(_ratio, row.values())))


def _row_key(row: dict) -> tuple:
    """Intern key of a row that may be float or exact: its exactness
    and content (``Fraction(1, 2) == 0.5`` hash alike)."""
    return (_is_exact(row), tuple(row.items()))


def _storable(entry):
    """The store holds blocked/unpinned rows, never split entries."""
    return entry if entry.__class__ is LaneRows else None


class _SplitRows:
    """Per-lane ``(blocked, pinned)`` pairs at a live-spine node."""

    __slots__ = ("rows", "pinned", "exact")

    def __init__(self, rows: tuple, pinned: tuple, exact: bool) -> None:
        self.rows = rows
        self.pinned = pinned
        self.exact = exact


class StackedKeyer:
    """Combined content-addressed store keys and lane classes.

    Wraps one :class:`~repro.store.SubtreeKeyer` per lane.  Per node it
    derives the ordered per-lane ``(fingerprint, anchors, effective
    gate)`` parts (``None`` for lanes neutral below the subtree), groups
    equal parts into lane classes (:meth:`classes`), and digests the
    parts into a single 5-part key (:meth:`token`).  Keys are cached per
    node id, so a warm pass resolves each node with one dict lookup;
    classes are cached per relevant label set (per node id when a lane
    is anchored).  The session caches whole keyers per batch signature,
    making the caches effective across passes within a document epoch
    (:meth:`forget` prunes mutated nodes).
    """

    __slots__ = (
        "digests", "sizes", "keyers", "labels", "table_labels", "gate",
        "_cache", "_classes", "_by_labels",
    )

    def __init__(self, p, keyers: list, gate: str) -> None:
        self.digests, self.sizes = p.structural_index()
        self.keyers = keyers
        self.labels = [keyer.table_labels for keyer in keyers]
        #: The group's label support: the union of the lanes'.
        self.table_labels = frozenset().union(*self.labels)
        self.gate = gate
        # node_id -> (key, anchored)
        self._cache: dict[int, tuple] = {}
        # node_id (anchored) / relevant labels (unanchored) -> classes
        self._classes: dict[int, tuple] = {}
        self._by_labels: dict[frozenset, tuple] = {}

    def classes(self, node_id: int, label_set) -> tuple:
        """``(lane_class, representatives, shared, parts digest,
        anchored, backend name)`` at a subtree.

        ``lane_class[i]`` is lane ``i``'s class index (``-1`` when the
        lane is neutral below the subtree), ``representatives[c]`` the
        first lane of class ``c``, and ``shared`` the number of
        non-neutral lanes that are not their class's first lane.
        Without anchors the parts depend on the subtree's labels alone,
        so they are cached per group-relevant label set; anchored parts
        name positions inside the subtree and are cached per node.
        """
        entry = self._classes.get(node_id)
        if entry is not None:
            return entry
        relevant = self.table_labels & label_set
        entry = self._by_labels.get(relevant)
        if entry is not None:
            return entry
        parts = []
        lane_class = []
        representatives = []
        index: dict = {}
        anchored = False
        backend_name = None
        for lane, (keyer, labels) in enumerate(zip(self.keyers, self.labels)):
            if not (labels & relevant):
                parts.append(None)
                lane_class.append(-1)
                continue
            token, is_anchored = keyer.token(node_id, relevant, self.gate)
            part = (token[1], token[2], token[3])
            parts.append(part)
            backend_name = token[4]
            anchored |= is_anchored
            cls = index.get(part)
            if cls is None:
                cls = index[part] = len(representatives)
                representatives.append(lane)
            lane_class.append(cls)
        active = len(lane_class) - lane_class.count(-1)
        entry = (
            tuple(lane_class),
            tuple(representatives),
            active - len(representatives),
            fingerprint_digest((_KEY_TAG, tuple(parts))),
            anchored,
            backend_name,
        )
        if anchored:
            self._classes[node_id] = entry
        else:
            self._by_labels[relevant] = entry
        return entry

    def token(self, node_id: int, label_set) -> tuple:
        """``(combined key, is_anchored)`` for a subtree where at least
        one lane is non-neutral (callers shortcut all-neutral ones)."""
        entry = self._cache.get(node_id)
        if entry is not None:
            return entry
        _, _, _, parts, anchored, backend_name = self.classes(
            node_id, label_set
        )
        entry = self._cache[node_id] = (
            (
                self.digests[node_id],
                parts,
                _ANCHORED if anchored else None,
                None,
                backend_name,
            ),
            anchored,
        )
        return entry

    def forget(self, node_ids) -> None:
        """Drop the cached keys and anchored classes of ``node_ids``."""
        for node_id in node_ids:
            self._cache.pop(node_id, None)
            self._classes.pop(node_id, None)

    def weight(self, node_id: int, distribution) -> int:
        """Recomputation-cost estimate: support size × subtree size."""
        return len(distribution) * self.sizes[node_id]


class _StackedLane:
    """One query's slice of a stacked pass."""

    __slots__ = ("engine", "keyer", "live", "candidates")

    def __init__(
        self,
        engine: EvaluationEngine,
        keyer: SubtreeKeyer,
        live=frozenset(),
        candidates=frozenset(),
    ) -> None:
        self.engine = engine
        self.keyer = keyer
        self.live = live
        self.candidates = candidates


class _StackedGroup:
    """The whole batch as ONE lane group of
    :func:`~repro.prob.traversal.stored_postorder` (see the module
    docstring): the skeleton walks, probes, saves and counts; this class
    only supplies the group's combine step.

    Per-node entries take one of three forms, all indexed per lane by
    ``entry.rows[i]``:

    * :attr:`unit_entry` — all lanes neutral below: every row is the
      unit dict.
    * a :class:`~repro.probability_array.LaneRows` — blocked/unpinned
      rows, one per lane, shared by lane class; the only form the store
      holds.
    * a :class:`_SplitRows` — per-lane ``(blocked, pinned)`` pairs at
      live-spine nodes of an answer pass.

    ``rows_combined`` counts the rows the group computed and
    ``rows_shared`` the lanes that took a row computed for another lane
    of their class.  Every split entry the group combines lands in
    ``spine`` (the answer plan's retained spine, which the walk consults
    as :attr:`~repro.prob.traversal.Lane.known`); ``interned`` is the
    row intern table (the answer plan's, else the pass's own).
    """

    __slots__ = (
        "labels", "lanes", "keyer", "grant", "union_live",
        "mixed", "row_key", "unit_dict",
        "unit_entry", "rows_combined", "rows_shared", "spine", "interned",
        "stats", "spine_before", "root_forms",
    )

    def __init__(
        self, session, lanes: list, keyer: StackedKeyer, plan=None
    ) -> None:
        backend = session.backend
        self.labels = session.p.label_index()
        self.lanes = lanes
        self.keyer = keyer
        self.grant = _GRANT_NONE if keyer.gate == GATE_BLOCKED else _GRANT_ALL
        self.union_live = frozenset() if plan is None else plan.union_live
        #: Float rows that may escape to exact ones (``array``); on
        #: ``exact`` every row is exact and no entry is flagged.
        self.mixed = lanes[0].engine._escape is not None
        self.row_key = (
            _exact_row_key if backend.one.__class__ is Fraction else _row_key
        )
        self.interned = {} if plan is None else plan.interned
        self.unit_dict = self._intern({0: backend.one})
        self.unit_entry = LaneRows((self.unit_dict,) * len(lanes))
        self.rows_combined = 0
        self.rows_shared = 0
        self.spine = {} if plan is None else plan.spine
        self.stats = session.stats
        self.spine_before = session.stats.spine_hits
        self.root_forms: Optional[list] = None

    def lane(self) -> Lane:
        """The group as one :class:`~repro.prob.traversal.Lane`."""
        keyer = self.keyer
        return Lane(
            table_labels=keyer.table_labels,
            combine=self.combine,
            unit=self.unit_entry,
            keyer=keyer,
            live=self.union_live,
            width=len(self.lanes),
            cacheable=_storable,
            known=self.spine,
        )

    def counters(self) -> dict:
        """Span attributes of one pass."""
        return {
            "rows_combined": self.rows_combined,
            "rows_shared": self.rows_shared,
            # Live nodes resolved from the retained spine (the skeleton
            # counts spine hits once per lane of the group).
            "spine_reused": (self.stats.spine_hits - self.spine_before)
            // len(self.lanes),
            "root_groups": self._root_groups(),
        }

    def _root_groups(self) -> int:
        """Distinct child rows the root readout grouped, summed over the
        lanes live at the root (0 when the root was not combined)."""
        forms = self.root_forms
        if forms is None:
            return 0
        return sum(
            len({id(form.rows[i]) for form in forms})
            for i, lane in enumerate(self.lanes)
            if lane.live
        )

    def _intern(self, row: dict) -> dict:
        """The intern table's one object for ``row``'s content (and, on
        ``array``, exactness)."""
        return self.interned.setdefault(self.row_key(row), row)

    def _exact_below(self, forms) -> bool:
        """Whether a child entry holds an escaped (exact) row, so some
        lane may need the exact kernels (never on ``exact``)."""
        return self.mixed and any(form.exact for form in forms)

    def combine(self, node, entries):
        node_id = node.node_id
        forms = [entries[child.node_id] for child in node.children]
        classes = self.keyer.classes(node_id, self.labels[node_id])
        if node_id in self.union_live:
            return self._split_combine(node, forms, classes)
        lane_class, representatives, shared = classes[:3]
        exact_below = self._exact_below(forms)
        class_rows = [
            self._row(node, forms, lane, exact_below)
            for lane in representatives
        ]
        parent = node.parent
        if parent is not None and parent.node_id in self.union_live:
            # Only a live parent groups its children's rows by identity.
            class_rows = list(map(self._intern, class_rows))
        self.rows_combined += len(class_rows)
        self.rows_shared += shared
        unit = self.unit_dict
        return LaneRows(
            tuple(unit if c < 0 else class_rows[c] for c in lane_class),
            self.mixed and any(map(_is_exact, class_rows)),
        )

    def _row(self, node, forms, lane: int, exact_below: bool) -> dict:
        """Lane ``lane``'s blocked/unpinned row at a node, from its child
        rows (:meth:`~repro.prob.engine.EvaluationEngine.combine_row`)."""
        child_map = {
            child.node_id: form.rows[lane]
            for child, form in zip(node.children, forms)
        }
        return self.lanes[lane].engine.combine_row(
            node, child_map, self.grant, exact_below
        )

    def _split_combine(self, node, forms, classes) -> _SplitRows:
        node_id = node.node_id
        if node.parent is None:
            self.root_forms = forms
        lane_class = classes[0]
        exact_below = self._exact_below(forms)
        mixed = self.mixed
        unit = self.unit_dict
        class_rows: dict = {}
        rows = []
        pinned = []
        exact = False
        for i, lane in enumerate(self.lanes):
            if node_id in lane.live:
                # The live lane's (blocked, pinned, exact) entry from its
                # children's blocked rows and pins.
                child_map = {}
                for child, form in zip(node.children, forms):
                    pins = (
                        form.pinned[i] if form.__class__ is _SplitRows
                        else _EMPTY
                    )
                    child_map[child.node_id] = (form.rows[i], pins)
                blocked, pins, pair_exact = lane.engine.combine_pinned(
                    node, child_map, lane.candidates, exact_below
                )
                blocked = self._intern(blocked)
                exact = exact or pair_exact
                rows.append(blocked)
                pinned.append(pins)
                self.rows_combined += 1
                continue
            cls = lane_class[i]
            if cls < 0:
                rows.append(unit)
            else:
                row = class_rows.get(cls)
                if row is None:
                    row = class_rows[cls] = self._intern(
                        self._row(node, forms, i, exact_below)
                    )
                    exact = exact or (mixed and _is_exact(row))
                    self.rows_combined += 1
                else:
                    self.rows_shared += 1
                rows.append(row)
            pinned.append(_EMPTY)
        entry = self.spine[node_id] = _SplitRows(
            tuple(rows), tuple(pinned), exact
        )
        return entry


# ----------------------------------------------------------------------
# Session entry points
# ----------------------------------------------------------------------
class _AnswerPlan:
    """A cached stacked ``answer_many`` batch: the lanes, the combined
    keyer, the union live set, the answer memo (empty, or the one answer
    list of the current epoch), the retained spine (``node_id -> split
    entry``) and the row intern table (see the module docstring)."""

    __slots__ = ("lanes", "keyer", "union_live", "memo", "spine", "interned")

    def __init__(self, lanes, keyer, union_live) -> None:
        self.lanes = lanes
        self.keyer = keyer
        self.union_live = union_live
        self.memo: list = []
        self.spine: dict = {}
        self.interned: dict = {}

    def forget(self, changed) -> None:
        """Spine refresh: drop the answer memo and every cached key, class
        and split entry of the node ids in ``changed`` — the nodes whose
        structural digest moved.  The caller has checked that the edits
        left the plan's candidate and live sets standing."""
        self.memo.clear()
        self.keyer.forget(changed)
        spine = self.spine
        for node_id in changed:
            spine.pop(node_id, None)

    def trim(self, row_key) -> None:
        """Bound the intern table by the spine: past
        ``_INTERN_PER_SPINE`` rows per spine entry, keep only the rows
        the spine still holds (and none, should those alone exceed it).
        ``row_key`` is the intern key of the plan's passes."""
        limit = _INTERN_PER_SPINE * len(self.spine)
        if len(self.interned) <= limit:
            return
        kept: dict = {}
        for entry in self.spine.values():
            for row in entry.rows:
                kept.setdefault(row_key(row), row)
        self.interned = kept if len(kept) <= limit else {}


def _run_group(
    session, lanes: list, keyer: StackedKeyer, plan: Optional[_AnswerPlan] = None
):
    """One pass: the batch runs as ONE lane group of
    :func:`~repro.prob.traversal.stored_postorder`; returns the root
    entry.  An answer ``plan`` supplies the union live set, and its
    retained spine and row intern table are consulted and filled by the
    pass."""
    group = _StackedGroup(session, lanes, keyer, plan)
    root = session._run_pass(
        group.lane(), "stacked.pass", counters=group.counters,
        gate=keyer.gate,
    )
    if plan is not None:
        plan.trim(group.row_key)
    return root


def stacked_answer_many(session, queries: list) -> list:
    """``answer_many`` as one lane group.  Caches the batch plan
    (engines, candidate and live sets, combined keyer) on the session
    per document epoch.

    The plan also memoizes its *answers*: within a document epoch a
    cached plan's candidate spine — the one region the content-addressed
    store can never serve, because pinned maps name document node ids —
    always recombines to the same per-candidate masses, so a repeated
    batch is a pure plan hit.  This is the session-local, identity-keyed
    completion of the store's structural memoization; ``invalidate()``
    drops it with the rest of ``session._stacked``, and so does an edit
    that touches one of the plan's table labels.  After any other edit
    the memo is gone but the plan's retained spine is not: the pass
    recombines only the split entries whose digests moved, and the root
    entry holds every lane's answer (the engine's root readout).
    """
    cache = session._stacked
    key = ("answer", tuple(map(id, queries)))
    entry = cache.get(key)
    if entry is None:
        with trace_span("stacked.plan_build", queries=len(queries)):
            entry = _build_answer_plan(session, queries, cache, key)
    plan = entry[1]
    memo = plan.memo
    if memo:
        # Warm plan: the spine result is epoch-invariant — serve fresh
        # copies without a traversal.
        stats = session.stats
        stats.memo_hits += len(plan.lanes)
        stats.subtree_skips += 1
        if sp := trace_span("stacked.replay", queries=len(queries)):
            with sp:
                sp.set("answers", sum(len(a) for a in memo[0]))
        return [dict(answer) for answer in memo[0]]
    if not plan.union_live:
        # No candidates anywhere: every answer is empty, no pass needed.
        return [{} for _ in queries]
    root = _run_group(session, plan.lanes, plan.keyer, plan)
    zero = session.backend.zero
    # The root is live: a split entry whose pinned half holds every
    # lane's readout ``{candidate: Pr}``.
    answers = [positive_answers(readout, zero) for readout in root.pinned]
    memo.append(answers)
    return [dict(answer) for answer in answers]


def _build_answer_plan(session, queries: list, cache: dict, key: tuple):
    """Build (and cache) the batch plan entry ``(strong query refs,
    plan)`` for ``queries``."""
    engines = [
        EvaluationEngine(session.p, [q], backend=session.backend)
        for q in queries
    ]
    candidate_sets = session._candidate_sets(engines, queries)
    live_sets = [session.p.ancestral_closure(cs) for cs in candidate_sets]
    union_live = frozenset().union(*live_sets)
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
    if len(cache) > 4096:
        cache.clear()
    entry = cache[key] = (
        tuple(queries), _AnswerPlan(lanes, keyer, union_live),
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


def stacked_boolean_many(session, engines: list) -> list:
    """``boolean_many`` over already-built engines as one lane group:
    one backend probability per engine."""
    lanes = [_StackedLane(engine, session._keyer(engine)) for engine in engines]
    keyer = StackedKeyer(
        session.p, [lane.keyer for lane in lanes], GATE_UNPINNED
    )
    root = _run_group(session, lanes, keyer)
    return [lane.engine.mass(row) for lane, row in zip(lanes, root.rows)]
