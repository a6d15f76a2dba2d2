"""Session passes: a whole query batch as one lane group.

Every :class:`~repro.prob.session.QuerySession` batch — ``answer_many``
and ``boolean_many``, on either backend, of any width including 1 —
runs as ONE *lane group* (``width = L``) of the one store-consulting
walk, :func:`repro.prob.traversal.stored_postorder`: every subtree's
blocked/unpinned distributions for all ``L`` lanes (queries) form one
:class:`~repro.probability_array.LaneRows` entry — a tuple of per-lane
``{mask: value}`` dicts — and the store holds one row per lane class
under that class's own per-query key.  Probing, saving, neutral skips,
store I/O and the session counters all live in the skeleton; this
module supplies only the group's combine step, its keyer and the
session entry points.

**Lane classes.**  At each node the lanes fall into *classes*: lanes
whose keyer parts agree — the restricted goal-table fingerprint, the
anchor positions and the effective gate — compute bit-identical
distributions on the subtree, the very premise under which the store
shares entries (:mod:`repro.store.keys`).  The group therefore combines
one row per class and lets every lane of the class share that row
object; neutral lanes share the unit dict.  In a batch of queries that
differ in one label, most subtrees see one or two classes.
:class:`StackedKeyer` derives the classes and their store keys and
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
spine refresh (:meth:`_AnswerPlan.forget`) takes out exactly the nodes
whose structural digest moved and the next read recombines only that
dirty path.  The candidate and live sets are ``q(max world)`` and its
ancestors, and no pattern node maps into a subtree that carries none of
the query's labels (tree patterns have no wildcards).  So a plan
survives every edit whose touched labels (:meth:`~repro.pxml.pdocument.
PDocument.dirty_labels_since`) miss its lanes' table labels — a
probability-only edit touches none — and dies, with its spine, with any
other world change.

**Previous entries and delta combines.**  A refresh does not drop a
dirty live node's split entry: it keeps it as the node's *previous
entry* (:class:`_Previous`, the walk's :attr:`~repro.prob.traversal.
Lane.previous`) with the node's changed children as its dirty list.
Entries keep what a delta reads only once their plan has been
refreshed, so a plan that is never refreshed (a one-shot batch) keeps
nothing it would not read, and the first read after a plan's first
edit seeds the dirty path's entries.
The entry holds the child forms by child id and, per live lane, the
:class:`~repro.prob.engine.PinnedState` the engine's ordinary pinned
kernel built: each child's row and pins, the row groups with their
factors' ``others``, and the node's outputs.  The walk pushes only the
dirty children; the combine takes every other child's form from the
previous entry and applies the changed children to each live lane's
state (:meth:`~repro.prob.engine.EvaluationEngine.
_combine_ordinary_pinned`), so a wide root on the dirty path costs what
its changed children cost, not its fanout.  A lane with no candidate at
the node keeps its row when no changed child's row of that lane moved.
The node recombines every child instead when the edits named it (its
label, probabilities or child list may have changed: :meth:`~repro.
pxml.pdocument.PDocument.dirty_targets_since`), when its child list no
longer matches the previous entry's, when it is not ordinary, or when
an exact row or pin is involved (the exact-fallback rule stays in the
engine's combine step).

**Interned rows.**  Each answer plan interns the rows its passes create
at live nodes and their children — the rows a live ordinary node's
pinned combine reads — by content, so isomorphic children of a wide
node hand the engine one row *object*, also when one child was
recombined in a later pass than its siblings.  The kernel groups
children by row identity and combines each distinct row once; a child
recombined to an equal row keeps its group, so the delta re-reads only
its candidates against the group's kept ``others``, and a row that
moved regroups the k distinct rows, not the children.  Exact rows key
by their integer ratios, which hash without a
:class:`~fractions.Fraction` call; on ``array`` the key also holds the
row's exactness, so a float row never stands in for an equal
``Fraction`` row.  Rows orphaned by edits are pruned: when the table
outgrows ``_INTERN_PER_SPINE`` rows per spine entry it is rebuilt from
the rows the spine still holds.  Boolean passes have no live nodes and
intern nothing.

**Per-class store keys.**  A subtree's lane class is stored under its
first lane's own 5-part key, ``(structural digest, restricted-table
fingerprint, anchor positions, effective gate, backend)``
(:class:`~repro.store.SubtreeKeyer`), as the single plain row of that
lane.  So an entry depends on neither the batch nor the lane order: a
store warmed by one batch serves the same queries in any order or
grouping, on every subtree no lane held live.  The walk probes one key
per class and counts a hit only when every class hits; otherwise the
node is combined in full and each class whose probe missed saves its
row.  A blocked pinned-pass row and an unpinned Boolean-pass row share
an entry whenever the lane's restriction is gate-insensitive.

**Exact fallback.**  The engine's combine steps apply the one
exact-fallback rule (:mod:`repro.prob.engine`): a row or pin wider than
the backend's ``width_threshold`` escapes to a
:class:`~fractions.Fraction` dict, and a node above an exact child row
or pin combines exactly.  The group only keeps one flag per entry
(``exact``), so the engine scans a lane's child rows for exactness only
below an entry that holds one.  On a backend without the ``escape``
hook (``exact``) nothing escapes, and the group skips the flag.

Per-lane stats are necessarily approximate here (one probe per class
covers all its lanes); the skeleton counts a group's hits/misses/skips
``× L`` so cumulative session counters read per query.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..obs.trace import span as trace_span
from ..probability_array import LaneRows, _is_exact
from ..store import GATE_BLOCKED, GATE_UNPINNED, SubtreeKeyer
from ..pxml.pdocument import PNodeKind
from .engine import (
    _GRANT_ALL,
    _GRANT_NONE,
    EvaluationEngine,
    PinnedState,
    positive_answers,
)
from .traversal import Lane

__all__ = ["StackedKeyer", "stacked_answer_many", "stacked_boolean_many"]

#: Shared empty pinned map (never mutated by the engine's combines).
_EMPTY: dict = {}
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


class _SplitRows:
    """Per-lane ``(blocked, pinned)`` pairs at a live-spine node, with
    what a later delta combine of the node reads: the child forms by
    child id, one :class:`~repro.prob.engine.PinnedState` per live lane
    (``states`` is ``None`` when no delta may start from this entry: the
    node is not ordinary, or a row or pin at or below it is exact), and
    the number of live children.  Before its plan's first refresh an
    entry keeps none of these (``forms`` is ``None``)."""

    __slots__ = ("rows", "pinned", "exact", "forms", "states", "live_children")

    def __init__(
        self, rows: tuple, pinned: tuple, exact: bool, forms: dict,
        states: Optional[tuple], live_children: int,
    ) -> None:
        self.rows = rows
        self.pinned = pinned
        self.exact = exact
        self.forms = forms
        self.states = states
        self.live_children = live_children


class _Previous:
    """A dirty live node's last split entry, kept for its next combine:
    ``dirty`` lists the children whose digests moved since (the only
    ones the walk pushes) and ``clean_live`` counts the other live
    children, which the walk counts as spine hits."""

    __slots__ = ("entry", "dirty", "clean_live")

    def __init__(self, entry: _SplitRows) -> None:
        self.entry = entry
        self.dirty: list = []
        self.clean_live = entry.live_children


class StackedKeyer:
    """Per-class content-addressed store keys and lane classes.

    Wraps one :class:`~repro.store.SubtreeKeyer` per lane.  Per node it
    derives the ``(fingerprint, anchors, effective gate, backend)`` part
    of each lane not neutral below the subtree and groups equal parts
    into lane classes (:meth:`classes`); each class's
    store key is its first lane's own 5-part key (:meth:`token`), so a
    class row is shared with every batch — and every single query — whose
    lane restricts to the same table on the subtree.  Keys are cached per
    node id, so a warm pass resolves each node with one dict lookup;
    classes are cached per relevant label set (per node id when a lane is
    anchored).  The session caches whole keyers per batch signature,
    making the caches effective across passes within a document epoch
    (:meth:`forget` prunes mutated nodes).
    """

    __slots__ = (
        "digests", "keyers", "labels", "table_labels", "gate",
        "_cache", "_classes", "_by_labels",
    )

    def __init__(self, p, keyers: list, gate: str) -> None:
        self.digests = p.structural_index()[0]
        self.keyers = keyers
        self.labels = [keyer.table_labels for keyer in keyers]
        #: The group's label support: the union of the lanes'.
        self.table_labels = frozenset().union(*self.labels)
        self.gate = gate
        # node_id -> (class keys, anchored, lane_class)
        self._cache: dict[int, tuple] = {}
        # node_id (anchored) / relevant labels (unanchored) -> classes
        self._classes: dict[int, tuple] = {}
        self._by_labels: dict[frozenset, tuple] = {}

    def classes(self, node_id: int, label_set) -> tuple:
        """``(lane_class, representatives, shared, parts, anchored)`` at
        a subtree.

        ``lane_class[i]`` is lane ``i``'s class index (``-1`` when the
        lane is neutral below the subtree), ``representatives[c]`` the
        first lane of class ``c``, ``shared`` the number of non-neutral
        lanes that are not their class's first lane, and ``parts[c]``
        class ``c``'s store key without its structural digest.
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
        for lane, (keyer, labels) in enumerate(zip(self.keyers, self.labels)):
            if not (labels & relevant):
                lane_class.append(-1)
                continue
            token, is_anchored = keyer.token(node_id, relevant, self.gate)
            part = token[1:]
            anchored |= is_anchored
            cls = index.get(part)
            if cls is None:
                cls = index[part] = len(representatives)
                representatives.append(lane)
                parts.append(part)
            lane_class.append(cls)
        active = len(lane_class) - lane_class.count(-1)
        entry = (
            tuple(lane_class),
            tuple(representatives),
            active - len(representatives),
            tuple(parts),
            anchored,
        )
        if anchored:
            self._classes[node_id] = entry
        else:
            self._by_labels[relevant] = entry
        return entry

    def token(self, node_id: int, label_set) -> tuple:
        """``(class keys, is_anchored, lane_class)`` for a subtree where
        at least one lane is non-neutral (callers shortcut all-neutral
        ones): one store key per lane class, whether any lane's
        restriction is anchored, and the lane → class map."""
        entry = self._cache.get(node_id)
        if entry is not None:
            return entry
        lane_class, _, _, parts, anchored = self.classes(node_id, label_set)
        digest = (self.digests[node_id],)
        if len(parts) == 1:  # the common case: one lane class
            keys = (digest + parts[0],)
        else:
            keys = tuple([digest + part for part in parts])
        entry = self._cache[node_id] = (keys, anchored, lane_class)
        return entry

    def forget(self, node_ids) -> None:
        """Drop the cached keys and anchored classes of ``node_ids``."""
        for node_id in node_ids:
            self._cache.pop(node_id, None)
            self._classes.pop(node_id, None)


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
      rows, one per lane, shared by lane class; the store holds its
      class rows.
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
        "unit_entry", "rows_combined", "rows_shared", "children_read",
        "spine", "previous", "keep", "interned",
        "stats", "spine_before", "root_entry", "root_forms", "one_class",
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
        #: The lane → class map of a node where every lane is in class 0.
        self.one_class = (0,) * len(lanes)
        self.rows_combined = 0
        self.rows_shared = 0
        self.children_read = 0
        self.spine = {} if plan is None else plan.spine
        self.previous = {} if plan is None else plan.previous
        #: Whether split entries keep what a later delta reads: only
        #: once the plan has been refreshed, so a plan that is never
        #: refreshed keeps nothing it would not read.
        self.keep = plan is not None and plan.refreshed
        self.stats = session.stats
        self.spine_before = session.stats.spine_hits
        self.root_entry: Optional[_SplitRows] = None
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
            assemble=self.assemble,
            known=self.spine,
            previous=self.previous,
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
            # Child entries the live lanes' pinned combines read: every
            # child from scratch, the changed ones in a delta.
            "children_read": self.children_read,
        }

    def _root_groups(self) -> int:
        """Distinct child rows the root readout grouped, summed over the
        lanes live at the root (0 when the root was not combined)."""
        entry = self.root_entry
        if entry is None:
            return 0
        total = 0
        for i, lane in enumerate(self.lanes):
            if not lane.live:
                continue
            if entry.states is not None:
                total += len(entry.states[i].groups)
            else:
                forms = self.root_forms
                total += len({id(form.rows[i]) for form in forms})
        return total

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
        classes = self.keyer.classes(node_id, self.labels[node_id])
        if node_id in self.union_live:
            return self._split_combine(node, entries, classes)
        forms = [entries[child.node_id] for child in node.children]
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
        return self.assemble(lane_class, class_rows)

    def assemble(self, lane_class: tuple, class_rows) -> LaneRows:
        """The entry whose lanes take their class's row (neutral lanes
        the unit dict): a combined node's, or a node whose every class
        row was a store hit."""
        if lane_class == self.one_class:  # the common case
            row = class_rows[0]
            return LaneRows(
                (row,) * len(lane_class), self.mixed and _is_exact(row)
            )
        unit = self.unit_dict
        return LaneRows(
            tuple([unit if c < 0 else class_rows[c] for c in lane_class]),
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

    def _split_combine(self, node, entries, classes) -> _SplitRows:
        """A live node's split entry.  With a previous entry (the walk
        then pushed only its dirty children) and no exact row or pin
        involved, each live lane's combine applies the changed children
        to its kept :class:`~repro.prob.engine.PinnedState`, and a lane
        that holds no candidate here keeps its row when no changed
        child's row of that lane moved.  Otherwise — no previous entry,
        an edit at the node itself, a child list that changed, an exact
        row or pin — every child is read again."""
        node_id = node.node_id
        children = node.children
        prior = self.previous.pop(node_id, None)
        delta = False
        forms = None  # child id -> form, kept for a later delta
        if prior is None:
            # ``kids`` are the children the live lanes read and
            # ``kid_forms`` their forms; ``ordered`` every child's form
            # in child order, once known.
            kids = children
            kid_forms = ordered = [entries[child.node_id] for child in kids]
            if self.keep:
                forms = {
                    child.node_id: form
                    for child, form in zip(kids, kid_forms)
                }
        else:
            old = prior.entry
            forms = old.forms  # the old entry is dropped: take its map over
            kids = prior.dirty
            kid_forms = [entries[child.node_id] for child in kids]
            before = [forms.get(child.node_id) for child in kids]
            delta = (
                old.states is not None
                and len(forms) == len(children)
                and None not in before
                and not self._exact_below(kid_forms)
            )
            for child, form in zip(kids, kid_forms):
                forms[child.node_id] = form
            ordered = None
            if not delta:
                kids = children
                kid_forms = ordered = [forms[child.node_id] for child in kids]
                forms = {
                    child.node_id: form
                    for child, form in zip(kids, kid_forms)
                }
        exact_below = not delta and self._exact_below(kid_forms)
        keep = (
            self.keep
            and node.kind is PNodeKind.ORDINARY
            and not exact_below
        )
        lane_class = classes[0]
        mixed = self.mixed
        unit = self.unit_dict
        class_rows: dict = {}
        rows = []
        pinned = []
        states = []
        exact = False
        for i, lane in enumerate(self.lanes):
            if node_id in lane.live:
                # The live lane's (blocked, pinned, exact) entry from its
                # (changed) children's blocked rows and pins.
                memo = {
                    child.node_id: (
                        form.rows[i],
                        form.pinned[i] if form.__class__ is _SplitRows
                        else _EMPTY,
                    )
                    for child, form in zip(kids, kid_forms)
                }
                state = old.states[i] if delta else PinnedState()
                blocked, pins, pair_exact = lane.engine.combine_pinned(
                    node, memo, lane.candidates, exact_below, state
                )
                blocked = self._intern(blocked)
                exact = exact or pair_exact
                rows.append(blocked)
                pinned.append(pins)
                states.append(state)
                self.rows_combined += 1
                self.children_read += len(memo)
                continue
            states.append(None)
            pinned.append(_EMPTY)
            cls = lane_class[i]
            if cls < 0:
                rows.append(unit)
                continue
            row = class_rows.get(cls)
            if row is not None:
                self.rows_shared += 1
            elif delta and all(
                was.rows[i] is form.rows[i]
                for was, form in zip(before, kid_forms)
            ):
                # No changed child moved this lane's row: neither did
                # the node's.
                row = class_rows[cls] = old.rows[i]
            else:
                if ordered is None:
                    ordered = [forms[child.node_id] for child in children]
                row = class_rows[cls] = self._intern(
                    self._row(node, ordered, i, exact_below)
                )
                exact = exact or (mixed and _is_exact(row))
                self.rows_combined += 1
            rows.append(row)
        if delta:
            live_children = old.live_children
        elif forms is not None:
            live_children = sum(
                form.__class__ is _SplitRows for form in kid_forms
            )
        else:
            live_children = 0
        entry = self.spine[node_id] = _SplitRows(
            tuple(rows), tuple(pinned), exact, forms,
            tuple(states) if keep and not exact else None, live_children,
        )
        if node.parent is None:
            self.root_entry = entry
            self.root_forms = (
                ordered if ordered is not None else list(forms.values())
            )
        return entry


# ----------------------------------------------------------------------
# Session entry points
# ----------------------------------------------------------------------
class _AnswerPlan:
    """A cached stacked ``answer_many`` batch: the lanes, the group's
    keyer, the union live set, the answer memo (empty, or the one answer
    list of the current epoch), the retained spine (``node_id -> split
    entry``) and the row intern table (see the module docstring)."""

    __slots__ = (
        "lanes", "keyer", "union_live", "memo", "spine", "previous",
        "interned", "refreshed",
    )

    def __init__(self, lanes, keyer, union_live) -> None:
        self.lanes = lanes
        self.keyer = keyer
        self.union_live = union_live
        self.memo: list = []
        self.spine: dict = {}
        #: node_id -> :class:`_Previous` of the live nodes a spine
        #: refresh dropped, until the next pass recombines them.
        self.previous: dict = {}
        self.interned: dict = {}
        self.refreshed = False

    def forget(self, changed, targets, p) -> None:
        """Spine refresh: drop the answer memo and every cached key, class
        and split entry of the node ids in ``changed`` — the nodes whose
        structural digest moved.  The caller has checked that the edits
        left the plan's candidate and live sets standing.

        A dropped split entry becomes its node's previous entry, with the
        node's changed children as its dirty list, unless the node is in
        ``targets`` (the nodes the edits named: their own label,
        probabilities or child list may have changed; ``None`` when
        unknown).  Previous entries a pass never consumed are dropped
        first: their dirty lists predate these edits."""
        self.memo.clear()
        self.keyer.forget(changed)
        self.refreshed = True
        spine = self.spine
        previous = self.previous
        previous.clear()
        for node_id in changed:
            entry = spine.pop(node_id, None)
            if (
                entry is not None
                and entry.forms is not None
                and targets is not None
                and node_id not in targets
            ):
                previous[node_id] = _Previous(entry)
        if not previous:
            return
        live = self.union_live
        for node_id in changed:
            if not p.has_node(node_id):
                continue
            node = p.node(node_id)
            parent = node.parent
            prior = None if parent is None else previous.get(parent.node_id)
            if prior is not None:
                prior.dirty.append(node)
                if node_id in live:
                    prior.clean_live -= 1

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
    (engines, candidate and live sets, keyer) on the session
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
