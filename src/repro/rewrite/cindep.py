"""Probabilistic condition-independence of TP queries (§4.1, Proposition 2).

Two TP queries are *c-independent* (``q1 ⊥ q2``) when, for every p-document
``P̂`` and node ``n``::

    Pr(n ∈ (q1 ∩ q2)(P)) = Pr(n ∈ q1(P)) · Pr(n ∈ q2(P)) / Pr(n ∈ P).

The paper proves a PTime *syntactic* characterization in its extended
technical report [11], which is not publicly available; this module
implements an equivalent test designed from the semantic definition (see
DESIGN.md §2.2 for the full argument):

Conditioning on ``n ∈ P`` fixes every distributional choice on the root→n
path, so the only randomness either query depends on lies in the *predicate*
match events.  The two queries can be probabilistically dependent in *some*
p-document iff a predicate node of ``q1`` and a predicate node of ``q2`` can
be embedded so that their images share a parent position — a ``mux``/``ind``
gadget placed there then correlates the two match events (Example 11's
counterexample is exactly this construction).  Conversely, if no such
placement exists, the two match events depend on disjoint sets of
distributional choices in every p-document and are therefore conditionally
independent.

The search enumerates co-alignments of the two main branches on a common
root→n spine (``//``-gaps stretched up to a bound that a minimal-witness
contraction argument justifies) and, for every pair of predicate nodes, all
depth placements of the two access routes on a shared root→z chain, with
label consistency enforced wherever the routes cross fixed spine positions
or each other.

Declaring *independent* is sound; declaring *dependent* may in contrived
label-coincidence cases be conservative (a missed rewriting, never a wrong
probability).  :func:`c_independent_empirical` cross-validates against the
possible-world semantics.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

from ..probability import BackendLike, get_backend
from ..prob.session import QuerySession
from ..pxml.builder import ind, mux, ordinary, pdoc
from ..pxml.pdocument import PDocument
from ..tp.pattern import Axis, PatternNode, TreePattern

__all__ = ["c_independent", "c_independent_empirical"]


# ----------------------------------------------------------------------
# Syntactic test
# ----------------------------------------------------------------------
def c_independent(q1: TreePattern, q2: TreePattern) -> bool:
    """Syntactic c-independence test ``q1 ⊥ q2`` (outputs co-anchored)."""
    routes1 = _predicate_routes(q1)
    routes2 = _predicate_routes(q2)
    if not routes1 or not routes2:
        return True  # a query without predicates is deterministic given n ∈ P
    max_route = max(
        [len(route) for _, route in routes1] + [len(route) for _, route in routes2]
    )
    stretch = q1.main_branch_length() + q2.main_branch_length() + max_route + 2
    for spine, depth1, depth2 in _alignments(q1, q2, stretch):
        for anchor1, route1 in routes1:
            for anchor2, route2 in routes2:
                if _shared_parent_witness(
                    spine, depth1[anchor1], route1, depth2[anchor2], route2
                ):
                    return False
    return True


def _predicate_routes(
    q: TreePattern,
) -> list[tuple[int, list[tuple[str, Axis]]]]:
    """For every predicate node ``w``: ``(main-branch anchor index, route)``.

    The route is the label/axis sequence from the first predicate node below
    the anchor down to ``w`` inclusive.
    """
    branch = q.main_branch()
    branch_ids = set(map(id, branch))
    routes: list[tuple[int, list[tuple[str, Axis]]]] = []

    def walk(node: PatternNode, anchor: int, prefix: list[tuple[str, Axis]]) -> None:
        route = prefix + [(node.label, node.axis)]
        routes.append((anchor, route))
        for child in node.children:
            walk(child, anchor, route)

    for index, mb_node in enumerate(branch):
        for child in mb_node.children:
            if id(child) not in branch_ids:
                walk(child, index, [])
    return routes


def _alignments(
    q1: TreePattern, q2: TreePattern, stretch: int
) -> Iterator[tuple[dict[int, Optional[str]], list[int], list[int]]]:
    """Co-alignments of the two main branches on a common spine.

    Yields ``(spine, depths1, depths2)`` where ``spine`` maps depth to the
    label required there (``None`` = unconstrained gap) and ``depths_i[j]``
    is the depth assigned to the ``j``-th main-branch node of ``q_i``.  Both
    roots sit at depth 0 and both outputs at the common bottom depth.
    """
    mb1, mb2 = q1.main_branch(), q2.main_branch()
    if mb1[0].label != mb2[0].label or mb1[-1].label != mb2[-1].label:
        return
    for depths1 in _depth_assignments(mb1, stretch):
        for depths2 in _depth_assignments(mb2, stretch):
            if depths1[-1] != depths2[-1]:
                continue
            spine: dict[int, Optional[str]] = {}
            ok = True
            for nodes, depths in ((mb1, depths1), (mb2, depths2)):
                for node, depth in zip(nodes, depths):
                    existing = spine.get(depth)
                    if existing is not None and existing != node.label:
                        ok = False
                        break
                    spine[depth] = node.label
                if not ok:
                    break
            if ok:
                yield spine, depths1, depths2


def _depth_assignments(mb: list[PatternNode], stretch: int) -> Iterator[list[int]]:
    """All depth vectors for a main branch: ``/`` = +1, ``//`` = +1..stretch."""
    gaps: list[range] = []
    for node in mb[1:]:
        if node.axis is Axis.CHILD:
            gaps.append(range(1, 2))
        else:
            gaps.append(range(1, stretch + 1))
    for steps in itertools.product(*gaps):
        depths = [0]
        for step in steps:
            depths.append(depths[-1] + step)
        yield depths


def _shared_parent_witness(
    spine: dict[int, Optional[str]],
    anchor1: int,
    route1: list[tuple[str, Axis]],
    anchor2: int,
    route2: list[tuple[str, Axis]],
) -> bool:
    """Can the two predicate nodes be placed with a common parent position?

    The witness chain runs root → z: it follows the spine down to a branch
    depth ``β ≥ max(anchor depths)`` and may then continue off-spine; the two
    witness nodes hang below ``z`` at depth ``π + 1``.  Route nodes occupy
    chain positions: at depths ``≤ β`` they must agree with the spine labels,
    and everywhere the two routes must agree with each other.
    """
    bottom = max(spine)
    d_max = bottom + len(route1) + len(route2) + 2
    for beta in range(max(anchor1, anchor2), bottom + 1):
        for pi in range(beta, d_max):
            for occupancy1 in _route_placements(route1, anchor1, pi, d_max):
                if not _spine_compatible(occupancy1, spine, beta):
                    continue
                for occupancy2 in _route_placements(route2, anchor2, pi, d_max):
                    if not _spine_compatible(occupancy2, spine, beta):
                        continue
                    if _routes_compatible(occupancy1, occupancy2):
                        return True
    return False


def _route_placements(
    route: list[tuple[str, Axis]], anchor: int, pi: int, d_max: int
) -> Iterator[dict[int, str]]:
    """All depth assignments placing the route's final node below depth ``π``.

    Yields ``{depth: label}`` for the route nodes *excluding* the final node
    (which sits at ``π + 1`` as a child of z and constrains nothing else).
    The final edge determines the parent: a ``/``-edge forces the previous
    route node to *be* z (depth ``π``); a ``//``-edge merely requires the
    previous node at depth ``≤ π`` (free intermediates fill the gap).
    """
    *inner, (final_label, final_axis) = route

    def assign(index: int, depth: int, occupied: dict[int, str]) -> Iterator[dict[int, str]]:
        if index == len(inner):
            if final_axis is Axis.CHILD:
                if depth == pi:
                    yield dict(occupied)
            else:
                if depth <= pi:
                    yield dict(occupied)
            return
        label, axis = inner[index]
        if axis is Axis.CHILD:
            candidates = [depth + 1]
        else:
            candidates = list(range(depth + 1, min(pi, d_max) + 1))
        for d in candidates:
            occupied[d] = label
            yield from assign(index + 1, d, occupied)
            del occupied[d]

    yield from assign(0, anchor, {})


def _spine_compatible(
    occupancy: dict[int, str], spine: dict[int, Optional[str]], beta: int
) -> bool:
    """Route nodes at depths ≤ β sit on spine positions: labels must agree."""
    for depth, label in occupancy.items():
        if depth <= beta:
            required = spine.get(depth)
            if required is not None and required != label:
                return False
    return True


def _routes_compatible(o1: dict[int, str], o2: dict[int, str]) -> bool:
    """Both routes live on the single root→z chain: shared depths must agree."""
    for depth, label in o1.items():
        other = o2.get(depth)
        if other is not None and other != label:
            return False
    return True


# ----------------------------------------------------------------------
# Empirical validation against the semantic definition
# ----------------------------------------------------------------------
def c_independent_empirical(
    q1: TreePattern,
    q2: TreePattern,
    trials: int = 40,
    seed: int = 0,
    max_depth: int = 4,
    backend: BackendLike = "exact",
    tolerance: float = 1e-9,
) -> bool:
    """Monte-Carlo check of the *semantic* definition of c-independence.

    Random small p-documents are generated over the two queries' label
    alphabet; for each ordinary node the defining equation is verified
    through a batched query session in the chosen backend — *exactly* on
    ``"exact"`` (the default), within ``tolerance`` on approximate
    backends such as ``"array"``.  Returns ``False`` as soon as a
    counterexample p-document is found.

    A ``True`` result is evidence, not proof — the sampler may miss a
    counterexample; a ``False`` result is definitive (on the exact
    backend).
    """
    rng = random.Random(seed)
    labels = sorted(
        {node.label for node in q1.nodes()} | {node.label for node in q2.nodes()}
    )
    root_label = q1.root_label()
    for _ in range(trials):
        p = _random_pdocument(rng, labels, root_label, max_depth)
        if not _definition_holds(p, q1, q2, backend, tolerance):
            return False
    return True


def _definition_holds(
    p: PDocument,
    q1: TreePattern,
    q2: TreePattern,
    backend: BackendLike = "exact",
    tolerance: float = 1e-9,
) -> bool:
    resolved = get_backend(backend)
    # One session per sampled document: the three anchored probabilities
    # per node are content-addressed (canonical anchor positions), so
    # subtrees away from the anchored node share one store entry across
    # all nodes of the sweep instead of re-evaluating per anchor value.
    session = QuerySession(p, backend=resolved)
    for n in p.ordinary_nodes():
        appearance = p.appearance_probability(n.node_id)
        if appearance == 0:
            continue
        # The three probabilities of the defining equation, one shared pass.
        joint, p1, p2 = session.boolean_many(
            [
                ([q1, q2], {q1.out: n.node_id, q2.out: n.node_id}),
                (q1, {q1.out: n.node_id}),
                (q2, {q2.out: n.node_id}),
            ]
        )
        lhs = joint * resolved.convert(appearance)
        rhs = p1 * p2
        if resolved.name == "exact":
            if lhs != rhs:
                return False
        elif abs(lhs - rhs) > tolerance:
            return False
    return True


def _random_pdocument(
    rng: random.Random, labels: Sequence[str], root_label: str, max_depth: int
) -> PDocument:
    """A small random p-document biased toward correlation gadgets."""
    counter = itertools.count(0)
    probabilities = ["0.25", "0.5", "0.75"]

    def build(depth: int):
        label = rng.choice(labels)
        children = []
        if depth < max_depth:
            for _ in range(rng.randint(0, 2)):
                children.append(wrap(depth + 1))
        return ordinary(next(counter), label, *children)

    def wrap(depth: int):
        roll = rng.random()
        if roll < 0.35:
            return mux(
                next(counter),
                *[
                    (build(depth), rng.choice(["0.2", "0.3", "0.4"]))
                    for _ in range(rng.randint(1, 2))
                ],
            )
        if roll < 0.6:
            return ind(next(counter), (build(depth), rng.choice(probabilities)))
        return build(depth)

    children = [wrap(1) for _ in range(rng.randint(1, 3))]
    return pdoc(ordinary(next(counter), root_label, *children))
