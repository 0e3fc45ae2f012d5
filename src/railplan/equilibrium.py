"""User-equilibrium freight assignment on the expanded network.

The per-arc cost is c'(x_D + x_E) + c'' for traction arcs (shared congestion
part, constant fuel part) and a constant for switch arcs.  The interaction is
symmetric, so an equivalent optimization objective exists: the usual link
integral evaluated along a path that loads each traction pair's total flow
through c' and each arc's own flow through its constant part.

The solver keeps one acyclic bush per origin and equalizes path costs with
Newton shifts whose denominator includes the partner-arc interaction.  The
test suite checks it against an independent method-of-successive-averages
reference (`tests/oracles.py`).

Each bush stores a pull adjacency: its arc ids sorted by (topological
position of the head, arc id), with one offset per position.  It is the
bush's only arc set, and the order and its inverse are int32 arrays, so a
bush holds no Python object per arc or node (`Bush`).  A label pass is one
flat loop over a slice for the min labels, written when the head changes, and
one over its few flow-carrying arcs for the max labels.  Every bush node but
the origin keeps an inbound arc, since `update_bush` keeps each min
predecessor, so the first loop writes every position of the slice; both meet
the arcs in the same order as a loop per node would, so ties resolve as they
would there.  A sweep visits the merges, the positions with two or more
inbound arcs, in reverse topological order with at most one Newton shift
each: a lone inbound arc is both min and max predecessor or carries no flow,
so its head never shifts, and it is kept untested by `update_bush` on a bush
without merges, a tree.

A bush leaves out the dead electric nodes, which no usable traction arc
touches, in or out: a train can only switch into one and straight back, so
it would be a flowless leaf of every bush.  A node with only a usable
electric in-arc stays, since trains switch back to diesel there.  The
solver's adjacency has no arc into a dead node, so neither the initial trees
nor the gap repair enter one.  The same usable arcs into live nodes, listed
once per solver, are the only arcs `update_bush` tests for joining: a bush
holds every live node its origin reaches, so an arc into a node off the bush
starts at one its origin does not reach, with L = inf, and never joins.
Dropping the L[head] < inf term of the full rule is exact while costs are
finite: a cost overflowed to inf can leave a bush node at L = inf, which a
candidate from a finite tail then joins.

A visit labels its bush in full before `update_bush`, then relabels lazily.
Labels go stale from the earliest head of an added arc (a dropped arc
carried no flow and was no min predecessor), and after a shift from the
earliest head of a bush arc whose cost or flow it changed: a segment arc or
a traction partner of one, whose costs alone are recomputed.  The sweep
reads no label above its current merge i, so it relabels positions
[stale, i + 1) only when it is about to read merge i and stale <= i.  Below
stale no inbound arc changed, so flows and costs come out bit for bit as if
every cost and label were recomputed after each shift.

Labels do not depend on the order, since a label pass takes each node's
inbound arcs in arc-id order, but the sweep's order of merges does.  A bush
keeps its order across updates, and `update_bush` re-sorts only when an
added arc runs backward, by (min label, node index) as far as the arcs allow.
An initial tree keeps Dijkstra's settle order, by label, so adds, which rise
in label, mostly run forward (Bar-Gera 2002, Dial 2006).  An update that only
drops arcs filters `pull`, which stays sorted.

A shift is safeguarded by its exact objective change: the step is halved
while that change is positive.  The change is a sum over the segment arcs,
in segment order, of the fixed cost times the arc's flow change and, for the
first arc met of each traction pair, the pair's congestion integral at the
total after the shift minus the integral at the total before it.  Everything
but the amount moved is gathered once per shift, so a halving only evaluates
the integrals after.  The result has the bits of summing every term afresh:
the terms are added in the same order, every power is a scalar libm `pow`
(a vectorized numpy power can round differently), and the integral before
is the same expression on the same inputs whether it is evaluated once or
at every halving.  So the safeguard keeps its own scalar terms instead of
calling the array formulas of `costmodel` that `CostEngine` uses.

Numerically dead flow is drained instead: when a segment pair's bottleneck
flow is at or below the bush's flow eps (1e-12 of its demand) and the max
segment costs more, that flow moves whole, without the safeguard, and so
does the remainder an accepted shift leaves on the bottleneck.  Moving so
little flow can leave every pair total as it was, so the exact change is
rounding noise plus the fixed-cost terms, and it can stay positive at every
halving; the flow would then never leave the dearer segment, and the
Wardrop spread, which counts any flow above 0, would never close.  To first
order the change is -diff * dx, with diff > 0 the segment cost difference.

Each iteration ends with one step along a direction p, against the linear
tail where bushes sharing arcs push flow back and forth over them.  The
sweep's moves are summed per bush, sparsely, into d_b, with d their sum.
q_b, kept on the bush, is the last step taken on it, and q the sum of the
q_b.  The step is along p_b = d_b + beta q_b, so along p = d + beta q, with
beta = max(0, -(d . Hq) / (q . Hq)) making p conjugate to q under the
objective's Hessian H (conjugate direction Frank-Wolfe, Mitradjieva and
Lindberg 2013).  H is symmetric as the interaction is: (Hq)_a = c'(X_a)
(q_a + q_partner) on a traction arc, X_a the pair total, and 0 on a switch
arc, so q . Hq >= 0.  Clipping beta at 0 restarts at p = d where the
conjugate part would turn back against the last step; an unclipped beta
took more iterations where measured, and lets components of p nearly
cancel.  q is cleared when no step is taken, so that p is d, with the bits
of a step along d alone, and q_b is dropped as soon as `update_bush`
changes bush b's arc set, so it never holds an arc outside the bush.  t_max
is the largest t keeping every bush flow + t p_b >= 0 (0, so no step, when
an arc at 0 would go negative; a ratio overflowed to inf bounds nothing).
g(t) = cost(x + t p) . p is the objective's slope along p (the interaction
is symmetric), read on the arcs of p and their partners.  t is t_max where
g(t_max) <= 0, else the root of g, bisected until the bracket stops
shrinking in floats; there is no step where g(0) >= 0.  The step is kept
only when `CostEngine.beckmann` strictly falls, so the objective never
rises.  Each d_b, a sum of moves between two segments with the same ends,
conserves flow at every node, and so does each q_b, a multiple of an
earlier p_b on the same arc set; so every p_b conserves flow on its bush's
arcs, and t_max keeps each bush flow non-negative.  The unchanged stopping
rule is checked after the step on the flows as they are, so a stop still
means spread and gap within tolerance.

The relative gap is computed only where the Wardrop spread is within
tolerance, or on the last iteration; a stop needs both within tolerance, so
every stop decision is unchanged.  It comes from the spread check's labels,
at the costs the stop decision reads: a bush's min labels are float path
sums over usable arcs, and the repair of `screen` from every usable arc into
a live node that lowers one makes them its origin's distances there; a dead
node is on no path to a destination.  Summed in
`relative_gap`'s order, they give its gap bit for bit.  `_dijkstra` reads
the usable out-arcs that each call site builds once with `_adjacency`.

A solve can be given a `start`: a converged equilibrium of the same demand on
a network whose usable arcs all stay usable here, such as the all-diesel one
for a design.  Its bushes are then bushes here, at the same costs, so their
Wardrop spread stands; only the relative gap can grow, since new arcs can
shorten paths.  The start's flows are returned at iteration 0 when its spread
is within this solve's tolerance and its gap, recomputed with this network's
usable arcs, is too: they then meet the stopping rule of this solve.
Otherwise the solve runs cold, exactly as without a start.  A start that did
not converge at this tolerance fails one of the two tests: the gap here is
never below the gap it stopped at.  The screen runs before any solver is
built, against a `screen.StartTable` that a design search builds once, for
its masks (module docstring of `screen`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .costmodel import (
    LinkCostTable,
    congestion_derivative,
    congestion_integral,
    congestion_time,
)
from .network import ArcKind, ExpandedNetwork

if TYPE_CHECKING:
    from .screen import StartTable

ALL_ARCS = slice(None)
_HELD = 8  # passed bushes whose gap repair a spread check holds back


class InfeasibleAssignmentError(RuntimeError):
    """Some origin-destination demand has no usable path."""


@dataclass
class ODMatrix:
    """Demand in tons/day keyed by (origin, destination) physical node ids."""

    demand: dict[tuple[int, int], float]

    def __post_init__(self):
        for (r, s), d in self.demand.items():
            if not (math.isfinite(d) and d >= 0.0):
                raise ValueError(f"negative or non-finite demand {d} for pair ({r}, {s})")
            if r == s and d > 0.0:
                raise ValueError(f"self-loop demand at node {r}")

    def by_origin(self) -> dict[int, list[tuple[int, float]]]:
        out: dict[int, list[tuple[int, float]]] = {}
        for (r, s), d in sorted(self.demand.items()):
            if d > 0.0:
                out.setdefault(r, []).append((s, d))
        return out

    @property
    def total(self) -> float:
        return sum(self.demand.values())


@dataclass
class FlowState:
    """Arc flows (tons/day) and their costs ($/ton)."""

    x: np.ndarray
    cost: np.ndarray

    def physical_flows(self, expanded: ExpandedNetwork) -> dict[int, tuple[float, float]]:
        return expanded.aggregate_flows(self.x)


@dataclass
class GapMetrics:
    relative_gap: float
    iteration: int
    beckmann: float
    wardrop_max: float
    # both the relative gap and the Wardrop spread within tolerance
    converged: bool
    # (iteration, beckmann, relative gap or None where it was not computed)
    trace: list[tuple[int, float, float | None]]


@dataclass(eq=False)
class Bush:
    """Acyclic per-origin subnetwork plus this origin's arc flows.

    `order` is the topological node order, origin first, and `pos` inverts
    it (-1 off the bush), both int32.  `pull` is the bush's one arc set: its
    arc ids sorted by (pos of the head, arc id), so the arcs entering
    order[i] are pull[offsets[i]:offsets[i + 1]].  An arc a is in the bush
    when p = pos[head[a]] >= 0 and a lies in that short slice for i = p.
    `merges` lists the positions with two or more inbound arcs, ascending.
    """

    origin: int  # expanded node index
    flow: np.ndarray
    demand: float = 0.0
    order: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))
    pos: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))
    pull: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int32))
    merges: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    # (arc ids, flow change) of the last extrapolation step taken, while the
    # arc set stays as it was then (`BushSolver._extrapolate`)
    step: tuple[np.ndarray, np.ndarray] | None = None

    def set_arcs(self, expanded: ExpandedNetwork, arcs: np.ndarray,
                 order: np.ndarray | list[int] | None = None, resort: bool = True) -> None:
        """Install a new arc set and rebuild `pull`; `order` None keeps the
        current order, which must still be topological for `arcs`, and
        `resort` False takes `arcs` as already in `pull` order."""
        if order is not None:
            self.order = np.array(order, dtype=np.int32)
            self.pos = np.full(expanded.n_nodes, -1, dtype=np.int32)
            self.pos[self.order] = np.arange(len(order))
        head_pos = self.pos[expanded.head[arcs]]
        self.pull = (arcs[np.lexsort((arcs, head_pos))] if resort else arcs).astype(np.int32)
        self.offsets = np.zeros(len(self.order) + 1, dtype=np.int32)
        inbound = np.bincount(head_pos, minlength=len(self.order))
        np.cumsum(inbound, out=self.offsets[1:])
        self.merges = (inbound >= 2).nonzero()[0]


class CostEngine:
    """Vectorized arc costs, derivatives, and the objective for one network."""

    def __init__(
        self,
        expanded: ExpandedNetwork,
        profiles: LinkCostTable,
        usable: np.ndarray | None = None,
    ):
        if profiles.link_ids != expanded.link_ids:
            raise ValueError("profiles price other links than the expanded network's")
        self.expanded = expanded
        self.beta = profiles.beta

        self.partner = expanded.partner
        self.is_traction = expanded.kind != ArcKind.SWITCH
        # row j of the table prices the traction pair (2j, 2j+1), diesel first
        diesel = np.arange(0, 2 * len(profiles.link_ids), 2)
        self.fixed = expanded.fixed_cost.copy()
        self.fixed[diesel] = profiles.diesel_fuel_per_ton
        self.fixed[diesel + 1] = profiles.electric_fuel_per_ton
        self.kc = np.zeros(expanded.n_arcs)
        self.cap = np.ones(expanded.n_arcs)
        self.kc[diesel] = self.kc[diesel + 1] = profiles.congestion_coef
        self.cap[diesel] = self.cap[diesel + 1] = profiles.capacity_tpd

        # a pair with an impassable diesel side carries no flow, and its
        # integral, inf * 0, would be nan: it adds nothing to the objective
        self.diesel_arcs = diesel[np.isfinite(self.kc[diesel])]
        self.electric_arcs = self.partner[self.diesel_arcs]
        passable = np.isfinite(self.fixed) & np.isfinite(self.kc)
        self.usable = passable if usable is None else (np.asarray(usable, dtype=bool) & passable)

    # The optional `idx` of the methods below selects arcs: the result holds
    # only those arcs, in that order, with the same bits as the full array.

    def pair_total(self, x: np.ndarray, idx=ALL_ARCS) -> np.ndarray:
        xt = np.where(self.is_traction[idx], x[self.partner[idx]], 0.0)
        return x[idx] + xt

    def costs(self, x: np.ndarray, idx=ALL_ARCS) -> np.ndarray:
        total = self.pair_total(x, idx)
        return self.fixed[idx] + congestion_time(self.kc[idx], total, self.cap[idx], self.beta)

    def derivatives(self, x: np.ndarray, idx=ALL_ARCS) -> np.ndarray:
        """d c_a / d x_a; for a traction arc this equals the cross derivative
        d c_a / d x_partner, which is what makes the interaction symmetric."""
        total = self.pair_total(x, idx)
        return congestion_derivative(self.kc[idx], total, self.cap[idx], self.beta)

    def beckmann(self, x: np.ndarray) -> float:
        d = self.diesel_arcs
        total = x[d] + x[self.electric_arcs]
        congestion = congestion_integral(self.kc[d], total, self.cap[d], self.beta)
        return float(congestion.sum() + flow_cost(x, self.fixed))


# --- shortest paths -----------------------------------------------------------


Adjacency = list[list[tuple[int, int]]]


def _adjacency(expanded: ExpandedNetwork, usable: np.ndarray) -> Adjacency:
    """Each node's usable out-arcs as (arc id, head), in arc-id order."""
    head, ok = expanded.head.tolist(), np.asarray(usable, dtype=bool).tolist()
    return [[(a, head[a]) for a in arcs if ok[a]] for arcs in expanded.out_arcs]


def _dijkstra(adjacency: Adjacency, cost: list, seeds, dist: list | None = None,
              settled: list | None = None) -> tuple[list, list]:
    """Label-setting shortest paths over `_adjacency` at the arc costs `cost`
    from the (label, node) pairs `seeds`, lowering `dist` (all inf when None)
    in place; cost ties keep the lowest arc id.  Seeded (0.0, source) it is
    a Dijkstra, and from labels some path reaches the repair of `screen`.
    The nodes are appended to `settled`, when given, as they are settled.

    A node's predecessor is the arc that set its label here, -1 where none
    did, settled when the node is popped: a later tie, which needs an arc of
    cost 0 back into it, could close a predecessor cycle.
    """
    n = len(adjacency)
    dist = [math.inf] * n if dist is None else dist
    pred = [-1] * n
    done = [False] * n
    heap = []
    for nd, v in seeds:
        if nd < dist[v]:
            dist[v] = nd
            heap.append((nd, v))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        done[u] = True
        if settled is not None:
            settled.append(u)
        for a, v in adjacency[u]:
            nd = d + cost[a]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = a
                push(heap, (nd, v))
            elif nd == dv and not done[v] and pred[v] >= 0 and a < pred[v]:
                pred[v] = a
    return dist, pred


# --- bush construction and labels ----------------------------------------------


def _toposort(expanded: ExpandedNetwork, arcs: np.ndarray, origin: int, L: np.ndarray) -> np.ndarray:
    """Topological node order of the bush with these arc ids: the origin,
    then by (min label L, node index) as far as the arcs allow.  That is
    the sorted order where every arc runs forward in it, else Kahn's
    algorithm from the origin, popping the ready node of smallest (L,
    index), which gives the sorted order wherever it is topological.
    Raises on a cycle or a node other than the origin without in-arcs."""
    n = expanded.n_nodes
    tails, heads = expanded.tail[arcs], expanded.head[arcs]
    indeg = np.bincount(heads, minlength=n)
    indeg[origin] = 0  # ranked first, so an arc into it fails the test
    nodes = indeg.nonzero()[0]
    order = np.concatenate(([origin], nodes[np.lexsort((nodes, L[nodes]))]))
    m = len(order)
    rank = np.full(n, m, dtype=np.int64)  # so does a tail off the bush
    rank[order] = np.arange(m)
    tails, heads = rank[tails], rank[heads]
    if (tails < heads).all():
        return order
    # Kahn in rank space: the smallest key is the smallest rank
    succ = heads[np.argsort(tails, kind="stable")].tolist()
    first = np.zeros(m + 2, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=m + 1), out=first[1:])
    first, indeg = first.tolist(), np.bincount(heads, minlength=m).tolist()
    ready = [0] if indeg[0] == 0 else []
    taken: list[int] = []
    pop, push, append = heapq.heappop, heapq.heappush, taken.append
    while ready:
        u = pop(ready)
        append(u)
        for h in succ[first[u] : first[u + 1]]:
            indeg[h] -= 1
            if indeg[h] == 0:
                push(ready, h)
    if len(taken) != m:
        raise ValueError("bush contains a cycle")
    return order[taken]


Labels = tuple[list[float], list[float], list[int], list[int]]


def shortest_longest_labels(
    expanded: ExpandedNetwork,
    bush: Bush,
    costs: np.ndarray,
    labels: Labels | None = None,
    start: int = 1,
    stop: int | None = None,
) -> Labels:
    """Min labels over all bush arcs and max labels over flow-carrying arcs.

    The min labels come from one flat loop over the pull adjacency: each
    node takes the lexicographic minimum of (L[tail] + c, arc id) over its
    inbound bush arcs, written with U = -inf and pred_max -1 when the next
    head starts.  A second loop over the flow-carrying arcs alone raises
    U[head] to U[tail] + c where that is larger.  Arcs come in (head
    position, arc id) order, so a tail is final before its out-arcs, and a
    strict comparison keeps the lowest arc id on a tie.  Every bush node but
    the origin has an inbound bush arc (`update_bush`), so each is written.
    Returns lists (L, U, pred_min, pred_max); nodes without flow-carrying
    inbound arcs keep U = -inf and never seed a flow shift.

    Labels made here on a tree take a straight pass instead, L[head] =
    L[tail] + c and pred_min its one inbound arc: with a finite tail label
    and cost, the minimum over that one candidate is these bits (a cost
    overflowed to inf sets pred_min where the general loop leaves -1, at a
    node with L = inf that no shift reads), and the new lists hold U = -inf
    and pred_max -1 already.  Given labels take the general loop, which
    resets them.

    Given `labels` from an earlier call on this bush, only the nodes at
    positions start..stop-1 of bush.order are relabelled, in place; the
    others keep their labels.  Each relabelled node is rebuilt from its
    inbound arcs alone, so the result is exact when no arc into an earlier
    node was added, or changed cost or flow, since that call.
    """
    fresh = labels is None
    if fresh:
        n = expanded.n_nodes
        labels = ([math.inf] * n, [-math.inf] * n, [-1] * n, [-1] * n)
        labels[0][bush.origin] = 0.0
        labels[1][bush.origin] = 0.0
    L, U, pmin, pmax = labels
    if stop is None:
        stop = len(bush.order)
    if start >= stop:
        return labels
    seg = bush.pull[bush.offsets[start] : bush.offsets[stop]]
    heads = expanded.head[seg].tolist()
    if not heads:
        return labels
    arcs, tails, cs = seg.tolist(), expanded.tail[seg].tolist(), costs[seg].tolist()
    inf, ninf = math.inf, -math.inf
    if fresh and not bush.merges.size:  # a tree: one inbound arc per head, its tail labelled
        for h, a, t, c in zip(heads, arcs, tails, cs):
            L[h] = L[t] + c
            pmin[h] = a
    else:
        # an unreached tail has L = inf and U = -inf, so its candidates never win
        v, lv, am = heads[0], inf, -1
        for h, a, t, c in zip(heads, arcs, tails, cs):
            if h != v:
                L[v], U[v], pmin[v], pmax[v] = lv, ninf, am, -1
                v, lv, am = h, inf, -1
            nl = L[t] + c
            if nl < lv:
                lv, am = nl, a
        L[v], U[v], pmin[v], pmax[v] = lv, ninf, am, -1
    for i in (bush.flow[seg] > 0.0).nonzero()[0].tolist():
        h, nu = heads[i], U[tails[i]] + cs[i]
        if nu > U[h]:
            U[h], pmax[h] = nu, arcs[i]
    return labels


def _initial_bush(
    expanded: ExpandedNetwork,
    adjacency: Adjacency,
    cost: list[float],
    origin_phys: int,
    dests: list[tuple[int, float]],
) -> Bush:
    """Shortest-path tree over `_adjacency`, demand loaded all-or-nothing, its
    nodes in Dijkstra's settle order, a topological one (module docstring)."""
    src = expanded.diesel_node(origin_phys)
    order: list[int] = []
    dist, pred = _dijkstra(adjacency, cost, [(0.0, src)], settled=order)
    missing = [s for s, _ in dests if not math.isfinite(dist[expanded.diesel_node(s)])]
    if missing:
        raise InfeasibleAssignmentError(
            f"origin {origin_phys}: no usable path to {missing}"
        )
    flow = np.zeros(expanded.n_arcs)
    for dest, d in dests:
        node = expanded.diesel_node(dest)
        while node != src:
            a = pred[node]
            flow[a] += d
            node = expanded.tail.item(a)
    bush = Bush(origin=src, flow=flow, demand=sum(d for _, d in dests))
    bush.set_arcs(expanded, np.array([pred[v] for v in order[1:]], dtype=np.int64), order, resort=False)
    return bush


def update_bush(
    expanded: ExpandedNetwork,
    bush: Bush,
    costs: np.ndarray,
    candidates: tuple[np.ndarray, np.ndarray, np.ndarray],
    labels: Labels,
) -> np.ndarray | None:
    """Drop spent arcs, add strictly improving ones, keep a topological order.

    An arc stays while it carries flow or is its head's min predecessor.  An
    arc joins when L[tail] + c < L[head] < inf, so between two bush nodes (a
    usable arc costs at least 0, so L[tail] < L[head] too); with every min
    predecessor kept, the node set never changes.  Only `candidates`, the
    solver's usable arcs into live nodes as (arc ids ascending, their tails,
    their heads), are tested, and by L[tail] + c < L[head] alone: a bush arc
    never passes, since L[head] is the minimum of those same sums over its
    inbound arcs, and the bush holds every live node its origin reaches, so
    a candidate into a node off it has a tail at L = inf (module docstring).
    With finite costs every bush node has a finite label, so the adds are
    those of the full rule, in ascending id.  Dropping arcs keeps an
    order topological, so `bush.order` stays unless an added arc runs
    backward in it.  Then the bush is sorted by min label, and again without
    the backward adds where a kept flow-carrying arc against the labels
    closes a cycle (61 of 270 sorts on seed-1 `assign-congested`; never on a
    tree: labels rise along each add and fall along no tree arc).  `labels`
    are the bush's at `costs`.
    Returns the added arc ids, None when the arc set stayed as it was.
    """
    n = expanded.n_nodes
    L = np.fromiter(labels[0], float, n)
    old = bush.pull.astype(np.int64)  # cast once, not at every index below
    keep = old  # without a merge, each node's one inbound arc is its min predecessor
    if bush.merges.size:
        pmin = np.fromiter(labels[2], np.int64, n)
        keep = old[(bush.flow[old] > 0.0) | (pmin[expanded.head[old]] == old)]
    arcs, tails, heads = candidates
    joins = L[tails] + costs[arcs] < L[heads]
    adds = arcs[joins]
    if adds.size == 0 and keep.size == old.size:
        return None
    new_arcs = np.concatenate((keep, adds))
    tails, heads = tails[joins], heads[joins]
    order = None
    if not (bush.pos[tails] < bush.pos[heads]).all():
        try:
            order = _toposort(expanded, new_arcs, bush.origin, L)
        except ValueError:
            adds = adds[bush.pos[tails] < bush.pos[heads]]
            new_arcs = np.concatenate((keep, adds))
            order = _toposort(expanded, new_arcs, bush.origin, L)
    # dropping arcs only leaves `pull` sorted
    bush.set_arcs(expanded, new_arcs, order, resort=order is not None or adds.size > 0)
    return adds if adds.size or keep.size < old.size else None


# --- Newton flow shift ----------------------------------------------------------


def newton_flow_shift(
    costs: np.ndarray,
    derivs: np.ndarray | dict[int, float],
    min_path: list[int],
    max_path: list[int],
    max_shift: float,
    partner: list[int] | np.ndarray,
) -> float:
    """Newton step moving flow from the max-cost to the min-cost segment.

    The numerator is the segment cost difference; the denominator sums the
    arc cost derivatives along both segments, doubling an arc whose traction
    partner sits on the same segment and cancelling one whose partner sits
    on the opposite segment.  Zero denominator (constant cost difference)
    falls back to half the clamp so repeated steps walk to the corner.
    Returned shift is clamped to [0, max_shift].  `costs`, `derivs` and
    `partner` are indexed by arc id; only the segment arcs are read.
    """
    diff = float(sum(costs[a] for a in max_path) - sum(costs[a] for a in min_path))
    if diff <= 0.0 or max_shift <= 0.0:
        return 0.0
    side = {a: 1.0 for a in min_path}
    side.update({a: -1.0 for a in max_path})
    den = 0.0
    for a, s in side.items():
        ps = side.get(partner[a])
        factor = 1.0 if ps is None else 1.0 + s * ps
        den += derivs[a] * factor
    if den <= 1e-300:
        return 0.5 * max_shift
    return min(diff / den, max_shift)


def _trace_segments(
    tail: list[int],
    node: int,
    pmin: list[int],
    pmax: list[int],
) -> tuple[list[int], list[int]]:
    """Arc lists (min segment, max segment) from the divergence node to `node`."""
    on_max = {}  # node -> arc leaving the max chain toward `node`
    u = node
    while pmax[u] >= 0:
        a = pmax[u]
        u = tail[a]
        on_max[u] = a
    min_path: list[int] = []
    u = node
    while u not in on_max:
        a = pmin[u]
        if a < 0:
            return [], []
        min_path.append(a)
        u = tail[a]
    diverge = u
    max_path: list[int] = []
    u = node
    while u != diverge:
        a = pmax[u]
        max_path.append(a)
        u = tail[a]
    min_path.reverse()
    max_path.reverse()
    return min_path, max_path


# --- the solver -------------------------------------------------------------------


class BushSolver:
    """Per-origin bushes equilibrated with safeguarded Newton shifts."""

    def __init__(
        self,
        expanded: ExpandedNetwork,
        usable: np.ndarray | None,
        od: ODMatrix,
        profiles: LinkCostTable,
        tol: float = 1.0e-6,
        max_iter: int = 500,
    ):
        self.expanded = expanded
        self.engine = CostEngine(expanded, profiles, usable)
        # no arc into a dead electric node (module docstring)
        electric = self.engine.usable & ~expanded.non_electric
        live = np.arange(expanded.n_nodes) % 2 == 0  # the diesel nodes
        live[expanded.tail[electric]] = live[expanded.head[electric]] = True
        into_live = self.engine.usable & live[expanded.head]
        self._adjacency = _adjacency(expanded, into_live)
        arcs = np.flatnonzero(into_live)  # the arcs update_bush tests for joining
        self._candidates = arcs, expanded.tail[arcs], expanded.head[arcs]
        self.od = od
        self.origins = od.by_origin()  # in origin order, as the bushes
        self.tol = tol
        self.max_iter = max_iter
        self.bushes: list[Bush] = []
        self._tail = expanded.tail.tolist()
        self._head = expanded.head.tolist()
        self._partner = self.engine.partner.tolist()
        # the safeguard's per-arc constants, as Python floats; cap ** beta is
        # a numpy scalar power, the same libm pow as Python's, but one that
        # overflows to inf on a huge capacity instead of raising
        beta = self.engine.beta
        self._b1 = b1 = beta + 1.0
        self._fixed = self.engine.fixed.tolist()
        self._kc = self.engine.kc.tolist()
        self._scale = [float(b1 * c**beta) for c in self.engine.cap]
        self._traction = self.engine.is_traction.tolist()
        # no pair total exceeds the total demand, and the safeguard raises
        # its totals to b1 on Python floats, which raise OverflowError
        try:
            od.total**b1
        except OverflowError:
            raise ValueError(f"total demand {od.total:.3e} t/day overflows the objective") from None
        self.x = np.zeros(expanded.n_arcs)
        self.cost = self.engine.costs(self.x)
        self._moved: dict[int, float] = {}  # arc -> flow moved, by the bush being swept
        self._broke = 0  # the bush whose spread exceeded the bound last time

    def _flow_eps(self, bush: Bush) -> float:
        return 1.0e-12 * max(1.0, bush.demand)

    def _shift_terms(self, min_path: list[int], max_path: list[int]) -> list[tuple]:
        """The objective change of moving flow from `max_path` to `min_path`,
        split into its parts that do not depend on the amount moved.

        One term per segment arc, min segment first: (side, fixed cost, pair),
        side +1 on the min and -1 on the max segment.  pair is None for a
        switch arc and for the second arc of a traction pair met; otherwise
        (kc, b1 * cap ** beta, pair total before, integral at that total,
        side of the partner or 0.0 when it is off the segments).
        """
        x = self.x
        fixed, kc, scale, b1 = self._fixed, self._kc, self._scale, self._b1
        traction, partner = self._traction, self._partner
        side = dict.fromkeys(min_path, 1.0)
        side.update(dict.fromkeys(max_path, -1.0))
        terms = []
        met: set[int] = set()
        for a, s in side.items():
            pair = None
            p = partner[a]
            if traction[a] and p not in met:
                before = x.item(a) + x.item(p)
                k, c = kc[a], scale[a]
                pair = (k, c, before, k * (before + before**b1 / c), side.get(p, 0.0))
            met.add(a)
            terms.append((s, fixed[a], pair))
        return terms

    def _objective_change(self, terms: list[tuple], dx: float) -> float:
        """Exact objective change of moving dx along the segments of `terms`."""
        b1 = self._b1
        out = 0.0
        for s, f, pair in terms:
            da = s * dx
            out += f * da
            if pair is not None:
                k, c, before, integral, ps = pair
                after = before + da + ps * dx
                out += k * (after + after**b1 / c) - integral
        return out

    def _apply_shift(
        self, bush: Bush, min_path: list[int], max_path: list[int], dx: float
    ) -> float:
        """Move dx from the max to the min segment, halving it up to 60 times
        while the exact objective change is positive; returns the applied dx
        (0 when the objective would still rise)."""
        if dx <= 0.0:
            return 0.0
        terms = self._shift_terms(min_path, max_path)
        df = self._objective_change(terms, dx)
        halvings = 0
        while df > 0.0 and halvings < 60:
            dx *= 0.5
            df = self._objective_change(terms, dx)
            halvings += 1
        if df > 0.0:
            return 0.0
        self._move(bush, min_path, max_path, dx)
        return dx

    def _drain(self, bush: Bush, min_path: list[int], max_path: list[int], dx: float) -> bool:
        """Move numerically dead flow dx (at most the bush's flow eps) from
        the max to the min segment whole, without the safeguard; returns
        False, with nothing moved, unless dx > 0 and the max segment costs
        more."""
        if dx <= 0.0:
            return False
        diff = float(sum(self.cost[a] for a in max_path) - sum(self.cost[a] for a in min_path))
        if diff <= 0.0:
            return False
        self._move(bush, min_path, max_path, dx)
        return True

    def _move(self, bush: Bush, min_path: list[int], max_path: list[int], dx: float) -> None:
        """Move dx from the max to the min segment."""
        moved = self._moved
        for a in min_path:
            bush.flow[a] += dx
            self.x[a] += dx
            moved[a] = moved.get(a, 0.0) + dx
        for a in max_path:
            bush.flow[a] -= dx
            self.x[a] -= dx
            moved[a] = moved.get(a, 0.0) - dx

    def _extrapolate(self, steps: list[tuple[Bush, np.ndarray, np.ndarray]], beckmann: float) -> float:
        """Step along this iteration's moves, (bush, arc ids, flow moved d_b)
        per bush, made conjugate to the last step taken, when the objective
        `beckmann` strictly falls (module docstring); returns the objective
        after, `beckmann` when no step is taken.  A step taken keeps the flow
        change lo * p_b it made on a bush as that bush's `step`, its q_b; no
        step taken keeps none."""
        engine = self.engine
        direction = np.zeros_like(self.x)
        for _, arcs, d_b in steps:
            direction[arcs] += d_b
        last = [bush for bush in self.bushes if bush.step is not None]
        if last:
            steps = self._conjugate(steps, last, direction)
            for bush in last:  # kept only when this step is taken
                bush.step = None
        t_max = math.inf
        with np.errstate(over="ignore"):  # a nearly cancelled p_b bounds nothing
            for bush, arcs, p_b in steps:
                out = p_b < 0.0
                if out.any():
                    t_max = min(t_max, float((bush.flow[arcs[out]] / -p_b[out]).min()))
        if not 0.0 < t_max < math.inf:
            return beckmann
        idx = np.flatnonzero(direction)
        base, slope = engine.pair_total(self.x, idx), engine.pair_total(direction, idx)
        fixed, kc, cap, d = engine.fixed[idx], engine.kc[idx], engine.cap[idx], direction[idx]

        def g(t: float) -> float:  # the objective's slope along d at step t
            return float(d @ (fixed + congestion_time(kc, base + t * slope, cap, engine.beta)))

        if g(0.0) >= 0.0:
            return beckmann
        lo, hi = (t_max if g(t_max) <= 0.0 else 0.0), t_max
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if g(mid) > 0.0 else (mid, hi)
        if lo <= 0.0:
            return beckmann
        before = self.x[idx]
        self.x[idx] = np.maximum(before + lo * d, 0.0)
        after = engine.beckmann(self.x)
        if not after < beckmann:
            self.x[idx] = before
            return beckmann
        for bush, arcs, p_b in steps:  # at t_max, rounding can leave -ulp on a bounding arc
            step = lo * p_b
            bush.flow[arcs] = np.maximum(bush.flow[arcs] + step, 0.0)
            bush.step = arcs, step
        touched = np.concatenate((idx, engine.partner[idx]))
        self.cost[touched] = engine.costs(self.x, touched)
        return after

    def _conjugate(self, steps: list[tuple[Bush, np.ndarray, np.ndarray]], last: list[Bush],
                   direction: np.ndarray) -> list[tuple[Bush, np.ndarray, np.ndarray]]:
        """The parts p_b = d_b + beta q_b of the direction p = d + beta q,
        with q the sum of the bushes' last steps, `direction` d on entry and
        p on return; `steps` itself where beta is 0 (module docstring)."""
        engine = self.engine
        q = np.zeros_like(self.x)
        for bush in last:
            arcs, q_b = bush.step
            q[arcs] += q_b
        near = q != 0.0
        near[engine.partner[near]] = True
        both = near.nonzero()[0]
        hq = engine.derivatives(self.x, both) * engine.pair_total(q, both)  # H q on q's arcs and partners
        qhq, dhq = float(q[both] @ hq), float(direction[both] @ hq)
        beta = -dhq / qhq if dhq < 0.0 < qhq else 0.0
        if not 0.0 < beta < math.inf:
            return steps
        direction += beta * q
        # merge d_b and beta q_b bush by bush, on dense scratch
        value, in_d = np.zeros_like(self.x), np.zeros(len(self.x), dtype=bool)
        parts = []
        for bush, arcs, d_b in steps:
            if bush.step is not None:
                q_arcs, q_b = bush.step
                value[q_arcs] = beta * q_b
                value[arcs] += d_b
                in_d[arcs] = True
                arcs = np.concatenate((arcs, q_arcs[~in_d[q_arcs]]))
                d_b = value[arcs]
                value[arcs], in_d[arcs] = 0.0, False
            parts.append((bush, arcs, d_b))
        moved = {bush for bush, _, _ in steps}
        parts += [(bush, bush.step[0], beta * bush.step[1]) for bush in last if bush not in moved]
        return parts

    def _equilibrate_bush(self, bush: Bush, labels: Labels, stale: int) -> None:
        """One sweep over the bush's merge positions in reverse topological
        order, at most one Newton shift each.  `labels` are the bush's labels
        at the current costs below position `stale`; the sweep relabels them
        lazily, in place (module docstring)."""
        if not bush.merges.size:
            return
        eps = self._flow_eps(bush)
        engine = self.engine
        tail, head, partner = self._tail, self._head, self._partner
        L, U, pmin, pmax = labels
        order, pos, pull, offsets = bush.order.tolist(), bush.pos, bush.pull, bush.offsets
        for i in reversed(bush.merges.tolist()):
            if stale <= i:
                shortest_longest_labels(self.expanded, bush, self.cost, labels, stale, i + 1)
                stale = i + 1
            v = order[i]
            # a max predecessor gives U > -inf; U - L is -inf or nan where L = inf
            if pmax[v] < 0 or pmin[v] == pmax[v] or not U[v] - L[v] > 0.0:
                continue
            min_path, max_path = _trace_segments(tail, v, pmin, pmax)
            max_shift = min((float(bush.flow[a]) for a in max_path), default=0.0)
            if max_shift <= 0.0:
                continue
            segments = min_path + max_path
            partners = [partner[a] for a in segments]
            touched = np.array(segments + partners)
            if max_shift <= eps:
                if not self._drain(bush, min_path, max_path, max_shift):
                    continue
            else:
                derivs = dict(zip(segments, engine.derivatives(self.x, touched[: len(segments)]).tolist()))
                dx = newton_flow_shift(self.cost, derivs, min_path, max_path, max_shift, partner)
                applied = self._apply_shift(bush, min_path, max_path, dx)
                if applied <= 0.0:
                    continue
                if max_shift - applied <= eps:
                    self._drain(bush, min_path, max_path, max_shift - applied)
            self.cost[touched] = engine.costs(self.x, touched)
            # segment arcs are bush arcs; a partner counts only when it is one
            stale = min(pos[head[a]] for a in segments)
            for a in partners:
                p = pos[head[a]]
                if 0 <= p < stale and a in pull[offsets[p] : offsets[p + 1]]:
                    stale = p

    def wardrop_violation(self, bound: float = math.inf) -> float:
        """Max relative L/U spread over flow-carrying nodes, all bushes.

        The visit starts at the bush that exceeded `bound` last time and
        stops at the first bush over it: the largest spread seen is then
        returned and `checked_gap` is None.  Else the gap is computed (module
        docstring), repairing passed bushes' labels once `_HELD` wait or the
        visit completes, so an early stop within `_HELD` bushes repairs none.
        """
        expanded, n = self.expanded, self.expanded.n_nodes
        dests = list(self.origins.values())
        reached = [None] * len(self.bushes)  # per bush, its distance at each destination
        held: list[tuple[int, np.ndarray]] = []  # (bush index, min labels) to repair
        worst = 0.0
        self.checked_gap = None
        def repair():
            arcs, tail, head = self._candidates
            cost = self.cost[arcs]
            cost_list = self.cost.tolist()  # what the repair reads
            for k, dist in held:
                L = dist.tolist()
                offered = dist[tail] + cost
                broken = offered < dist[head]
                if broken.any():
                    _dijkstra(self._adjacency, cost_list, zip(offered[broken].tolist(), head[broken].tolist()), L)
                reached[k] = {v: L[v] for v in (expanded.diesel_node(s) for s, _ in dests[k])}
            held.clear()
        first = self._broke
        for k in [*range(first, len(self.bushes)), *range(first)]:
            bush = self.bushes[k]
            L, U, _, _ = shortest_longest_labels(expanded, bush, self.cost)
            dist = np.fromiter(L, float, n)
            nodes = bush.order[1:]  # all but the origin
            lo, up = dist[nodes], np.fromiter(U, float, n)[nodes]
            ok = (up > -math.inf) & np.isfinite(lo)
            if ok.any():
                lo, up = lo[ok], up[ok]
                worst = max(worst, float(((up - lo) / np.maximum(np.abs(lo), 1.0e-12)).max()))
            if worst > bound:
                self._broke = k
                return worst
            held.append((k, dist))
            if len(held) == _HELD:
                repair()
        repair()
        self.checked_gap = _gap(expanded, self.origins, reached, flow_cost(self.x, self.cost))
        return worst

    def solve(self) -> tuple[FlowState, GapMetrics]:
        free_flow = self.engine.costs(np.zeros(self.expanded.n_arcs)).tolist()
        for origin, dests in self.origins.items():
            bush = _initial_bush(self.expanded, self._adjacency, free_flow, origin, dests)
            self.bushes.append(bush)
            self.x += bush.flow
        self.cost = self.engine.costs(self.x)

        trace: list[tuple[int, float, float | None]] = []
        gap = math.inf
        wardrop = math.inf
        iteration = 0
        prev_beckmann = math.inf
        for iteration in range(1, self.max_iter + 1):
            steps = []
            for bush in self.bushes:
                labels = shortest_longest_labels(self.expanded, bush, self.cost)
                added = update_bush(self.expanded, bush, self.cost, self._candidates, labels)
                if added is not None:  # the last step may hold a dropped arc
                    bush.step = None
                # stale from the first head of an added arc (module docstring)
                stale = len(bush.order)
                if added is not None and added.size:
                    stale = int(bush.pos[self.expanded.head[added]].min())
                self._equilibrate_bush(bush, labels, stale)
                if self._moved:
                    moved, self._moved = self._moved, {}
                    steps.append((bush, np.fromiter(moved, np.int64), np.fromiter(moved.values(), float)))
            beckmann = self._extrapolate(steps, self.engine.beckmann(self.x))
            if beckmann > prev_beckmann + 1.0e-9 * max(1.0, abs(prev_beckmann)):
                raise AssertionError("objective increased across an iteration")
            prev_beckmann = beckmann

            # A stop needs both the spread and the gap within tolerance.  A
            # spread known to exceed it rules a stop out, so the spread is only
            # completed, and the gap only computed, where they decide a stop
            # or go into the result.
            last = iteration == self.max_iter
            wardrop = self.wardrop_violation(math.inf if last else self.tol)
            checked = self.checked_gap is not None  # the spread within tolerance, or last
            if checked:
                gap = self.checked_gap
            trace.append((iteration, beckmann, gap if checked else None))
            if checked and gap <= self.tol and wardrop <= self.tol:
                break
        state = FlowState(x=self.x.copy(), cost=self.cost.copy())
        metrics = GapMetrics(
            relative_gap=gap,
            iteration=iteration,
            beckmann=prev_beckmann,
            wardrop_max=wardrop,
            converged=gap <= self.tol and wardrop <= self.tol,
            trace=trace,
        )
        return state, metrics


def solve_equilibrium(
    expanded: ExpandedNetwork,
    usable: np.ndarray | None,
    od: ODMatrix,
    profiles: LinkCostTable,
    tol: float = 1.0e-6,
    max_iter: int = 500,
    start: StartTable | None = None,
) -> tuple[FlowState, GapMetrics]:
    """One equilibrium; `start` is a converged solve to screen first, on arcs
    that `usable` holds, within its widest mask (module docstring)."""
    if start is not None:
        screened = start.screen(usable, tol)
        if screened is not None:
            return screened
    return BushSolver(expanded, usable, od, profiles, tol=tol, max_iter=max_iter).solve()


# --- diagnostics ----------------------------------------------------------------


def relative_gap(
    expanded: ExpandedNetwork,
    usable: np.ndarray,
    costs: np.ndarray,
    x: np.ndarray,
    od: ODMatrix,
) -> float:
    """(total cost - cost on current shortest paths) / latter; 0 for no demand."""
    origins = od.by_origin()
    adjacency, cost = _adjacency(expanded, usable), costs.tolist()
    dists = (_dijkstra(adjacency, cost, [(0.0, expanded.diesel_node(r))])[0] for r in origins)
    return _gap(expanded, origins, dists, flow_cost(x, costs))


def flow_cost(x: np.ndarray, costs: np.ndarray) -> float:
    """x . costs, where an arc without flow adds nothing, even at the
    infinite cost of an impassable traction side."""
    return float(x @ np.where(x == 0.0, 0.0, costs))


def _gap(
    expanded: ExpandedNetwork,
    origins: dict[int, list[tuple[int, float]]],
    dists,
    tstt: float,
) -> float:
    """The relative gap from each origin's node distances, in `origins` order,
    and the total cost `tstt`."""
    sptt = 0.0
    for (origin, dests), dist in zip(origins.items(), dists):
        for dest, d in dests:
            l = dist[expanded.diesel_node(dest)]
            if not math.isfinite(l):
                raise InfeasibleAssignmentError(f"no usable path {origin} -> {dest}")
            sptt += d * l
    if sptt <= 0.0:
        return 0.0
    return (tstt - sptt) / sptt
