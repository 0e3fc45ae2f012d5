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
position of the head, arc id), with one offset per position, so a label pass
is one loop over an int array.  A sweep visits the nodes in reverse
topological order with at most one Newton shift per node.  A shift moves the
flow of the segment arcs only, so only their costs and those of their
traction partners are recomputed.  The labels are then recomputed only at
the positions from the earliest head of a changed bush arc up to the current
node.  This is exact: an earlier position has no changed inbound arc, so its
labels stand, and the sweep never reads a label at or after the current node
again.  Flows and costs come out bit for bit as if every cost and every label
were recomputed after each shift.  After a bush update only added arcs can
move a label (a dropped arc carried no flow and was no min predecessor), so
the relabel starts at the earliest head of an added arc.

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
order the change is -diff * dx, with diff > 0 the segment cost difference,
so that is the change booked, and the recorded objective never rises.

The relative gap costs one Dijkstra per origin.  It is computed only where
the Wardrop spread is within tolerance, or on the last iteration; a stop
needs both within tolerance, so every stop decision is unchanged.

A solve can be given a `start`: a converged equilibrium of the same demand on
a network with fewer usable arcs, such as the all-diesel one for a design.
If all the start's flow rides arcs usable here, its bushes are bushes here,
at the same costs, so their Wardrop spread stands; only the relative gap can
grow, since new arcs can shorten paths.  The start's flows are returned at
iteration 0 when its spread is within this solve's tolerance and its gap,
recomputed with this network's usable arcs, is too: they then meet the
stopping rule of this solve.  Otherwise the solve runs cold, exactly as
without a start.  A start that did not converge at this tolerance fails
one of the two tests: the gap here is never below the gap it stopped at.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .costmodel import (
    LinkCostProfile,
    congestion_derivative,
    congestion_integral,
    congestion_time,
)
from .network import ArcKind, ExpandedNetwork

ALL_ARCS = slice(None)


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
    """Arc flows (tons/day), their costs ($/ton), and the objective value."""

    x: np.ndarray
    cost: np.ndarray
    beckmann: float

    def physical_flows(self, expanded: ExpandedNetwork) -> dict[int, tuple[float, float]]:
        return expanded.aggregate_flows(self.x)


@dataclass
class GapMetrics:
    relative_gap: float
    iteration: int
    beckmann: float
    seconds: float
    wardrop_max: float = math.inf
    # both the relative gap and the Wardrop spread within tolerance
    converged: bool = False
    # (iteration, beckmann, relative gap or None where it was not computed, seconds)
    trace: list[tuple[int, float, float | None, float]] = field(default_factory=list)
    shift_beckmann: list[float] = field(default_factory=list)


@dataclass
class Bush:
    """Acyclic per-origin subnetwork plus this origin's arc flows.

    `pull` holds the bush arcs sorted by (position of the head in `order`,
    arc id); the arcs entering order[i] are pull[offsets[i]:offsets[i + 1]].
    """

    origin: int  # expanded node index
    arcs: set[int]
    order: list[int]  # topological node order, origin first
    flow: np.ndarray
    demand: float = 0.0
    pull: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int32))

    def set_arcs(self, expanded: ExpandedNetwork, arcs: np.ndarray, order: list[int]) -> None:
        """Install a new arc set with its topological order and rebuild `pull`."""
        pos = np.zeros(expanded.n_nodes, dtype=np.int64)
        pos[order] = np.arange(len(order))
        head_pos = pos[expanded.head[arcs]]
        self.arcs = set(arcs.tolist())
        self.order = order
        self.pull = arcs[np.lexsort((arcs, head_pos))].astype(np.int32)
        self.offsets = np.zeros(len(order) + 1, dtype=np.int32)
        np.cumsum(np.bincount(head_pos, minlength=len(order)), out=self.offsets[1:])


class CostEngine:
    """Vectorized arc costs, derivatives, and the objective for one network."""

    def __init__(
        self,
        expanded: ExpandedNetwork,
        profiles: dict[int, LinkCostProfile],
        usable: np.ndarray | None = None,
    ):
        n = expanded.n_arcs
        self.expanded = expanded
        self.fixed = np.zeros(n)
        self.kc = np.zeros(n)
        self.cap = np.ones(n)
        self.partner = np.arange(n)
        self.is_traction = np.zeros(n, dtype=bool)
        betas = {p.beta for p in profiles.values()}
        if len(betas) > 1:
            raise ValueError("profiles mix congestion exponents")
        self.beta = betas.pop() if betas else 4.0

        for arc in expanded.arcs:
            if arc.kind is ArcKind.SWITCH:
                self.fixed[arc.id] = arc.fixed_cost
                continue
            prof = profiles[arc.physical_link]
            tp = prof.traction(arc.kind)
            self.fixed[arc.id] = tp.fuel_cost_per_ton
            self.kc[arc.id] = prof.congestion_coef
            self.cap[arc.id] = prof.capacity_tpd
            self.partner[arc.id] = arc.partner
            self.is_traction[arc.id] = True

        self.diesel_arcs = np.array(
            [d for d, _ in (expanded.pair_of[l] for l in sorted(expanded.pair_of))],
            dtype=np.int64,
        )
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
        return float(congestion.sum() + self.fixed @ x)


# --- shortest paths -----------------------------------------------------------


def _dijkstra(
    expanded: ExpandedNetwork,
    costs: np.ndarray,
    source: int,
    usable: np.ndarray,
) -> tuple[list[float], list[int]]:
    """Label-setting shortest paths; cost ties keep the lowest arc id."""
    dist = [math.inf] * expanded.n_nodes
    pred = [-1] * expanded.n_nodes
    dist[source] = 0.0
    heap = [(0.0, source)]
    out_arcs = expanded.out_arcs
    head = expanded.head.tolist()
    cost = costs.tolist()
    ok = np.asarray(usable, dtype=bool).tolist()
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for a in out_arcs[u]:
            if not ok[a]:
                continue
            v = head[a]
            nd = d + cost[a]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = a
                push(heap, (nd, v))
            elif nd == dv and pred[v] >= 0 and a < pred[v]:
                pred[v] = a
    return dist, pred


# --- bush construction and labels ----------------------------------------------


def _toposort(expanded: ExpandedNetwork, arcs: np.ndarray, origin: int) -> list[int]:
    """Topological node order of the bush with these arc ids; raises on a cycle.

    Ready nodes are popped smallest-index-first so the order is reproducible.
    The origin is the bush's only node without inbound arcs, so it comes first.
    """
    n = expanded.n_nodes
    tails, heads = expanded.tail[arcs], expanded.head[arcs]
    in_bush = np.zeros(n, dtype=bool)
    in_bush[tails] = in_bush[heads] = in_bush[origin] = True
    indeg = np.bincount(heads, minlength=n)
    ready = np.flatnonzero(in_bush & (indeg == 0)).tolist()  # sorted, so a heap
    succ = heads[np.argsort(tails, kind="stable")].tolist()
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=first[1:])
    first = first.tolist()
    indeg = indeg.tolist()
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for h in succ[first[u] : first[u + 1]]:
            indeg[h] -= 1
            if indeg[h] == 0:
                heapq.heappush(ready, h)
    if len(order) != np.count_nonzero(in_bush):
        raise ValueError("bush contains a cycle")
    return order


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

    One pass over the pull adjacency in topological order: each node takes
    the lexicographic minimum of (L[tail] + c, arc id) over its inbound bush
    arcs, and the maximum of U[tail] + c (lowest arc id on ties) over its
    inbound flow-carrying arcs.  Returns lists (L, U, pred_min, pred_max);
    nodes without flow-carrying inbound arcs keep U = -inf and never seed a
    flow shift.

    Given `labels` from an earlier call on this bush, only the nodes at
    positions start..stop-1 of bush.order are relabelled, in place; the
    others keep their labels.  Each relabelled node is rebuilt from its
    inbound arcs alone, so the result is exact when no arc into an earlier
    node was added, or changed cost or flow, since that call.
    """
    if labels is None:
        n = expanded.n_nodes
        labels = ([math.inf] * n, [-math.inf] * n, [-1] * n, [-1] * n)
        labels[0][bush.origin] = 0.0
        labels[1][bush.origin] = 0.0
    L, U, pmin, pmax = labels
    order = bush.order
    if stop is None:
        stop = len(order)
    if start >= stop:
        return labels
    seg = bush.pull[bush.offsets[start] : bush.offsets[stop]]
    entries = zip(
        seg.tolist(),
        expanded.tail[seg].tolist(),
        costs[seg].tolist(),
        (bush.flow[seg] > 0.0).tolist(),
    )
    # an unreached tail has L = inf and U = -inf, so its candidates never win
    inf, ninf = math.inf, -math.inf
    bounds = bush.offsets[start : stop + 1].tolist()
    for v, lo, hi in zip(order[start:stop], bounds, bounds[1:]):
        lv, uv, am, ax = inf, ninf, -1, -1
        for a, t, c, carrying in islice(entries, hi - lo):
            nl = L[t] + c
            if nl < lv:
                lv, am = nl, a
            if carrying:
                nu = U[t] + c
                if nu > uv:
                    uv, ax = nu, a
        L[v], U[v], pmin[v], pmax[v] = lv, uv, am, ax
    return labels


def _initial_bush(
    expanded: ExpandedNetwork,
    costs: np.ndarray,
    usable: np.ndarray,
    origin_phys: int,
    dests: list[tuple[int, float]],
) -> Bush:
    """Shortest-path tree at the given costs, demand loaded all-or-nothing."""
    src = expanded.diesel_node(origin_phys)
    dist, pred = _dijkstra(expanded, costs, src, usable)
    missing = [s for s, _ in dests if not math.isfinite(dist[expanded.diesel_node(s)])]
    if missing:
        raise InfeasibleAssignmentError(
            f"origin {origin_phys}: no usable path to {missing}"
        )
    arcs = np.array(sorted(a for a in pred if a >= 0), dtype=np.int64)
    flow = np.zeros(expanded.n_arcs)
    tail = expanded.tail.tolist()
    for dest, d in dests:
        node = expanded.diesel_node(dest)
        while node != src:
            a = pred[node]
            flow[a] += d
            node = tail[a]
    bush = Bush(origin=src, arcs=set(), order=[], flow=flow, demand=sum(d for _, d in dests))
    bush.set_arcs(expanded, arcs, _toposort(expanded, arcs, src))
    return bush


def update_bush(
    expanded: ExpandedNetwork,
    bush: Bush,
    costs: np.ndarray,
    usable: np.ndarray,
    labels: Labels | None = None,
) -> bool:
    """Drop spent arcs, add strictly improving ones, refresh the order.

    An arc stays while it carries flow or is its head's min predecessor.  An
    arc joins when L[tail] + c < L[head] with L[tail] < L[head]; the label
    ordering keeps the bush acyclic, and a topological sort verifies it.
    `labels` are the bush's labels at `costs`, when the caller has them.
    Returns True when the arc set changed.
    """
    if labels is None:
        labels = shortest_longest_labels(expanded, bush, costs)
    L, _, pmin, _ = labels
    L = np.array(L)
    old = bush.pull.astype(np.int64)
    keep = old[(bush.flow[old] > 0.0) | (np.array(pmin)[expanded.head[old]] == old)]
    outside = np.asarray(usable, dtype=bool).copy()
    outside[old] = False
    Lt, Lh = L[expanded.tail], L[expanded.head]
    improving = np.isfinite(Lt) & np.isfinite(Lh) & (Lt + costs < Lh) & (Lt < Lh)
    adds = np.flatnonzero(outside & improving)
    if adds.size == 0 and keep.size == old.size:
        return False
    new_arcs = np.concatenate((keep, adds))
    try:
        order = _toposort(expanded, new_arcs, bush.origin)
    except ValueError:
        # rare tie pathology: keep only additions consistent with the old order
        pos = np.full(expanded.n_nodes, -1, dtype=np.int64)
        pos[bush.order] = np.arange(len(bush.order))
        adds = adds[pos[expanded.tail[adds]] < pos[expanded.head[adds]]]
        new_arcs = np.concatenate((keep, adds))
        order = _toposort(expanded, new_arcs, bush.origin)
    changed = adds.size > 0 or keep.size < old.size
    bush.set_arcs(expanded, new_arcs, order)
    return changed


# --- Newton flow shift ----------------------------------------------------------


def newton_flow_shift(
    costs: np.ndarray,
    derivs: np.ndarray | dict[int, float],
    min_path: list[int],
    max_path: list[int],
    max_shift: float,
    partner: np.ndarray,
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
        ps = side.get(int(partner[a]))
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
        profiles: dict[int, LinkCostProfile],
        tol: float = 1.0e-6,
        max_iter: int = 500,
        record_shift_beckmann: bool = False,
        start: tuple[FlowState, GapMetrics] | None = None,
    ):
        self.expanded = expanded
        self.start = start
        self.engine = CostEngine(expanded, profiles, usable)
        self.od = od
        self.tol = tol
        self.max_iter = max_iter
        self.record = record_shift_beckmann
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
        self.shift_beckmann: list[float] = []
        self._beckmann = 0.0

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
        self._move(bush, min_path, max_path, dx, df)
        return dx

    def _drain(self, bush: Bush, min_path: list[int], max_path: list[int], dx: float) -> bool:
        """Move numerically dead flow dx (at most the bush's flow eps) from
        the max to the min segment whole, without the safeguard, and book
        the first-order objective change -diff * dx; returns False, with
        nothing moved, unless dx > 0 and the max segment costs more."""
        if dx <= 0.0:
            return False
        diff = float(sum(self.cost[a] for a in max_path) - sum(self.cost[a] for a in min_path))
        if diff <= 0.0:
            return False
        self._move(bush, min_path, max_path, dx, -diff * dx)
        return True

    def _move(
        self, bush: Bush, min_path: list[int], max_path: list[int], dx: float, df: float
    ) -> None:
        """Move dx from the max to the min segment and book df."""
        for a in min_path:
            bush.flow[a] += dx
            self.x[a] += dx
        for a in max_path:
            bush.flow[a] -= dx
            self.x[a] -= dx
        self._beckmann += df
        if self.record:
            self.shift_beckmann.append(self._beckmann)

    def _equilibrate_bush(self, bush: Bush, labels: Labels) -> None:
        """One sweep over the bush in reverse topological order, at most one
        Newton shift per node.

        After a shift only the costs of the segment arcs and their traction
        partners change, and only the nodes from the earliest head of such a
        bush arc up to the current node are relabelled: the sweep reads no
        label at or after the current node again.  `labels` are the bush's
        labels at the current costs; they are updated in place.
        """
        eps = self._flow_eps(bush)
        engine = self.engine
        tail, head, partner = self._tail, self._head, self._partner
        L, U, pmin, pmax = labels
        order = bush.order
        pos = None
        for i in range(len(order) - 1, 0, -1):
            v = order[i]
            if pmax[v] < 0 or pmin[v] == pmax[v]:
                continue
            if not (math.isfinite(L[v]) and U[v] > -math.inf):
                continue
            if U[v] - L[v] <= 0.0:
                continue
            min_path, max_path = _trace_segments(tail, v, pmin, pmax)
            if not max_path:
                continue
            max_shift = min(float(bush.flow[a]) for a in max_path)
            if max_shift <= 0.0:
                continue
            segments = min_path + max_path
            if max_shift <= eps:
                if not self._drain(bush, min_path, max_path, max_shift):
                    continue
            else:
                derivs = dict(zip(segments, engine.derivatives(self.x, np.array(segments)).tolist()))
                dx = newton_flow_shift(self.cost, derivs, min_path, max_path, max_shift, engine.partner)
                applied = self._apply_shift(bush, min_path, max_path, dx)
                if applied <= 0.0:
                    continue
                if max_shift - applied <= eps:
                    self._drain(bush, min_path, max_path, max_shift - applied)
            touched = segments + [partner[a] for a in segments]
            self.cost[touched] = engine.costs(self.x, np.array(touched))
            if pos is None:
                pos = {u: k for k, u in enumerate(order)}
            first = min(pos[head[a]] for a in touched if a in bush.arcs)
            shortest_longest_labels(self.expanded, bush, self.cost, labels, first, i)

    def wardrop_violation(self, bound: float = math.inf) -> float:
        """Max relative L/U spread over flow-carrying nodes, all bushes.

        Bushes are visited in order and the visit stops at the first bush
        whose spread exceeds `bound`; the value returned is then that
        spread, which is still above `bound`.
        """
        worst = 0.0
        for bush in self.bushes:
            L, U, _, _ = shortest_longest_labels(self.expanded, bush, self.cost)
            nodes = bush.order[1:]  # all but the origin
            lo, up = np.array(L)[nodes], np.array(U)[nodes]
            ok = (up > -math.inf) & np.isfinite(lo)
            if ok.any():
                lo, up = lo[ok], up[ok]
                worst = max(worst, float(((up - lo) / np.maximum(np.abs(lo), 1.0e-12)).max()))
            if worst > bound:
                break
        return worst

    def _screen(self, started: float) -> tuple[FlowState, GapMetrics] | None:
        """The start's flows at iteration 0 when they meet this solve's
        stopping rule (module docstring), else None."""
        state, metrics = self.start
        usable = self.engine.usable
        if metrics.wardrop_max > self.tol or np.any(state.x[~usable] > 0.0):
            return None
        cost = self.engine.costs(state.x)
        gap = relative_gap(self.expanded, usable, cost, state.x, self.od)
        if gap > self.tol:
            return None
        seconds = time.perf_counter() - started
        return FlowState(x=state.x.copy(), cost=cost, beckmann=metrics.beckmann), GapMetrics(
            relative_gap=gap,
            iteration=0,
            beckmann=metrics.beckmann,
            seconds=seconds,
            wardrop_max=metrics.wardrop_max,
            converged=True,
            trace=[(0, metrics.beckmann, gap, seconds)],
        )

    def solve(self) -> tuple[FlowState, GapMetrics]:
        started = time.perf_counter()
        if self.start is not None:
            screened = self._screen(started)
            if screened is not None:
                return screened
        origins = self.od.by_origin()
        usable = self.engine.usable
        free_flow = self.engine.costs(np.zeros(self.expanded.n_arcs))
        for origin in sorted(origins):
            bush = _initial_bush(self.expanded, free_flow, usable, origin, origins[origin])
            self.bushes.append(bush)
            self.x += bush.flow
        self.cost = self.engine.costs(self.x)
        self._beckmann = self.engine.beckmann(self.x)
        if self.record:
            self.shift_beckmann.append(self._beckmann)

        trace: list[tuple[int, float, float | None, float]] = []
        gap = math.inf
        wardrop = math.inf
        iteration = 0
        prev_beckmann = math.inf
        for iteration in range(1, self.max_iter + 1):
            for bush in self.bushes:
                labels = shortest_longest_labels(self.expanded, bush, self.cost)
                arcs = bush.arcs
                if update_bush(self.expanded, bush, self.cost, usable, labels):
                    # a dropped arc carried no flow and was no min predecessor,
                    # so only added arcs move labels: relabel from the first
                    # head of one in the new order
                    pos = {u: i for i, u in enumerate(bush.order)}
                    first = min((pos[self._head[a]] for a in bush.arcs - arcs), default=len(pos))
                    shortest_longest_labels(self.expanded, bush, self.cost, labels, first)
                self._equilibrate_bush(bush, labels)
            beckmann = self.engine.beckmann(self.x)
            if beckmann > prev_beckmann + 1.0e-9 * max(1.0, abs(prev_beckmann)):
                raise AssertionError("objective increased across an iteration")
            prev_beckmann = beckmann
            # _beckmann stays on the accumulated track: resyncing it to the
            # recompute here could inject a float-noise rise into the recorded
            # per-shift sequence

            # A stop needs both the spread and the gap within tolerance.  A
            # spread known to exceed it rules a stop out, so the spread is only
            # completed, and the gap (one Dijkstra per origin) only computed,
            # where they decide a stop or go into the result.
            last = iteration == self.max_iter
            wardrop = self.wardrop_violation(math.inf if last else self.tol)
            checked = wardrop <= self.tol or last
            if checked:
                gap = relative_gap(self.expanded, usable, self.cost, self.x, self.od)
            trace.append((iteration, beckmann, gap if checked else None, time.perf_counter() - started))
            if checked and gap <= self.tol and wardrop <= self.tol:
                break
        state = FlowState(x=self.x.copy(), cost=self.cost.copy(), beckmann=prev_beckmann)
        metrics = GapMetrics(
            relative_gap=gap,
            iteration=iteration,
            beckmann=prev_beckmann,
            seconds=time.perf_counter() - started,
            wardrop_max=wardrop,
            converged=gap <= self.tol and wardrop <= self.tol,
            trace=trace,
            shift_beckmann=self.shift_beckmann,
        )
        return state, metrics


def solve_equilibrium(
    expanded: ExpandedNetwork,
    usable: np.ndarray | None,
    od: ODMatrix,
    profiles: dict[int, LinkCostProfile],
    tol: float = 1.0e-6,
    max_iter: int = 500,
    record_shift_beckmann: bool = False,
    start: tuple[FlowState, GapMetrics] | None = None,
) -> tuple[FlowState, GapMetrics]:
    """One equilibrium; `start` is a converged solve to screen first (module
    docstring)."""
    solver = BushSolver(
        expanded,
        usable,
        od,
        profiles,
        tol=tol,
        max_iter=max_iter,
        record_shift_beckmann=record_shift_beckmann,
        start=start,
    )
    return solver.solve()


# --- diagnostics ----------------------------------------------------------------


def relative_gap(
    expanded: ExpandedNetwork,
    usable: np.ndarray,
    costs: np.ndarray,
    x: np.ndarray,
    od: ODMatrix,
) -> float:
    """(total cost - cost on current shortest paths) / latter; 0 for no demand."""
    sptt = 0.0
    for origin, dests in od.by_origin().items():
        src = expanded.diesel_node(origin)
        dist, _ = _dijkstra(expanded, costs, src, usable)
        for dest, d in dests:
            l = dist[expanded.diesel_node(dest)]
            if not math.isfinite(l):
                raise InfeasibleAssignmentError(f"no usable path {origin} -> {dest}")
            sptt += d * l
    if sptt <= 0.0:
        return 0.0
    tstt = float(x @ costs)
    return (tstt - sptt) / sptt
