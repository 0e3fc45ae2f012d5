"""Independent references the tests check railplan against.

Scalar versions of the bush machinery in railplan.equilibrium, the
straightforward forms of the solver's array-native hot path: a push-style
label pass over `out_arcs`, per-arc keep and add rules for the bush update, a
node-by-node Wardrop spread, a Bellman-Ford relative gap, a dict-based
objective change of a flow shift, and a sweep that recomputes every cost and
every label after each flow shift or drain.  The property tests require the
solver to agree with them exactly, bit for bit.

Also a method-of-successive-averages equilibrium, the dense cost Jacobian,
the per-arc generalized cost and an exhaustive design search.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from railplan.costmodel import LinkCostProfile
from railplan.design import DesignProblem, EvaluatedDesign
from railplan.equilibrium import (
    BushSolver,
    CostEngine,
    FlowState,
    InfeasibleAssignmentError,
    ODMatrix,
    _dijkstra,
    _trace_segments,
    newton_flow_shift,
)
from railplan.network import ArcKind, ExpandedNetwork


def oracle_labels(expanded, bush, costs):
    """(L, U, pred_min, pred_max) by one forward push pass in bush.order;
    cost ties keep the lowest arc id."""
    n = expanded.n_nodes
    L = np.full(n, math.inf)
    U = np.full(n, -math.inf)
    pmin = np.full(n, -1, dtype=np.int64)
    pmax = np.full(n, -1, dtype=np.int64)
    L[bush.origin] = 0.0
    U[bush.origin] = 0.0
    for u in bush.order:
        lu, uu = L[u], U[u]
        if not math.isfinite(lu):
            continue
        for a in expanded.out_arcs[u]:
            if a not in bush.arcs:
                continue
            v = expanded.head[a]
            c = costs[a]
            nl = lu + c
            if nl < L[v] or (nl == L[v] and a < pmin[v]):
                L[v] = nl
                pmin[v] = a
            if bush.flow[a] > 0.0 and uu > -math.inf:
                nu = uu + c
                if nu > U[v] or (nu == U[v] and a < pmax[v]):
                    U[v] = nu
                    pmax[v] = a
    return L, U, pmin, pmax


def oracle_toposort(expanded, arcs, origin):
    """Kahn's algorithm on dicts, smallest ready node first; raises on a cycle."""
    nodes = {origin}
    for a in arcs:
        nodes.add(int(expanded.tail[a]))
        nodes.add(int(expanded.head[a]))
    indeg = {u: 0 for u in nodes}
    out = {u: [] for u in nodes}
    for a in arcs:
        t, h = int(expanded.tail[a]), int(expanded.head[a])
        indeg[h] += 1
        out[t].append(h)
    ready = [u for u, k in sorted(indeg.items()) if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for h in out[u]:
            indeg[h] -= 1
            if indeg[h] == 0:
                heapq.heappush(ready, h)
    if len(order) != len(nodes):
        raise ValueError("bush contains a cycle")
    return order


def oracle_update(expanded, bush, costs, usable):
    """(arc set, order) that update_bush should leave on the bush; the bush
    itself is not modified.  Raises ValueError where update_bush must."""
    L, _, pmin, _ = oracle_labels(expanded, bush, costs)
    keep = {a for a in bush.arcs if bush.flow[a] > 0.0 or pmin[expanded.head[a]] == a}
    adds = set()
    for a in range(expanded.n_arcs):
        if not usable[a] or a in bush.arcs:
            continue
        t, h = int(expanded.tail[a]), int(expanded.head[a])
        if not (math.isfinite(L[t]) and math.isfinite(L[h])):
            continue
        if L[t] + costs[a] < L[h] and L[t] < L[h]:
            adds.add(a)
    new_arcs = keep | adds
    if new_arcs == bush.arcs:
        return set(bush.arcs), list(bush.order)
    try:
        order = oracle_toposort(expanded, new_arcs, bush.origin)
    except ValueError:
        pos = {u: i for i, u in enumerate(bush.order)}
        adds = {
            a
            for a in adds
            if pos.get(int(expanded.tail[a]), -1) < pos.get(int(expanded.head[a]), -1)
        }
        new_arcs = keep | adds
        order = oracle_toposort(expanded, new_arcs, bush.origin)
    return new_arcs, order


def pair_integral(engine, arc, total):
    """Congestion integral of the traction pair of `arc` at pair total `total`."""
    b1 = engine.beta + 1.0
    return engine.kc[arc] * (total + total**b1 / (b1 * engine.cap[arc] ** engine.beta))


def shift_delta(engine, x, deltas):
    """Exact objective change if arc flows move by `deltas` (arc -> change)."""
    out = 0.0
    seen_pairs = set()
    for a, da in deltas.items():
        out += engine.fixed[a] * da
        if not engine.is_traction[a]:
            continue
        p = int(engine.partner[a])
        key = min(a, p)
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        before = x[a] + x[p]
        after = before + da + deltas.get(p, 0.0)
        out += pair_integral(engine, a, after) - pair_integral(engine, a, before)
    return out


def oracle_wardrop(solver):
    """Max relative L/U spread over flow-carrying nodes of all the solver's
    bushes, node by node."""
    worst = 0.0
    for bush in solver.bushes:
        L, U, _, _ = oracle_labels(solver.expanded, bush, solver.cost)
        for v in bush.order:
            if v == bush.origin or U[v] <= -math.inf or not math.isfinite(L[v]):
                continue
            scale = max(abs(L[v]), 1.0e-12)
            worst = max(worst, (U[v] - L[v]) / scale)
    return worst


def oracle_relative_gap(expanded, usable, costs, x, od):
    """Relative gap with Bellman-Ford shortest paths over the usable arcs and
    the total cost summed arc by arc."""
    tail, head = expanded.tail.tolist(), expanded.head.tolist()
    arcs = [a for a in range(expanded.n_arcs) if usable[a]]
    sptt = 0.0
    for (r, s), d in sorted(od.demand.items()):
        if d <= 0.0:
            continue
        dist = [math.inf] * expanded.n_nodes
        dist[expanded.diesel_node(r)] = 0.0
        for _ in range(expanded.n_nodes):
            changed = False
            for a in arcs:
                nd = dist[tail[a]] + costs[a]
                if nd < dist[head[a]]:
                    dist[head[a]] = nd
                    changed = True
            if not changed:
                break
        sptt += d * dist[expanded.diesel_node(s)]
    tstt = sum(float(x[a]) * float(costs[a]) for a in range(expanded.n_arcs) if x[a] > 0.0)
    return (tstt - sptt) / sptt


class FullRelabelSolver(BushSolver):
    """BushSolver whose sweep recomputes all costs, all derivatives and a
    full scalar label pass after every applied shift, and whose safeguard
    evaluates the dict-based `shift_delta` at every halving.  Flow at or
    below the bush's flow eps is drained whole, booked at -diff * dx."""

    def _apply_shift(self, bush, min_path, max_path, dx):
        if dx <= 0.0:
            return 0.0
        deltas = {a: dx for a in min_path}
        deltas.update({a: -dx for a in max_path})
        df = shift_delta(self.engine, self.x, deltas)
        halvings = 0
        while df > 0.0 and halvings < 60:
            dx *= 0.5
            deltas = {a: dx for a in min_path}
            deltas.update({a: -dx for a in max_path})
            df = shift_delta(self.engine, self.x, deltas)
            halvings += 1
        if df > 0.0:
            return 0.0
        for a in min_path:
            bush.flow[a] += dx
            self.x[a] += dx
        for a in max_path:
            bush.flow[a] -= dx
            self.x[a] -= dx
        self._beckmann += df
        if self.record:
            self.shift_beckmann.append(self._beckmann)
        return dx

    def _drain(self, bush, min_path, max_path, dx):
        diff = float(sum(self.cost[a] for a in max_path) - sum(self.cost[a] for a in min_path))
        if dx <= 0.0 or diff <= 0.0:
            return False
        for a in min_path:
            bush.flow[a] += dx
            self.x[a] += dx
        for a in max_path:
            bush.flow[a] -= dx
            self.x[a] -= dx
        self._beckmann += -diff * dx
        if self.record:
            self.shift_beckmann.append(self._beckmann)
        return True

    def _equilibrate_bush(self, bush, labels):
        engine = self.engine
        eps = self._flow_eps(bush)
        L, U, pmin, pmax = oracle_labels(self.expanded, bush, self.cost)
        for v in reversed(bush.order):
            if pmax[v] < 0 or pmin[v] == pmax[v]:
                continue
            if not (math.isfinite(L[v]) and U[v] > -math.inf):
                continue
            if U[v] - L[v] <= 0.0:
                continue
            min_path, max_path = _trace_segments(self._tail, v, pmin.tolist(), pmax.tolist())
            if not max_path:
                continue
            max_shift = min(float(bush.flow[a]) for a in max_path)
            if max_shift <= 0.0:
                continue
            if max_shift <= eps:
                if not self._drain(bush, min_path, max_path, max_shift):
                    continue
            else:
                dx = newton_flow_shift(
                    self.cost,
                    engine.derivatives(self.x),
                    min_path,
                    max_path,
                    max_shift,
                    engine.partner,
                )
                applied = self._apply_shift(bush, min_path, max_path, dx)
                if applied <= 0.0:
                    continue
                remainder = max_shift - applied
                if 0.0 < remainder <= eps:
                    self._drain(bush, min_path, max_path, remainder)
            self.cost = engine.costs(self.x)
            L, U, pmin, pmax = oracle_labels(self.expanded, bush, self.cost)


def generalized_cost(profile: LinkCostProfile, x_d: float, x_e: float, kind: ArcKind) -> float:
    """Per-ton arc cost: shared congestion part plus the traction's fuel part."""
    return profile.congestion_cost(x_d + x_e) + profile.traction(kind).fuel_cost_per_ton


def _aon_flows(
    expanded: ExpandedNetwork,
    costs: np.ndarray,
    usable: np.ndarray,
    od: ODMatrix,
) -> np.ndarray:
    """All-or-nothing loading onto current shortest paths."""
    x = np.zeros(expanded.n_arcs)
    tail = expanded.tail.tolist()
    for origin, dests in od.by_origin().items():
        src = expanded.diesel_node(origin)
        dist, pred = _dijkstra(expanded, costs, src, usable)
        for dest, d in dests:
            node = expanded.diesel_node(dest)
            if not math.isfinite(dist[node]):
                raise InfeasibleAssignmentError(f"no usable path {origin} -> {dest}")
            while node != src:
                a = pred[node]
                x[a] += d
                node = tail[a]
    return x


def msa_reference(
    expanded: ExpandedNetwork,
    usable: np.ndarray | None,
    od: ODMatrix,
    profiles: dict[int, LinkCostProfile],
    iterations: int = 10_000,
) -> FlowState:
    """Method of successive averages with 1/k steps; slow but independent."""
    engine = CostEngine(expanded, profiles, usable)
    x = np.zeros(expanded.n_arcs)
    cost = engine.costs(x)
    for k in range(1, iterations + 1):
        y = _aon_flows(expanded, cost, engine.usable, od)
        x += (y - x) / k
        cost = engine.costs(x)
    return FlowState(x=x, cost=cost, beckmann=engine.beckmann(x))


def jacobian(
    expanded: ExpandedNetwork,
    profiles: dict[int, LinkCostProfile],
    x: np.ndarray,
    usable: np.ndarray | None = None,
) -> np.ndarray:
    """Dense cost Jacobian over usable arcs (rows/cols are arc ids).

    Only traction pairs couple, and all four entries of a pair's block are
    the same congestion derivative, so symmetry is exact in floating point.
    """
    n = expanded.n_arcs
    mask = np.ones(n, dtype=bool) if usable is None else np.asarray(usable, dtype=bool)
    J = np.zeros((n, n))
    for lid, (d, e) in expanded.pair_of.items():
        prof = profiles[lid]
        if mask[d] and mask[e]:
            g = prof.congestion_derivative(float(x[d] + x[e]))
            J[d, d] = J[d, e] = J[e, d] = J[e, e] = g
        elif mask[d]:
            J[d, d] = prof.congestion_derivative(float(x[d]))
        elif mask[e]:
            J[e, e] = prof.congestion_derivative(float(x[e]))
    return J


def brute_force(problem: DesignProblem) -> EvaluatedDesign:
    """Exhaustive optimum over all budget-feasible designs; n <= 20 only."""
    n = len(problem.corridors)
    if n > 20:
        raise ValueError(f"brute force capped at 20 corridors, got {n}")
    best: EvaluatedDesign | None = None
    best_key: tuple | None = None
    for mask in range(1 << n):
        bits = tuple((mask >> k) & 1 for k in range(n))
        if problem.union_cost(bits) > problem.budget:
            continue
        cand = problem.evaluate(bits)
        key = (cand.total_cost, sum(bits), bits)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    assert best is not None  # the empty design is always feasible
    return best
