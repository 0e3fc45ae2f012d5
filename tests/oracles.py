"""Independent references the tests check railplan against.

Scalar versions of the bush machinery in railplan.equilibrium, the
straightforward forms of the solver's array-native hot path: a push-style
label pass over `out_arcs`, per-arc keep and add rules for the bush update, a
node-by-node Wardrop spread, a Bellman-Ford relative gap, a dict-based
objective change of a flow shift, a sweep that visits every node rather than
the merges only, and one that recomputes every cost and every label after
each flow shift or drain.  The property tests require the solver to agree
with them exactly, bit for bit.  A recording solver books the objective
after every move the solver makes, from outside it.

The scalar link cost row: one link and one traction at a time, the notch by
a loop over the throttle levels and the speed by a scalar bisection.
`costmodel.build_profiles` must give its bits in every column.

Also a method-of-successive-averages equilibrium, the dense cost Jacobian,
the per-arc generalized cost, an exhaustive design search, corridor
enumeration by two searches per yard, and the expansion's arc table as one
object per arc, with the per-arc loops over it that the array-native
expansion, its consumers and its two CSV writers must match.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from railplan.corridors import Corridor, corridor_cost
from railplan.costmodel import (
    LinkCostTable,
    air_resistance,
    bearing_resistance,
    congestion_derivative,
    congestion_time,
    curve_resistance,
    flange_resistance,
    grade_resistance,
    TON_KG,
    _BISECTION_MAX_ITER,
    _BISECTION_TOL,
    _V_FLOOR,
)
from railplan.design import DesignProblem, EvaluatedDesign
from railplan.equilibrium import (
    BushSolver,
    CostEngine,
    FlowState,
    InfeasibleAssignmentError,
    ODMatrix,
    _adjacency,
    _dijkstra,
    _trace_segments,
    newton_flow_shift,
)
from railplan.network import ArcKind, ExpandedNetwork


def bush_arcs(bush):
    """The bush's arc ids as a set, read from its pull adjacency."""
    return set(bush.pull.tolist())


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
    arcs = bush_arcs(bush)
    for u in bush.order.tolist():
        lu, uu = L[u], U[u]
        if not math.isfinite(lu):
            continue
        for a in expanded.out_arcs[u]:
            if a not in arcs:
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
    itself is not modified.  The order stays when the arc set does, or when
    every added arc runs forward in it; otherwise the new arc set is sorted
    afresh, and on a cycle the adds that run backward in the old order are
    dropped before sorting.  Raises ValueError where update_bush must."""
    L, _, pmin, _ = oracle_labels(expanded, bush, costs)
    arcs = bush_arcs(bush)
    keep = {a for a in arcs if bush.flow[a] > 0.0 or pmin[expanded.head[a]] == a}
    adds = set()
    for a in range(expanded.n_arcs):
        if not usable[a] or a in arcs:
            continue
        t, h = int(expanded.tail[a]), int(expanded.head[a])
        if not (math.isfinite(L[t]) and math.isfinite(L[h])):
            continue
        if L[t] + costs[a] < L[h] and L[t] < L[h]:
            adds.add(a)
    new_arcs = keep | adds
    if new_arcs == arcs:
        return new_arcs, bush.order.tolist()
    old_order = bush.order.tolist()
    pos = {u: i for i, u in enumerate(old_order)}
    forward = {a for a in adds if pos[int(expanded.tail[a])] < pos[int(expanded.head[a])]}
    if forward == adds:
        return new_arcs, old_order
    try:
        order = oracle_toposort(expanded, new_arcs, bush.origin)
    except ValueError:
        new_arcs = keep | forward
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
        for v in bush.order.tolist():
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


class RecordingSolver(BushSolver):
    """BushSolver that books the objective after every move in
    `shift_beckmann`: seeded with the objective before the first move, then
    the running sum of each move's change.  An accepted shift adds its exact
    change, `_objective_change` at the applied dx; a drain adds its first
    order change -diff * dx; a step taken along the iteration's flow change
    adds the exact change `_extrapolate` computed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shift_beckmann: list[float] = []

    def _seed(self):
        if not self.shift_beckmann:
            self.shift_beckmann.append(self.engine.beckmann(self.x))

    def _book(self, change):
        self.shift_beckmann.append(self.shift_beckmann[-1] + change)

    def _apply_shift(self, bush, min_path, max_path, dx):
        self._seed()
        terms = self._shift_terms(min_path, max_path)
        applied = super()._apply_shift(bush, min_path, max_path, dx)
        if applied > 0.0:
            self._book(self._objective_change(terms, applied))
        return applied

    def _drain(self, bush, min_path, max_path, dx):
        self._seed()
        diff = float(sum(self.cost[a] for a in max_path) - sum(self.cost[a] for a in min_path))
        drained = super()._drain(bush, min_path, max_path, dx)
        if drained:
            self._book(-diff * dx)
        return drained

    def _extrapolate(self, steps, beckmann):
        self._seed()
        after = super()._extrapolate(steps, beckmann)
        if after != beckmann:
            self._book(after - beckmann)
        return after


class AllPositionsSolver(BushSolver):
    """BushSolver whose sweep visits every position but the origin's, as if
    every node were a merge.  The override stays until `set_arcs` next
    rebuilds the merges, so `update_bush` also runs its keep test on a
    tree."""

    def _equilibrate_bush(self, bush, labels, stale):
        bush.merges = np.arange(1, len(bush.order))
        super()._equilibrate_bush(bush, labels, stale)


class FullRelabelSolver(RecordingSolver):
    """RecordingSolver whose sweep recomputes all costs, all derivatives and
    a full scalar label pass after every applied shift, and whose safeguard
    evaluates, and books, the dict-based `shift_delta` at every halving.
    Its sweep labels the bush afresh, so it reads neither the given labels
    nor the position they are stale from."""

    def _apply_shift(self, bush, min_path, max_path, dx):
        self._seed()
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
        self._move(bush, min_path, max_path, dx)
        self._book(df)
        return dx

    def _equilibrate_bush(self, bush, labels, stale):
        engine = self.engine
        eps = self._flow_eps(bush)
        L, U, pmin, pmax = oracle_labels(self.expanded, bush, self.cost)
        for v in reversed(bush.order.tolist()):
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


def oracle_davis(link, consist, v, rates):
    """All speed-dependent and geometric terms, without braking."""
    return (
        bearing_resistance(consist, rates)
        + flange_resistance(v, consist, rates, link.k_f)
        + air_resistance(v, consist, rates, link.k_a)
        + grade_resistance(consist.train_mass_t, link.grade, rates)
        + curve_resistance(consist.train_mass_t, link.curve_radius_m, rates)
    )


class Impassable(RuntimeError):
    """No notch holds a positive speed against the link's resistance."""


def oracle_brake(link, consist, rates, levels):
    """Incidental braking, or on a steep downgrade the force that balances
    the minimum notch at the desired speed."""
    v_d = link.desired_speed or rates.desired_speed
    incidental = rates.brake_grade_equivalent * consist.train_mass_t * TON_KG * rates.gravity
    if link.grade >= 0.0:
        return incidental
    base = oracle_davis(link, consist, v_d, rates)
    if (base + incidental) * v_d >= levels[0]:
        return incidental
    return levels[0] / v_d - base


def oracle_power_speed(link, consist, rates, levels):
    """(P, v, t0): the smallest of the ascending notch powers `levels` that
    holds the desired speed, else the top notch at the bisected speed;
    raises Impassable."""
    v_d = link.desired_speed or rates.desired_speed
    brake = oracle_brake(link, consist, rates, levels)

    def load(v):
        return (oracle_davis(link, consist, v, rates) + brake) * v

    needed = load(v_d)
    for p in levels:
        if p >= needed:
            return p, v_d, link.length_km / (3.6 * v_d)
    p = levels[-1]
    lo, hi = _V_FLOOR, v_d
    if load(lo) > p:
        raise Impassable(f"link {link.id}: resistance exceeds {p:.3e} W at any positive speed")
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if load(mid) > p:
            hi = mid
        else:
            lo = mid
        if hi - lo < _BISECTION_TOL:
            break
    v = 0.5 * (lo + hi)
    return p, v, link.length_km / (3.6 * v)


def oracle_link_profile(link, consist, rates, throttles):
    """The link's row of the cost table, by column name."""
    per_ton = consist.cargo_mass_t
    row = {"capacity_tpd": link.capacity_tpd}
    for kind, eta, fuel_cost in (
        (ArcKind.DIESEL, rates.eta_diesel, rates.fuel_cost_diesel),
        (ArcKind.ELECTRIC, rates.eta_electric, rates.fuel_cost_electric),
    ):
        try:
            p, _, t0 = oracle_power_speed(link, consist, rates, throttles[kind])
            fuel, reachable = (t0 * 3600.0) * (p / eta) * fuel_cost / per_ton, True
        except Impassable:
            t0, fuel, reachable = math.inf, math.inf, False
        row[f"{kind.value}_fuel_per_ton"], row[f"{kind.value}_reachable"] = fuel, reachable
        if kind is ArcKind.DIESEL:
            row["t0_hr"] = t0
            row["congestion_coef"] = t0 * (rates.crew_rate + rates.cargo_rate) / per_ton if reachable else math.inf
    return row


def oracle_impassable_warnings(rows):
    """The warnings a build of these rows, keyed by link id, gives: one per
    traction side with impassable links, diesel first, naming the count and
    sorted ids."""
    out = []
    for kind in (ArcKind.DIESEL, ArcKind.ELECTRIC):
        ids = sorted(lid for lid, row in rows.items() if not row[f"{kind.value}_reachable"])
        if ids:
            out.append(f"{len(ids)} of {len(rows)} links impassable under {kind.value} traction: {ids}")
    return out


def generalized_cost(profiles: LinkCostTable, lid: int, x_d: float, x_e: float, kind: ArcKind) -> float:
    """Per-ton arc cost of link `lid`: shared congestion part plus the traction's fuel part."""
    j = profiles.link_ids.index(lid)
    congestion = congestion_time(
        profiles.congestion_coef[j].item(), x_d + x_e, profiles.capacity_tpd[j].item(), profiles.beta
    )
    return congestion + getattr(profiles, f"{kind.value}_fuel_per_ton")[j].item()


def _aon_flows(
    expanded: ExpandedNetwork,
    costs: np.ndarray,
    usable: np.ndarray,
    od: ODMatrix,
) -> np.ndarray:
    """All-or-nothing loading onto current shortest paths."""
    x = np.zeros(expanded.n_arcs)
    tail = expanded.tail.tolist()
    adjacency, cost = _adjacency(expanded, usable), costs.tolist()
    for origin, dests in od.by_origin().items():
        src = expanded.diesel_node(origin)
        dist, pred = _dijkstra(adjacency, cost, [(0.0, src)])
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
    profiles: LinkCostTable,
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
    return FlowState(x=x, cost=cost)


def jacobian(
    expanded: ExpandedNetwork,
    profiles: LinkCostTable,
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
    for j, (coef, cap) in enumerate(zip(profiles.congestion_coef.tolist(), profiles.capacity_tpd.tolist())):
        d, e = expanded.pair_of[profiles.link_ids[j]]
        if mask[d] and mask[e]:
            g = congestion_derivative(coef, float(x[d] + x[e]), cap, profiles.beta)
            J[d, d] = J[d, e] = J[e, d] = J[e, e] = g
        elif mask[d]:
            J[d, d] = congestion_derivative(coef, float(x[d]), cap, profiles.beta)
        elif mask[e]:
            J[e, e] = congestion_derivative(coef, float(x[e]), cap, profiles.beta)
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


def _pruned_lex_dijkstra(adjacency, source, prune_at):
    """Shortest paths as link-id tuples, smallest sequence winning ties; a
    settled node of prune_at other than the source is not expanded."""
    best = {}
    heap = [(0.0, (), source)]
    while heap:
        dist, path, u = heapq.heappop(heap)
        if u in best:
            continue
        best[u] = path
        if u != source and u in prune_at:
            continue
        for link_id, v, w in adjacency.get(u, ()):
            if v not in best:
                heapq.heappush(heap, (dist + w, path + (link_id,), v))
    return best


def oracle_corridors(net, weights, link_costs):
    """`candidate_corridors` by two searches per yard: a yard pair's shortest
    path is kept when a second search, which expands no yard but the source,
    finds the same path."""
    yards = net.yards()
    adjacency = {}
    for lid in sorted(net.links):
        link = net.links[lid]
        if link.candidate:
            if float(weights[lid]) <= 0.0:
                raise ValueError(f"link {lid}: nonpositive corridor weight")
            adjacency.setdefault(link.tail, []).append((lid, link.head, float(weights[lid])))
    full, pruned = {}, {}
    for y in yards:
        reach_full = _pruned_lex_dijkstra(adjacency, y, set())
        reach_pruned = _pruned_lex_dijkstra(adjacency, y, set(yards))
        others = [t for t in yards if t != y]
        full.update({(y, t): reach_full[t] for t in others if t in reach_full})
        pruned.update({(y, t): reach_pruned[t] for t in others if t in reach_pruned})
    kept = {}
    for (a, b), path in sorted(full.items()):
        if pruned.get((a, b)) != path:
            continue
        key = frozenset(frozenset((net.links[l].tail, net.links[l].head)) for l in path)
        if key not in kept or path < kept[key][0]:
            kept[key] = (path, a, b)
    rows = sorted(kept.values(), key=lambda r: (r[1], r[2], r[0]))
    for y in yards:
        if len(yards) > 1 and not any(y in (a, b) for _, a, b in rows):
            warnings.warn(f"yard {y}: no corridor starts or ends at it")
    return [
        Corridor(i, path, a, b, net.total_length_km(path), corridor_cost(path, link_costs))
        for i, (path, a, b) in enumerate(rows)
    ]


# --- the arc table, one object per arc ------------------------------------------


@dataclass(frozen=True)
class OracleArc:
    id: int
    kind: ArcKind
    tail: int  # expanded node index
    head: int
    physical_link: int | None = None
    partner: int | None = None  # the other traction arc of the pair
    fixed_cost: float = 0.0  # $/ton, switch arcs only


def oracle_arcs(net, switch_cost_per_ton):
    """The expansion's arcs, one object each, built in the documented order:
    link j's traction pair (2j, 2j+1) in sorted link-id order, then each
    yard's switch arcs, diesel to electric first, in sorted yard order."""
    node_index = {nid: k for k, nid in enumerate(sorted(net.nodes))}
    arcs = []
    for j, lid in enumerate(sorted(net.links)):
        t, h = node_index[net.links[lid].tail], node_index[net.links[lid].head]
        arcs.append(OracleArc(2 * j, ArcKind.DIESEL, 2 * t, 2 * h, lid, 2 * j + 1))
        arcs.append(OracleArc(2 * j + 1, ArcKind.ELECTRIC, 2 * t + 1, 2 * h + 1, lid, 2 * j))
    for nid in net.yards():
        k, w, a = node_index[nid], float(switch_cost_per_ton[nid]), len(arcs)
        arcs.append(OracleArc(a, ArcKind.SWITCH, 2 * k, 2 * k + 1, None, None, w))
        arcs.append(OracleArc(a + 1, ArcKind.SWITCH, 2 * k + 1, 2 * k, None, None, w))
    return arcs


def oracle_apply_design(arcs, electrified):
    """Every arc usable but the electric arcs of links left unelectrified."""
    chosen = set(electrified)
    return np.array([a.kind is not ArcKind.ELECTRIC or a.physical_link in chosen for a in arcs])


def oracle_aggregate_flows(arcs, x):
    """Per physical link, in arc order: (diesel flow, electric flow)."""
    return {a.physical_link: (float(x[a.id]), float(x[a.partner])) for a in arcs if a.kind is ArcKind.DIESEL}


def oracle_electric_tonnage_share(net, arcs, x):
    """Electric over all traction tonnage-km, summed arc by arc in arc order."""
    moved = electric = 0.0
    for a in arcs:
        if a.kind is ArcKind.SWITCH:
            continue
        tkm = float(x[a.id]) * net.links[a.physical_link].length_km
        moved += tkm
        if a.kind is ArcKind.ELECTRIC:
            electric += tkm
    return 0.0 if moved <= 0.0 else electric / moved


def oracle_arc_rows(arcs, node_label):
    """The rows of arcs.csv."""
    return [(a.id, a.kind.value, node_label(a.tail), node_label(a.head), a.physical_link, a.fixed_cost) for a in arcs]


def oracle_flow_rows(arcs, x, cost):
    """The rows of flows.csv."""
    return [(a.id, a.kind.value, a.physical_link, float(x[a.id]), float(cost[a.id])) for a in arcs]
