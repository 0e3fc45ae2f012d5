"""Lower-level assignment: costs, bushes, Newton shifts, and the solver."""

import math

import networkx as nx
import numpy as np
import pytest
from scipy.integrate import quad

from railplan import equilibrium
from railplan.corridors import candidate_corridors
from railplan.costmodel import (
    ElectrificationRates,
    RateTable,
    TrainConsist,
    build_profiles,
    congestion_derivative,
    congestion_time,
    electrification_costs,
)
from railplan.equilibrium import (
    Bush,
    BushSolver,
    CostEngine,
    InfeasibleAssignmentError,
    ODMatrix,
    newton_flow_shift,
    relative_gap,
    shortest_longest_labels,
    solve_equilibrium,
    update_bush,
    _toposort,
)
from railplan.network import ArcKind, Node, PhysicalLink, RailNetwork, apply_design

from oracles import RecordingSolver, bush_arcs, jacobian, msa_reference
from synth import (
    assembled_instance,
    electric_node,
    line_network,
    random_network,
    random_od,
    stall_instance,
    two_path_network,
)


def solved(net, od, electrified=None, tol=1e-8, rates=None, **kw):
    expanded, profiles = assembled_instance(net, rates=rates)
    usable = apply_design(expanded, electrified or set())
    solver = BushSolver(expanded, usable, od, profiles, tol=tol, **kw)
    state, metrics = solver.solve()
    return expanded, profiles, usable, solver, state, metrics


# --- od matrix ------------------------------------------------------------------


def test_od_matrix_validation():
    with pytest.raises(ValueError, match="negative"):
        ODMatrix({(0, 1): -5.0})
    with pytest.raises(ValueError, match="self-loop"):
        ODMatrix({(2, 2): 10.0})
    od = ODMatrix({(3, 1): 5.0, (0, 2): 7.0, (0, 1): 1.0})
    assert od.total == pytest.approx(13.0)
    by = od.by_origin()
    assert list(by) == [0, 3]
    assert by[0] == [(1, 1.0), (2, 7.0)]


@pytest.mark.parametrize("demand", [math.nan, math.inf, -math.inf])
def test_od_matrix_rejects_non_finite_demand(demand):
    with pytest.raises(ValueError, match="non-finite"):
        ODMatrix({(0, 1): 5.0, (1, 0): demand})


# --- cost engine ---------------------------------------------------------------------


def test_beckmann_matches_quadrature(two_path_net):
    expanded, profiles = assembled_instance(two_path_net)
    engine = CostEngine(expanded, profiles)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.0, 3.0e4, size=expanded.n_arcs)
        oracle = 0.0
        for a in range(expanded.n_arcs):
            oracle += engine.fixed[a] * x[a]
        for j, lid in enumerate(profiles.link_ids):
            d, e = expanded.pair_of[lid]
            coef, cap = profiles.congestion_coef[j], profiles.capacity_tpd[j]
            total = float(x[d] + x[e])
            val, err = quad(lambda y: congestion_time(coef, y, cap, profiles.beta), 0.0, total)
            assert err < 1e-8 * max(1.0, abs(val))
            oracle += val
        assert engine.beckmann(x) == pytest.approx(oracle, rel=1e-9)


def test_costs_and_derivatives_consistent(two_path_net):
    expanded, profiles = assembled_instance(two_path_net)
    engine = CostEngine(expanded, profiles)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 2.5e4, size=expanded.n_arcs)
    costs = engine.costs(x)
    derivs = engine.derivatives(x)
    for j, lid in enumerate(profiles.link_ids):
        d, e = expanded.pair_of[lid]
        args = (profiles.congestion_coef[j], float(x[d] + x[e]), profiles.capacity_tpd[j], profiles.beta)
        assert costs[d] == pytest.approx(
            congestion_time(*args) + profiles.diesel_fuel_per_ton[j], rel=1e-12
        )
        assert costs[e] == pytest.approx(
            congestion_time(*args) + profiles.electric_fuel_per_ton[j], rel=1e-12
        )
        # both pair members carry the identical derivative value
        assert derivs[d] == derivs[e] == pytest.approx(congestion_derivative(*args), rel=1e-12)
    for yard, (d2e, e2d) in expanded.switch_arcs_at.items():
        assert derivs[d2e] == 0.0 and derivs[e2d] == 0.0
        assert costs[d2e] == engine.fixed[d2e]


def test_beckmann_gradient_is_cost(two_path_net):
    expanded, profiles = assembled_instance(two_path_net)
    engine = CostEngine(expanded, profiles)
    rng = np.random.default_rng(5)
    x = rng.uniform(1.0e3, 2.0e4, size=expanded.n_arcs)
    costs = engine.costs(x)
    h = 1.0
    for a in range(expanded.n_arcs):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        fd = (engine.beckmann(xp) - engine.beckmann(xm)) / (2.0 * h)
        assert fd == pytest.approx(costs[a], rel=1e-6)


def test_shift_delta_matches_full_recompute(two_path_net):
    # the safeguard's objective change of a shift against two full objectives
    expanded, profiles = assembled_instance(two_path_net)
    solver = BushSolver(expanded, None, ODMatrix({}), profiles)
    rng = np.random.default_rng(6)
    solver.x = x = rng.uniform(0.0, 2.0e4, size=expanded.n_arcs)
    min_path, max_path, dx = [0, 4], [1, expanded.n_arcs - 1], 250.0
    terms = solver._shift_terms(min_path, max_path)
    x2 = x.copy()
    x2[min_path] += dx
    x2[max_path] -= dx
    exact = solver.engine.beckmann(x2) - solver.engine.beckmann(x)
    assert solver._objective_change(terms, dx) == pytest.approx(exact, rel=1e-9)


def test_cost_engine_rejects_another_networks_table(two_path_net):
    # the same six links under other ids: row j would price the wrong pair
    from dataclasses import replace

    expanded, _ = assembled_instance(two_path_net)
    other = RailNetwork.build(
        two_path_net.nodes.values(), [replace(l, id=l.id + 10) for l in two_path_net.links.values()]
    )
    profiles = build_profiles(other, TrainConsist(), RateTable())
    assert len(profiles.link_ids) == len(expanded.link_ids)
    with pytest.raises(ValueError, match="other links"):
        CostEngine(expanded, profiles)
    with pytest.raises(ValueError, match="other links"):
        solve_equilibrium(expanded, None, ODMatrix({(0, 1): 1.0e4}), profiles)


# --- newton shift -------------------------------------------------------------------


def test_newton_shift_linear_costs_one_step():
    # parallel arcs c0 = x0, c1 = 1 + x1, demand 3 all on arc 0:
    # equilibrium is x = (2, 1); constant derivatives solve it in one step
    x = np.array([3.0, 0.0])
    costs = np.array([x[0], 1.0 + x[1]])
    derivs = np.array([1.0, 1.0])
    off = np.array([2, 3])  # traction partners on neither segment
    dx = newton_flow_shift(costs, derivs, [1], [0], max_shift=3.0, partner=off)
    assert dx == pytest.approx(1.0, rel=1e-12)
    x[0] -= dx
    x[1] += dx
    assert tuple(x) == (2.0, 1.0)
    costs = np.array([x[0], 1.0 + x[1]])
    assert newton_flow_shift(costs, derivs, [1], [0], max_shift=2.0, partner=off) == 0.0


def test_newton_shift_clamps_and_rejects():
    costs = np.array([1.0, 5.0])
    derivs = np.array([1.0, 1.0])
    off = np.array([2, 3])  # traction partners on neither segment
    assert newton_flow_shift(costs, derivs, [0], [1], max_shift=0.5, partner=off) == 0.5
    assert newton_flow_shift(costs, derivs, [1], [0], max_shift=9.0, partner=off) == 0.0
    assert newton_flow_shift(costs, derivs, [0], [1], max_shift=0.0, partner=off) == 0.0


def test_newton_shift_partner_cancellation():
    # min and max arcs are the two sides of one traction pair: the congestion
    # term cancels, the difference is constant, fall back to half the clamp
    costs = np.array([4.0, 7.0])
    derivs = np.array([2.5, 2.5])
    partner = np.array([1, 0])
    dx = newton_flow_shift(costs, derivs, [0], [1], 10.0, partner=partner)
    assert dx == 5.0


def test_newton_shift_partner_doubling():
    # both pair members on the min segment double each arc's derivative;
    # the max arc's partner (arc 3) sits on neither segment
    costs = np.array([1.0, 1.0, 6.0])
    derivs = np.array([1.0, 1.0, 1.0])
    partner = np.array([1, 0, 3])
    dx = newton_flow_shift(costs, derivs, [0, 1], [2], 10.0, partner=partner)
    assert dx == pytest.approx(4.0 / 5.0, rel=1e-12)


# --- bush machinery ---------------------------------------------------------------


def test_labels_match_path_enumeration(two_path_net):
    od = ODMatrix({(0, 1): 2.5e4})
    expanded, _, _, solver, _, _ = solved(two_path_net, od)
    bush = solver.bushes[0]
    costs = solver.cost
    L, U, pmin, pmax = shortest_longest_labels(expanded, bush, costs)

    # exhaustive DFS over bush arcs
    paths: dict[int, list[tuple[float, bool]]] = {bush.origin: [(0.0, True)]}
    arcs = bush_arcs(bush)
    for u in bush.order.tolist():
        for a in expanded.out_arcs[u]:
            if a not in arcs:
                continue
            v = expanded.head[a]
            for cost_u, carrying in paths.get(u, []):
                paths.setdefault(v, []).append(
                    (cost_u + costs[a], carrying and bush.flow[a] > 0.0)
                )
    for v, entries in paths.items():
        assert L[v] == pytest.approx(min(c for c, _ in entries), rel=1e-12)
        carrying = [c for c, ok in entries if ok]
        if carrying:
            assert U[v] == pytest.approx(max(carrying), rel=1e-12)
        elif v != bush.origin:
            assert U[v] == -math.inf


def test_update_bush_fixed_point_and_acyclic(two_path_net):
    od = ODMatrix({(0, 1): 2.5e4})
    expanded, _, usable, solver, _, metrics = solved(two_path_net, od)
    assert metrics.relative_gap <= 1e-8
    for bush in solver.bushes:
        labels = shortest_longest_labels(expanded, bush, solver.cost)
        assert update_bush(expanded, bush, solver.cost, solver._candidates, labels) is None  # unchanged
        g = nx.DiGraph()
        g.add_nodes_from(bush.order.tolist())
        g.add_edges_from(
            (int(expanded.tail[a]), int(expanded.head[a])) for a in bush_arcs(bush)
        )
        assert nx.is_directed_acyclic_graph(g)
        # the stored order is a valid topological order of the bush
        pos = {u: i for i, u in enumerate(bush.order.tolist())}
        for a in bush_arcs(bush):
            assert pos[int(expanded.tail[a])] < pos[int(expanded.head[a])]


@pytest.mark.parametrize(
    "backward, fresh",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-fresh", "True-fresh"],
)
def test_update_bush_sorts_only_when_an_add_runs_backward(monkeypatch, backward, fresh):
    # Bush 0 -> {0->1 or 2->1, 0->2} on the diesel arcs of the two-path
    # network, laid out 0, 2, 1 when 2->1 is in it and 0, 1, 2 otherwise;
    # at these costs the missing arc joins, forward in the first layout and
    # backward in the second.  The bush is set by hand, or is a tree fresh
    # from _initial_bush, whose settle order is the layout.
    expanded, profiles = assembled_instance(two_path_network())
    usable = apply_design(expanded, set())
    direct, to_mid, mid_to = (expanded.pair_of[l][0] for l in (0, 2, 4))
    n0, n1, n2 = (expanded.diesel_node(i) for i in range(3))
    costs = np.ones(expanded.n_arcs)
    costs[direct] = 10.0 if backward else 1.0
    kept, added = (direct, mid_to) if backward else (mid_to, direct)
    order = [n0, n1, n2] if backward else [n0, n2, n1]
    if fresh:
        settle = np.full(expanded.n_arcs, 5.0)  # the missing arc and the reverse links dear
        settle[kept] = 1.0
        settle[to_mid] = 2.0 if backward else 1.0
        diesel = usable & (expanded.kind != ArcKind.SWITCH)
        bush = equilibrium._initial_bush(expanded, equilibrium._adjacency(expanded, diesel),
                                         settle.tolist(), 0, [(1, 1.0)])
        assert bush.order.tolist() == order and bush_arcs(bush) == {to_mid, kept}
    else:
        flow = np.zeros(expanded.n_arcs)
        flow[[to_mid, kept]] = 1.0
        arcs = np.array(sorted([to_mid, kept]))
        bush = Bush(origin=n0, flow=flow, demand=1.0)
        bush.set_arcs(expanded, arcs, order)

    calls = []

    def toposort(*args):
        calls.append(args)
        if not backward:
            raise AssertionError("forward adds keep the order")
        return _toposort(*args)

    labels = shortest_longest_labels(expanded, bush, costs)
    monkeypatch.setattr(equilibrium, "_toposort", toposort)
    candidates = BushSolver(expanded, usable, ODMatrix({}), profiles)._candidates
    assert update_bush(expanded, bush, costs, candidates, labels).tolist() == [added]
    assert bush_arcs(bush) == {to_mid, kept, added}
    assert len(calls) == int(backward)
    assert bush.order.tolist() == ([n0, n2, n1] if backward else order)
    assert [bush.pos[n] for n in bush.order] == [0, 1, 2]


def test_update_bush_adds_shorter_arc():
    # drive flow onto the dogleg until the direct link becomes attractive
    net = two_path_network(capacity_tpd=6.0e3, long_km=95.0, short_km=45.0)
    od = ODMatrix({(0, 1): 3.0e4})
    expanded, profiles = assembled_instance(net)
    usable = apply_design(expanded, set())
    solver = BushSolver(expanded, usable, od, profiles, tol=1e-8)
    state, metrics = solver.solve()
    assert metrics.relative_gap <= 1e-8
    flows = state.physical_flows(expanded)
    # congestion pushes part of the demand onto the longer direct link
    assert flows[0][0] > 1.0 and flows[2][0] > 1.0
    assert flows[0][0] + flows[2][0] == pytest.approx(3.0e4, rel=1e-9)


# --- solver ------------------------------------------------------------------------


def test_single_link_all_or_nothing():
    net = line_network(n_nodes=2, yards=())
    od = ODMatrix({(0, 1): 1.2e4})
    expanded, _, _, _, state, metrics = solved(net, od)
    d, e = expanded.pair_of[0]
    assert state.x[d] == pytest.approx(1.2e4, rel=1e-12)
    assert state.x[e] == 0.0
    assert metrics.relative_gap <= 1e-8
    assert metrics.wardrop_max <= 1e-8


def test_identical_parallel_links_split_evenly():
    nodes = [Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)]
    links = [
        PhysicalLink(0, 0, 1, length_km=90.0, curve_radius_m=20000.0, capacity_tpd=1.0e4),
        PhysicalLink(1, 0, 1, length_km=90.0, curve_radius_m=20000.0, capacity_tpd=1.0e4),
    ]
    net = RailNetwork.build(nodes, links)
    demand = 2.4e4
    od = ODMatrix({(0, 1): demand})
    expanded, _, _, _, state, metrics = solved(net, od, tol=1e-10)
    assert metrics.relative_gap <= 1e-10
    flows = state.physical_flows(expanded)
    assert flows[0][0] == pytest.approx(demand / 2.0, rel=1e-6)
    assert flows[1][0] == pytest.approx(demand / 2.0, rel=1e-6)


def test_two_path_costs_equalize_under_congestion():
    net = two_path_network(capacity_tpd=6.0e3, long_km=95.0, short_km=45.0)
    od = ODMatrix({(0, 1): 3.0e4})
    expanded, profiles, usable, solver, state, metrics = solved(net, od)
    assert metrics.relative_gap <= 1e-8
    flows = state.physical_flows(expanded)
    direct = state.cost[expanded.pair_of[0][0]]
    dogleg = state.cost[expanded.pair_of[2][0]] + state.cost[expanded.pair_of[4][0]]
    assert direct == pytest.approx(dogleg, rel=1e-7)
    assert flows[0][0] + flows[2][0] == pytest.approx(3.0e4, rel=1e-9)
    assert flows[2][0] == pytest.approx(flows[4][0], rel=1e-9)


def test_switching_pulls_flow_electric_when_cheap():
    rates = RateTable(switch_cost_per_train=0.0)
    net = line_network(n_nodes=3, yards=(0, 2), length_km=150.0)
    od = ODMatrix({(0, 2): 1.5e4})
    electrified = set(net.links)
    expanded, _, _, _, state, metrics = solved(net, od, electrified, rates=rates)
    flows = state.physical_flows(expanded)
    assert flows[0][1] == pytest.approx(1.5e4, rel=1e-9)  # electric side
    assert flows[0][0] == 0.0
    d2e, _ = expanded.switch_arcs_at[0]
    assert state.x[d2e] == pytest.approx(1.5e4, rel=1e-9)


def test_switching_cost_blocks_electric_when_expensive():
    rates = RateTable(switch_cost_per_train=50000.0)
    net = line_network(n_nodes=3, yards=(0, 2), length_km=150.0)
    od = ODMatrix({(0, 2): 1.5e4})
    electrified = set(net.links)
    expanded, _, _, _, state, _ = solved(net, od, electrified, rates=rates)
    flows = state.physical_flows(expanded)
    assert flows[0][0] == pytest.approx(1.5e4, rel=1e-9)  # stays diesel
    assert flows[0][1] == 0.0


def test_a_corridor_ending_at_a_yard_keeps_its_last_electric_node():
    # links 0 -> 1 -> 2 electrified one way only: yard 2's electric node has
    # a usable in-arc and no usable electric out-arc, and trains switch back
    # to diesel there.  Yard 4's electric node no usable electric arc
    # touches, so no bush holds it; node 3's no usable arc reaches.
    rates = RateTable(fuel_cost_electric=0.3e-8, switch_cost_per_train=200.0)
    net = line_network(n_nodes=5, yards=(0, 2, 4))
    od = ODMatrix({(0, 4): 2.0e4})
    expanded, _, _, solver, state, metrics = solved(net, od, {0, 2}, rates=rates)
    (bush,) = solver.bushes
    electric = {electric_node(expanded, i) for i in range(5)} & set(bush.order.tolist())
    assert electric == {electric_node(expanded, i) for i in (0, 1, 2)}
    _, e2d = expanded.switch_arcs_at[2]
    assert metrics.converged and state.x[e2d] == 2.0e4


def test_solver_matches_msa():
    net = two_path_network(capacity_tpd=6.0e3, long_km=95.0, short_km=45.0)
    od = ODMatrix({(0, 1): 3.0e4})
    expanded, profiles = assembled_instance(net)
    usable = apply_design(expanded, set())
    state, metrics = solve_equilibrium(expanded, usable, od, profiles, tol=1e-9)
    ref = msa_reference(expanded, usable, od, profiles, iterations=4000)
    assert np.allclose(state.x, ref.x, rtol=2e-3, atol=2e-3 * od.total)
    ref_beckmann = CostEngine(expanded, profiles, usable).beckmann(ref.x)
    assert metrics.beckmann <= ref_beckmann + 1e-6 * abs(ref_beckmann)


def test_flow_conservation_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(5):
        net = random_network(rng, n_nodes=7, extra_links=6, yard_count=2)
        od = random_od(rng, net, pairs=3)
        expanded, profiles = assembled_instance(net)
        usable = apply_design(expanded, set(net.links))
        solver = BushSolver(expanded, usable, od, profiles, tol=1e-7)
        state, metrics = solver.solve()
        assert metrics.relative_gap <= 1e-7

        total = np.zeros(expanded.n_arcs)
        for bush in solver.bushes:
            total += bush.flow
            balance = np.zeros(expanded.n_nodes)
            for a in range(expanded.n_arcs):
                f = bush.flow[a]
                if f:
                    balance[expanded.tail[a]] -= f
                    balance[expanded.head[a]] += f
            dests = dict(od.by_origin()[expanded.node_ids[bush.origin // 2]])
            for node in range(expanded.n_nodes):
                phys = expanded.node_ids[node // 2]
                expected = 0.0
                if node == bush.origin:
                    expected = -bush.demand
                elif node % 2 == 0 and phys in dests:
                    expected = dests[phys]
                assert balance[node] == pytest.approx(expected, abs=1e-6 * max(1.0, bush.demand))
        assert np.allclose(total, state.x, atol=1e-9 * max(1.0, od.total))


def test_zero_demand_and_infeasible():
    net = line_network(n_nodes=3, yards=())
    expanded, profiles = assembled_instance(net)
    usable = apply_design(expanded, set())
    state, metrics = solve_equilibrium(expanded, usable, ODMatrix({}), profiles)
    assert not state.x.any()
    assert metrics.relative_gap == 0.0

    one_way = RailNetwork.build(
        [Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)],
        [PhysicalLink(0, 0, 1, length_km=90.0, curve_radius_m=20000.0, capacity_tpd=5e4)],
    )
    expanded, profiles = assembled_instance(one_way)
    usable = apply_design(expanded, set())
    with pytest.raises(InfeasibleAssignmentError):
        solve_equilibrium(expanded, usable, ODMatrix({(1, 0): 5.0e3}), profiles)


def test_zero_cost_arcs_leave_no_predecessor_cycle():
    # With every rate 0 each arc costs 0.  From node 0 the shortest-path
    # search reaches 1 by link 2 and 2 by link 3.  Settling 1, link 0
    # (1 -> 2) ties with link 3 at a lower arc id and takes over; settling 2,
    # link 1 (2 -> 1) ties with link 2 at a lower arc id, but 1 is settled.
    # Taking that tie too made 1 and 2 each other's predecessor, and the
    # bush of origin 0 (demand to node 3) held the cycle.
    links = [(0, 1, 2), (1, 2, 1), (2, 0, 1), (3, 0, 2), (4, 0, 3), (5, 3, 0), (6, 1, 0), (7, 2, 0)]
    net = RailNetwork.build(
        [Node(i, 40.0, -100.0 + 0.5 * i) for i in range(4)],
        [PhysicalLink(lid, t, h, length_km=60.0, curve_radius_m=20000.0, capacity_tpd=5e4)
         for lid, t, h in links],
    )
    zero = RateTable(crew_rate=0.0, cargo_rate=0.0, fuel_cost_diesel=0.0, fuel_cost_electric=0.0,
                     switch_cost_per_train=0.0)
    expanded, profiles = assembled_instance(net, rates=zero)
    usable = apply_design(expanded, set())
    src = expanded.diesel_node(0)
    adjacency = equilibrium._adjacency(expanded, usable)
    dist, pred = equilibrium._dijkstra(adjacency, [0.0] * expanded.n_arcs, [(0.0, src)])
    for node in map(expanded.diesel_node, range(4)):
        assert dist[node] == 0.0
        for _ in range(4):  # the predecessor chain reaches the source
            if node == src:
                break
            node = int(expanded.tail[pred[node]])
        assert node == src

    state, metrics = solve_equilibrium(expanded, usable, ODMatrix({(0, 3): 1.0e4}), profiles)
    assert metrics.converged and metrics.iteration == 1
    assert state.x[expanded.pair_of[4][0]] == 1.0e4


def test_effectively_uncapacitated_links_solve():
    # cap ** beta overflows to inf: no congestion, every demand on the
    # cheapest route, and no OverflowError from the safeguard's constants
    net = two_path_network(capacity_tpd=1.0e80)
    expanded, profiles = assembled_instance(net)
    with np.errstate(over="ignore"):
        _, metrics = solve_equilibrium(expanded, None, ODMatrix({(0, 1): 2.0e4}), profiles)
    assert metrics.converged
    assert math.isfinite(metrics.beckmann)


def test_relative_gap_definition(two_path_net):
    od = ODMatrix({(0, 1): 2.0e4})
    expanded, profiles = assembled_instance(two_path_net)
    usable = apply_design(expanded, set())
    engine = CostEngine(expanded, profiles, usable)
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 1.0e4, size=expanded.n_arcs)
    costs = engine.costs(x)
    gap = relative_gap(expanded, engine.usable, costs, x, od)
    # oracle: nx shortest path on the usable expanded graph
    g = nx.DiGraph()
    for a, (tail, head) in enumerate(zip(expanded.tail.tolist(), expanded.head.tolist())):
        if engine.usable[a]:
            w = float(costs[a])
            if not g.has_edge(tail, head) or g[tail][head]["w"] > w:
                g.add_edge(tail, head, w=w)
    sptt = 2.0e4 * nx.shortest_path_length(
        g, expanded.diesel_node(0), expanded.diesel_node(1), weight="w"
    )
    assert gap == pytest.approx((float(x @ costs) - sptt) / sptt, rel=1e-12)
    assert relative_gap(expanded, engine.usable, costs, x, ODMatrix({})) == 0.0


def test_shift_objective_never_increases():
    net = two_path_network(capacity_tpd=5.0e3, long_km=95.0, short_km=45.0)
    od = ODMatrix({(0, 1): 2.8e4})
    expanded, profiles = assembled_instance(net)
    usable = apply_design(expanded, set(net.links))
    solver = RecordingSolver(expanded, usable, od, profiles, tol=1e-9)
    solver.solve()
    seq = np.array(solver.shift_beckmann)
    assert len(seq) > 1
    rises = np.diff(seq)
    assert rises.max() <= 1e-12 * max(1.0, np.abs(seq).max())


def test_dead_flow_on_dearer_segment_is_drained_in_one_sweep():
    # The dogleg burns less fuel than the direct link but is dearer through
    # congestion that other origins' flow causes.  This bush keeps 1e-13
    # t/day on it: adding that to either pair total leaves the total as it
    # is, so the exact objective change of moving it is the fuel part alone,
    # which is positive at every halving.  It is drained whole instead.
    net = two_path_network(capacity_tpd=5.0e3, long_km=95.0, short_km=45.0)
    expanded, profiles = assembled_instance(net)
    demand = 1.0e4
    solver = RecordingSolver(expanded, apply_design(expanded, set()), ODMatrix({(0, 1): demand}),
                             profiles)
    direct = expanded.pair_of[0][0]
    dogleg = [expanded.pair_of[2][0], expanded.pair_of[4][0]]
    origin = expanded.diesel_node(0)
    arcs = np.array(sorted([direct, *dogleg]))
    flow = np.zeros(expanded.n_arcs)
    flow[direct] = demand  # demand - 1e-13 rounds to demand
    flow[dogleg] = 1.0e-13
    bush = Bush(origin=origin, flow=flow, demand=demand)
    # equal labels: the order of _toposort is by node index
    bush.set_arcs(expanded, arcs, _toposort(expanded, arcs, origin, np.zeros(expanded.n_nodes)))
    solver.bushes = [bush]
    solver.x = flow.copy()
    solver.x[dogleg] += 1.5e4  # other origins' flow
    solver.cost = solver.engine.costs(solver.x)
    assert solver.engine.fixed[dogleg].sum() < solver.engine.fixed[direct]
    assert solver.cost[dogleg].sum() > solver.cost[direct]

    solver._equilibrate_bush(bush, shortest_longest_labels(expanded, bush, solver.cost), len(bush.order))
    assert bush.flow[dogleg].tolist() == [0.0, 0.0]
    assert solver.x[dogleg].tolist() == [1.5e4, 1.5e4]
    seq = solver.shift_beckmann
    assert len(seq) == 2 and seq[1] <= seq[0]
    assert solver.wardrop_violation() == 0.0


def test_congested_instance_converges():
    # the congested 50-node instance (138 links, 40 OD pairs): numerically
    # dead flow on a dearer segment used to hold the Wardrop spread at 8.5e-2
    # until max_iter
    rng = np.random.default_rng(1)
    net = random_network(rng, n_nodes=50, extra_links=40, yard_count=2,
                         capacity_range=(1.0e4, 4.0e4))
    od = random_od(rng, net, pairs=40)
    expanded, profiles = assembled_instance(net)
    _, metrics = solve_equilibrium(expanded, apply_design(expanded, set()), od, profiles,
                                   tol=1.0e-6, max_iter=500)
    assert len(net.links) == 138
    assert metrics.converged
    assert metrics.iteration < 500


@pytest.mark.parametrize("seed", [1, 8, 161])
def test_stall_recipe_converges(seed):
    # overloaded random networks whose bushes, ordered by node index, kept
    # losing the same improving arcs to cycles and stopped at max_iter with
    # gaps of 4.4e-3 (seed 1), 1.6e-2 (8) and 1.9e-3 (161)
    expanded, profiles, usable, od = stall_instance(seed)
    _, metrics = solve_equilibrium(expanded, usable, od, profiles, tol=1.0e-6, max_iter=500)
    assert metrics.converged and metrics.iteration < 500


def test_a_bush_whose_visit_changed_nothing_rests_one_sweep(monkeypatch):
    # idle: update_bush added and dropped no arc, and the sweep moved no flow
    rng = np.random.default_rng(1)
    net = random_network(rng, n_nodes=50, extra_links=40, yard_count=2,
                         capacity_range=(1.0e4, 4.0e4))
    od = random_od(rng, net, pairs=40)
    expanded, profiles = assembled_instance(net)
    sweeps = [[]]  # per iteration, [bush, idle] per visit
    update = equilibrium.update_bush

    def recorded(expanded, bush, *args):
        added = update(expanded, bush, *args)
        sweeps[-1].append([bush, added is None])
        return added

    class Watched(BushSolver):
        def _equilibrate_bush(self, bush, labels, stale):
            super()._equilibrate_bush(bush, labels, stale)
            sweeps[-1][-1][1] &= not self._moved

        def _extrapolate(self, steps, beckmann):  # once per iteration, after the sweep
            sweeps.append([])
            return super()._extrapolate(steps, beckmann)

    monkeypatch.setattr(equilibrium, "update_bush", recorded)
    solver = Watched(expanded, apply_design(expanded, set()), od, profiles)
    _, metrics = solver.solve()
    sweeps = sweeps[: metrics.iteration]
    visited = [{bush for bush, _ in sweep} for sweep in sweeps]
    idle = [{bush for bush, quiet in sweep if quiet} for sweep in sweeps]
    assert metrics.converged and visited[0] == set(solver.bushes)
    assert sum(len(idle[k]) for k in range(len(sweeps) - 2)) > 0
    for k in range(len(sweeps) - 1):
        assert visited[k + 1] == set(solver.bushes) - idle[k]
        if k + 2 < len(sweeps):
            assert idle[k] <= visited[k + 2]


def test_partial_label_passes_cover_a_non_empty_range(monkeypatch):
    # an update that only dropped arcs, or a shift whose earliest touched
    # head sits at or after the current node, leaves no label to redo
    ranges = []
    label_pass = equilibrium.shortest_longest_labels

    def recording(expanded, bush, costs, labels=None, start=1, stop=None):
        if labels is not None:
            ranges.append((start, len(bush.order) if stop is None else stop))
        return label_pass(expanded, bush, costs, labels, start, stop)

    monkeypatch.setattr(equilibrium, "shortest_longest_labels", recording)
    rng = np.random.default_rng(1)
    net = random_network(rng, n_nodes=20, extra_links=15, yard_count=2,
                         capacity_range=(1.0e4, 4.0e4))
    od = random_od(rng, net, pairs=12)
    expanded, profiles = assembled_instance(net)
    _, metrics = solve_equilibrium(expanded, apply_design(expanded, set()), od, profiles,
                                   tol=1.0e-6, max_iter=500)
    assert metrics.converged and ranges
    assert all(start < stop for start, stop in ranges)


def test_traction_swap_plateau_instance_converges_quickly():
    # The 60-node optimize instance under rates where electric traction
    # pays, cold-solved for its winning design.  Bushes pass flow round a
    # traction-swap cycle that leaves every pair total as it is; advanced
    # one fixed Newton step per iteration, it takes 70 iterations to empty.
    rng = np.random.default_rng(1)
    net = random_network(rng, n_nodes=60, extra_links=40, yard_count=20,
                         capacity_range=(1.0e5, 4.0e5))
    od = random_od(rng, net, pairs=40)
    rates = RateTable(fuel_cost_electric=0.3e-8, switch_cost_per_train=200.0)
    expanded, profiles = assembled_instance(net, rates=rates)
    weights = dict(zip(profiles.link_ids, (profiles.congestion_coef + profiles.diesel_fuel_per_ton).tolist()))
    corridors = candidate_corridors(net, weights, electrification_costs(net, ElectrificationRates()))
    chosen = [3, 8, 9, 10, 19, 22, 25, 28, 32, 36, 39, 52, 65]
    links = net.with_reverse_twins({l for i in chosen for l in corridors[i].link_ids})
    _, metrics = solve_equilibrium(expanded, apply_design(expanded, links), od, profiles,
                                   tol=1.0e-6, max_iter=500)
    assert len(corridors) == 74
    assert metrics.converged
    assert metrics.iteration <= 35


def test_overflowing_total_demand_is_rejected():
    net = two_path_network()
    expanded, profiles = assembled_instance(net)
    with pytest.raises(ValueError, match="overflows"):
        BushSolver(expanded, None, ODMatrix({(0, 1): 1.0e70}), profiles)


# --- jacobian -----------------------------------------------------------------------


def test_jacobian_symmetric_and_matches_profiles(two_path_net):
    expanded, profiles = assembled_instance(two_path_net)
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, 2.0e4, size=expanded.n_arcs)
    J = jacobian(expanded, profiles, x)
    assert np.array_equal(J, J.T)
    for j, lid in enumerate(profiles.link_ids):
        d, e = expanded.pair_of[lid]
        g = congestion_derivative(
            profiles.congestion_coef[j].item(), float(x[d] + x[e]), profiles.capacity_tpd[j].item(), profiles.beta
        )
        assert J[d, d] == J[d, e] == J[e, d] == J[e, e] == g
    for yard, (d2e, e2d) in expanded.switch_arcs_at.items():
        assert not J[d2e].any() and not J[:, d2e].any()


def test_jacobian_respects_mask(two_path_net):
    expanded, profiles = assembled_instance(two_path_net)
    x = np.full(expanded.n_arcs, 5.0e3)
    usable = apply_design(expanded, set())  # all-diesel
    J = jacobian(expanded, profiles, x, usable)
    assert np.array_equal(J, J.T)
    for j, lid in enumerate(profiles.link_ids):
        d, e = expanded.pair_of[lid]
        assert J[d, d] == congestion_derivative(
            profiles.congestion_coef[j].item(), float(x[d]), profiles.capacity_tpd[j].item(), profiles.beta
        )
        assert J[d, e] == 0.0 and J[e, e] == 0.0


def test_jacobian_matches_finite_differences(two_path_net):
    expanded, profiles = assembled_instance(two_path_net)
    engine = CostEngine(expanded, profiles)
    rng = np.random.default_rng(14)
    x = rng.uniform(1.0e3, 2.0e4, size=expanded.n_arcs)
    J = jacobian(expanded, profiles, x)
    h = 1.0
    for b in range(expanded.n_arcs):
        xp, xm = x.copy(), x.copy()
        xp[b] += h
        xm[b] -= h
        fd = (engine.costs(xp) - engine.costs(xm)) / (2.0 * h)
        assert np.allclose(J[:, b], fd, rtol=1e-6, atol=1e-12)
