"""Lower-level assignment: costs, bushes, Newton shifts, and the solver."""

import math

import networkx as nx
import numpy as np
import pytest
from scipy.integrate import quad

from railplan.costmodel import RateTable, build_profiles, yard_switch_costs
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
from railplan.network import (
    ArcKind,
    Node,
    PhysicalLink,
    RailNetwork,
    apply_design,
    expand,
)

from oracles import jacobian, msa_reference
from synth import (
    assembled_instance,
    line_network,
    random_network,
    random_od,
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
        for arc in expanded.arcs:
            oracle += engine.fixed[arc.id] * x[arc.id]
        for lid, (d, e) in expanded.pair_of.items():
            prof = profiles[lid]
            total = float(x[d] + x[e])
            val, err = quad(prof.congestion_cost, 0.0, total)
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
    for lid, (d, e) in expanded.pair_of.items():
        prof = profiles[lid]
        total = float(x[d] + x[e])
        assert costs[d] == pytest.approx(
            prof.congestion_cost(total) + prof.diesel.fuel_cost_per_ton, rel=1e-12
        )
        assert costs[e] == pytest.approx(
            prof.congestion_cost(total) + prof.electric.fuel_cost_per_ton, rel=1e-12
        )
        # both pair members carry the identical derivative value
        assert derivs[d] == derivs[e] == pytest.approx(
            prof.congestion_derivative(total), rel=1e-12
        )
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


def test_cost_engine_rejects_mixed_beta(two_path_net):
    expanded, profiles = assembled_instance(two_path_net)
    from dataclasses import replace

    profiles = dict(profiles)
    profiles[0] = replace(profiles[0], beta=2.0)
    with pytest.raises(ValueError, match="exponent"):
        CostEngine(expanded, profiles)


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
    for u in bush.order:
        for a in expanded.out_arcs[u]:
            if a not in bush.arcs:
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
        changed = update_bush(expanded, bush, solver.cost, usable)
        assert not changed
        g = nx.DiGraph()
        g.add_nodes_from(bush.order)
        g.add_edges_from(
            (int(expanded.tail[a]), int(expanded.head[a])) for a in bush.arcs
        )
        assert nx.is_directed_acyclic_graph(g)
        # the stored order is a valid topological order of the bush
        pos = {u: i for i, u in enumerate(bush.order)}
        for a in bush.arcs:
            assert pos[int(expanded.tail[a])] < pos[int(expanded.head[a])]


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


def test_solver_matches_msa():
    net = two_path_network(capacity_tpd=6.0e3, long_km=95.0, short_km=45.0)
    od = ODMatrix({(0, 1): 3.0e4})
    expanded, profiles = assembled_instance(net)
    usable = apply_design(expanded, set())
    state, metrics = solve_equilibrium(expanded, usable, od, profiles, tol=1e-9)
    ref = msa_reference(expanded, usable, od, profiles, iterations=4000)
    assert np.allclose(state.x, ref.x, rtol=2e-3, atol=2e-3 * od.total)
    assert state.beckmann <= ref.beckmann + 1e-6 * abs(ref.beckmann)


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


def test_effectively_uncapacitated_links_solve():
    # cap ** beta overflows to inf: no congestion, every demand on the
    # cheapest route, and no OverflowError from the safeguard's constants
    net = two_path_network(capacity_tpd=1.0e80)
    expanded, profiles = assembled_instance(net)
    with np.errstate(over="ignore"):
        state, metrics = solve_equilibrium(expanded, None, ODMatrix({(0, 1): 2.0e4}), profiles)
    assert metrics.converged
    assert math.isfinite(state.beckmann)


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
    for arc in expanded.arcs:
        if engine.usable[arc.id]:
            w = float(costs[arc.id])
            if not g.has_edge(arc.tail, arc.head) or g[arc.tail][arc.head]["w"] > w:
                g.add_edge(arc.tail, arc.head, w=w)
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
    solver = BushSolver(expanded, usable, od, profiles, tol=1e-9,
                        record_shift_beckmann=True)
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
    solver = BushSolver(expanded, apply_design(expanded, set()), ODMatrix({(0, 1): demand}),
                        profiles, record_shift_beckmann=True)
    direct = expanded.pair_of[0][0]
    dogleg = [expanded.pair_of[2][0], expanded.pair_of[4][0]]
    origin = expanded.diesel_node(0)
    arcs = np.array(sorted([direct, *dogleg]))
    flow = np.zeros(expanded.n_arcs)
    flow[direct] = demand  # demand - 1e-13 rounds to demand
    flow[dogleg] = 1.0e-13
    bush = Bush(origin=origin, arcs=set(), order=[], flow=flow, demand=demand)
    bush.set_arcs(expanded, arcs, _toposort(expanded, arcs, origin))
    solver.bushes = [bush]
    solver.x = flow.copy()
    solver.x[dogleg] += 1.5e4  # other origins' flow
    solver.cost = solver.engine.costs(solver.x)
    solver._beckmann = solver.engine.beckmann(solver.x)
    solver.shift_beckmann = [solver._beckmann]
    assert solver.engine.fixed[dogleg].sum() < solver.engine.fixed[direct]
    assert solver.cost[dogleg].sum() > solver.cost[direct]

    solver._equilibrate_bush(bush, shortest_longest_labels(expanded, bush, solver.cost))
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
    for lid, (d, e) in expanded.pair_of.items():
        g = profiles[lid].congestion_derivative(float(x[d] + x[e]))
        assert J[d, d] == J[d, e] == J[e, d] == J[e, e] == g
    for yard, (d2e, e2d) in expanded.switch_arcs_at.items():
        assert not J[d2e].any() and not J[:, d2e].any()


def test_jacobian_respects_mask(two_path_net):
    expanded, profiles = assembled_instance(two_path_net)
    x = np.full(expanded.n_arcs, 5.0e3)
    usable = apply_design(expanded, set())  # all-diesel
    J = jacobian(expanded, profiles, x, usable)
    assert np.array_equal(J, J.T)
    for lid, (d, e) in expanded.pair_of.items():
        assert J[d, d] == profiles[lid].congestion_derivative(float(x[d]))
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
