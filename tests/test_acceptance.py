"""Release gate: twelve checks, one printed verdict line per criterion.

Each test funnels through _report, which prints a scannable
"criterion NN: PASS/FAIL - detail" line past pytest's capture."""

import csv
import json
import math
import time

import numpy as np
import pytest

from oracles import RecordingSolver, brute_force, bush_arcs, generalized_cost, jacobian, msa_reference
from synth import (
    assembled_instance,
    bidirectional,
    grid3x3_network,
    line_network,
    random_network,
    random_od,
    two_path_network,
)

from railplan.corridors import candidate_corridors
from railplan.costmodel import (
    ElectrificationRates,
    RateTable,
    TrainConsist,
    _brake,
    _davis,
    _gather,
    _power_speed,
    bearing_resistance,
    air_resistance,
    build_profiles,
    build_throttles,
    congestion_time,
    curve_resistance,
    electrification_costs,
    flange_resistance,
    grade_resistance,
    switch_cost_per_train,
    yard_switch_costs,
)
from railplan.design import (
    DesignProblem,
    GAConfig,
    evolve,
    repair,
    seed_population,
)
from railplan.equilibrium import (
    BushSolver,
    CostEngine,
    ODMatrix,
    solve_equilibrium,
)
from railplan.network import ArcKind, Node, PhysicalLink, RailNetwork, apply_design, expand
from railplan.pcg64 import Generator
from railplan.scenario_io import load_scenario, sweep, validate_geojson


_CAP = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with _CAP.disabled():
        print(line, flush=True)
    assert ok, line


# --- 1: cost Jacobian symmetry ------------------------------------------------------


def test_criterion_01_jacobian_symmetry():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n_nodes = int(rng.integers(4, 13))
        extra = int(rng.integers(0, min(13, 51 - 2 * (n_nodes - 1))))
        net = random_network(rng, n_nodes=n_nodes, extra_links=extra, yard_count=2)
        assert len(net.links) <= 50
        expanded, profiles = assembled_instance(net)
        electrified = {l for l in net.links if rng.random() < 0.5}
        usable = apply_design(expanded, net.with_reverse_twins(electrified))
        x = rng.uniform(0.0, 8.0e4, expanded.n_arcs) * usable
        J = jacobian(expanded, profiles, x, usable)
        worst = max(worst, float(np.max(np.abs(J - J.T))))
    elapsed = time.perf_counter() - start
    _report(1, worst == 0.0 and elapsed < 5.0,
            f"100 networks, max |J - J^T| = {worst}, {elapsed:.2f}s")


# --- 2: objective gradient matches arc costs ----------------------------------------


def test_criterion_02_shift_derivative():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    net = random_network(rng, n_nodes=12, extra_links=8, yard_count=3)
    expanded, profiles = assembled_instance(net)
    usable = apply_design(expanded, set(net.links))
    engine = CostEngine(expanded, profiles, usable)
    x0 = rng.uniform(1.0e3, 6.0e4, expanded.n_arcs)
    h = 1.0
    worst = 0.0
    for _ in range(50):
        arcs = rng.choice(expanded.n_arcs, size=8, replace=False)
        plus, minus = arcs[:4], arcs[4:]
        direction = np.zeros(expanded.n_arcs)
        direction[plus] = 1.0
        direction[minus] = -1.0
        # derivative taken after a shift along the segment pair, as the
        # solver would see it mid-equilibration
        x = x0 + direction * float(rng.uniform(0.0, 500.0))
        cost = engine.costs(x)
        analytic = float(np.sum(cost[plus]) - np.sum(cost[minus]))
        fd = (engine.beckmann(x + h * direction) - engine.beckmann(x - h * direction)) / (2.0 * h)
        worst = max(worst, abs(fd - analytic) / max(abs(analytic), 1.0e-3))
    elapsed = time.perf_counter() - start
    _report(2, worst <= 1.0e-6 and elapsed < 10.0,
            f"50 segment pairs, max rel FD error {worst:.3e}, {elapsed:.2f}s")


# --- 3: solver vs averaged reference on hand instances -------------------------------


def _hand_instances():
    cheap = RateTable(switch_cost_per_train=350.0)
    pair = line_network(n_nodes=2, yards=(0, 1), length_km=80.0, capacity_tpd=4.0e4)
    tp = two_path_network()
    line = line_network()
    grid = grid3x3_network()
    rng = np.random.default_rng(33)
    r1 = random_network(rng, n_nodes=7, extra_links=5, yard_count=2)
    od1 = random_od(rng, r1, pairs=3)
    r2 = random_network(rng, n_nodes=9, extra_links=7, yard_count=3)
    od2 = random_od(rng, r2, pairs=4)
    return [
        ("single link free flow", pair, ODMatrix({(0, 1): 1.0e4}), set(), None),
        ("single link congested", pair, ODMatrix({(0, 1): 8.0e4, (1, 0): 3.0e4}), set(), None),
        ("two-path split", tp, ODMatrix({(0, 1): 2.5e4}), set(), None),
        ("two-path congested", tp, ODMatrix({(0, 1): 4.0e4, (1, 0): 1.0e4}), set(), None),
        ("line multi od", line, ODMatrix({(0, 4): 3.0e4, (2, 4): 2.0e4, (4, 0): 1.0e4}), set(), None),
        ("electric detour taken", line, ODMatrix({(0, 4): 3.0e4}), {4, 5, 6, 7}, cheap),
        ("electric blocked by switch fee", line, ODMatrix({(0, 4): 3.0e4}), {4, 5, 6, 7}, None),
        ("grid multi od", grid, ODMatrix({(0, 8): 3.0e4, (6, 2): 2.0e4, (8, 0): 1.5e4}), set(), None),
        ("random 7 node", r1, od1, set(), None),
        ("random 9 node", r2, od2, set(), None),
    ]


def test_criterion_03_solver_matches_msa():
    worst_gap = 0.0
    worst_wall = 0.0
    mismatched = []
    for name, net, od, electrified, rates in _hand_instances():
        expanded, profiles = assembled_instance(net, rates=rates)
        usable = apply_design(expanded, electrified)
        start = time.perf_counter()
        state, metrics = solve_equilibrium(expanded, usable, od, profiles, tol=1.0e-8)
        wall = time.perf_counter() - start
        worst_gap = max(worst_gap, metrics.relative_gap)
        worst_wall = max(worst_wall, wall)
        ref = msa_reference(expanded, usable, od, profiles, iterations=10_000)
        if not np.allclose(state.x, ref.x, rtol=1.0e-3, atol=1.0e-3):
            mismatched.append(name)
    ok = worst_gap <= 1.0e-6 and worst_wall < 1.0 and not mismatched
    _report(3, ok,
            f"10 instances, worst gap {worst_gap:.2e}, slowest solve {worst_wall:.3f}s, "
            f"MSA mismatches {mismatched or 'none'}")


# --- 4: used-path cost spread per origin ---------------------------------------------


def _independent_arc_costs(expanded, profiles, solver):
    cost = np.full(expanded.n_arcs, math.inf)
    for a, kind in enumerate(expanded.kind):
        if not solver.engine.usable[a]:
            continue
        if kind is ArcKind.SWITCH:
            cost[a] = expanded.fixed_cost[a]
        else:
            lid = int(expanded.link[a])
            d, e = expanded.pair_of[lid]
            cost[a] = generalized_cost(profiles, lid, float(solver.x[d]), float(solver.x[e]), kind)
    return cost


def _wardrop_spread(expanded, profiles, solver):
    """Max (U - L)/L over flow-carrying nodes, labels rebuilt from scratch."""
    cost = _independent_arc_costs(expanded, profiles, solver)
    worst = 0.0
    for bush in solver.bushes:
        eps = 1.0e-12 * max(1.0, bush.demand)
        L = {bush.origin: 0.0}
        U = {bush.origin: 0.0}
        arcs = bush_arcs(bush)
        for u in bush.order.tolist():
            for a in expanded.out_arcs[u]:
                if a not in arcs:
                    continue
                v = int(expanded.head[a])
                if u in L:
                    L[v] = min(L.get(v, math.inf), L[u] + cost[a])
                if u in U and bush.flow[a] > eps:
                    U[v] = max(U.get(v, -math.inf), U[u] + cost[a])
        for v, upper in U.items():
            if v == bush.origin:
                continue
            worst = max(worst, (upper - L[v]) / max(L[v], 1.0e-12))
    return worst


def test_criterion_04_wardrop_conditions():
    instances = _hand_instances()
    picks = [instances[i] for i in (1, 3, 4, 7, 9)]
    worst = 0.0
    for name, net, od, electrified, rates in picks:
        expanded, profiles = assembled_instance(net, rates=rates)
        usable = apply_design(expanded, electrified)
        solver = BushSolver(expanded, usable, od, profiles, tol=1.0e-7)
        solver.solve()
        worst = max(worst, _wardrop_spread(expanded, profiles, solver))
    _report(4, worst <= 1.0e-6, f"5 congested instances, max used-path spread {worst:.2e}")


# --- 5: per-shift objective monotonicity ----------------------------------------------


def test_criterion_05_shift_monotonicity():
    shifts = 0
    worst = -math.inf
    for name, net, od, electrified, rates in _hand_instances():
        expanded, profiles = assembled_instance(net, rates=rates)
        usable = apply_design(expanded, electrified)
        solver = RecordingSolver(expanded, usable, od, profiles, tol=1.0e-8)
        solver.solve()
        seq = np.asarray(solver.shift_beckmann)
        shifts += max(0, len(seq) - 1)
        if len(seq) > 1:
            worst = max(worst, float(np.max(np.diff(seq))))
    _report(5, shifts > 100 and worst <= 1.0e-12,
            f"{shifts} recorded shifts over 10 instances, max absolute rise {worst:.2e}")


# --- 6: resistance and switching golden values ----------------------------------------


def test_criterion_06_golden_values():
    rates = RateTable()
    g = rates.gravity
    one_car = TrainConsist(n_locomotives=0, n_railcars=1,
                           railcar_tare_t=30.0, railcar_cargo_t=70.0, railcar_axles=4)
    two_locos = TrainConsist(n_locomotives=2, locomotive_mass_t=200.0,
                             locomotive_axles=6, n_railcars=0)
    mixed = TrainConsist(n_locomotives=2, n_railcars=50)
    fifty_two = TrainConsist(n_locomotives=0, n_railcars=52, railcar_drag=1.56)
    five_kt = TrainConsist(n_locomotives=0, n_railcars=50,
                           railcar_tare_t=30.0, railcar_cargo_t=70.0)
    level = PhysicalLink(id=0, tail=0, head=1, length_km=100.0, grade=0.0,
                         curve_radius_m=20000.0, capacity_tpd=5.0e4)
    composed = RateTable(switching_cost_mode="composed", crew_rate=50.0, cargo_rate=0.0)
    checks = [
        ("bearing one car", bearing_resistance(one_car, rates), 679.2),
        ("bearing two locos", bearing_resistance(two_locos, rates), 2327.6),
        ("flange", flange_resistance(10.0, mixed, rates), 253.58),
        ("air", air_resistance(20.0, fifty_two, rates), 32448.0),
        ("grade", grade_resistance(5000.0, 0.01, rates), 490332.5),
        ("curve", curve_resistance(5000.0, 1000.0, rates),
         0.4536 * 5.0e6 * g * math.asin(15.24 / 1000.0)),
        ("brake incidental",
         _brake(_gather([level], five_kt, rates), five_kt, rates, 9.9e6 * 0.05)[0].item(), 49033.25),
        ("switch composed", switch_cost_per_train(composed), 450.0),
    ]
    failures = [name for name, got, want in checks
                if abs(got - want) > 1.0e-9 * abs(want)]
    _report(6, not failures, f"{len(checks)} golden values, failures {failures or 'none'}")


# --- 7: congestion delay anchors -------------------------------------------------------


def test_criterion_07_delay_anchors():
    t0, cap = 0.8, 4.0e4
    anchors_ok = (
        congestion_time(t0, 0.0, cap) == t0
        and congestion_time(t0, cap, cap) == 2.0 * t0
        and congestion_time(t0, 2.0 * cap, cap) == 17.0 * t0
    )
    net = two_path_network()
    profiles = build_profiles(net, TrainConsist(), RateTable())
    coef, beta = profiles.congestion_coef[0].item(), profiles.beta
    u = net.links[0].capacity_tpd
    profile_ok = (
        congestion_time(coef, 0.0, u, beta) == coef
        and congestion_time(coef, u, u, beta) == 2.0 * coef
        and congestion_time(coef, 2.0 * u, u, beta) == 17.0 * coef
    )
    _report(7, anchors_ok and profile_ok,
            "free flow, at-capacity 2x, double-capacity 17x, all exact")


# --- 8: throttle selection and speeds --------------------------------------------------


def test_criterion_08_power_speed():
    rng = np.random.default_rng(808)
    consist = TrainConsist()
    rates = RateTable()
    levels = build_throttles(consist, rates)[ArcKind.DIESEL]
    links = [
        PhysicalLink(
            id=i, tail=0, head=1,
            length_km=float(rng.uniform(10.0, 120.0)),
            grade=float(rng.uniform(-0.004, 0.022)),
            curve_radius_m=float(rng.uniform(800.0, 40000.0)),
            capacity_tpd=5.0e4,
        )
        for i in range(100)
    ]
    # the program's own array pass prices all 100 links at once
    t = _gather(links, consist, rates)
    power, v = _power_speed(t, consist, rates, levels)
    limited = v < rates.desired_speed
    load = (_davis(t, v, consist, rates) + _brake(t, consist, rates, levels[0])) * v
    worst_resid = float(np.max(np.abs(power - load)[limited] / power[limited], initial=0.0))
    exact_speed = bool(np.all(v[~limited] == rates.desired_speed))

    grades = [
        PhysicalLink(id=0, tail=0, head=1, length_km=50.0, grade=float(grade),
                     curve_radius_m=20000.0, capacity_tpd=5.0e4)
        for grade in np.linspace(0.0, 0.025, 11)
    ]
    speeds = _power_speed(_gather(grades, consist, rates), consist, rates, levels)[1].tolist()
    monotone = all(b <= a + 1.0e-12 for a, b in zip(speeds, speeds[1:]))

    ok = worst_resid <= 1.0e-6 and exact_speed and monotone
    _report(8, ok,
            f"100 links ({int(limited.sum())} power-limited), max power residual {worst_resid:.2e}, "
            f"speed non-increasing in grade")


# --- 9: GA versus exhaustive optimum ---------------------------------------------------


def _yard_line(lengths, capacity_tpd=5.0e4):
    n = len(lengths) + 1
    nodes = [Node(i, 40.0, -100.0 + 0.4 * i, is_yard=True) for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    links = bidirectional(pairs, list(lengths), capacity_tpd=capacity_tpd,
                          curve_radius_m=20000.0)
    return RailNetwork.build(nodes, links)


def _toy_problem(net, od, budget_fraction, tol=1.0e-6):
    rates = RateTable(switch_cost_per_train=350.0)
    consist = TrainConsist()
    profiles = build_profiles(net, consist, rates)
    link_costs = electrification_costs(net, ElectrificationRates())
    corridors = candidate_corridors(net, {l: 1.0 for l in net.links}, link_costs)
    expanded = expand(net, yard_switch_costs(net, rates, consist))
    problem = DesignProblem(expanded=expanded, profiles=profiles, corridors=corridors,
                            link_costs=link_costs, budget=1.0, od=od, tol=tol)
    problem.budget = budget_fraction * problem.union_cost(tuple([1] * len(corridors)))
    return problem


def _design_toys():
    return [
        ("line 8", _toy_problem(
            _yard_line((30, 60, 45, 25, 70, 40, 55, 35)),
            ODMatrix({(0, 8): 2.2e4, (1, 5): 1.5e4, (8, 0): 8.0e3}), 0.40)),
        ("line 10", _toy_problem(
            _yard_line((50,) * 10),
            ODMatrix({(0, 10): 2.8e4, (3, 7): 1.2e4, (10, 2): 9.0e3}), 0.35)),
        ("line 12", _toy_problem(
            _yard_line((20, 35, 50, 65, 80, 30, 45, 60, 25, 40, 55, 70)),
            ODMatrix({(0, 12): 1.8e4, (2, 9): 1.4e4, (12, 4): 1.1e4}), 0.40)),
        ("grid 12", _toy_problem(
            grid3x3_network(yards=tuple(range(9)), length_km=60.0),
            ODMatrix({(0, 8): 2.5e4, (6, 2): 1.5e4, (8, 0): 1.0e4}), 0.35)),
        ("line 9", _toy_problem(
            _yard_line((80, 20, 80, 20, 80, 20, 80, 20, 80)),
            ODMatrix({(0, 9): 2.0e4, (9, 0): 2.0e4, (2, 7): 1.3e4}), 0.45)),
    ]


def test_criterion_09_ga_near_optimal():
    worst_ratio = 0.0
    worst_wall = 0.0
    for name, problem in _design_toys():
        n = len(problem.corridors)
        assert 8 <= n <= 12 and len(problem.expanded.net.links) <= 40
        start = time.perf_counter()
        best_exhaustive = brute_force(problem)
        config = GAConfig(population=20, generations=15, seed=11)
        rng = Generator(config.seed)  # one stream, as optimize_run draws
        seeds = seed_population(config, problem, rng)
        best_ga, _ = evolve(seeds, config, problem, rng)
        wall = time.perf_counter() - start
        worst_ratio = max(worst_ratio, best_ga.total_cost / best_exhaustive.total_cost)
        worst_wall = max(worst_wall, wall)
    ok = worst_ratio <= 1.05 and worst_wall < 60.0
    _report(9, ok, f"5 toys, worst GA/exhaustive ratio {worst_ratio:.5f}, "
                   f"slowest {worst_wall:.1f}s")


# --- 10: repair never breaks the budget ------------------------------------------------


def test_criterion_10_repair_feasibility():
    name, problem = _design_toys()[0]
    n = len(problem.corridors)
    rng = np.random.default_rng(1010)
    over_budget_inputs = 0
    violations = 0
    additions = 0
    for _ in range(10_000):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        if problem.union_cost(bits) > problem.budget:
            over_budget_inputs += 1
        fixed = repair(bits, problem)
        if problem.union_cost(fixed) > problem.budget:
            violations += 1
        if any(f > b for f, b in zip(fixed, bits)):
            additions += 1
    ok = violations == 0 and additions == 0
    _report(10, ok, f"10000 repairs ({over_budget_inputs} over budget on input), "
                    f"{violations} budget violations, {additions} bit additions")


# --- 11: corridor enumeration on the unit grid ------------------------------------------


def test_criterion_11_grid_corridors():
    net = grid3x3_network(yards=(0, 2, 7), length_km=1.0)
    link_costs = electrification_costs(net, ElectrificationRates())
    rows = candidate_corridors(net, {l: 1.0 for l in net.links}, link_costs)
    got = [(c.id, c.yard_a, c.yard_b, c.link_ids, c.length_km) for c in rows]
    want = [
        (0, 0, 2, (0, 4), 2.0),
        (1, 0, 7, (0, 6, 16), 3.0),
        (2, 2, 7, (5, 6, 16), 3.0),
    ]
    costs_ok = all(
        c.cost_usd == sum(link_costs[l] for l in c.link_ids) for c in rows
    )
    _report(11, got == want and costs_ok,
            f"3 yards on the unit grid -> {[(c.yard_a, c.yard_b) for c in rows]}")


# --- 12: budget sweep on a synthetic region ---------------------------------------------


def _write_region(tmp_path, net, demand, budget):
    with open(tmp_path / "nodes.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "lat", "lon", "is_yard", "switching_cost"])
        for nid in sorted(net.nodes):
            nd = net.nodes[nid]
            w.writerow([nid, repr(nd.lat), repr(nd.lon), int(nd.is_yard),
                        "" if nd.switching_cost is None else repr(nd.switching_cost)])
    with open(tmp_path / "links.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "tail", "head", "length_km", "grade", "curve_radius_m",
                    "capacity_tpd", "signal_class", "candidate"])
        for lid in sorted(net.links):
            ln = net.links[lid]
            w.writerow([lid, ln.tail, ln.head, repr(ln.length_km), repr(ln.grade),
                        repr(ln.curve_radius_m), repr(ln.capacity_tpd),
                        ln.signal_class.value, int(ln.candidate)])
    with open(tmp_path / "od.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["origin", "destination", "tons_per_day"])
        for (o, d), tons in sorted(demand.items()):
            w.writerow([o, d, repr(tons)])
    (tmp_path / "rates.cfg").write_text("switch_cost_per_train = 350\n")
    (tmp_path / "scenario.cfg").write_text(
        f"budget = {budget!r}\n"
        "rates_file = rates.cfg\n"
        "population = 10\n"
        "generations = 6\n"
        "seed = 3\n"
    )
    return tmp_path / "scenario.cfg"


def test_criterion_12_budget_sweep(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(1212)
    net = random_network(rng, n_nodes=20, extra_links=8, yard_count=6)
    yards = net.yards()
    demand = {}
    while len(demand) < 8:
        o, d = (int(v) for v in rng.choice(yards, size=2, replace=False))
        demand[(o, d)] = float(rng.uniform(8.0e3, 2.0e4))

    cfg = _write_region(tmp_path, net, demand, budget=1.0e9)
    from railplan.scenario_io import assemble

    bundle = assemble(load_scenario(cfg))
    budget = 0.45 * bundle.union_cost(tuple([1] * len(bundle.corridors)))
    cfg = _write_region(tmp_path, net, demand, budget=budget)
    scenario = load_scenario(cfg)

    out = tmp_path / "sweep"
    values = [0.8 * budget, budget, 1.2 * budget]
    reports, rows = sweep(scenario, "budget", values, out)
    elapsed = time.perf_counter() - start

    geojson_ok = True
    for v in values:
        run_dir = out / f"budget_{v:g}"
        doc = json.loads((run_dir / "electrified.geojson").read_text())
        try:
            validate_geojson(doc)
        except Exception:
            geojson_ok = False
        geojson_ok = geojson_ok and (run_dir / "report.csv").exists()

    base = set(rows[1].selected)
    overlap_ok = rows[1].added_vs_base == () and rows[1].removed_vs_base == ()
    for prev, row in zip([None] + rows[:-1], rows):
        sel = set(row.selected)
        overlap_ok = overlap_ok and set(row.common_with_base) == sel & base
        overlap_ok = overlap_ok and set(row.added_vs_base) == sel - base
        overlap_ok = overlap_ok and set(row.removed_vs_base) == base - sel
        overlap_ok = overlap_ok and row.budget_used <= row.value + 1.0e-6
        if prev is not None:
            overlap_ok = overlap_ok and row.nested_wrt_prev == (set(prev.selected) <= sel)

    with open(out / "sweep_report.csv") as fh:
        n_rows = len(list(csv.DictReader(fh)))

    ok = elapsed < 300.0 and geojson_ok and overlap_ok and n_rows == 3 and len(reports) == 3
    _report(12, ok,
            f"20-node region, budgets {[f'{v:.3g}' for v in values]}, "
            f"selections {[row.selected for row in rows]}, {elapsed:.1f}s")
