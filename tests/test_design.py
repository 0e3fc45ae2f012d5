"""Budget repair, greedy seeding, GA search, and the brute-force reference."""

import numpy as np
import pytest

from railplan.corridors import candidate_corridors
from railplan.costmodel import (
    ElectrificationRates,
    RateTable,
    TrainConsist,
    build_profiles,
    electrification_costs,
    yard_switch_costs,
)
from railplan.design import (
    DesignProblem,
    GAConfig,
    design_bits,
    electric_tonnage_share,
    evolve,
    repair,
    seed_population,
)
from railplan.equilibrium import FlowState, ODMatrix
from railplan.network import Node, PhysicalLink, RailNetwork, apply_design, expand

from oracles import brute_force
from synth import grid3x3_network, line_network


def build_problem(net, od, budget, rates=None, consist=None, weights=None, tol=1e-7):
    rates = rates or RateTable()
    consist = consist or TrainConsist()
    profiles = build_profiles(net, consist, rates)
    link_costs = electrification_costs(net, ElectrificationRates())
    corridors = candidate_corridors(net, weights or {l: 1.0 for l in net.links}, link_costs)
    expanded = expand(net, yard_switch_costs(net, rates, consist))
    problem = DesignProblem(
        expanded=expanded,
        profiles=profiles,
        corridors=corridors,
        link_costs=link_costs,
        budget=budget,
        od=od,
        tol=tol,
    )
    return problem


def yard_line_problem(budget_corridors=2.0, demand=None):
    """Four all-yard nodes in a line: corridors (0,1), (1,2), (2,3) with
    identical capital costs (equal lengths, equal alphas)."""
    net = line_network(n_nodes=4, yards=(0, 1, 2, 3))
    od = ODMatrix(demand or {(0, 1): 4.0e4, (0, 3): 1.0e4})
    problem = build_problem(net, od, budget=1.0)
    unit = problem.corridors[0].cost_usd
    problem.budget = budget_corridors * unit
    return problem, unit


# --- design vectors and bookkeeping ---------------------------------------------------


def test_design_bits_from_ids():
    assert design_bits([2, 0], 4) == (1, 0, 1, 0)
    with pytest.raises(ValueError, match="unknown corridor"):
        design_bits([5], 3)
    problem, _ = yard_line_problem()
    assert problem.evaluate(design_bits([0, 2], 3)).selected == (0, 2)
    with pytest.raises(ValueError, match="0/1"):
        problem.evaluate((0, 2, 1))


def test_member_links_and_twin_closure():
    net = grid3x3_network()
    od = ODMatrix({(0, 7): 1.0e4})
    problem = build_problem(net, od, budget=1e12)
    # grid corridors: (0,4), (0,6,16), (5,6,16); c1 and c2 share links 6, 16
    assert problem.member_links((0, 1, 1)) == {0, 5, 6, 16}
    assert problem.electrified_links((1, 0, 0)) == {0, 1, 4, 5}
    c1, c2 = problem.corridors[1], problem.corridors[2]
    assert problem.union_cost((0, 1, 1)) == pytest.approx(
        c1.cost_usd + c2.cost_usd - sum(problem.link_costs[l] for l in (6, 16)),
        rel=1e-12,
    )
    assert problem.electrified_km((1, 0, 0)) == pytest.approx(20.0, rel=1e-12)


def test_evaluate_caches(two_path_net):
    od = ODMatrix({(0, 1): 1.0e4})
    problem = build_problem(two_path_net, od, budget=1e12)
    a = problem.evaluate((0,) * len(problem.corridors))
    b = problem.baseline()
    assert a is b


# --- repair ---------------------------------------------------------------------------


def test_repair_keeps_feasible_designs():
    problem, unit = yard_line_problem(budget_corridors=3.0)
    bits = (1, 1, 1)
    assert repair(bits, problem) == bits


def test_repair_drops_lowest_score_first():
    # flows: link0 5e4, links 2 and 4 1e4 -> corridor 0 scores highest,
    # corridors 1 and 2 tie and the tie falls to the lower id
    problem, unit = yard_line_problem(budget_corridors=2.0)
    assert repair((1, 1, 1), problem) == (1, 0, 1)
    problem.budget = 1.0 * unit
    assert repair((1, 1, 1), problem) == (1, 0, 0)


def test_repair_equal_scores_drop_expensive_first():
    # no baseline flow past node 1: corridors (1,2) and (2,3) both score
    # exactly zero, so the costlier one (medium signal class) goes first
    from railplan.network import SignalClass

    nodes = [Node(i, 40.0, -100.0 + 0.4 * i, is_yard=True) for i in range(4)]
    def pair(k, a, b, signal):
        kw = dict(length_km=50.0, curve_radius_m=20000.0, capacity_tpd=5e4,
                  signal_class=signal)
        return [PhysicalLink(2 * k, a, b, **kw), PhysicalLink(2 * k + 1, b, a, **kw)]

    links = (pair(0, 0, 1, SignalClass.LOW) + pair(1, 1, 2, SignalClass.LOW)
             + pair(2, 2, 3, SignalClass.MEDIUM))
    net = RailNetwork.build(nodes, links)
    od = ODMatrix({(0, 1): 4.0e4})
    problem = build_problem(net, od, budget=1.0)
    c = [corridor.cost_usd for corridor in problem.corridors]
    assert c[2] > c[1] == c[0]
    problem.budget = c[0] + c[1]
    assert repair((1, 1, 1), problem) == (1, 1, 0)


def test_repair_random_never_exceeds_budget():
    problem, _ = yard_line_problem(budget_corridors=1.5)
    rng = np.random.default_rng(31)
    for _ in range(200):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=3))
        fixed = repair(bits, problem)
        assert problem.union_cost(fixed) <= problem.budget
        # repair never adds corridors
        assert all(f <= b for f, b in zip(fixed, bits))


# --- seeding -------------------------------------------------------------------------


def test_seed_population_greedy_first():
    problem, unit = yard_line_problem(budget_corridors=2.0)
    config = GAConfig(population=10, seed=1)
    population = seed_population(config, problem)
    assert len(population) == 10
    # densest corridor first (link0 carries 5e4), then the id-order zero ties
    assert population[0] == (1, 1, 0)
    for genome in population:
        assert problem.union_cost(genome) <= problem.budget


def test_seed_population_no_corridors():
    net = line_network(n_nodes=3, yards=())
    od = ODMatrix({(0, 2): 1.0e4})
    problem = build_problem(net, od, budget=1e9)
    assert problem.corridors == []
    population = seed_population(GAConfig(population=4), problem)
    assert population == [(), (), (), ()]


def test_electric_tonnage_share_hand_case():
    net = line_network(n_nodes=3, yards=(0, 2), length_km=100.0)
    rates = RateTable()
    consist = TrainConsist()
    expanded = expand(net, yard_switch_costs(net, rates, consist))
    x = np.zeros(expanded.n_arcs)
    d0, e0 = expanded.pair_of[0]
    d2, e2 = expanded.pair_of[2]
    x[d0] = 3.0e3  # diesel, 100 km
    x[e2] = 1.0e3  # electric, 100 km
    x[expanded.switch_arcs_at[0][0]] = 5.0e3  # switch arcs don't move tons over km
    state = FlowState(x=x, cost=np.zeros_like(x))
    share = electric_tonnage_share(expanded, state)
    assert type(share) is float
    assert share == pytest.approx(0.25, rel=1e-12)


# --- search --------------------------------------------------------------------------


def test_brute_force_matches_exhaustive_oracle():
    problem, unit = yard_line_problem(budget_corridors=2.0)
    best = brute_force(problem)
    seen = []
    for mask in range(8):
        bits = tuple((mask >> k) & 1 for k in range(3))
        if problem.union_cost(bits) <= problem.budget:
            seen.append((problem.evaluate(bits).total_cost, sum(bits), bits))
    want_cost, _, want_bits = min(seen)
    assert best.bits == want_bits
    assert best.total_cost == want_cost
    assert problem.union_cost(best.bits) <= problem.budget


def test_brute_force_caps_width():
    problem, _ = yard_line_problem()
    problem.corridors = list(problem.corridors) * 7  # 21 corridors
    with pytest.raises(ValueError, match="20"):
        brute_force(problem)


def test_evolve_reaches_brute_force_optimum():
    problem, unit = yard_line_problem(budget_corridors=2.0)
    config = GAConfig(population=8, generations=6, seed=3)
    rng = np.random.default_rng(3)
    population = seed_population(config, problem, rng)
    best, history = evolve(population, config, problem, rng)
    reference = brute_force(problem)
    assert best.total_cost == pytest.approx(reference.total_cost, rel=1e-12)
    assert len(history) == config.generations + 1
    assert history[0][0] == 0
    best_costs = [row[1] for row in history]
    assert all(a >= b for a, b in zip(best_costs, best_costs[1:]))
    assert problem.union_cost(best.bits) <= problem.budget


def test_negative_mutation_means_one_over_corridors():
    def run(mutation):
        problem, _ = yard_line_problem(budget_corridors=2.0)
        config = GAConfig(population=8, generations=6, seed=3, mutation=mutation)
        rng = np.random.default_rng(3)
        best, history = evolve(seed_population(config, problem, rng), config, problem, rng)
        return best, history, [e.bits for e in problem.solved]

    default = run(-1.0)
    assert len(yard_line_problem()[0].corridors) == 3
    assert default == run(1.0 / 3)
    assert default != run(0.0)


def test_evaluate_counts_one_lookup_per_population_slot(monkeypatch):
    # reads of the all-diesel solution by the seeding, `repair` and the
    # screen are no lookups; the GA looks each slot up once per generation
    problem, _ = yard_line_problem(budget_corridors=2.0)
    calls = []
    evaluate = DesignProblem.evaluate
    monkeypatch.setattr(DesignProblem, "evaluate",
                        lambda self, bits: calls.append(tuple(bits)) or evaluate(self, bits))
    config = GAConfig(population=8, generations=6, seed=3)
    rng = np.random.default_rng(3)
    population = seed_population(config, problem, rng)
    problem.corridor_scores()
    problem.start()
    problem.baseline_state()
    assert calls == [(0, 0, 0)]
    evolve(population, config, problem, rng)
    assert len(calls) == 1 + config.population * (config.generations + 1)


# at 1 $/J electric traction is never used, so every design ties with the
# all-diesel one and the winner is decided by the GA's tie rule
ALL_TIE_RATES = {"fuel_cost_electric": 1.0}
# cheap electricity and switching: electric traction pays, so the winner's
# equilibrium differs from the all-diesel one
PAYS_RATES = {"fuel_cost_electric": 0.3e-8, "switch_cost_per_train": 200.0}


def line_problem(rate_overrides):
    """Five all-yard nodes in a line, at half the all-corridor capital."""
    net = line_network(n_nodes=5, yards=(0, 1, 2, 3, 4))
    rates = RateTable(**rate_overrides)
    problem = build_problem(net, ODMatrix({(0, 4): 4.0e4, (1, 3): 1.0e4}), budget=1.0, rates=rates)
    problem.budget = 0.5 * sum(c.cost_usd for c in problem.corridors)
    return problem


@pytest.mark.parametrize(
    "rate_overrides",
    [
        pytest.param({}, id="None"),
        pytest.param(ALL_TIE_RATES, id="1.0"),
        pytest.param(PAYS_RATES, id="pays"),
    ],
)
def test_each_design_solved_once_and_winner_solved_again(monkeypatch, rate_overrides):
    import railplan.design as design_module

    problem = line_problem(rate_overrides)
    solve = design_module.solve_equilibrium
    solves = []
    monkeypatch.setattr(design_module, "solve_equilibrium",
                        lambda *args, **kwargs: solves.append(args[1]) or solve(*args, **kwargs))
    config = GAConfig(population=8, generations=6, seed=3)
    rng = np.random.default_rng(3)
    best, _ = evolve(seed_population(config, problem, rng), config, problem, rng)
    assert any(best.bits)  # the winner is not the all-diesel design
    if rate_overrides == ALL_TIE_RATES:
        assert len({e.total_cost for e in problem.solved}) == 1
    assert len(solves) == len(problem.solved)

    winner = problem.solution(best.bits)
    assert len(solves) == len(problem.solved) + 1  # the winner is solved once more
    baseline = problem.solution((0,) * len(problem.corridors))
    assert len(solves) == len(problem.solved) + 1  # the all-diesel one is kept
    assert winner.evaluated == best
    assert baseline.evaluated == problem.baseline()
    assert problem.baseline_state() is baseline.state
    # every design's solve starts from the all-diesel equilibrium
    usable = apply_design(problem.expanded, problem.electrified_links(best.bits))
    state, metrics = solve(problem.expanded, usable, problem.od, problem.profiles, tol=problem.tol,
                           start=problem.start())
    assert winner.state.x.tolist() == state.x.tolist()
    assert winner.metrics.trace == metrics.trace
    if rate_overrides == PAYS_RATES:
        assert winner.evaluated.electric_share > 0.0
        assert winner.metrics.iteration > 0  # the winner was solved, not screened
    else:
        assert winner.metrics.iteration == 0
        assert winner.state.x.tolist() == baseline.state.x.tolist()

    # any other design is solved afresh, to the same numbers
    kept = (best.bits, baseline.evaluated.bits)
    other = next(e for e in problem.solved if e.bits not in kept)
    assert problem.solution(other.bits).evaluated == other
    assert len(solves) == len(problem.solved) + 2


@pytest.mark.parametrize(
    "rate_overrides",
    [pytest.param(ALL_TIE_RATES, id="1.0"), pytest.param(PAYS_RATES, id="pays")],
)
def test_winner_is_lowest_genome_at_least_cost_in_first_generation_reaching_it(
    monkeypatch, rate_overrides
):
    import railplan.design as design_module

    problem = line_problem(rate_overrides)
    evaluate_all = design_module._evaluate_all
    generations = []
    monkeypatch.setattr(design_module, "_evaluate_all",
                        lambda genomes, p: generations.append(list(genomes)) or evaluate_all(genomes, p))
    config = GAConfig(population=8, generations=6, seed=3)
    rng = np.random.default_rng(3)
    best, _ = evolve(seed_population(config, problem, rng), config, problem, rng)
    assert len(generations) == config.generations + 1

    cost = {e.bits: e.total_cost for e in problem.solved}
    least = min(cost[g] for genomes in generations for g in genomes)
    first = next(genomes for genomes in generations if any(cost[g] == least for g in genomes))
    assert best.bits == min(g for g in first if cost[g] == least)
    if rate_overrides == ALL_TIE_RATES:
        assert len(set(cost.values())) == 1
    else:
        assert len(set(cost.values())) > 1


def test_design_fitness_does_not_depend_on_evaluation_order():
    # the all-diesel equilibrium is solved first even when a design comes first
    problem_a, _ = yard_line_problem()
    problem_b, _ = yard_line_problem()
    problem_a.baseline()
    designs = [(1, 0, 0), (0, 1, 1), (1, 1, 1)]
    for bits in designs:
        problem_b.evaluate(bits)
    assert problem_b._baseline is not None
    for bits in designs:
        assert problem_a.evaluate(bits) == problem_b.evaluate(bits)
