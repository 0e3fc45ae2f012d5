"""A solve started from a converged equilibrium on fewer usable arcs: the
start is returned at iteration 0 when it passes the gap test under the new
arcs, and the solve is exactly the cold one otherwise.  The screen's gap,
repaired from the start's distance table, is `relative_gap` bit for bit."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import railplan.equilibrium as equilibrium
import railplan.screen as screen
from railplan.corridors import candidate_corridors
from railplan.costmodel import ElectrificationRates, RateTable, electrification_costs
from railplan.design import DesignProblem
from railplan.equilibrium import (
    CostEngine,
    ODMatrix,
    relative_gap,
    solve_equilibrium,
)
from railplan.network import apply_design
from railplan.screen import StartTable

from oracles import oracle_relative_gap
from synth import assembled_instance, grid3x3_network, line_network, random_network, random_od

TOL = 1.0e-7
# cheap electricity and switching: electric traction pays
PAYS = RateTable(fuel_cost_electric=0.3e-8, switch_cost_per_train=200.0)
CAPACITY = {"moderate": (2.0e4, 8.0e4), "overloaded": (1.0e3, 5.0e3)}


def line_instance(rates=None):
    net = line_network(n_nodes=5, yards=(0, 1, 2, 3, 4))
    expanded, profiles = assembled_instance(net, rates=rates)
    return net, expanded, profiles, ODMatrix({(0, 4): 4.0e4, (1, 3): 1.0e4})


def all_diesel_start(expanded, profiles, od, widest, **kwargs):
    """The all-diesel solve and its StartTable, for masks within `widest`."""
    usable = apply_design(expanded, ())
    solved = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, **kwargs)
    return solved, StartTable(expanded, od, *solved, usable, widest)


def corridor_instance(seed, rates):
    """A seeded random instance, its candidate corridors, and the mask with
    every corridor electrified, the widest a design search uses."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_nodes=10, extra_links=10, yard_count=4)
    od = random_od(rng, net, pairs=6)
    expanded, profiles = assembled_instance(net, rates=rates)
    link_costs = electrification_costs(net, ElectrificationRates())
    corridors = candidate_corridors(net, {lid: 1.0 for lid in net.links}, link_costs)
    return rng, net, od, expanded, profiles, corridors, corridor_union(expanded, net, corridors)


def corridor_union(expanded, net, corridors):
    return apply_design(expanded, net.with_reverse_twins({lid for c in corridors for lid in c.link_ids}))


def assert_same_solve(got, want):
    (gs, gm), (ws, wm) = got, want
    assert gs.x.tolist() == ws.x.tolist()
    assert gs.cost.tolist() == ws.cost.tolist()
    assert (gm.beckmann, gm.iteration, gm.relative_gap, gm.wardrop_max, gm.converged) == (
        wm.beckmann, wm.iteration, wm.relative_gap, wm.wardrop_max, wm.converged
    )
    assert gm.trace == wm.trace


def test_unused_electric_arcs_return_the_start_without_iterating(monkeypatch):
    net, expanded, profiles, od = line_instance()
    (base_state, base), start = all_diesel_start(expanded, profiles, od, apply_design(expanded, net.links))
    assert base.converged

    def no_solver(*args, **kwargs):
        raise AssertionError("the screened solve built a solver")

    monkeypatch.setattr(equilibrium, "BushSolver", no_solver)
    monkeypatch.setattr(equilibrium, "CostEngine", no_solver)
    usable = apply_design(expanded, net.links)
    state, metrics = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, start=start)
    assert state.x.tolist() == base_state.x.tolist()
    assert state.x is not base_state.x
    assert state.cost.tolist() == CostEngine(expanded, profiles).costs(state.x).tolist()
    assert (metrics.iteration, metrics.converged) == (0, True)
    assert metrics.beckmann == base.beckmann
    assert metrics.wardrop_max == base.wardrop_max
    assert metrics.relative_gap <= TOL
    assert metrics.trace == [(0, base.beckmann, metrics.relative_gap)]


def test_design_failing_the_screen_is_solved_cold():
    net, expanded, profiles, od = line_instance(PAYS)
    (_, base), start = all_diesel_start(expanded, profiles, od, apply_design(expanded, net.links))
    assert base.converged
    usable = apply_design(expanded, net.links)
    assert start.screen(usable, TOL) is None
    got = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, start=start)
    assert got[1].iteration > 0
    assert_same_solve(got, solve_equilibrium(expanded, usable, od, profiles, tol=TOL))

    # a mask that drops arcs of the start is no design's, and neither is a
    # start whose flows leave its own usable arcs
    electric = StartTable(expanded, od, *got, usable, usable)
    all_diesel = apply_design(expanded, ())
    assert np.any(got[0].x[~all_diesel] > 0.0)
    with pytest.raises(ValueError, match="hold this start's"):
        electric.screen(all_diesel, TOL)
    with pytest.raises(ValueError, match="hold this start's"):
        solve_equilibrium(expanded, all_diesel, od, profiles, tol=TOL, start=electric)
    with pytest.raises(ValueError, match="leave its usable arcs"):
        StartTable(expanded, od, *got, all_diesel, usable)


def test_unconverged_start_screens_nothing(monkeypatch):
    # six shortest routes across the grid: one iteration cannot balance them
    net = grid3x3_network(capacity_tpd=5.0e3)
    expanded, profiles = assembled_instance(net)
    od = ODMatrix({(0, 8): 2.0e4})
    every = apply_design(expanded, net.links)
    (_, base), start = all_diesel_start(expanded, profiles, od, every, max_iter=1)
    assert not base.converged
    gaps = []  # the solver's gap computations (the screen calls its own binding)
    gap = equilibrium._gap
    monkeypatch.setattr(equilibrium, "_gap", lambda *a: gaps.append(a) or gap(*a))
    usable = apply_design(expanded, net.links)
    assert start.screen(usable, TOL) is None
    got = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, max_iter=1, start=start)
    screened_gaps = len(gaps)
    want = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, max_iter=1)
    assert screened_gaps == len(gaps) - screened_gaps == 1  # the last iteration's only
    assert_same_solve(got, want)

    # converged flows whose recorded Wardrop spread is above the tolerance
    # (as from a solve at a looser one) are not screened either, though
    # their gap passes
    (state, metrics), converged = all_diesel_start(expanded, profiles, od, every)
    assert metrics.converged
    assert converged.screen(usable, TOL) is not None
    loose = StartTable(
        expanded, od, state, replace(metrics, wardrop_max=2.0 * TOL, converged=False),
        apply_design(expanded, ()), every,
    )
    assert loose.relative_gap(usable) <= TOL
    assert loose.screen(usable, TOL) is None
    got = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, start=loose)
    assert_same_solve(got, solve_equilibrium(expanded, usable, od, profiles, tol=TOL))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pays=st.booleans(), share=st.sampled_from([0.25, 0.5, 1.0]))
def test_screened_result_passes_the_gap_test_under_the_design(seed, pays, share):
    rng = np.random.default_rng(seed)
    net = random_network(
        rng,
        n_nodes=int(rng.integers(4, 11)),
        extra_links=int(rng.integers(0, 12)),
        yard_count=int(rng.integers(1, 5)),
    )
    od = random_od(rng, net, pairs=int(rng.integers(1, 6)))
    expanded, profiles = assembled_instance(net, rates=PAYS if pays else None)
    (_, base), start = all_diesel_start(expanded, profiles, od, apply_design(expanded, net.links))
    assume(base.converged)
    usable = apply_design(expanded, {lid for lid in sorted(net.links) if rng.random() < share})
    state, metrics = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, start=start)
    x = start.state.x
    gap = oracle_relative_gap(expanded, usable, CostEngine(expanded, profiles).costs(x), x, od)
    if metrics.iteration == 0:
        assert state.x.tolist() == x.tolist()
        assert gap <= TOL
    else:
        assert gap > TOL


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    load=st.sampled_from(sorted(CAPACITY)),
    pays=st.booleans(),
)
def test_screen_gap_is_relative_gap_bit_for_bit(seed, load, pays):
    rng = np.random.default_rng(seed)
    net = random_network(
        rng,
        n_nodes=int(rng.integers(4, 13)),
        extra_links=int(rng.integers(0, 14)),
        yard_count=int(rng.integers(2, 6)),
        capacity_range=CAPACITY[load],
    )
    od = random_od(rng, net, pairs=int(rng.integers(1, 8)))
    expanded, profiles = assembled_instance(net, rates=PAYS if pays else None)
    link_costs = electrification_costs(net, ElectrificationRates())
    corridors = candidate_corridors(net, {lid: 1.0 for lid in net.links}, link_costs)
    widest = corridor_union(expanded, net, corridors)  # as DesignProblem.start builds it
    (state, metrics), start = all_diesel_start(expanded, profiles, od, widest, max_iter=100)
    x = state.x
    costs = CostEngine(expanded, profiles).costs(x)
    for k in range(4):
        picked = [c for c in corridors if rng.random() < 0.5]
        electrified = net.with_reverse_twins({lid for c in picked for lid in c.link_ids})
        mask = apply_design(expanded, electrified)  # as DesignProblem._solve builds it
        if k % 2:  # an idle arc of the start not usable here: no design's mask
            mask[rng.choice(np.flatnonzero(start.usable & (x == 0.0)))] = False
            with pytest.raises(ValueError, match="hold this start's"):
                start.relative_gap(mask)
            with pytest.raises(ValueError, match="hold this start's"):
                start.screen(mask, TOL)
            continue
        want = relative_gap(expanded, mask, costs, x, od)
        assert start.relative_gap(mask) == want
        # the decision of a start re-solved through relative_gap
        accept = metrics.wardrop_max <= TOL and want <= TOL
        screened = start.screen(mask, TOL)
        assert (screened is not None) == accept
        if screened is not None:
            assert screened[0].x.tolist() == x.tolist()
            assert screened[0].cost.tolist() == costs.tolist()
            assert (screened[1].iteration, screened[1].relative_gap) == (0, want)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pays=st.booleans())
def test_a_design_search_screens_only_masks_its_start_takes(seed, pays):
    rng, net, od, expanded, profiles, corridors, _ = corridor_instance(seed, PAYS if pays else None)
    assume(corridors)
    problem = DesignProblem(
        expanded, profiles, corridors, electrification_costs(net, ElectrificationRates()), math.inf, od, tol=TOL
    )
    start, masks = problem.start(), []
    screen_one = start.screen
    start.screen = lambda usable, tol: masks.append(usable.copy()) or screen_one(usable, tol)
    designs = {tuple(int(b) for b in rng.random(len(corridors)) < rng.uniform()) for _ in range(6)}
    designs.add((1,) * len(corridors))
    for bits in designs:
        problem.evaluate(bits)
    assert len(masks) == sum(any(bits) for bits in designs)
    all_diesel = apply_design(expanded, ())
    for mask in masks:
        assert not np.any(all_diesel & ~mask)
        assert not np.any(mask & ~start.widest)


def assert_screen_matches_relative_gap(start, expanded, profiles, od, mask):
    """The screen's gap and decision under the design mask `mask`, against
    `relative_gap`."""
    x = start.state.x
    want = relative_gap(expanded, mask, CostEngine(expanded, profiles).costs(x), x, od)
    assert start.relative_gap(mask) == want
    accept = start.metrics.wardrop_max <= TOL and want <= TOL
    assert (start.screen(mask, TOL) is not None) == accept


def test_open_and_closed_origins_give_relative_gap_bit_for_bit():
    rng, net, od, expanded, profiles, corridors, widest = corridor_instance(0, PAYS)
    (_, base), start = all_diesel_start(expanded, profiles, od, widest)
    assert base.converged
    closed = [kept is not None for kept in start.closed]
    assert 0 < sum(closed) < len(closed)
    assert start.dist.shape == (closed.count(False), expanded.n_nodes)
    designs = [[], corridors] + [[c for c in corridors if rng.random() < 0.5] for _ in range(6)]
    for picked in designs:
        assert_screen_matches_relative_gap(start, expanded, profiles, od, corridor_union(expanded, net, picked))


def test_closed_origins_are_screened_without_a_repair(monkeypatch):
    rng, net, od, expanded, profiles, corridors, widest = corridor_instance(0, None)
    _, start = all_diesel_start(expanded, profiles, od, widest)
    assert all(kept is not None for kept in start.closed)
    assert start.dist.shape == (0, expanded.n_nodes)
    calls = []
    dijkstra = screen._dijkstra
    monkeypatch.setattr(screen, "_dijkstra", lambda *a: calls.append(a) or dijkstra(*a))
    for picked in [corridors] + [[c for c in corridors if rng.random() < 0.5] for _ in range(4)]:
        assert_screen_matches_relative_gap(start, expanded, profiles, od, corridor_union(expanded, net, picked))
    assert calls == []


def test_a_mask_outside_the_widest_one_is_rejected():
    _, net, od, expanded, profiles, corridors, _ = corridor_instance(0, PAYS)
    _, start = all_diesel_start(expanded, profiles, od, corridor_union(expanded, net, corridors[:1]))
    usable = corridor_union(expanded, net, corridors[1:2])
    assert np.any(usable & ~start.widest)
    with pytest.raises(ValueError, match="widest"):
        start.relative_gap(usable)
    with pytest.raises(ValueError, match="widest"):
        start.screen(usable, TOL)
