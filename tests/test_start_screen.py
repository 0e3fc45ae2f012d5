"""A solve started from a converged equilibrium on fewer usable arcs: the
start is returned at iteration 0 when it passes the gap test under the new
arcs, and the solve is exactly the cold one otherwise."""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import railplan.equilibrium as equilibrium
from railplan.costmodel import RateTable
from railplan.equilibrium import CostEngine, ODMatrix, solve_equilibrium
from railplan.network import apply_design

from oracles import oracle_relative_gap
from synth import assembled_instance, grid3x3_network, line_network, random_network, random_od

TOL = 1.0e-7
# cheap electricity and switching: electric traction pays
PAYS = RateTable(fuel_cost_electric=0.3e-8, switch_cost_per_train=200.0)


def line_instance(rates=None):
    net = line_network(n_nodes=5, yards=(0, 1, 2, 3, 4))
    expanded, profiles = assembled_instance(net, rates=rates)
    return net, expanded, profiles, ODMatrix({(0, 4): 4.0e4, (1, 3): 1.0e4})


def assert_same_solve(got, want):
    (gs, gm), (ws, wm) = got, want
    assert gs.x.tolist() == ws.x.tolist()
    assert gs.cost.tolist() == ws.cost.tolist()
    assert (gs.beckmann, gm.iteration, gm.relative_gap, gm.wardrop_max, gm.converged) == (
        ws.beckmann, wm.iteration, wm.relative_gap, wm.wardrop_max, wm.converged
    )
    assert [row[:3] for row in gm.trace] == [row[:3] for row in wm.trace]


def test_unused_electric_arcs_return_the_start_without_iterating(monkeypatch):
    net, expanded, profiles, od = line_instance()
    base_state, base = solve_equilibrium(expanded, apply_design(expanded, ()), od, profiles, tol=TOL)
    assert base.converged

    def no_bushes(*args, **kwargs):
        raise AssertionError("the screened solve built a bush")

    monkeypatch.setattr(equilibrium, "_initial_bush", no_bushes)
    usable = apply_design(expanded, net.links)
    state, metrics = solve_equilibrium(
        expanded, usable, od, profiles, tol=TOL, start=(base_state, base)
    )
    assert state.x.tolist() == base_state.x.tolist()
    assert state.x is not base_state.x
    assert state.cost.tolist() == CostEngine(expanded, profiles).costs(state.x).tolist()
    assert (metrics.iteration, metrics.converged) == (0, True)
    assert (state.beckmann, metrics.beckmann) == (base.beckmann, base.beckmann)
    assert metrics.wardrop_max == base.wardrop_max
    assert metrics.relative_gap <= TOL
    assert [row[:3] for row in metrics.trace] == [(0, base.beckmann, metrics.relative_gap)]


def test_design_failing_the_screen_is_solved_cold():
    net, expanded, profiles, od = line_instance(PAYS)
    start = solve_equilibrium(expanded, apply_design(expanded, ()), od, profiles, tol=TOL)
    assert start[1].converged
    usable = apply_design(expanded, net.links)
    got = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, start=start)
    assert got[1].iteration > 0
    assert_same_solve(got, solve_equilibrium(expanded, usable, od, profiles, tol=TOL))

    # flow on arcs that are not usable here is never screened
    all_diesel = apply_design(expanded, ())
    got = solve_equilibrium(expanded, all_diesel, od, profiles, tol=TOL, start=got)
    assert_same_solve(got, start)


def test_unconverged_start_screens_nothing(monkeypatch):
    # six shortest routes across the grid: one iteration cannot balance them
    net = grid3x3_network(capacity_tpd=5.0e3)
    expanded, profiles = assembled_instance(net)
    od = ODMatrix({(0, 8): 2.0e4})
    start = solve_equilibrium(expanded, apply_design(expanded, ()), od, profiles, tol=TOL, max_iter=1)
    assert not start[1].converged
    gaps = []
    gap = equilibrium.relative_gap
    monkeypatch.setattr(equilibrium, "relative_gap", lambda *a: gaps.append(a) or gap(*a))
    usable = apply_design(expanded, net.links)
    got = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, max_iter=1, start=start)
    screened_gaps = len(gaps)
    want = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, max_iter=1)
    assert screened_gaps == len(gaps) - screened_gaps == 1  # the last iteration's only
    assert_same_solve(got, want)

    # converged flows whose recorded Wardrop spread is above the tolerance
    # (as from a solve at a looser one) are not screened either
    state, metrics = solve_equilibrium(expanded, apply_design(expanded, ()), od, profiles, tol=TOL)
    assert metrics.converged
    loose = replace(metrics, wardrop_max=2.0 * TOL, converged=False)
    got = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, start=(state, loose))
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
    start = solve_equilibrium(expanded, apply_design(expanded, ()), od, profiles, tol=TOL)
    assume(start[1].converged)
    usable = apply_design(expanded, {lid for lid in sorted(net.links) if rng.random() < share})
    state, metrics = solve_equilibrium(expanded, usable, od, profiles, tol=TOL, start=start)
    x = start[0].x
    gap = oracle_relative_gap(expanded, usable, CostEngine(expanded, profiles).costs(x), x, od)
    if metrics.iteration == 0:
        assert state.x.tolist() == x.tolist()
        assert gap <= TOL
    else:
        assert gap > TOL
