"""An impassable traction side is routed around: the solve, the design costs
and the CLI stay finite, and the solve is the one where those arcs are
simply unusable."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from railplan import cli
from railplan.costmodel import RateTable, TrainConsist, build_profiles
from railplan.equilibrium import ODMatrix, relative_gap, solve_equilibrium
from railplan.network import Node, PhysicalLink, RailNetwork, apply_design

from synth import assembled_instance
from test_design import build_problem

# weak locomotives of one traction: link 0, a 1 % upgrade, is impassable
# under it, and every other link is passable under both
SIDE_RATES = {
    "electric": "locomotive_power_electric_w = 2.5e4\n",
    "diesel": "locomotive_power_diesel_w = 2.5e4\n",
}
RATES = {
    "electric": RateTable(locomotive_power_electric_w=2.5e4),
    "diesel": RateTable(locomotive_power_diesel_w=2.5e4),
}

# (id, tail, head, length_km, grade): a short steep direct route 0 -> 1 and
# a long flat dogleg through node 2
LINKS = [(0, 0, 1, 60.0, 0.01), (1, 1, 0, 60.0, -0.01), (2, 0, 2, 100.0, 0.0),
         (3, 2, 0, 100.0, 0.0), (4, 2, 1, 100.0, 0.0), (5, 1, 2, 100.0, 0.0)]
NODES = [(0, 40.0, -100.0, 1), (1, 40.0, -99.0, 1), (2, 40.5, -99.5, 0)]
DEMAND = {(0, 1): 3.0e4, (1, 0): 1.0e4}


def steep_toy():
    nodes = [Node(i, lat, lon, is_yard=bool(yard)) for i, lat, lon, yard in NODES]
    links = [
        PhysicalLink(id=i, tail=t, head=h, length_km=km, grade=g, curve_radius_m=20000.0, capacity_tpd=2.0e4)
        for i, t, h, km, g in LINKS
    ]
    return RailNetwork.build(nodes, links)


@pytest.mark.parametrize("side", sorted(RATES))
def test_impassable_side_solves_as_unusable_arcs(side):
    net = steep_toy()
    with pytest.warns(UserWarning, match=f"impassable under {side} traction") as caught:
        expanded, profiles = assembled_instance(net, rates=RATES[side])
    assert [str(w.message) for w in caught] == [f"1 of 6 links impassable under {side} traction: [0]"]
    assert getattr(profiles, f"{side}_reachable").tolist() == [False] + [True] * 5
    # the reference: link 0 passable, and the arcs its impassable side takes
    # out of use (an impassable diesel side stops the pair's congestion clock)
    # left unusable instead
    passable = build_profiles(net, TrainConsist(), RateTable())
    reference = replace(profiles, **{
        f.name: np.where(np.array(profiles.link_ids) == 0, getattr(passable, f.name), getattr(profiles, f.name))
        for f in fields(profiles) if f.name not in ("link_ids", "beta")
    })
    d, e = expanded.pair_of[0]
    usable = apply_design(expanded, net.links)
    unusable = usable.copy()
    unusable[[e] if side == "electric" else [d, e]] = False
    od = ODMatrix(DEMAND)

    state, metrics = solve_equilibrium(expanded, usable, od, profiles)
    ref_state, ref_metrics = solve_equilibrium(expanded, unusable, od, reference)
    assert metrics.converged and ref_metrics.converged
    assert math.isfinite(metrics.beckmann) and math.isfinite(metrics.relative_gap)
    assert (metrics.beckmann, metrics.relative_gap, metrics.iteration) == (
        ref_metrics.beckmann, ref_metrics.relative_gap, ref_metrics.iteration
    )
    assert np.array_equal(state.x, ref_state.x)
    assert relative_gap(expanded, usable, state.cost, state.x, od) == metrics.relative_gap


@pytest.mark.parametrize("side", sorted(RATES))
def test_design_costs_and_scores_stay_finite(side):
    with pytest.warns(UserWarning, match="impassable"):
        problem = build_problem(steep_toy(), ODMatrix(DEMAND), budget=1.0e12, rates=RATES[side])
    for bits in ((0,) * len(problem.corridors), (1,) * len(problem.corridors)):
        result = problem.evaluate(bits)
        assert result.converged and math.isfinite(result.total_cost)
    assert math.isfinite(problem.start().tstt)


def test_impassable_electric_side_saves_nothing():
    """`repair`'s score weighs link 0, whose electric side is impassable and
    whose diesel side carries flow, by a fuel saving of 0."""
    with pytest.warns(UserWarning, match="impassable"):
        problem = build_problem(steep_toy(), ODMatrix(DEMAND), budget=1.0e12, rates=RATES["electric"])
    flows = problem.baseline_state().physical_flows(problem.expanded)
    assert flows[0][0] > 0.0
    p = problem.profiles  # link l is row l
    for c, score in zip(problem.corridors, problem.corridor_scores()):
        links = problem.expanded.net.with_reverse_twins(c.link_ids) - {0}
        saving = sum(
            (p.diesel_fuel_per_ton[l] - p.electric_fuel_per_ton[l]) * sum(flows[l]) for l in links
        )
        assert score == pytest.approx(saving / c.cost_usd, rel=1e-12)


@pytest.mark.parametrize("side", sorted(SIDE_RATES))
def test_cli_routes_around_an_impassable_side(tmp_path, capsys, side):
    (tmp_path / "nodes.csv").write_text(
        "id,lat,lon,is_yard,switching_cost\n" + "".join(f"{i},{a},{b},{y},\n" for i, a, b, y in NODES)
    )
    (tmp_path / "links.csv").write_text(
        "id,tail,head,length_km,grade,curve_radius_m,capacity_tpd,signal_class,candidate\n"
        + "".join(f"{i},{t},{h},{km},{g},20000,20000,low,1\n" for i, t, h, km, g in LINKS)
    )
    (tmp_path / "od.csv").write_text(
        "origin,destination,tons_per_day\n" + "".join(f"{o},{d},{t}\n" for (o, d), t in DEMAND.items())
    )
    (tmp_path / "rates.cfg").write_text(SIDE_RATES[side])
    (tmp_path / "scenario.cfg").write_text(
        "budget = 1.0e12\npopulation = 6\ngenerations = 3\nseed = 5\nrates_file = rates.cfg\n"
    )
    cfg = str(tmp_path / "scenario.cfg")
    for command in ("assign", "optimize"):
        with pytest.warns(UserWarning, match="impassable") as caught:
            rc = cli.main([command, "--config", cfg, "--out-dir", str(tmp_path / command)])
        assert len(caught) == 1  # one warning for the side, naming its links
        out = capsys.readouterr().out
        assert rc == 0
        assert "nan" not in out and "(not converged)" not in out, out
    assert "unconverged equilibrium solves: 0 of" in (tmp_path / "optimize" / "report.txt").read_text()
