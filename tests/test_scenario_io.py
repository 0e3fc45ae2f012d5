"""Scenario configs, CSV formats, GeoJSON, pipelines, and the CLI."""

import ast
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from railplan import cli, scenario_io
from railplan.corridors import Corridor, corridor_cost
from railplan.equilibrium import solve_equilibrium
from railplan.network import Node, PhysicalLink, RailNetwork, SignalClass, apply_design
from railplan.scenario_io import (
    Scenario,
    SweepRow,
    ValidationError,
    assemble,
    assign_run,
    emit_geojson,
    load_corridors,
    load_design,
    load_links,
    load_network,
    load_nodes,
    load_od,
    load_rates,
    load_scenario,
    optimize_run,
    save_corridors,
    summarize_design,
    sweep,
    validate_geojson,
    write_design,
    write_flows,
    write_gap_trace,
    write_sweep,
)


NODES_CSV = """id,lat,lon,is_yard,switching_cost
0,40.0,-100.0,1,
1,40.0,-99.6,0,
2,40.0,-99.2,1,7000
"""

LINKS_CSV = """id,tail,head,length_km,grade,curve_radius_m,capacity_tpd,signal_class,candidate
0,0,1,50,0.0,20000,50000,low,1
1,1,0,50,0.0,20000,50000,low,1
2,1,2,50,0.0,20000,50000,low,1
3,2,1,50,0.0,20000,50000,low,1
"""

# two direct links of low capacity next to the two-link route: one iteration
# extrapolates along a single shift, so it cannot balance all three routes
THREE_ROUTE_LINKS_CSV = LINKS_CSV + "4,0,2,90,0.0,20000,5000,low,1\n5,0,2,70,0.0,20000,3000,low,1\n"

OD_CSV = """origin,destination,tons_per_day
0,2,20000
"""

SCENARIO_CFG = """# three-node toy
budget = 1.0e11
population = 6
generations = 3
gap_tolerance = 1.0e-7
seed = 5
"""


def write_toy(tmp_path, od_csv=OD_CSV, extra_cfg=""):
    (tmp_path / "nodes.csv").write_text(NODES_CSV)
    (tmp_path / "links.csv").write_text(LINKS_CSV)
    (tmp_path / "od.csv").write_text(od_csv)
    (tmp_path / "scenario.cfg").write_text(SCENARIO_CFG + extra_cfg)
    return tmp_path / "scenario.cfg"


# --- scenario config -----------------------------------------------------------------


def test_scenario_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    s = load_scenario(cfg)
    assert s.budget == 30.0e9
    assert s.demand_multiplier == 1.0
    assert s.gap_tolerance == 1.0e-6
    assert s.corridor_metric == "cost"
    assert s.base_dir == str(tmp_path)


def test_scenario_overrides_and_types(tmp_path):
    cfg = write_toy(tmp_path)
    s = load_scenario(cfg)
    assert s.budget == 1.0e11
    assert s.population == 6
    assert s.path(s.node_file) == tmp_path / "nodes.csv"


def test_scenario_rejects_unknown_and_bad(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("budgets = 5\n")
    with pytest.raises(ValidationError, match="unknown scenario key"):
        load_scenario(bad)
    bad.write_text("budget = many\n")
    with pytest.raises(ValidationError, match="bad value"):
        load_scenario(bad)
    bad.write_text("base_dir = /tmp\n")
    with pytest.raises(ValidationError, match="unknown scenario key"):
        load_scenario(bad)
    # the Newton step always includes the traction-partner interaction
    bad.write_text("newton_interactions = no\n")
    with pytest.raises(ValidationError, match="unknown scenario key 'newton_interactions'"):
        load_scenario(bad)


def test_scenario_validation_bounds():
    with pytest.raises(ValidationError, match="budget"):
        Scenario(budget=0.0).validate()
    with pytest.raises(ValidationError, match="demand_multiplier"):
        Scenario(demand_multiplier=-1.0).validate()
    with pytest.raises(ValidationError, match="corridor_metric"):
        Scenario(corridor_metric="hops").validate()
    with pytest.raises(ValidationError, match="population"):
        Scenario(population=1).validate()
    with pytest.raises(ValidationError, match="elites"):
        Scenario(elites=64, population=8).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite_budget_and_tolerance(value):
    with pytest.raises(ValidationError, match="budget"):
        Scenario(budget=value).validate()
    with pytest.raises(ValidationError, match="gap tolerance"):
        Scenario(gap_tolerance=value).validate()


_MULTIPLIERS = (
    "demand_multiplier",
    "opex_multiplier",
    "electrification_cost_multiplier",
    "electricity_price_multiplier",
)


@pytest.mark.parametrize(
    "name, value",
    [(m, v) for m in _MULTIPLIERS for v in (math.nan, math.inf)]
    + [
        ("mutation", math.nan),
        ("mutation", -math.inf),
        ("mutation", math.inf),
        ("greedy_fraction", 3.0),
        ("greedy_fraction", -0.5),
        ("greedy_fraction", math.nan),
        ("generations", -1),
        ("seed", -1),
    ],
)
def test_scenario_rejects_bad_ga_and_multiplier_values(name, value):
    with pytest.raises(ValidationError, match=name):
        Scenario(**{name: value}).validate()


def test_scenario_rejects_max_iterations_below_one(tmp_path):
    with pytest.raises(ValidationError, match="max_iterations"):
        Scenario(max_iterations=0).validate()
    cfg = write_toy(tmp_path, extra_cfg="max_iterations = 0\n")
    with pytest.raises(ValidationError, match="max_iterations"):
        load_scenario(cfg)


def test_scenario_rejects_non_finite_mutation_at_load(tmp_path):
    # a negative mutation means 1/|corridors|, but -inf is no setting
    for value in ("-inf", "nan"):
        cfg = write_toy(tmp_path, extra_cfg=f"mutation = {value}\n")
        with pytest.raises(ValidationError, match="mutation"):
            load_scenario(cfg)
    cfg = write_toy(tmp_path, extra_cfg="mutation = -1\n")
    assert load_scenario(cfg).mutation == -1.0


def test_scenario_validates_on_construction_and_replace():
    from dataclasses import replace

    with pytest.raises(ValidationError, match="population"):
        Scenario(population=1)
    with pytest.raises(ValidationError, match="budget"):
        replace(Scenario(), budget=-1.0)


# --- config schema ----------------------------------------------------------------------

# Every key the two config files accept, with the type it parses to.
RATES_KEYS = {
    "locomotive_count": int, "railcar_count": int, "locomotive_mass_t": float,
    "railcar_tare_t": float, "railcar_cargo_t": float, "locomotive_axles": int,
    "railcar_axles": int, "locomotive_drag": float, "railcar_drag": float,
    "crew_rate": float, "cargo_rate": float, "fuel_cost_diesel": float,
    "fuel_cost_electric": float, "eta_diesel": float, "eta_electric": float,
    "flange_factor": float, "air_factor": float, "bearing_a": float, "bearing_b": float,
    "flange_b_locomotive": float, "flange_b_railcar": float, "gravity": float,
    "beta": float, "curve_coefficient": float, "curve_arg_m": float,
    "brake_grade_equivalent": float, "desired_speed": float,
    "locomotive_power_diesel_w": float, "locomotive_power_electric_w": float,
    "notch_count": int, "min_notch_fraction": float, "switch_cost_per_train": float,
    "switch_hours": float, "switch_crew_equivalents": float, "switch_energy_cost": float,
    "switching_cost_mode": str,
    "ocs_min": float, "ocs_max": float, "substation_min": float, "substation_max": float,
    "transmission_min": float, "transmission_max": float, "public_works_min": float,
    "public_works_max": float,
    "signal_low": float, "signal_medium": float, "signal_high": float,
    "ppi_capital": float, "ppi_operations": float, "ppi_fuel": float, "ppi_switching": float,
}

SCENARIO_KEYS = {
    "node_file": str, "link_file": str, "od_file": str, "corridor_file": str,
    "rates_file": str, "budget": float, "demand_multiplier": float,
    "opex_multiplier": float, "electrification_cost_multiplier": float,
    "electricity_price_multiplier": float, "seed": int, "gap_tolerance": float,
    "max_iterations": int, "corridor_metric": str, "population": int,
    "generations": int, "crossover": float, "mutation": float, "elites": int,
    "greedy_fraction": float,
}

_SIGNALS = {"signal_low": SignalClass.LOW, "signal_medium": SignalClass.MEDIUM, "signal_high": SignalClass.HIGH}


def _sample(key, kind):
    """A text that parses to a valid, non-default value of `key`."""
    special = {"switching_cost_mode": "composed", "corridor_metric": "length", "beta": "1.5"}
    return special.get(key, {int: "7", float: "0.25", str: "x.csv"}[kind])


def _loaded_rate(key, consist, rates, elec):
    if key in _SIGNALS:
        return elec.signal_cost[_SIGNALS[key]]
    if key == "ppi_capital":
        return elec.ppi_capital
    name = {"locomotive_count": "n_locomotives", "railcar_count": "n_railcars"}.get(key, key)
    for obj in (consist, rates, elec):
        if hasattr(obj, name):
            return getattr(obj, name)
    return None  # the other ppi factors scale rates; see the overrides test


def test_rates_schema(tmp_path):
    assert len(RATES_KEYS) == 51
    f = tmp_path / "rates.cfg"
    for key, kind in RATES_KEYS.items():
        text = _sample(key, kind)
        f.write_text(f"{key} = {text}\n")
        got = _loaded_rate(key, *load_rates(f))
        if got is not None:
            assert type(got) is kind and got == kind(text), key
        bad = {int: "2.5", float: "nan", str: None}[kind]
        if bad is not None:
            f.write_text(f"{key} = {bad}\n")
            with pytest.raises(ValidationError, match=key):
                load_rates(f)
    for key in ("n_locomotives", "signal_cost"):
        f.write_text(f"{key} = 1\n")
        with pytest.raises(ValidationError, match="unknown rates key"):
            load_rates(f)


def test_scenario_schema(tmp_path):
    assert len(SCENARIO_KEYS) == 20
    cfg = tmp_path / "scenario.cfg"
    for key, kind in SCENARIO_KEYS.items():
        text = _sample(key, kind)
        cfg.write_text(f"{key} = {text}\n")
        got = getattr(load_scenario(cfg), key)
        assert type(got) is kind and got == kind(text), key
        bad = {int: "2.5", float: "inf", str: None}[kind]
        if bad is not None:
            cfg.write_text(f"{key} = {bad}\n")
            with pytest.raises(ValidationError, match=key):
                load_scenario(cfg)
    cfg.write_text("base_dir = /elsewhere\n")
    with pytest.raises(ValidationError, match="unknown scenario key"):
        load_scenario(cfg)


# --- rates ----------------------------------------------------------------------------


def test_load_rates_defaults_and_overrides(tmp_path):
    consist, rates, elec = load_rates(None)
    assert consist.n_locomotives == 3
    assert rates.crew_rate == 520.0
    assert elec.ocs_min == 150e3

    f = tmp_path / "rates.cfg"
    f.write_text(
        "locomotive_count = 2\n"
        "crew_rate = 100\n"
        "fuel_cost_diesel = 3.0e-8\n"
        "ocs_min = 1000\n"
        "signal_medium = 99\n"
        "ppi_operations = 2\n"
        "ppi_fuel = 1.5\n"
        "ppi_capital = 1.1\n"
        "ppi_switching = 3\n"
    )
    consist, rates, elec = load_rates(f)
    assert consist.n_locomotives == 2
    assert rates.crew_rate == pytest.approx(200.0)  # 100 * ppi_operations
    assert rates.cargo_rate == pytest.approx(520.0)  # default 260 * 2
    assert rates.fuel_cost_diesel == pytest.approx(4.5e-8)
    assert rates.fuel_cost_electric == pytest.approx(2.8e-8 * 1.5)
    assert rates.switch_cost_per_train == pytest.approx(3800.0 * 3)
    assert elec.ocs_min == 1000.0
    assert elec.signal_cost[SignalClass.MEDIUM] == 99.0
    assert elec.ppi_capital == 1.1


def test_load_rates_rejects_unknown(tmp_path):
    f = tmp_path / "rates.cfg"
    f.write_text("warp_drive = 9\n")
    with pytest.raises(ValidationError, match="unknown rates key"):
        load_rates(f)
    f.write_text("crew_rate = fast\n")
    with pytest.raises(ValidationError, match="bad value"):
        load_rates(f)


@pytest.mark.parametrize(
    "line, key",
    [
        ("beta = 0.5", "beta"),
        ("notch_count = 0", "notch_count"),
        ("desired_speed = -5", "desired_speed"),
        ("desired_speed = 0", "desired_speed"),
        ("eta_diesel = 0", "eta_diesel"),
        ("eta_electric = -0.5", "eta_electric"),
        ("eta_electric = 1.5", "eta_electric"),
        ("gravity = 0", "gravity"),
        ("crew_rate = -520", "crew_rate"),
        ("cargo_rate = -1", "cargo_rate"),
        ("fuel_cost_electric = -2.8e-8", "fuel_cost_electric"),
        ("switch_cost_per_train = -1", "switch_cost_per_train"),
        ("switch_hours = -1.5", "switch_hours"),
        ("locomotive_mass_t = -195", "locomotive_mass_t"),
        ("locomotive_count = -1", "locomotive_count"),
        # no throttle ladder, or no cargo to charge per ton
        ("locomotive_count = 0", "locomotive_count"),
        ("locomotive_power_diesel_w = 0", "locomotive_power_diesel_w"),
        ("locomotive_power_electric_w = 0", "locomotive_power_electric_w"),
        ("min_notch_fraction = 1", "min_notch_fraction"),
        ("railcar_count = 0", "railcar_count"),
        ("railcar_cargo_t = 0", "railcar_cargo_t"),
        ("ocs_min = -1e6", "ocs_min"),
        ("signal_high = -1", "signal_high"),
        ("ppi_capital = -1", "ppi_capital"),
        ("ppi_capital = 0", "ppi_capital"),
        ("ppi_fuel = -1", "ppi_fuel"),
    ],
)
def test_load_rates_rejects_broken_rate_invariants(tmp_path, capsys, line, key):
    f = tmp_path / "rates.cfg"
    f.write_text(line + "\n")
    with pytest.raises(ValidationError, match=key):
        load_rates(f)
    cfg = write_toy(tmp_path, extra_cfg="rates_file = rates.cfg\n")
    rc = cli.main(["assign", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def test_coinciding_notches_name_the_file_and_keys(tmp_path, capsys):
    # below 1, yet the default eight notches round to the same power
    (tmp_path / "rates.cfg").write_text("min_notch_fraction = 0.9999999999999999\n")
    cfg = write_toy(tmp_path, extra_cfg="rates_file = rates.cfg\n")
    assert cli.main(["assign", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert all(word in err for word in ("rates.cfg", "min_notch_fraction", "notch_count"))


def test_curve_arg_reaching_a_curve_radius_names_the_file_key_and_link(tmp_path, capsys):
    cfg = write_toy(tmp_path, extra_cfg="rates_file = rates.cfg\n")
    # links 2 and 3 curve tighter than the arcsin argument; the first is named
    links = LINKS_CSV.replace("1,2,50,0.0,20000", "1,2,50,0.0,4500").replace("2,1,50,0.0,20000", "2,1,50,0.0,4000")
    (tmp_path / "links.csv").write_text(links)
    (tmp_path / "rates.cfg").write_text("curve_arg_m = 5000\n")
    assert cli.main(["assign", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert all(word in err for word in ("rates.cfg", "curve_arg_m", "link 2 has 4500.0 m")), err


def test_curve_radius_is_judged_against_the_rates_curve_arg(tmp_path, capsys):
    # a 12 m curve prices under curve_arg_m = 10
    cfg = write_toy(tmp_path, extra_cfg="rates_file = rates.cfg\n")
    (tmp_path / "links.csv").write_text(LINKS_CSV.replace("1,2,50,0.0,20000", "1,2,50,0.0,12"))
    (tmp_path / "rates.cfg").write_text("curve_arg_m = 10\n")
    assert cli.main(["costs", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    # a 10 m curve is refused under the default 15.24 m, naming the links
    # file, the key and the link
    cfg = write_toy(tmp_path)
    (tmp_path / "links.csv").write_text(LINKS_CSV.replace("1,2,50,0.0,20000", "1,2,50,0.0,10"))
    assert cli.main(["costs", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in ("links.csv", "curve_arg_m", "link 2 has 10.0 m")), err


def test_self_loop_link_is_rejected(tmp_path, capsys):
    cfg = write_toy(tmp_path)
    (tmp_path / "links.csv").write_text(LINKS_CSV + "4,1,1,20,0.0,20000,50000,low,1\n")
    for command in ("assign", "corridors"):
        assert cli.main([command, "--config", str(cfg), "--out-dir", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "link 4" in err and "self-loop" in err, err


@pytest.mark.parametrize(
    "name, message",
    [
        ("links.csv", "link 4: a self-loop"),
        ("nodes.csv", "node 0: lat 95.0"),
        ("od.csv", "OD references unknown nodes [9999]"),
        ("fixed.csv", "corridor 0: unknown links [9999]"),
        ("chosen.csv", "unknown corridor ids [999]"),
        ("rates.cfg", "crew_rate, cargo_rate and fuel_cost_diesel give candidate link 0 a free-flow cost of 0.0"),
    ],
)
def test_an_input_error_names_its_file(tmp_path, capsys, name, message):
    cfg = write_toy(tmp_path)
    args = ["assign", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    if name == "links.csv":
        (tmp_path / name).write_text(LINKS_CSV + "4,1,1,20,0.0,20000,50000,low,1\n")
    elif name == "nodes.csv":
        (tmp_path / name).write_text(_with_cell(NODES_CSV, "lat", "95.0"))
    elif name == "od.csv":
        (tmp_path / name).write_text(OD_CSV + "0,9999,100\n")
    elif name == "rates.cfg":  # valid rates, but nothing to route corridors by
        (tmp_path / name).write_text("crew_rate = 0\ncargo_rate = 0\nfuel_cost_diesel = 0\n")
        with open(cfg, "a") as fh:
            fh.write(f"rates_file = {name}\n")
    elif name == "fixed.csv":
        save_corridors(tmp_path / name, [Corridor(0, (9999,), 0, 2, 50.0, 1.0)])
        with open(cfg, "a") as fh:
            fh.write(f"corridor_file = {name}\n")
    else:
        (tmp_path / name).write_text("corridor_id\n999\n")
        args += ["--design", str(tmp_path / name)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: ") and message in err, err


@pytest.mark.parametrize("line", ["crew_rate = nan", "beta = inf", "ocs_min = -inf", "signal_low = nan", "ppi_fuel = nan"])
def test_load_rates_rejects_non_finite(tmp_path, line):
    f = tmp_path / "rates.cfg"
    f.write_text(line + "\n")
    with pytest.raises(ValidationError, match="non-finite"):
        load_rates(f)


# --- csv loaders ----------------------------------------------------------------------


def test_load_nodes_and_links(tmp_path):
    write_toy(tmp_path)
    nodes = load_nodes(tmp_path / "nodes.csv")
    assert [n.id for n in nodes] == [0, 1, 2]
    assert nodes[0].is_yard and not nodes[1].is_yard
    assert nodes[0].switching_cost is None
    assert nodes[2].switching_cost == 7000.0

    links = load_links(tmp_path / "links.csv")
    assert [l.id for l in links] == [0, 1, 2, 3]
    assert links[0].signal_class is SignalClass.LOW
    assert links[0].candidate
    assert links[0].k_f is None


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"## Library use\n.*?```python\n(.*?)```", readme, re.S).group(1)
    write_toy(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    gap, flows = capsys.readouterr().out.split(" ", 1)
    assert 0.0 <= float(gap) <= 1.0e-6
    assert flows.startswith("{")


def test_load_links_optional_columns(tmp_path):
    f = tmp_path / "links.csv"
    f.write_text(
        "id,tail,head,length_km,grade,curve_radius_m,capacity_tpd,signal_class,candidate,k_f,desired_speed\n"
        "0,0,1,50,0.0,,50000,high,0,1.5,20\n"
    )
    (link,) = load_links(f)
    assert link.curve_radius_m is None
    assert link.signal_class is SignalClass.HIGH
    assert not link.candidate
    assert link.k_f == 1.5 and link.desired_speed == 20.0


def test_csv_error_cases(tmp_path):
    f = tmp_path / "nodes.csv"
    f.write_text("id,lat,lon\n0,40,-100\n")
    with pytest.raises(ValidationError, match="missing columns"):
        load_nodes(f)
    f.write_text(NODES_CSV.replace("switching_cost", "switching_cost,color").replace("1,\n", "1,,red\n"))
    with pytest.raises(ValidationError, match="unknown columns"):
        load_nodes(f)
    f.write_text(NODES_CSV + "0,41.0,-100.0,0,\n")
    with pytest.raises(ValidationError, match="duplicate node"):
        load_nodes(f)

    g = tmp_path / "links.csv"
    g.write_text(LINKS_CSV + "0,0,1,50,0.0,20000,50000,low,1\n")
    with pytest.raises(ValidationError, match="duplicate link"):
        load_links(g)
    g.write_text(LINKS_CSV.replace("low", "purple"))
    with pytest.raises(ValidationError, match="purple"):
        load_links(g)

    h = tmp_path / "od.csv"
    h.write_text(OD_CSV + "0,2,5\n")
    with pytest.raises(ValidationError, match="duplicate OD"):
        load_od(h)
    f.write_text(NODES_CSV.replace("40.0,-99.6", "north,-99.6"))
    with pytest.raises(ValidationError, match="nodes.csv, line 3, lat"):
        load_nodes(f)
    f.write_text(NODES_CSV.replace("-99.6,0,", "-99.6,0,,7"))
    with pytest.raises(ValidationError, match="line 3: more cells than columns"):
        load_nodes(f)
    h.write_text("origin,destination,tons_per_day\n2,2,5\n")
    with pytest.raises(ValidationError, match="self-loop"):
        load_od(h)


def test_corridor_round_trip(tmp_path):
    rows = [
        Corridor(0, (0, 2), 0, 2, 100.0, 4.0e7),
        Corridor(1, (4, 6), 2, 4, 100.0, 4.0e7),
    ]
    path = tmp_path / "corridors.csv"
    save_corridors(path, rows)
    assert load_corridors(path) == rows

    bad = tmp_path / "bad.csv"
    with open(path) as fh:
        lines = fh.read().splitlines()
    bad.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(ValidationError, match="ids must be"):
        load_corridors(bad)


def test_design_round_trip(tmp_path):
    path = tmp_path / "design.csv"
    write_design(path, [3, 1, 2])
    assert load_design(path) == [1, 2, 3]
    path.write_text("corridor_id\n1\n1\n")
    with pytest.raises(ValidationError, match="duplicate corridor id 1"):
        load_design(path)


def _with_cell(table, column, value):
    """The CSV `table` with `column` of its first row set to `value`."""
    rows = list(csv.DictReader(io.StringIO(table)))
    rows[0][column] = value
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize(
    "name, column, value, message",
    [
        ("nodes.csv", "lat", "nan", "lat"),
        ("nodes.csv", "lat", "500", "lat"),
        ("nodes.csv", "lon", "inf", "lon"),
        ("nodes.csv", "lon", "-180.5", "lon"),
        ("nodes.csv", "switching_cost", "nan", "switching cost"),
        ("links.csv", "k_f", "nan", "k_f"),
        ("links.csv", "k_a", "-1", "k_a"),
        ("links.csv", "desired_speed", "-5", "desired_speed"),
        ("links.csv", "desired_speed", "0", "desired_speed"),
        ("links.csv", "desired_speed", "inf", "desired_speed"),
    ],
)
def test_load_network_rejects_meaningless_inputs(tmp_path, capsys, name, column, value, message):
    cfg = write_toy(tmp_path)
    table = {"nodes.csv": NODES_CSV, "links.csv": LINKS_CSV}[name]
    (tmp_path / name).write_text(_with_cell(table, column, value))
    with pytest.raises(ValidationError, match=message):
        load_network(tmp_path / "nodes.csv", tmp_path / "links.csv")
    rc = cli.main(["assign", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err


# --- geojson --------------------------------------------------------------------------


def geojson_reference(electrified, net, flows):
    """The collection whose json.dumps(indent=2) text `emit_geojson` writes."""
    features = []
    for lid in sorted(net.links):
        link = net.links[lid]
        tail, head = net.nodes[link.tail], net.nodes[link.head]
        xd, xe = flows.get(lid, (0.0, 0.0))
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [[tail.lon, tail.lat], [head.lon, head.lat]]},
            "properties": {
                "link_id": lid,
                "length_km": link.length_km,
                "electrified": lid in electrified,
                "diesel_tons": xd,
                "electric_tons": xe,
            },
        })
    return {"type": "FeatureCollection", "features": features}


def test_geojson_emit_and_validate(tmp_path):
    cfg = write_toy(tmp_path)
    bundle = assemble(load_scenario(cfg))
    flows = {lid: (1000.0 * lid, 10.0) for lid in bundle.network.links}
    out = tmp_path / "net.geojson"
    assert emit_geojson({0, 1}, bundle.network, flows, out) is None
    # the byte format that artifact comparisons rely on
    text = out.read_text()
    assert text == json.dumps(geojson_reference({0, 1}, bundle.network, flows), indent=2)
    assert text == json.dumps(json.loads(text), indent=2)
    reread = json.loads(text)
    validate_geojson(reread)
    assert len(reread["features"]) == len(bundle.network.links)
    by_id = {f["properties"]["link_id"]: f for f in reread["features"]}
    assert by_id[0]["properties"]["electrified"] is True
    assert by_id[2]["properties"]["electrified"] is False
    assert by_id[1]["properties"]["diesel_tons"] == 1000.0
    assert by_id[0]["geometry"]["coordinates"] == [[-100.0, 40.0], [-99.6, 40.0]]


# non-finite, signed-zero, subnormal and extreme floats; ints beyond 64 bits
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, 0.1, -123.456]
SPECIAL_INTS = [0, -1, 2**63, -(2**64) - 1, 10**40]


def test_geojson_layout_is_jsons_on_every_number(tmp_path):
    for value in [*SPECIAL_FLOATS, *SPECIAL_INTS, True, False, np.float64(-0.0), np.float64(math.inf)]:
        assert scenario_io._json_scalar(value) == json.dumps(value), value
    with pytest.raises(TypeError):  # as json.dumps: a numpy int is no JSON number
        scenario_io._json_scalar(np.int64(1))

    # the writer reads ids, coordinates, lengths and flows as they are
    floats = iter(SPECIAL_FLOATS * 4)
    nodes = {k: Node(k, next(floats), next(floats)) for k in range(4)}
    ids = [*SPECIAL_INTS, 7]
    links = {lid: PhysicalLink(lid, k % 4, (k + 1) % 4, length_km=next(floats)) for k, lid in enumerate(ids)}
    flows = {lid: (next(floats), next(floats)) for lid in ids[:-1]}  # link 7 takes the default
    for name, electrified, net in (
        ("special", {2**63, 7, 0}, RailNetwork(nodes, links)),
        ("empty", set(), RailNetwork({}, {})),
    ):
        out = tmp_path / f"{name}.geojson"
        emit_geojson(electrified, net, flows, out)
        text = out.read_text()
        assert text == json.dumps(geojson_reference(electrified, net, flows), indent=2)
        assert text == json.dumps(json.loads(text), indent=2)
    assert out.read_text() == '{\n  "type": "FeatureCollection",\n  "features": []\n}'


def test_validate_geojson_rejects_malformed():
    good = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": [[0.0, 0.0], [1.0, 1.0]]},
                "properties": {"link_id": 0, "electrified": False},
            }
        ],
    }
    validate_geojson(good)
    with pytest.raises(ValidationError):
        validate_geojson({"type": "Feature"})
    cases = [
        ("features", "nope"),
    ]
    for key, value in cases:
        broken = dict(good)
        broken[key] = value
        with pytest.raises(ValidationError):
            validate_geojson(broken)

    import copy

    for mutate in (
        lambda d: d["features"][0].pop("properties"),
        lambda d: d["features"][0]["geometry"].update(type="Point"),
        lambda d: d["features"][0]["geometry"].update(coordinates=[[0.0, 0.0]]),
        lambda d: d["features"][0]["geometry"].update(coordinates=[[0.0, 0.0], [1.0, math.nan]]),
        lambda d: d["features"][0]["properties"].pop("electrified"),
    ):
        broken = copy.deepcopy(good)
        mutate(broken)
        with pytest.raises(ValidationError):
            validate_geojson(broken)


# --- assembly and multipliers ----------------------------------------------------------


def test_assemble_toy(tmp_path):
    cfg = write_toy(tmp_path)
    bundle = assemble(load_scenario(cfg))
    assert len(bundle.network.links) == 4
    assert bundle.od.total == 20000.0
    assert [(c.yard_a, c.yard_b, c.link_ids) for c in bundle.corridors] == [(0, 2, (0, 2))]
    assert bundle.budget == 1.0e11
    # yard 2 carries its per-node override: 7000 $/train over 7000 t cargo
    d2e, _ = bundle.expanded.switch_arcs_at[2]
    assert bundle.expanded.fixed_cost[d2e] == pytest.approx(1.0, rel=1e-12)


def test_assemble_rejects_unknown_od_node(tmp_path):
    cfg = write_toy(tmp_path, od_csv="origin,destination,tons_per_day\n0,9,5\n")
    with pytest.raises(ValidationError, match="unknown nodes"):
        assemble(load_scenario(cfg))


def test_assemble_multipliers(tmp_path):
    cfg = write_toy(tmp_path)
    base = assemble(load_scenario(cfg))

    from dataclasses import replace

    s = load_scenario(cfg)
    doubled = assemble(replace(s, demand_multiplier=2.0))
    assert doubled.od.total == pytest.approx(2.0 * base.od.total)

    opex = assemble(replace(s, opex_multiplier=2.0))
    assert opex.profiles.congestion_coef[0] == pytest.approx(
        2.0 * base.profiles.congestion_coef[0], rel=1e-12
    )

    elec = assemble(replace(s, electrification_cost_multiplier=2.0))
    assert elec.link_costs[0] == pytest.approx(2.0 * base.link_costs[0], rel=1e-12)

    power = assemble(replace(s, electricity_price_multiplier=2.0))
    assert power.profiles.electric_fuel_per_ton[0] == pytest.approx(
        2.0 * base.profiles.electric_fuel_per_ton[0], rel=1e-12
    )
    assert power.profiles.diesel_fuel_per_ton[0] == pytest.approx(
        base.profiles.diesel_fuel_per_ton[0], rel=1e-12
    )


def test_assemble_corridor_metric_and_file(tmp_path):
    cfg = write_toy(tmp_path)
    s = load_scenario(cfg)
    from dataclasses import replace

    by_cost = assemble(s)
    by_length = assemble(replace(s, corridor_metric="length"))
    assert by_cost.corridors == by_length.corridors

    save_corridors(tmp_path / "fixed.csv", by_cost.corridors)
    from_file = assemble(replace(s, corridor_file="fixed.csv"))
    assert from_file.corridors == by_cost.corridors

    bad = [Corridor(0, (0, 99), 0, 2, 100.0, 1.0)]
    save_corridors(tmp_path / "broken.csv", bad)
    with pytest.raises(ValidationError, match="unknown links"):
        assemble(replace(s, corridor_file="broken.csv"))


def write_yard_line(tmp_path, n_nodes=7):
    """A line of links both ways with a yard at every even node, so
    (n_nodes - 1) // 2 corridors; written with the toy scenario settings."""
    nodes = "".join(f"{i},40.0,{-100.0 + 0.4 * i},{int(i % 2 == 0)},\n" for i in range(n_nodes))
    links = "".join(
        f"{2 * i + k},{i + k},{i + 1 - k},{40 + 5 * i},0.0,20000,50000,low,1\n"
        for i in range(n_nodes - 1)
        for k in (0, 1)
    )
    (tmp_path / "nodes.csv").write_text(NODES_CSV.splitlines()[0] + "\n" + nodes)
    (tmp_path / "links.csv").write_text(LINKS_CSV.splitlines()[0] + "\n" + links)
    (tmp_path / "od.csv").write_text(f"origin,destination,tons_per_day\n0,{n_nodes - 1},20000\n")
    (tmp_path / "scenario.cfg").write_text(SCENARIO_CFG)
    return tmp_path / "scenario.cfg"


def saved_corridors(tmp_path):
    """A yard line and the corridors.csv that `railplan corridors` writes for it."""
    cfg = write_yard_line(tmp_path)
    assert cli.main(["corridors", "--config", str(cfg), "--out-dir", str(tmp_path / "saved")]) == 0
    return cfg, tmp_path / "saved" / "corridors.csv"


def test_saved_corridor_file_reloads_unchanged(tmp_path):
    cfg, path = saved_corridors(tmp_path)
    from dataclasses import replace

    generated = assemble(load_scenario(cfg)).corridors
    assert len(generated) == 3
    assert assemble(replace(load_scenario(cfg), corridor_file=str(path))).corridors == generated


@pytest.mark.parametrize(
    ("corridor", "column", "value"),
    [(0, "cost_usd", "nan"), (1, "yard_a", "9999"), (2, "cost_usd", "1.0"), (1, "length_km", "1e300")],
)
def test_corridor_file_must_match_network(tmp_path, capsys, corridor, column, value):
    cfg, path = saved_corridors(tmp_path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[corridor][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with open(cfg, "a") as fh:
        fh.write(f"corridor_file = {path}\n")
    capsys.readouterr()
    assert cli.main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"corridor {corridor}: " in err and column in err
    assert not (tmp_path / "out").exists()


def test_corridor_file_rejects_non_candidate_links(tmp_path, capsys):
    cfg, path = saved_corridors(tmp_path)
    links = (tmp_path / "links.csv").read_text().splitlines()
    links[1] = links[1][: -len(",1")] + ",0"  # link 0 of corridor 0 is no candidate
    (tmp_path / "links.csv").write_text("\n".join(links) + "\n")
    with open(cfg, "a") as fh:
        fh.write(f"corridor_file = {path}\n")
    capsys.readouterr()
    assert cli.main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "corridor 0: unknown links [0]" in capsys.readouterr().err


def test_corridor_file_rejects_a_repeated_link(tmp_path, capsys):
    # cost_usd and length_km are recomputed with the repeat, so only the
    # repeat itself is wrong; union_cost would charge the link once
    cfg, path = saved_corridors(tmp_path)
    problem = assemble(load_scenario(cfg))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    first = problem.corridors[0].link_ids[0]
    ids = (first, *problem.corridors[0].link_ids)
    rows[0]["link_ids"] = ";".join(map(str, ids))
    rows[0]["cost_usd"] = repr(corridor_cost(ids, problem.link_costs))
    rows[0]["length_km"] = repr(problem.network.total_length_km(ids))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with open(cfg, "a") as fh:
        fh.write(f"corridor_file = {path}\n")
    capsys.readouterr()
    assert cli.main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"corridor 0 repeats link {first}" in capsys.readouterr().err


# --- pipelines ------------------------------------------------------------------------


def test_optimize_run_artifacts(tmp_path):
    cfg = write_toy(tmp_path)
    out = tmp_path / "out"
    report = optimize_run(load_scenario(cfg), out)
    assert report.baseline_cost > 0.0
    assert report.optimized_cost <= report.baseline_cost + 1e-9
    assert report.budget_used <= report.budget
    assert 0.0 <= report.line_mile_share <= 1.0
    assert 0.0 <= report.tonnage_share <= 1.0
    assert report.gap <= 1.0e-7

    for name in ("corridors.csv", "generations.csv", "best_design.csv",
                 "flows.csv", "gap_trace.csv", "electrified.geojson",
                 "report.txt", "report.csv"):
        assert (out / name).exists(), name
    validate_geojson(json.loads((out / "electrified.geojson").read_text()))

    with open(out / "generations.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 + 1
    assert rows[0]["generation"] == "0"

    with open(out / "flows.csv") as fh:
        flow_rows = list(csv.DictReader(fh))
    assert len(flow_rows) == 12  # 4 links x 2 traction arcs + 2 yards x 2 switch arcs
    kinds = {r["kind"] for r in flow_rows}
    assert kinds == {"diesel", "electric", "switch"}

    with open(out / "report.csv") as fh:
        metrics = {r["metric"]: r["value"] for r in csv.DictReader(fh)}
    assert float(metrics["roi"]) == pytest.approx(report.roi, rel=1e-12)


def test_report_counts_unconverged_solves(tmp_path):
    cfg = write_toy(tmp_path)
    report = optimize_run(load_scenario(cfg), tmp_path / "ok")
    assert (report.unconverged_solves, report.solves) == (0, 2)
    assert "unconverged equilibrium solves: 0 of 2" in (tmp_path / "ok" / "report.txt").read_text()

    cfg = write_toy(tmp_path, extra_cfg="max_iterations = 1\n")
    (tmp_path / "links.csv").write_text(THREE_ROUTE_LINKS_CSV)
    report = optimize_run(load_scenario(cfg), tmp_path / "cut")
    assert report.solves >= 2
    assert report.unconverged_solves == report.solves
    text = (tmp_path / "cut" / "report.txt").read_text()
    assert f"unconverged equilibrium solves: {report.solves} of {report.solves}" in text


def test_summarize_design_shares(tmp_path):
    cfg = write_toy(tmp_path)
    bundle = assemble(load_scenario(cfg))
    all_on = tuple([1] * len(bundle.corridors))
    report = summarize_design(bundle, all_on)
    # the only corridor spans the whole candidate set: full line-mile share
    assert report.line_mile_share == pytest.approx(1.0, rel=1e-12)
    assert report.electrified_km == pytest.approx(100.0, rel=1e-12)
    assert report.selected_corridors == (0,)


def test_assign_run_with_design(tmp_path):
    cfg = write_toy(tmp_path)
    write_design(tmp_path / "design.csv", [0])
    out = tmp_path / "assign"
    scenario = load_scenario(cfg)
    solution = assign_run(scenario, tmp_path / "design.csv", out)
    assert solution.evaluated.selected == (0,)
    assert solution.metrics.relative_gap <= scenario.gap_tolerance
    assert (out / "flows.csv").exists()
    assert (out / "gap_trace.csv").exists()
    validate_geojson(json.loads((out / "flows.geojson").read_text()))


@pytest.mark.parametrize("pays", [False, True], ids=["screened", "pays"])
def test_assign_run_solves_a_design_as_the_problem_does(tmp_path, pays):
    # cheap electricity and switching, and no dear yard: electric traction
    # pays, so the design fails the all-diesel screen and is solved cold
    if pays:
        cfg = write_toy(tmp_path, extra_cfg="rates_file = rates.cfg\n")
        (tmp_path / "nodes.csv").write_text(NODES_CSV.replace(",7000", ","))
        (tmp_path / "rates.cfg").write_text("fuel_cost_electric = 0.3e-8\nswitch_cost_per_train = 200.0\n")
    else:
        cfg = write_toy(tmp_path)
    write_design(tmp_path / "design.csv", [0])
    solution = assign_run(load_scenario(cfg), tmp_path / "design.csv", tmp_path / "out")

    problem = assemble(load_scenario(cfg))
    expected = problem.solution((1,))
    assert solution.evaluated == expected.evaluated
    assert solution.state.x.tolist() == expected.state.x.tolist()
    assert solution.metrics.trace == expected.metrics.trace
    usable = apply_design(problem.expanded, problem.electrified_links((1,)))
    cold, cold_metrics = solve_equilibrium(
        problem.expanded, usable, problem.od, problem.profiles, tol=problem.tol, max_iter=problem.max_iter
    )
    if pays:
        assert solution.evaluated.electric_share > 0.0
        assert solution.state.x.tolist() == cold.x.tolist()
    else:
        assert solution.metrics.iteration == 0 < cold_metrics.iteration


def test_equal_runs_write_byte_identical_artifacts(tmp_path):
    # nothing an artifact holds depends on the wall clock: equal runs into
    # separate directories write the same files, byte for byte
    cfg = write_toy(tmp_path)
    (tmp_path / "links.csv").write_text(THREE_ROUTE_LINKS_CSV)
    scenario = load_scenario(cfg)
    for command, run in (
        ("assign", lambda out: assign_run(scenario, None, out)),
        ("optimize", lambda out: optimize_run(scenario, out)),
    ):
        first, second = tmp_path / command / "first", tmp_path / command / "second"
        run(first)
        run(second)
        names = sorted(path.name for path in first.iterdir())
        assert "gap_trace.csv" in names
        assert sorted(path.name for path in second.iterdir()) == names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (command, name)


@pytest.mark.parametrize("command", ["report", "assign"])
def test_cli_rejects_a_stored_design_over_the_budget(tmp_path, capsys, command):
    # the toy's one corridor costs $40,000,000
    cfg = write_toy(tmp_path)
    cfg.write_text(SCENARIO_CFG.replace("budget = 1.0e11", "budget = 3.9e7"))
    write_design(tmp_path / "design.csv", [0])
    capsys.readouterr()
    rc = cli.main([command, "--config", str(cfg), "--design", str(tmp_path / "design.csv"),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "capital $40,000,000 exceeds the budget $39,000,000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_process_entry_freezes_the_import_heap_and_writes_what_main_writes(tmp_path):
    # the child runs the module as `python -m railplan.cli` does, and reports
    # its exit code and how many objects the entry froze
    cfg = write_toy(tmp_path)
    argv = ["optimize", "--config", str(cfg), "--out-dir"]
    child = (
        "import gc, runpy, sys\n"
        f"sys.argv = {['railplan', *argv, str(tmp_path / 'entry')]!r}\n"
        "try:\n"
        "    runpy.run_module('railplan.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count())\n"
    )
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    code, frozen = map(int, run.stdout.split()[-2:])
    assert code == 0
    assert frozen > 0

    # called from Python, main freezes nothing, so pytest's garbage stays collectable
    frozen_here = gc.get_freeze_count()
    assert cli.main([*argv, str(tmp_path / "main")]) == 0
    assert gc.get_freeze_count() == frozen_here

    names = sorted(path.name for path in (tmp_path / "entry").iterdir())
    assert "report.txt" in names
    assert sorted(path.name for path in (tmp_path / "main").iterdir()) == names
    for name in names:
        assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, imported, absent",
    [
        ("optimize", "railplan.pcg64", {"numpy.random", "hashlib"}),
        ("assign", "railplan.equilibrium", {"railplan.pcg64", "numpy.random", "hashlib"}),
    ],
)
def test_commands_import_no_more_than_they_use(tmp_path, command, imported, absent):
    # a child process, since this suite imports numpy.random itself; the
    # design search draws from railplan.pcg64, which nothing else imports
    cfg = write_toy(tmp_path)
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "railplan.cli", command, "--config", str(cfg),
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    modules = {
        line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines() if line.startswith("import time:")
    }
    assert imported in modules
    assert not modules & absent


def test_console_script_and_module_run_the_same_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    script = re.search(r'^railplan = "(.+)"$', pyproject, re.MULTILINE).group(1)
    module, _, function = script.partition(":")
    assert module == cli.__name__
    tree = ast.parse(Path(cli.__file__).read_text())
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    assert [ast.unparse(statement) for statement in block.body] == [f"{function}()"]


def test_a_budget_sweep_solves_the_all_diesel_equilibrium_once(tmp_path, monkeypatch):
    # the budget changes neither the all-diesel equilibrium nor the screen
    # table and corridor scores made from it, so the runs share them
    from dataclasses import replace

    from railplan import design

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    gen = subprocess.run(
        [sys.executable, "perfbench/gen.py", "--workload", "optimize-small", "--seed", "1",
         "--out", str(tmp_path / "small")],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert gen.returncode == 0, gen.stderr
    scenario = load_scenario(tmp_path / "small" / "scenario.cfg")
    solve, tables, cold = design.solve_equilibrium, design.StartTable, []

    def counted(*args, start=None, **kwargs):
        if start is None:  # the all-diesel design, the only one solved without a start
            cold.append(args)
        return solve(*args, start=start, **kwargs)

    built = []

    def table(*args):
        built.append(args)
        return tables(*args)

    monkeypatch.setattr(design, "solve_equilibrium", counted)
    monkeypatch.setattr(design, "StartTable", table)
    reports, _ = sweep(scenario, "budget", [1.3e9, 1.4e9, 1.5e9], tmp_path / "sweep")
    assert len(cold) == len(built) == 1
    monkeypatch.undo()
    # each run still counts the all-diesel solve among its own
    assert optimize_run(replace(scenario, budget=1.4e9), tmp_path / "alone") == reports[1]


def test_sweep_budget_axis(tmp_path):
    cfg = write_toy(tmp_path)
    scenario = load_scenario(cfg)
    out = tmp_path / "sweep"
    reports, rows = sweep(scenario, "budget", [scenario.budget, 2.0 * scenario.budget], out)
    assert len(reports) == len(rows) == 2
    # base run is the one at the scenario's own budget
    assert rows[0].common_with_base == rows[0].selected
    assert rows[0].added_vs_base == ()
    for row in rows:
        assert set(row.common_with_base) | set(row.added_vs_base) == set(row.selected)
        assert row.nested_wrt_prev in (True, False)
    assert (out / "sweep_report.csv").exists()
    assert (out / "budget_1e+11").is_dir()

    with pytest.raises(ValidationError, match="axis"):
        sweep(scenario, "weather", [1.0], out)
    with pytest.raises(ValidationError, match="at least one"):
        sweep(scenario, "budget", [], out)


def test_budget_sweep_assembles_once_and_writes_what_separate_runs_write(tmp_path, monkeypatch):
    cfg = write_toy(tmp_path)
    scenario = load_scenario(cfg)
    values = [0.5 * scenario.budget, scenario.budget, 2.0 * scenario.budget]
    assembled = []

    def counted(run):
        assembled.append(run)
        return assemble(run)

    monkeypatch.setattr(scenario_io, "assemble", counted)
    shared, _ = sweep(scenario, "budget", values, tmp_path / "shared")
    assert len(assembled) == 1
    # the same sweep with each run assembling its own problem
    run_alone = scenario_io.optimize_run
    monkeypatch.setattr(scenario_io, "optimize_run", lambda run, out_dir, problem=None: run_alone(run, out_dir))
    alone, _ = sweep(scenario, "budget", values, tmp_path / "alone")
    assert len(assembled) == 1 + 1 + len(values)  # the sweep's own, unused here, and one per run
    assert shared == alone
    assert [r.solves for r in shared] == [r.solves for r in alone]  # each run keeps its own cache
    files = sorted(p.relative_to(tmp_path / "shared") for p in (tmp_path / "shared").rglob("*") if p.is_file())
    assert Path("sweep_report.csv") in files
    assert {name.parent for name in files if name.name == "electrified.geojson"} == {
        Path(f"budget_{v:g}") for v in values
    }
    assert files == sorted(p.relative_to(tmp_path / "alone") for p in (tmp_path / "alone").rglob("*") if p.is_file())
    for name in files:
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name


def test_sweep_rejects_values_sharing_a_directory(tmp_path, capsys):
    # demand 1 and 1.0000001 both print as 1, so both runs would write demand_1
    cfg = write_toy(tmp_path)
    out = tmp_path / "sweep"
    with pytest.raises(ValidationError, match="demand_1"):
        sweep(load_scenario(cfg), "demand", [1.0, 2.0, 1.0000001], out)
    rc = cli.main(["sweep", "--config", str(cfg), "--axis", "demand",
                   "--values", "1,1.0000001", "--out-dir", str(out)])
    assert rc == 2
    assert "demand_1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_an_invalid_value_before_any_run(tmp_path):
    cfg = write_toy(tmp_path)
    out = tmp_path / "sweep"
    with pytest.raises(ValidationError, match="budget"):
        sweep(load_scenario(cfg), "budget", [1.0e11, -5.0], out)
    assert not out.exists()


# --- writers --------------------------------------------------------------------------


def test_gap_trace_and_flow_writers(tmp_path):
    cfg = write_toy(tmp_path)
    bundle = assemble(load_scenario(cfg))
    from railplan.network import apply_design
    from railplan.equilibrium import solve_equilibrium

    usable = apply_design(bundle.expanded, set())
    state, metrics = solve_equilibrium(bundle.expanded, usable, bundle.od, bundle.profiles)
    write_flows(tmp_path / "flows.csv", bundle.expanded, state)
    write_gap_trace(tmp_path / "trace.csv", metrics)
    with open(tmp_path / "flows.csv") as fh:
        rows = list(csv.DictReader(fh))
    total = sum(float(r["flow_tpd"]) for r in rows if r["kind"] == "diesel" and r["physical_link"] in ("0", "2"))
    assert total == pytest.approx(2.0 * 20000.0, rel=1e-9)
    with open(tmp_path / "trace.csv") as fh:
        trows = list(csv.DictReader(fh))
    assert len(trows) == metrics.iteration
    assert float(trows[-1]["relative_gap"]) == metrics.relative_gap
    # iterations whose gap was not computed get an empty cell
    assert [r["relative_gap"] == "" for r in trows] == [gap is None for _, _, gap in metrics.trace]

    metrics.trace = [(1, 2.0, None), (2, 1.5, 3.0e-7)]
    write_gap_trace(tmp_path / "trace.csv", metrics)
    with open(tmp_path / "trace.csv") as fh:
        assert [r["relative_gap"] for r in csv.DictReader(fh)] == ["", repr(3.0e-7)]


def test_csv_cell_formats(tmp_path):
    # floats by repr, also where a sum over no links is taken; empty cells for
    # an uncomputed gap and for no ids; `;`-joined ids; bools as True/False
    cfg = write_toy(tmp_path)
    (tmp_path / "none.csv").write_text("corridor_id\n")
    rc = cli.main(["report", "--config", str(cfg), "--design", str(tmp_path / "none.csv"),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert "budget_used,0.0" in report
    assert "electrified_km,0.0" in report
    assert report[-1] == "selected_corridors,"
    bundle = assemble(load_scenario(cfg))
    assert repr(bundle.union_cost((0,) * len(bundle.corridors))) == "0.0"
    assert repr(bundle.network.total_length_km([])) == "0.0"

    metrics = types.SimpleNamespace(trace=[(1, 2.0, None), (2, 1.5, 3.0e-7)])
    write_gap_trace(tmp_path / "trace.csv", metrics)
    assert (tmp_path / "trace.csv").read_text().splitlines() == [
        "iteration,beckmann,relative_gap", "1,2.0,", "2,1.5,3e-07",
    ]

    rows = [
        SweepRow("budget", 1.0e9, 2.5, 0.0, (0, 2), (0, 2), (), (), True),
        SweepRow("budget", 5.0e8, 3.25, 1.0e8, (2,), (2,), (), (0,), False),
    ]
    write_sweep(rows, tmp_path / "sweep_report.csv")
    assert (tmp_path / "sweep_report.csv").read_text().splitlines() == [
        "axis,value,best_cost,budget_used,selected,common_with_base,added_vs_base,"
        "removed_vs_base,nested_wrt_prev",
        "budget,1000000000.0,2.5,0.0,0;2,0;2,,,True",
        "budget,500000000.0,3.25,100000000.0,2,2,,0,False",
    ]


# --- cli -----------------------------------------------------------------------------


def test_cli_optimize_and_report(tmp_path, capsys):
    cfg = write_toy(tmp_path)
    out = tmp_path / "cli_out"
    rc = cli.main(["optimize", "--config", str(cfg), "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "electrification design report" in captured.out
    assert (out / "best_design.csv").exists()

    rc = cli.main([
        "report", "--config", str(cfg), "--design", str(out / "best_design.csv"),
        "--out-dir", str(tmp_path / "report_out"),
    ])
    assert rc == 0
    assert "roi" in capsys.readouterr().out


def test_cli_subcommands_smoke(tmp_path, capsys):
    cfg = write_toy(tmp_path)
    for command in ("transform", "costs", "corridors"):
        out = tmp_path / f"{command}_out"
        rc = cli.main([command, "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0, capsys.readouterr()
    # 4 links and 2 yards: a header, 8 traction arcs, then 4 switch arcs on no link
    arcs = [row.split(",") for row in (tmp_path / "transform_out" / "arcs.csv").read_text().splitlines()]
    assert len(arcs) == 13
    assert [(row[1], row[4]) for row in arcs[9:]] == [("switch", "")] * 4
    assert (tmp_path / "costs_out" / "link_costs.csv").exists()
    assert (tmp_path / "corridors_out" / "corridors.csv").exists()

    rc = cli.main(["assign", "--config", str(cfg), "--out-dir", str(tmp_path / "assign_out")])
    assert rc == 0
    assert "equilibrium" in capsys.readouterr().out

    rc = cli.main([
        "sweep", "--config", str(cfg), "--axis", "budget",
        "--values", "5e10,1e11", "--out-dir", str(tmp_path / "sweep_out"),
    ])
    assert rc == 0
    assert (tmp_path / "sweep_out" / "sweep_report.csv").exists()


def test_cli_validation_failures(tmp_path, capsys):
    rc = cli.main(["optimize", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2
    assert "error" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("warp = 9\n")
    rc = cli.main(["optimize", "--config", str(bad)])
    assert rc == 2

    cfg = write_toy(tmp_path)
    rc = cli.main(["sweep", "--config", str(cfg), "--axis", "budget", "--values", "abc"])
    assert rc == 2

    for key, value in (("generations", "-1"), ("opex_multiplier", "nan")):
        capsys.readouterr()
        cfg.write_text(SCENARIO_CFG.replace("generations = 3\n", "") + f"{key} = {value}\n")
        rc = cli.main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err


@pytest.mark.parametrize("bad", ["config is a directory", "out-dir is a file"])
def test_cli_bad_paths_exit_2(tmp_path, capsys, bad):
    cfg = write_toy(tmp_path)
    config, out_dir = (tmp_path, tmp_path / "out") if bad == "config is a directory" else (cfg, cfg)
    rc = cli.main(["assign", "--config", str(config), "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_infeasible_exit_code(tmp_path, capsys):
    nodes = NODES_CSV + "3,41.0,-100.0,0,\n"
    (tmp_path / "nodes.csv").write_text(nodes)
    (tmp_path / "links.csv").write_text(LINKS_CSV)
    (tmp_path / "od.csv").write_text("origin,destination,tons_per_day\n0,3,100\n")
    (tmp_path / "scenario.cfg").write_text(SCENARIO_CFG)
    rc = cli.main(["optimize", "--config", str(tmp_path / "scenario.cfg"),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_cli_assign_reports_spread_and_non_convergence(tmp_path, capsys):
    cfg = write_toy(tmp_path, extra_cfg="max_iterations = 1\n")
    (tmp_path / "links.csv").write_text(THREE_ROUTE_LINKS_CSV)
    rc = cli.main(["assign", "--config", str(cfg), "--out-dir", str(tmp_path / "o1")])
    out = capsys.readouterr().out
    assert rc == 0  # the exit code does not depend on convergence
    assert "Wardrop spread" in out
    assert "after 1 iterations (not converged)" in out

    cfg.write_text(SCENARIO_CFG)
    rc = cli.main(["assign", "--config", str(cfg), "--out-dir", str(tmp_path / "o2")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Wardrop spread" in out and "not converged" not in out


def test_cli_warns_on_unconverged_solves(tmp_path, capsys):
    cfg = write_toy(tmp_path)
    rc = cli.main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "ok")])
    assert rc == 0
    assert "warning" not in capsys.readouterr().err

    cfg = write_toy(tmp_path, extra_cfg="max_iterations = 1\n")
    (tmp_path / "links.csv").write_text(THREE_ROUTE_LINKS_CSV)
    every_solve = re.compile(r"warning: (\d+) of \1 equilibrium solves did not converge\n")
    rc = cli.main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "cut")])
    assert rc == 0  # the exit code does not depend on convergence
    assert every_solve.fullmatch(capsys.readouterr().err)

    (tmp_path / "design.csv").write_text("corridor_id\n0\n")
    rc = cli.main(["report", "--config", str(cfg), "--design", str(tmp_path / "design.csv"),
                   "--out-dir", str(tmp_path / "rpt")])
    assert rc == 0
    assert capsys.readouterr().err == "warning: 2 of 2 equilibrium solves did not converge\n"

    rc = cli.main(["sweep", "--config", str(cfg), "--axis", "budget", "--values", "5e10,1e11",
                   "--out-dir", str(tmp_path / "sweep")])
    assert rc == 0
    assert every_solve.fullmatch(capsys.readouterr().err)


def test_cli_rejects_overflowing_demand(tmp_path, capsys):
    cfg = write_toy(tmp_path, od_csv="origin,destination,tons_per_day\n0,2,1e70\n")
    rc = cli.main(["assign", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err


def test_cli_seed_and_tol_overrides(tmp_path):
    cfg = write_toy(tmp_path)
    rc = cli.main(["assign", "--config", str(cfg), "--seed", "9", "--tol", "1e-8",
                   "--out-dir", str(tmp_path / "o1")])
    assert rc == 0
