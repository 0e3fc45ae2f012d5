"""Scenario configs, file formats, and the end-to-end run pipelines.

All configs are flat ``key = value`` text.  Tabular data is CSV with fixed
headers; electrified networks are emitted as GeoJSON LineString collections.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import costmodel, design, kvconfig
from .corridors import Corridor, candidate_corridors
from .costmodel import (
    ElectrificationRates,
    RateTable,
    TrainConsist,
    build_profiles,
    electrification_costs,
    yard_switch_costs,
)
from .equilibrium import (
    FlowState,
    GapMetrics,
    ODMatrix,
    solve_equilibrium,
)
from .network import (
    ExpandedNetwork,
    Node,
    PhysicalLink,
    RailNetwork,
    SignalClass,
    apply_design,
    expand,
)


class ValidationError(ValueError):
    """Malformed input data or config."""


# --- scenario config -----------------------------------------------------------


@dataclass
class Scenario:
    """One run's inputs and knobs; everything overridable from the config file."""

    node_file: str = "nodes.csv"
    link_file: str = "links.csv"
    od_file: str = "od.csv"
    corridor_file: str = ""  # empty: generate from the network
    rates_file: str = ""  # empty: built-in defaults
    budget: float = 30.0e9
    demand_multiplier: float = 1.0
    opex_multiplier: float = 1.0
    electrification_cost_multiplier: float = 1.0
    electricity_price_multiplier: float = 1.0
    seed: int = 0
    gap_tolerance: float = 1.0e-6
    max_iterations: int = 500
    corridor_metric: str = "cost"  # cost | length
    population: int = 64
    generations: int = 200
    crossover: float = 0.9
    mutation: float = -1.0  # negative: default 1/|corridors|
    elites: int = 2
    greedy_fraction: float = 0.5
    base_dir: str = "."

    def validate(self) -> None:
        if not (math.isfinite(self.budget) and self.budget > 0.0):
            raise ValidationError(f"budget must be positive and finite, got {self.budget}")
        for name in (
            "demand_multiplier",
            "opex_multiplier",
            "electrification_cost_multiplier",
            "electricity_price_multiplier",
        ):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be positive and finite, got {v}")
        if self.corridor_metric not in ("cost", "length"):
            raise ValidationError(f"corridor_metric must be cost|length, got {self.corridor_metric!r}")
        if not (0.0 <= self.crossover <= 1.0):
            raise ValidationError("crossover probability outside [0, 1]")
        if math.isnan(self.mutation) or self.mutation > 1.0:
            raise ValidationError(f"mutation probability above 1 or NaN, got {self.mutation}")
        if not (0.0 <= self.greedy_fraction <= 1.0):
            raise ValidationError(f"greedy_fraction outside [0, 1], got {self.greedy_fraction}")
        if self.population < 2:
            raise ValidationError("population must be at least 2")
        if self.generations < 0:
            raise ValidationError(f"generations must be at least 0, got {self.generations}")
        if self.elites < 0 or self.elites >= self.population:
            raise ValidationError("elites must fit inside the population")
        if not (math.isfinite(self.gap_tolerance) and self.gap_tolerance > 0.0):
            raise ValidationError(f"gap tolerance must be positive and finite, got {self.gap_tolerance}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be at least 1, got {self.max_iterations}")

    def path(self, name: str) -> Path:
        return Path(self.base_dir) / name

    def ga_config(self) -> design.GAConfig:
        return design.GAConfig(
            population=self.population,
            generations=self.generations,
            crossover=self.crossover,
            mutation=None if self.mutation < 0.0 else self.mutation,
            elites=self.elites,
            seed=self.seed,
            greedy_fraction=self.greedy_fraction,
        )


_SCENARIO_TYPES = {f.name: f.type for f in dataclasses.fields(Scenario)}


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario config; unknown keys are rejected, paths resolve
    relative to the config file."""
    path = Path(path)
    raw = kvconfig.load_kv(path)
    scenario = Scenario(base_dir=str(path.parent))
    for key, text in raw.items():
        if key == "base_dir" or key not in _SCENARIO_TYPES:
            raise ValidationError(f"{path}: unknown scenario key {key!r}")
        current = getattr(scenario, key)
        try:
            if isinstance(current, int):
                value: object = int(text)
            elif isinstance(current, float):
                value = float(text)
            else:
                value = text
        except ValueError as exc:
            raise ValidationError(f"{path}: bad value for {key}: {exc}") from exc
        setattr(scenario, key, value)
    scenario.validate()
    return scenario


# --- rates config ----------------------------------------------------------------

_CONSIST_KEYS = {
    "locomotive_count": ("n_locomotives", int),
    "railcar_count": ("n_railcars", int),
    "locomotive_mass_t": ("locomotive_mass_t", float),
    "railcar_tare_t": ("railcar_tare_t", float),
    "railcar_cargo_t": ("railcar_cargo_t", float),
    "locomotive_axles": ("locomotive_axles", int),
    "railcar_axles": ("railcar_axles", int),
    "locomotive_drag": ("locomotive_drag", float),
    "railcar_drag": ("railcar_drag", float),
}

_RATE_KEYS = {
    "crew_rate": float,
    "cargo_rate": float,
    "fuel_cost_diesel": float,
    "fuel_cost_electric": float,
    "eta_diesel": float,
    "eta_electric": float,
    "flange_factor": float,
    "air_factor": float,
    "bearing_a": float,
    "bearing_b": float,
    "flange_b_locomotive": float,
    "flange_b_railcar": float,
    "gravity": float,
    "beta": float,
    "curve_coefficient": float,
    "curve_arg_m": float,
    "brake_grade_equivalent": float,
    "desired_speed": float,
    "locomotive_power_diesel_w": float,
    "locomotive_power_electric_w": float,
    "notch_count": int,
    "min_notch_fraction": float,
    "switch_cost_per_train": float,
    "switch_hours": float,
    "switch_crew_equivalents": float,
    "switch_energy_cost": float,
    "switching_cost_mode": str,
}

_ELEC_KEYS = {
    "ocs_min": float,
    "ocs_max": float,
    "substation_min": float,
    "substation_max": float,
    "transmission_min": float,
    "transmission_max": float,
    "public_works_min": float,
    "public_works_max": float,
}

_SIGNAL_KEYS = {
    "signal_low": SignalClass.LOW,
    "signal_medium": SignalClass.MEDIUM,
    "signal_high": SignalClass.HIGH,
}

_PPI_KEYS = ("ppi_capital", "ppi_operations", "ppi_fuel", "ppi_switching")


def _parse_rate(conv, text: str):
    value = conv(text)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def load_rates(path: str | Path | None) -> tuple[TrainConsist, RateTable, ElectrificationRates]:
    """Rates/constants from a key=value file; missing file means defaults.

    The per-category producer-price factors are applied here: operations on
    the crew/cargo rates, fuel on both energy prices, switching on the flat
    per-train figure, capital inside the electrification rates.
    """
    raw = kvconfig.load_kv(path) if path else {}
    consist_args: dict[str, object] = {}
    rate_args: dict[str, object] = {}
    elec_args: dict[str, object] = {}
    signal = dict(ElectrificationRates().signal_cost)
    ppi = {k: 1.0 for k in _PPI_KEYS}
    for key, text in raw.items():
        try:
            if key in _CONSIST_KEYS:
                attr, conv = _CONSIST_KEYS[key]
                consist_args[attr] = _parse_rate(conv, text)
            elif key in _RATE_KEYS:
                rate_args[key] = _parse_rate(_RATE_KEYS[key], text)
            elif key in _ELEC_KEYS:
                elec_args[key] = _parse_rate(_ELEC_KEYS[key], text)
            elif key in _SIGNAL_KEYS:
                signal[_SIGNAL_KEYS[key]] = _parse_rate(float, text)
            elif key in _PPI_KEYS:
                ppi[key] = _parse_rate(float, text)
            else:
                raise ValidationError(f"unknown rates key {key!r}")
        except ValueError as exc:
            raise ValidationError(f"bad value for {key}: {exc}") from exc
    consist = TrainConsist(**consist_args)
    rates = RateTable(**rate_args)
    rates = replace(
        rates,
        crew_rate=rates.crew_rate * ppi["ppi_operations"],
        cargo_rate=rates.cargo_rate * ppi["ppi_operations"],
        fuel_cost_diesel=rates.fuel_cost_diesel * ppi["ppi_fuel"],
        fuel_cost_electric=rates.fuel_cost_electric * ppi["ppi_fuel"],
        switch_cost_per_train=rates.switch_cost_per_train * ppi["ppi_switching"],
    )
    elec = ElectrificationRates(signal_cost=signal, ppi_capital=ppi["ppi_capital"], **elec_args)
    return consist, rates, elec


# --- CSV loaders -----------------------------------------------------------------


def _require_columns(reader: csv.DictReader, required: set[str], optional: set[str], what: str) -> None:
    got = set(reader.fieldnames or [])
    missing = required - got
    unknown = got - required - optional
    if missing:
        raise ValidationError(f"{what}: missing columns {sorted(missing)}")
    if unknown:
        raise ValidationError(f"{what}: unknown columns {sorted(unknown)}")


def load_nodes(path: str | Path) -> list[Node]:
    nodes: list[Node] = []
    seen: set[int] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, {"id", "lat", "lon", "is_yard", "switching_cost"}, set(), str(path))
        for row in reader:
            nid = int(row["id"])
            if nid in seen:
                raise ValidationError(f"{path}: duplicate node id {nid}")
            seen.add(nid)
            raw_cost = (row["switching_cost"] or "").strip()
            nodes.append(
                Node(
                    id=nid,
                    lat=float(row["lat"]),
                    lon=float(row["lon"]),
                    is_yard=kvconfig.coerce_bool(row["is_yard"]),
                    switching_cost=float(raw_cost) if raw_cost else None,
                )
            )
    return nodes


_LINK_REQUIRED = {
    "id", "tail", "head", "length_km", "grade", "curve_radius_m",
    "capacity_tpd", "signal_class", "candidate",
}
_LINK_OPTIONAL = {"k_f", "k_a", "desired_speed"}


def load_links(path: str | Path) -> list[PhysicalLink]:
    links: list[PhysicalLink] = []
    seen: set[int] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, _LINK_REQUIRED, _LINK_OPTIONAL, str(path))
        for row in reader:
            lid = int(row["id"])
            if lid in seen:
                raise ValidationError(f"{path}: duplicate link id {lid}")
            seen.add(lid)

            def opt_float(col: str) -> float | None:
                raw = (row.get(col) or "").strip()
                return float(raw) if raw else None

            try:
                signal = SignalClass((row["signal_class"] or "low").strip().lower())
            except ValueError as exc:
                raise ValidationError(f"{path}: link {lid}: {exc}") from exc
            links.append(
                PhysicalLink(
                    id=lid,
                    tail=int(row["tail"]),
                    head=int(row["head"]),
                    length_km=float(row["length_km"]),
                    grade=float(row["grade"]),
                    curve_radius_m=opt_float("curve_radius_m"),
                    capacity_tpd=float(row["capacity_tpd"]),
                    signal_class=signal,
                    candidate=kvconfig.coerce_bool(row["candidate"]),
                    k_f=opt_float("k_f"),
                    k_a=opt_float("k_a"),
                    desired_speed=opt_float("desired_speed"),
                )
            )
    return links


def load_network(node_path: str | Path, link_path: str | Path) -> RailNetwork:
    try:
        return RailNetwork.build(load_nodes(node_path), load_links(link_path))
    except ValueError as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(str(exc)) from exc


def load_od(path: str | Path) -> ODMatrix:
    demand: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, {"origin", "destination", "tons_per_day"}, set(), str(path))
        for row in reader:
            key = (int(row["origin"]), int(row["destination"]))
            if key in demand:
                raise ValidationError(f"{path}: duplicate OD pair {key}")
            demand[key] = float(row["tons_per_day"])
    try:
        return ODMatrix(demand)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_corridors(path: str | Path, corridors: Iterable[Corridor]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["corridor_id", "yard_a", "yard_b", "length_km", "cost_usd", "link_ids"])
        for c in corridors:
            writer.writerow(
                [c.id, c.yard_a, c.yard_b, repr(float(c.length_km)), repr(float(c.cost_usd)),
                 ";".join(str(l) for l in c.link_ids)]
            )


def load_corridors(path: str | Path) -> list[Corridor]:
    out: list[Corridor] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(
            reader,
            {"corridor_id", "yard_a", "yard_b", "length_km", "cost_usd", "link_ids"},
            set(),
            str(path),
        )
        for row in reader:
            links = tuple(int(t) for t in row["link_ids"].split(";") if t)
            if not links:
                raise ValidationError(f"{path}: corridor {row['corridor_id']} has no links")
            out.append(
                Corridor(
                    id=int(row["corridor_id"]),
                    link_ids=links,
                    yard_a=int(row["yard_a"]),
                    yard_b=int(row["yard_b"]),
                    length_km=float(row["length_km"]),
                    cost_usd=float(row["cost_usd"]),
                )
            )
    if [c.id for c in out] != list(range(len(out))):
        raise ValidationError(f"{path}: corridor ids must be 0..n-1 in order")
    return out


# --- CSV writers -------------------------------------------------------------------


def write_flows(path: str | Path, expanded: ExpandedNetwork, state: FlowState) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arc_id", "kind", "physical_link", "flow_tpd", "cost_per_ton"])
        for arc in expanded.arcs:
            writer.writerow(
                [
                    arc.id,
                    arc.kind.value,
                    "" if arc.physical_link is None else arc.physical_link,
                    repr(float(state.x[arc.id])),
                    repr(float(state.cost[arc.id])),
                ]
            )


def write_arcs(path: str | Path, expanded: ExpandedNetwork) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arc_id", "kind", "tail", "head", "physical_link", "fixed_cost"])
        for arc in expanded.arcs:
            writer.writerow(
                [
                    arc.id,
                    arc.kind.value,
                    expanded.node_label(arc.tail),
                    expanded.node_label(arc.head),
                    "" if arc.physical_link is None else arc.physical_link,
                    repr(arc.fixed_cost),
                ]
            )


def write_link_costs(
    path: str | Path,
    profiles: Mapping[int, costmodel.LinkCostProfile],
    link_costs: Mapping[int, float],
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "link_id", "t0_hr", "congestion_coef", "diesel_fuel_per_ton",
                "electric_fuel_per_ton", "electrification_cost_usd",
            ]
        )
        for lid in sorted(profiles):
            p = profiles[lid]
            writer.writerow(
                [
                    lid,
                    repr(p.t0_hr),
                    repr(p.congestion_coef),
                    repr(p.diesel.fuel_cost_per_ton),
                    repr(p.electric.fuel_cost_per_ton),
                    repr(link_costs.get(lid, float("nan"))),
                ]
            )


def write_gap_trace(path: str | Path, metrics: GapMetrics) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "beckmann", "relative_gap", "seconds"])
        for it, beck, gap, secs in metrics.trace:
            # an empty gap cell marks an iteration whose gap was not computed
            gap_cell = "" if gap is None else repr(float(gap))
            writer.writerow([it, repr(float(beck)), gap_cell, repr(float(secs))])


def write_generations(path: str | Path, history: Iterable[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "best_cost", "mean_cost", "budget_used", "electrified_km"])
        for gen, best, mean, used, km in history:
            writer.writerow([gen, repr(float(best)), repr(float(mean)), repr(float(used)), repr(float(km))])


def write_design(path: str | Path, selected: Iterable[int]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["corridor_id"])
        for cid in sorted(selected):
            writer.writerow([cid])


def load_design(path: str | Path) -> list[int]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, {"corridor_id"}, set(), str(path))
        return [int(row["corridor_id"]) for row in reader]


# --- GeoJSON ------------------------------------------------------------------------


def emit_geojson(
    electrified_links: set[int],
    net: RailNetwork,
    flows: Mapping[int, tuple[float, float]],
    path: str | Path | None = None,
    overlap_tags: Mapping[int, str] | None = None,
) -> dict:
    """FeatureCollection with one LineString per physical link."""
    features = []
    for lid in sorted(net.links):
        link = net.links[lid]
        tail, head = net.nodes[link.tail], net.nodes[link.head]
        xd, xe = flows.get(lid, (0.0, 0.0))
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[tail.lon, tail.lat], [head.lon, head.lat]],
                },
                "properties": {
                    "link_id": lid,
                    "length_km": link.length_km,
                    "electrified": lid in electrified_links,
                    "diesel_tons": xd,
                    "electric_tons": xe,
                    "overlap": (overlap_tags or {}).get(lid, ""),
                },
            }
        )
    collection = {"type": "FeatureCollection", "features": features}
    if path is not None:
        Path(path).write_text(json.dumps(collection, indent=2))
    return collection


def validate_geojson(obj: dict) -> None:
    """Structural check of an emitted collection; raises ValidationError."""
    if not isinstance(obj, dict) or obj.get("type") != "FeatureCollection":
        raise ValidationError("not a FeatureCollection")
    features = obj.get("features")
    if not isinstance(features, list):
        raise ValidationError("features must be a list")
    for i, f in enumerate(features):
        if not isinstance(f, dict) or f.get("type") != "Feature":
            raise ValidationError(f"feature {i}: not a Feature")
        geom = f.get("geometry")
        if not isinstance(geom, dict) or geom.get("type") != "LineString":
            raise ValidationError(f"feature {i}: geometry must be a LineString")
        coords = geom.get("coordinates")
        if not isinstance(coords, list) or len(coords) < 2:
            raise ValidationError(f"feature {i}: need at least two positions")
        for pos in coords:
            if (
                not isinstance(pos, list)
                or len(pos) != 2
                or not all(isinstance(c, (int, float)) and math.isfinite(c) for c in pos)
            ):
                raise ValidationError(f"feature {i}: bad position {pos!r}")
        props = f.get("properties")
        if not isinstance(props, dict) or "link_id" not in props or "electrified" not in props:
            raise ValidationError(f"feature {i}: missing required properties")


# --- assembly and pipelines -----------------------------------------------------------


@dataclass
class Assembled:
    scenario: Scenario
    network: RailNetwork
    expanded: ExpandedNetwork
    consist: TrainConsist
    rates: RateTable
    elec: ElectrificationRates
    profiles: dict[int, costmodel.LinkCostProfile]
    link_costs: dict[int, float]
    corridors: list[Corridor]
    od: ODMatrix
    problem: design.DesignProblem


def write_solution(
    out: Path,
    assembled: Assembled,
    bits: design.Bits,
    state: FlowState,
    metrics: GapMetrics,
    geojson_name: str,
) -> None:
    """flows.csv, gap_trace.csv and the GeoJSON `geojson_name` of one solved design."""
    write_flows(out / "flows.csv", assembled.expanded, state)
    write_gap_trace(out / "gap_trace.csv", metrics)
    emit_geojson(
        assembled.problem.electrified_links(bits),
        assembled.network,
        state.physical_flows(assembled.expanded),
        out / geojson_name,
    )


def assemble(scenario: Scenario) -> Assembled:
    """Load everything and apply the scenario multipliers."""
    scenario.validate()
    consist, rates, elec = load_rates(
        scenario.path(scenario.rates_file) if scenario.rates_file else None
    )
    rates = replace(
        rates,
        crew_rate=rates.crew_rate * scenario.opex_multiplier,
        cargo_rate=rates.cargo_rate * scenario.opex_multiplier,
        fuel_cost_electric=rates.fuel_cost_electric * scenario.electricity_price_multiplier,
    )
    elec = replace(
        elec, ppi_capital=elec.ppi_capital * scenario.electrification_cost_multiplier
    )
    network = load_network(scenario.path(scenario.node_file), scenario.path(scenario.link_file))
    od = load_od(scenario.path(scenario.od_file))
    if scenario.demand_multiplier != 1.0:
        od = ODMatrix({k: d * scenario.demand_multiplier for k, d in od.demand.items()})
    unknown = {n for pair in od.demand for n in pair} - set(network.nodes)
    if unknown:
        raise ValidationError(f"OD references unknown nodes {sorted(unknown)}")

    profiles = build_profiles(network, consist, rates)
    link_costs = electrification_costs(network, elec)
    expanded = expand(network, yard_switch_costs(network, rates, consist))

    if scenario.corridor_file:
        corridors = load_corridors(scenario.path(scenario.corridor_file))
        for c in corridors:
            bad = [l for l in c.link_ids if l not in network.links]
            if bad:
                raise ValidationError(f"corridor {c.id}: unknown links {bad}")
    else:
        if scenario.corridor_metric == "length":
            weights = {lid: l.length_km for lid, l in network.links.items()}
        else:
            weights = {
                lid: p.congestion_coef + p.diesel.fuel_cost_per_ton
                for lid, p in profiles.items()
            }
        corridors = candidate_corridors(network, weights, link_costs)

    problem = design.DesignProblem(
        expanded=expanded,
        profiles=profiles,
        corridors=corridors,
        link_costs=link_costs,
        budget=scenario.budget,
        od=od,
        tol=scenario.gap_tolerance,
        max_iter=scenario.max_iterations,
    )
    return Assembled(
        scenario=scenario,
        network=network,
        expanded=expanded,
        consist=consist,
        rates=rates,
        elec=elec,
        profiles=profiles,
        link_costs=link_costs,
        corridors=corridors,
        od=od,
        problem=problem,
    )


@dataclass
class RunReport:
    """Headline numbers of one optimization run."""

    scenario: dict
    baseline_cost: float
    optimized_cost: float
    roi: float
    budget: float
    budget_used: float
    electrified_km: float
    candidate_km: float
    line_mile_share: float
    tonnage_share: float
    selected_corridors: tuple[int, ...]
    gap: float
    solves: int  # distinct designs solved in the run
    unconverged_solves: int


def _candidate_km(assembled: Assembled) -> float:
    links = {l for c in assembled.corridors for l in c.link_ids}
    return assembled.network.total_length_km(links)


def summarize_design(assembled: Assembled, bits: design.Bits) -> RunReport:
    problem = assembled.problem
    baseline = problem.baseline()
    best = problem.evaluate(bits)
    candidate_km = _candidate_km(assembled)
    solved = problem.solved
    return RunReport(
        scenario={f.name: getattr(assembled.scenario, f.name) for f in dataclasses.fields(Scenario)},
        baseline_cost=baseline.total_cost,
        optimized_cost=best.total_cost,
        roi=(baseline.total_cost - best.total_cost) / assembled.scenario.budget,
        budget=assembled.scenario.budget,
        budget_used=best.budget_used,
        electrified_km=best.electrified_km,
        candidate_km=candidate_km,
        line_mile_share=(best.electrified_km / candidate_km) if candidate_km > 0.0 else 0.0,
        tonnage_share=best.electric_share,
        selected_corridors=best.design.selected,
        gap=best.gap,
        solves=len(solved),
        unconverged_solves=sum(not e.converged for e in solved),
    )


def optimize_run(scenario: Scenario, out_dir: str | Path | None = None) -> RunReport:
    """Full pipeline: assemble, GA search, artifacts, report."""
    assembled = assemble(scenario)
    problem = assembled.problem
    config = scenario.ga_config()
    rng = np.random.default_rng(scenario.seed)
    population = design.seed_population(config, problem, rng)
    best, history = design.evolve(population, config, problem, rng)
    report = summarize_design(assembled, best.design.bits)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_corridors(out / "corridors.csv", assembled.corridors)
        write_generations(out / "generations.csv", history)
        write_design(out / "best_design.csv", best.design.selected)
        solution = problem.solution(best.design.bits)
        write_solution(
            out, assembled, best.design.bits, solution.state, solution.metrics, "electrified.geojson"
        )
        write_report(report, out)
    return report


def format_report(report: RunReport) -> str:
    lines = [
        "electrification design report",
        f"  budget:            ${report.budget:,.0f}",
        f"  budget used:       ${report.budget_used:,.0f}",
        f"  baseline cost:     ${report.baseline_cost:,.2f}/day",
        f"  optimized cost:    ${report.optimized_cost:,.2f}/day",
        f"  roi:               {report.roi:.3e} per budget dollar-day",
        f"  electrified km:    {report.electrified_km:,.1f}",
        f"  line-mile share:   {100.0 * report.line_mile_share:.1f}%",
        f"  tonnage share:     {100.0 * report.tonnage_share:.1f}%",
        f"  corridors:         {list(report.selected_corridors)}",
        f"  equilibrium gap:   {report.gap:.2e}",
        f"  unconverged equilibrium solves: {report.unconverged_solves} of {report.solves}",
    ]
    return "\n".join(lines)


def write_report(report: RunReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(format_report(report) + "\n")
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerow(["baseline_cost", repr(float(report.baseline_cost))])
        writer.writerow(["optimized_cost", repr(float(report.optimized_cost))])
        writer.writerow(["roi", repr(float(report.roi))])
        writer.writerow(["budget", repr(float(report.budget))])
        writer.writerow(["budget_used", repr(float(report.budget_used))])
        writer.writerow(["electrified_km", repr(float(report.electrified_km))])
        writer.writerow(["candidate_km", repr(float(report.candidate_km))])
        writer.writerow(["line_mile_share", repr(float(report.line_mile_share))])
        writer.writerow(["tonnage_share", repr(float(report.tonnage_share))])
        writer.writerow(["gap", repr(float(report.gap))])
        writer.writerow(["selected_corridors", ";".join(map(str, report.selected_corridors))])


# --- sweeps --------------------------------------------------------------------------

_SWEEP_AXES = {
    "budget": "budget",
    "demand": "demand_multiplier",
    "opex": "opex_multiplier",
    "electrification_cost": "electrification_cost_multiplier",
    "electricity_price": "electricity_price_multiplier",
}


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    best_cost: float
    budget_used: float
    selected: tuple[int, ...]
    common_with_base: tuple[int, ...]
    added_vs_base: tuple[int, ...]
    removed_vs_base: tuple[int, ...]
    nested_wrt_prev: bool


def sweep(
    scenario: Scenario,
    axis: str,
    values: Iterable[float],
    out_dir: str | Path | None = None,
) -> tuple[list[RunReport], list[SweepRow]]:
    """One optimization per value with corridor-set overlap bookkeeping.

    The base run is the one matching the scenario's own setting when present,
    else the first value.  nested_wrt_prev records whether the previous run's
    corridor set is contained in this one (the interesting question on a
    monotone budget sweep).
    """
    if axis not in _SWEEP_AXES:
        raise ValidationError(f"unknown sweep axis {axis!r}; pick from {sorted(_SWEEP_AXES)}")
    attr = _SWEEP_AXES[axis]
    values = [float(v) for v in values]
    if not values:
        raise ValidationError("sweep needs at least one value")

    reports: list[RunReport] = []
    for v in values:
        sub = replace(scenario, **{attr: v})
        sub_dir = None
        if out_dir is not None:
            sub_dir = Path(out_dir) / f"{axis}_{v:g}"
        reports.append(optimize_run(sub, sub_dir))

    base_value = getattr(scenario, attr)
    base_idx = values.index(base_value) if base_value in values else 0
    base_set = set(reports[base_idx].selected_corridors)

    rows: list[SweepRow] = []
    prev: set[int] | None = None
    for v, rep in zip(values, reports):
        sel = set(rep.selected_corridors)
        rows.append(
            SweepRow(
                axis=axis,
                value=v,
                best_cost=rep.optimized_cost,
                budget_used=rep.budget_used,
                selected=tuple(sorted(sel)),
                common_with_base=tuple(sorted(sel & base_set)),
                added_vs_base=tuple(sorted(sel - base_set)),
                removed_vs_base=tuple(sorted(base_set - sel)),
                nested_wrt_prev=(prev is None or prev <= sel),
            )
        )
        prev = sel
    if out_dir is not None:
        write_sweep(rows, Path(out_dir) / "sweep_report.csv")
    return reports, rows


def write_sweep(rows: list[SweepRow], path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "axis", "value", "best_cost", "budget_used", "selected",
                "common_with_base", "added_vs_base", "removed_vs_base", "nested_wrt_prev",
            ]
        )
        for r in rows:
            writer.writerow(
                [
                    r.axis,
                    repr(float(r.value)),
                    repr(float(r.best_cost)),
                    repr(float(r.budget_used)),
                    ";".join(map(str, r.selected)),
                    ";".join(map(str, r.common_with_base)),
                    ";".join(map(str, r.added_vs_base)),
                    ";".join(map(str, r.removed_vs_base)),
                    r.nested_wrt_prev,
                ]
            )


# --- fixed designs -------------------------------------------------------------------


def assemble_design(
    scenario: Scenario, design_ids: Iterable[int] | None
) -> tuple[Assembled, design.Bits]:
    """Assemble the scenario and the bits of the design electrifying the
    corridors `design_ids` (none when None)."""
    assembled = assemble(scenario)
    bits = design.DesignVector.from_ids(design_ids or (), len(assembled.corridors)).bits
    return assembled, bits


def assign_run(
    scenario: Scenario,
    design_ids: Iterable[int] | None = None,
    out_dir: str | Path | None = None,
) -> tuple[FlowState, GapMetrics]:
    """Solve one equilibrium, cold, under an optional fixed design."""
    assembled, bits = assemble_design(scenario, design_ids)
    usable = apply_design(assembled.expanded, assembled.problem.electrified_links(bits))
    state, metrics = solve_equilibrium(
        assembled.expanded,
        usable,
        assembled.od,
        assembled.profiles,
        tol=scenario.gap_tolerance,
        max_iter=scenario.max_iterations,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_solution(out, assembled, bits, state, metrics, "flows.geojson")
    return state, metrics
