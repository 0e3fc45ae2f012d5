"""Scenario configs, file formats, and the end-to-end run pipelines.

All configs are flat ``key = value`` text.  Tabular data is CSV with fixed
headers, and every table, input or artifact, is read by `_read_csv` and
written by `_write_csv`; electrified networks are emitted as GeoJSON
LineString collections.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from . import costmodel, design, kvconfig
from .corridors import Corridor, candidate_corridors, corridor_cost
from .costmodel import (
    ElectrificationRates,
    LinkCostTable,
    RateTable,
    TrainConsist,
    build_profiles,
    electrification_costs,
    yard_switch_costs,
)
from .equilibrium import FlowState, GapMetrics, ODMatrix
from .network import ExpandedNetwork, Node, PhysicalLink, RailNetwork, SignalClass, expand
# unused here, but perfbench/tracing.py patches both names in this module and needs them
from .equilibrium import solve_equilibrium  # noqa: F401
from .network import apply_design  # noqa: F401


class ValidationError(ValueError):
    """Malformed input data or config."""


# --- configs ----------------------------------------------------------------------


@dataclass
class Scenario(design.GAConfig):
    """One run's inputs and knobs, the GA settings of `design.GAConfig`
    included; every field but `base_dir` is a scenario.cfg key.  Construction
    and `replace` validate."""

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
    gap_tolerance: float = 1.0e-6
    max_iterations: int = 500
    corridor_metric: str = "cost"  # cost | length
    base_dir: str = "."  # where the file names resolve: the config's directory

    def __post_init__(self) -> None:
        self.validate()

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
        if not (math.isfinite(self.mutation) and self.mutation <= 1.0):
            raise ValidationError(f"mutation probability above 1 or non-finite, got {self.mutation}")
        if not (0.0 <= self.greedy_fraction <= 1.0):
            raise ValidationError(f"greedy_fraction outside [0, 1], got {self.greedy_fraction}")
        if self.population < 2:
            raise ValidationError("population must be at least 2")
        if self.generations < 0:
            raise ValidationError(f"generations must be at least 0, got {self.generations}")
        if self.elites < 0 or self.elites >= self.population:
            raise ValidationError("elites must fit inside the population")
        if self.seed < 0:
            raise ValidationError(f"seed must be at least 0, got {self.seed}")
        if not (math.isfinite(self.gap_tolerance) and self.gap_tolerance > 0.0):
            raise ValidationError(f"gap tolerance must be positive and finite, got {self.gap_tolerance}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be at least 1, got {self.max_iterations}")

    def path(self, name: str) -> Path:
        return Path(self.base_dir) / name


def _schema(cls, skip: tuple[str, ...] = (), spelling: Mapping[str, str] | None = None) -> dict[str, tuple]:
    """Config key -> (class, field, type of the field's default) per field of
    a config dataclass; `spelling` renames keys."""
    spelling = spelling or {}
    return {
        spelling.get(f.name, f.name): (cls, f.name, type(f.default))
        for f in dataclasses.fields(cls)
        if f.name not in skip
    }


def _parse(
    raw: Mapping[str, str], types: Mapping[str, type], source: str | Path | None, what: str
) -> dict[str, object]:
    """Each value of `raw` as the type of its key; unknown keys and
    non-finite floats are rejected."""
    values: dict[str, object] = {}
    for key, text in raw.items():
        kind = types.get(key)
        if kind is None:
            raise ValidationError(f"{source}: unknown {what} key {key!r}")
        try:
            value = kind(text)
        except ValueError as exc:
            raise ValidationError(f"{source}: bad value for {key}: {exc}") from exc
        if kind is float and not math.isfinite(value):
            raise ValidationError(f"{source}: bad value for {key}: non-finite value {text!r}")
        values[key] = value
    return values


_SCENARIO_TYPES = {key: kind for key, (_, _, kind) in _schema(Scenario, skip=("base_dir",)).items()}


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario config; unknown keys are rejected, paths resolve
    relative to the config file."""
    path = Path(path)
    values = _parse(kvconfig.load_kv(path), _SCENARIO_TYPES, path, "scenario")
    return Scenario(base_dir=str(path.parent), **values)


# rates.cfg keys are the fields of the three rates dataclasses, except that the
# consist counts are spelled `locomotive_count` and `railcar_count`, the signal
# cost mapping is read from the `signal_*` keys, and `ppi_capital` is one of
# the `ppi_*` producer-price factors.
_CONSIST_SPELLING = {"n_locomotives": "locomotive_count", "n_railcars": "railcar_count"}
_RATE_FIELDS = {
    **_schema(TrainConsist, spelling=_CONSIST_SPELLING),
    **_schema(RateTable),
    **_schema(ElectrificationRates, skip=("signal_cost", "ppi_capital")),
}

_SIGNAL_KEYS = {
    "signal_low": SignalClass.LOW,
    "signal_medium": SignalClass.MEDIUM,
    "signal_high": SignalClass.HIGH,
}

_PPI_KEYS = ("ppi_capital", "ppi_operations", "ppi_fuel", "ppi_switching")

_RATES_TYPES = {
    **{key: kind for key, (_, _, kind) in _RATE_FIELDS.items()},
    **dict.fromkeys((*_SIGNAL_KEYS, *_PPI_KEYS), float),
}


def load_rates(path: str | Path | None) -> tuple[TrainConsist, RateTable, ElectrificationRates]:
    """Rates/constants from a key=value file; missing file means defaults.

    The per-category producer-price factors are applied here: operations on
    the crew/cargo rates, fuel on both energy prices, switching on the flat
    per-train figure, capital inside the electrification rates.  A factor
    must be positive, the train needs locomotives and cargo, and each rates
    dataclass rejects its own meaningless values; every error names the
    file and the key.
    """
    values = _parse(kvconfig.load_kv(path) if path else {}, _RATES_TYPES, path, "rates")
    args: dict[type, dict[str, object]] = {TrainConsist: {}, RateTable: {}, ElectrificationRates: {}}
    for key, (cls, name, _) in _RATE_FIELDS.items():
        if key in values:
            args[cls][name] = values[key]
    signal = dict(ElectrificationRates().signal_cost)
    signal.update({cls: values[key] for key, cls in _SIGNAL_KEYS.items() if key in values})
    ppi = {key: values.get(key, 1.0) for key in _PPI_KEYS}
    try:
        for key, factor in ppi.items():
            if not factor > 0.0:
                raise ValueError(f"{key} must be positive, got {factor}")
        consist = TrainConsist(**args[TrainConsist])
        for name in ("n_locomotives", "n_railcars", "railcar_cargo_t"):  # a throttle ladder and cargo
            if not getattr(consist, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(consist, name)}")
        rates = RateTable(**args[RateTable])
        rates = replace(
            rates,
            crew_rate=rates.crew_rate * ppi["ppi_operations"],
            cargo_rate=rates.cargo_rate * ppi["ppi_operations"],
            fuel_cost_diesel=rates.fuel_cost_diesel * ppi["ppi_fuel"],
            fuel_cost_electric=rates.fuel_cost_electric * ppi["ppi_fuel"],
            switch_cost_per_train=rates.switch_cost_per_train * ppi["ppi_switching"],
        )
        elec = ElectrificationRates(
            signal_cost=signal, ppi_capital=ppi["ppi_capital"], **args[ElectrificationRates]
        )
        try:  # the notches must differ in floats, not only in (0, 1]
            costmodel.build_throttles(consist, rates)
        except ValueError:
            raise ValueError(
                f"min_notch_fraction {rates.min_notch_fraction!r} with notch_count "
                f"{rates.notch_count} gives throttle notches of equal power"
            ) from None
    except ValueError as exc:
        message = str(exc)
        for name, key in _CONSIST_SPELLING.items():  # name the key, not the field
            message = message.replace(name, key)
        raise ValidationError(f"{path}: {message}") from exc
    return consist, rates, elec


# --- CSV tables -------------------------------------------------------------------


# One rule formats every cell: None is empty, a float is written by `repr`, so
# it reads back bit for bit, a tuple or list is its items joined by `;`, and
# anything else is `str`.  For the types in `_AS_IS` that is the csv module's
# own documented rule, which it applies faster; `_cell` converts the rest.
_AS_IS = {float, int, str, type(None)}


def _cell(value: object) -> str:
    if isinstance(value, float):  # a float subclass, such as a numpy float
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ";".join(map(str, value))
    return str(value)


def _write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable[object]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if type(v) in _AS_IS else _cell(v) for v in row] for row in rows)


_Columns = Mapping[str, Callable[[str], object]]  # column name -> cell parser


def _read_csv(
    path: str | Path, what: str, required: _Columns, optional: _Columns | None = None, key: int = 1
) -> list[dict[str, object]]:
    """The rows of a CSV table, each stripped cell parsed by its column's
    parser; an optional column left out of the file reads as empty cells.

    The header must hold every `required` column and no column that is
    neither required nor optional, and no row may hold more cells than the
    header.  A row repeating an earlier row's values in the first `key`
    required columns, the `what` of the row, is rejected.
    """
    columns = {**required, **(optional or {})}
    key_columns = list(required)[:key]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        got = set(reader.fieldnames or ())
        missing = required.keys() - got
        unknown = got - columns.keys()
        if missing:
            raise ValidationError(f"{path}: missing columns {sorted(missing)}")
        if unknown:
            raise ValidationError(f"{path}: unknown columns {sorted(unknown)}")
        rows: list[dict[str, object]] = []
        seen: set[tuple] = set()
        for raw in reader:
            if None in raw:  # DictReader files cells beyond the header under None
                raise ValidationError(f"{path}, line {reader.line_num}: more cells than columns")
            row = {}
            for column, parse in columns.items():
                try:
                    row[column] = parse((raw.get(column) or "").strip())
                except ValueError as exc:
                    raise ValidationError(f"{path}, line {reader.line_num}, {column}: {exc}") from exc
            ident = tuple(row[c] for c in key_columns)
            if ident in seen:
                raise ValidationError(f"{path}: duplicate {what} {', '.join(map(str, ident))}")
            seen.add(ident)
            rows.append(row)
    return rows


def _or_none(parse: Callable[[str], object]) -> Callable[[str], object]:
    """A column parser that reads an empty cell as None."""
    return lambda text: parse(text) if text else None


def _signal_class(text: str) -> SignalClass:
    return SignalClass((text or "low").lower())


def _ids(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(";") if t)


_NODE_COLUMNS = {
    "id": int, "lat": float, "lon": float, "is_yard": kvconfig.coerce_bool,
    "switching_cost": _or_none(float),
}
_LINK_COLUMNS = {
    "id": int, "tail": int, "head": int, "length_km": float, "grade": float,
    "curve_radius_m": _or_none(float), "capacity_tpd": float,
    "signal_class": _signal_class, "candidate": kvconfig.coerce_bool,
}
_LINK_OPTIONAL = dict.fromkeys(("k_f", "k_a", "desired_speed"), _or_none(float))
_OD_COLUMNS = {"origin": int, "destination": int, "tons_per_day": float}
_CORRIDOR_COLUMNS = {
    "corridor_id": int, "yard_a": int, "yard_b": int, "length_km": float,
    "cost_usd": float, "link_ids": _ids,
}
_DESIGN_COLUMNS = {"corridor_id": int}


def load_nodes(path: str | Path) -> list[Node]:
    return [Node(**row) for row in _read_csv(path, "node id", _NODE_COLUMNS)]


def load_links(path: str | Path) -> list[PhysicalLink]:
    return [PhysicalLink(**row) for row in _read_csv(path, "link id", _LINK_COLUMNS, _LINK_OPTIONAL)]


def load_network(node_path: str | Path, link_path: str | Path) -> RailNetwork:
    nodes, links = load_nodes(node_path), load_links(link_path)
    try:
        return RailNetwork.build(nodes, links)
    except ValueError as exc:  # each message starts with the node or link at fault
        path = node_path if str(exc).startswith(("node", "duplicate node")) else link_path
        raise ValidationError(f"{path}: {exc}") from exc


def load_od(path: str | Path) -> ODMatrix:
    rows = _read_csv(path, "OD pair", _OD_COLUMNS, key=2)
    try:
        return ODMatrix({(r["origin"], r["destination"]): r["tons_per_day"] for r in rows})
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_corridors(path: str | Path, corridors: Iterable[Corridor]) -> None:
    _write_csv(
        path,
        _CORRIDOR_COLUMNS,
        ((c.id, c.yard_a, c.yard_b, c.length_km, c.cost_usd, c.link_ids) for c in corridors),
    )


def load_corridors(path: str | Path) -> list[Corridor]:
    rows = _read_csv(path, "corridor id", _CORRIDOR_COLUMNS)
    out = [Corridor(id=row.pop("corridor_id"), **row) for row in rows]
    for c in out:
        if not c.link_ids:
            raise ValidationError(f"{path}: corridor {c.id} has no links")
        repeat = next((l for i, l in enumerate(c.link_ids) if l in c.link_ids[:i]), None)
        if repeat is not None:
            raise ValidationError(f"{path}: corridor {c.id} repeats link {repeat}")
    if [c.id for c in out] != list(range(len(out))):
        raise ValidationError(f"{path}: corridor ids must be 0..n-1 in order")
    return out


def _kinds_and_links(expanded: ExpandedNetwork) -> tuple[list[str], list[int | None]]:
    """Each arc's kind and physical link, None (an empty cell) for a switch arc."""
    kinds = [k.value for k in expanded.kind]
    return kinds, [None if k == "switch" else l for k, l in zip(kinds, expanded.link.tolist())]


def write_flows(path: str | Path, expanded: ExpandedNetwork, state: FlowState) -> None:
    kinds, links = _kinds_and_links(expanded)
    _write_csv(
        path,
        ("arc_id", "kind", "physical_link", "flow_tpd", "cost_per_ton"),
        zip(range(expanded.n_arcs), kinds, links, state.x.tolist(), state.cost.tolist()),
    )


def write_arcs(path: str | Path, expanded: ExpandedNetwork) -> None:
    kinds, links = _kinds_and_links(expanded)
    tails, heads = (map(expanded.node_label, ends.tolist()) for ends in (expanded.tail, expanded.head))
    _write_csv(
        path,
        ("arc_id", "kind", "tail", "head", "physical_link", "fixed_cost"),
        zip(range(expanded.n_arcs), kinds, tails, heads, links, expanded.fixed_cost.tolist()),
    )


def write_link_costs(
    path: str | Path,
    profiles: LinkCostTable,
    link_costs: Mapping[int, float],
) -> None:
    columns = ("t0_hr", "congestion_coef", "diesel_fuel_per_ton", "electric_fuel_per_ton")
    _write_csv(
        path,
        ("link_id", *columns, "electrification_cost_usd"),
        zip(
            profiles.link_ids,
            *(getattr(profiles, c).tolist() for c in columns),
            (link_costs.get(lid, math.nan) for lid in profiles.link_ids),
        ),
    )


def write_gap_trace(path: str | Path, metrics: GapMetrics) -> None:
    """One row per iteration; an empty gap cell marks an iteration whose gap
    was not computed."""
    _write_csv(path, ("iteration", "beckmann", "relative_gap"), metrics.trace)


def write_generations(path: str | Path, history: Iterable[tuple]) -> None:
    header = ("generation", "best_cost", "mean_cost", "budget_used", "electrified_km")
    _write_csv(path, header, history)


def write_design(path: str | Path, selected: Iterable[int]) -> None:
    _write_csv(path, _DESIGN_COLUMNS, ((cid,) for cid in sorted(selected)))


def load_design(path: str | Path) -> list[int]:
    return [row["corridor_id"] for row in _read_csv(path, "corridor id", _DESIGN_COLUMNS)]


# --- GeoJSON ------------------------------------------------------------------------


# The file is the text of json.dump(collection, fh, indent=2), written by hand
# one feature at a time: json.dump to a file always runs json's pure-Python
# encoder, about three times slower here, and the feature layout never varies.
# Each value is filled in by name, so a renamed key fails loudly instead of
# shifting values.
_GEOJSON_HEAD = '{\n  "type": "FeatureCollection",\n  "features": ['
_GEOJSON_FEATURE = """
    {
      "type": "Feature",
      "geometry": {
        "type": "LineString",
        "coordinates": [
          [
            %(x0)s,
            %(y0)s
          ],
          [
            %(x1)s,
            %(y1)s
          ]
        ]
      },
      "properties": {
        "link_id": %(link_id)s,
        "length_km": %(length_km)s,
        "electrified": %(electrified)s,
        "diesel_tons": %(diesel_tons)s,
        "electric_tons": %(electric_tons)s
      }
    }"""


def _json_scalar(value) -> str:
    """A number or bool as json writes it: a float by `float.__repr__`, or
    as NaN, Infinity or -Infinity, an int by `int.__repr__`."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{value!r} is not a JSON number")


def emit_geojson(
    electrified_links: set[int],
    net: RailNetwork,
    flows: Mapping[int, tuple[float, float]],
    path: str | Path,
) -> None:
    """Write a FeatureCollection with one LineString per physical link."""
    with open(path, "w") as fh:  # streamed: the indented text is never built whole
        fh.write(_GEOJSON_HEAD)
        for k, lid in enumerate(sorted(net.links)):
            link = net.links[lid]
            tail, head = net.nodes[link.tail], net.nodes[link.head]
            xd, xe = flows.get(lid, (0.0, 0.0))
            values = dict(
                x0=tail.lon, y0=tail.lat, x1=head.lon, y1=head.lat,
                link_id=lid, length_km=link.length_km, electrified=lid in electrified_links,
                diesel_tons=xd, electric_tons=xe,
            )
            text = _GEOJSON_FEATURE % {name: _json_scalar(v) for name, v in values.items()}
            fh.write(("," if k else "") + text)
        fh.write("\n  ]\n}" if net.links else "]\n}")


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


def write_solution(
    out_dir: str | Path, problem: design.DesignProblem, solution: design.Solution, geojson_name: str
) -> None:
    """flows.csv, gap_trace.csv and the GeoJSON `geojson_name` of one solved design."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_flows(out / "flows.csv", problem.expanded, solution.state)
    write_gap_trace(out / "gap_trace.csv", solution.metrics)
    emit_geojson(
        problem.electrified_links(solution.evaluated.bits),
        problem.network,
        solution.state.physical_flows(problem.expanded),
        out / geojson_name,
    )


def assemble(scenario: Scenario) -> design.DesignProblem:
    """Load everything, apply the scenario multipliers, pose the design problem."""
    rates_path = scenario.path(scenario.rates_file) if scenario.rates_file else None
    consist, rates, elec = load_rates(rates_path)
    rates = replace(
        rates,
        crew_rate=rates.crew_rate * scenario.opex_multiplier,
        cargo_rate=rates.cargo_rate * scenario.opex_multiplier,
        fuel_cost_electric=rates.fuel_cost_electric * scenario.electricity_price_multiplier,
    )
    elec = replace(
        elec, ppi_capital=elec.ppi_capital * scenario.electrification_cost_multiplier
    )
    link_path = scenario.path(scenario.link_file)
    network = load_network(scenario.path(scenario.node_file), link_path)
    od_path = scenario.path(scenario.od_file)
    od = load_od(od_path)
    if scenario.demand_multiplier != 1.0:
        od = ODMatrix({k: d * scenario.demand_multiplier for k, d in od.demand.items()})
    unknown = {n for pair in od.demand for n in pair} - set(network.nodes)
    if unknown:
        raise ValidationError(f"{od_path}: OD references unknown nodes {sorted(unknown)}")
    bent = [l for _, l in sorted(network.links.items()) if not l.curve_radius_m > rates.curve_arg_m]
    if bent:  # the curve resistance takes arcsin(curve_arg_m / radius)
        raise ValidationError(  # under the default rates the links file is at fault
            f"{rates_path or link_path}: curve_arg_m {rates.curve_arg_m} m must be below every curve radius; "
            f"link {bent[0].id} has {bent[0].curve_radius_m} m"
        )

    profiles = build_profiles(network, consist, rates)
    link_costs = electrification_costs(network, elec)
    expanded = expand(network, yard_switch_costs(network, rates, consist))

    if scenario.corridor_file:
        corridor_path = scenario.path(scenario.corridor_file)
        corridors = load_corridors(corridor_path)
        yards = set(network.yards())
        for c in corridors:
            where = f"{corridor_path}: corridor {c.id}"
            bad = [l for l in c.link_ids if l not in link_costs]
            if bad:
                raise ValidationError(f"{where}: unknown links {bad}: not candidate links of the network")
            if not {c.yard_a, c.yard_b} <= yards:
                raise ValidationError(f"{where}: yard_a {c.yard_a} or yard_b {c.yard_b} is not a yard")
            # the expressions candidate_corridors writes, so a saved file reloads
            for name, given, links in (
                ("cost_usd", c.cost_usd, corridor_cost(c.link_ids, link_costs)),
                ("length_km", c.length_km, network.total_length_km(c.link_ids)),
            ):
                if not (math.isfinite(given) and math.isclose(given, links, rel_tol=1e-9)):
                    raise ValidationError(f"{where}: {name} {given!r} differs from its links' {links!r}")
    else:
        if scenario.corridor_metric == "length":
            weights = {lid: l.length_km for lid, l in network.links.items()}
        else:
            cost = profiles.congestion_coef + profiles.diesel_fuel_per_ton
            weights = dict(zip(profiles.link_ids, cost.tolist()))
            free = [lid for lid, l in sorted(network.links.items()) if l.candidate and not weights[lid] > 0.0]
            if free:
                raise ValidationError(
                    f"{rates_path}: crew_rate, cargo_rate and fuel_cost_diesel give candidate link {free[0]} "
                    f"a free-flow cost of {weights[free[0]]!r} $/ton, and corridors follow a positive cost; "
                    "corridor_metric = length avoids this"
                )
        corridors = candidate_corridors(network, weights, link_costs)

    return design.DesignProblem(
        expanded=expanded,
        profiles=profiles,
        corridors=corridors,
        link_costs=link_costs,
        budget=scenario.budget,
        od=od,
        tol=scenario.gap_tolerance,
        max_iter=scenario.max_iterations,
    )


@dataclass
class RunReport:
    """Headline numbers of one optimization run."""

    baseline_cost: float
    optimized_cost: float
    roi: float
    budget: float
    budget_used: float
    electrified_km: float
    candidate_km: float
    line_mile_share: float
    tonnage_share: float
    gap: float
    selected_corridors: tuple[int, ...]
    solves: int  # distinct designs solved in the run
    unconverged_solves: int


def summarize_design(problem: design.DesignProblem, bits: design.Bits) -> RunReport:
    baseline = problem.baseline()
    best = problem.evaluate(bits)
    candidate_km = problem.electrified_km((1,) * len(problem.corridors))
    solved = problem.solved
    return RunReport(
        baseline_cost=baseline.total_cost,
        optimized_cost=best.total_cost,
        roi=(baseline.total_cost - best.total_cost) / problem.budget,
        budget=problem.budget,
        budget_used=best.budget_used,
        electrified_km=best.electrified_km,
        candidate_km=candidate_km,
        line_mile_share=(best.electrified_km / candidate_km) if candidate_km > 0.0 else 0.0,
        tonnage_share=best.electric_share,
        selected_corridors=best.selected,
        gap=best.gap,
        solves=len(solved),
        unconverged_solves=sum(not e.converged for e in solved),
    )


def optimize_run(
    scenario: Scenario, out_dir: str | Path, problem: design.DesignProblem | None = None
) -> RunReport:
    """Full pipeline: assemble, GA search, artifacts, report.  `problem`,
    when given, is `assemble(scenario)`, posed already, with at most the
    all-diesel design solved (`DesignProblem.with_budget`)."""
    from .pcg64 import Generator  # here, so that commands that search no design never import it

    if problem is None:
        problem = assemble(scenario)
    rng = Generator(scenario.seed)
    population = design.seed_population(scenario, problem, rng)
    best, history = design.evolve(population, scenario, problem, rng)
    report = summarize_design(problem, best.bits)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_corridors(out / "corridors.csv", problem.corridors)
    write_generations(out / "generations.csv", history)
    write_design(out / "best_design.csv", best.selected)
    write_solution(out, problem, problem.solution(best.bits), "electrified.geojson")
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
    rows = [
        (f.name, getattr(report, f.name))
        for f in dataclasses.fields(RunReport)
        if f.name not in ("solves", "unconverged_solves")  # report.txt only
    ]
    _write_csv(out / "report.csv", ("metric", "value"), rows)


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
    out_dir: str | Path,
) -> tuple[list[RunReport], list[SweepRow]]:
    """One optimization per value with corridor-set overlap bookkeeping.

    The base run is the one matching the scenario's own setting when present,
    else the first value.  nested_wrt_prev records whether the previous run's
    corridor set is contained in this one (the interesting question on a
    monotone budget sweep).  The budget changes no loaded input, so a budget
    sweep assembles once and solves the all-diesel equilibrium once: each
    run gets `DesignProblem.with_budget`.
    """
    if axis not in _SWEEP_AXES:
        raise ValidationError(f"unknown sweep axis {axis!r}; pick from {sorted(_SWEEP_AXES)}")
    attr = _SWEEP_AXES[axis]
    values = [float(v) for v in values]
    if not values:
        raise ValidationError("sweep needs at least one value")
    # each run's directory and stdout line are labelled with its value
    labels = [f"{axis}_{v:g}" for v in values]
    clashes = sorted({label for label in labels if labels.count(label) > 1})
    if clashes:
        raise ValidationError(f"sweep values share a label: {', '.join(clashes)}")

    runs = [replace(scenario, **{attr: v}) for v in values]  # validates every value before any run
    posed = assemble(scenario) if attr == "budget" else None
    reports = [
        optimize_run(run, Path(out_dir) / label, None if posed is None else posed.with_budget(run.budget))
        for run, label in zip(runs, labels)
    ]

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
    write_sweep(rows, Path(out_dir) / "sweep_report.csv")
    return reports, rows


def write_sweep(rows: list[SweepRow], path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, [f.name for f in dataclasses.fields(SweepRow)], map(dataclasses.astuple, rows))


# --- fixed designs -------------------------------------------------------------------


def stored_design(problem: design.DesignProblem, path: str | Path) -> design.Bits:
    """The bits of the design stored at `path`; a design whose capital
    exceeds the budget is rejected."""
    ids = load_design(path)
    try:
        bits = design.design_bits(ids, len(problem.corridors))
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    used = problem.union_cost(bits)
    if used > problem.budget:
        raise ValidationError(
            f"{path}: the design's capital ${used:,.0f} exceeds the budget ${problem.budget:,.0f}"
        )
    return bits


def assign_run(
    scenario: Scenario,
    design_file: str | Path | None,
    out_dir: str | Path,
) -> design.Solution:
    """Solve one equilibrium, with the design stored at `design_file`
    electrified (none: all diesel), the way every design is solved
    (`design` module docstring)."""
    problem = assemble(scenario)
    bits = stored_design(problem, design_file) if design_file else (0,) * len(problem.corridors)
    solution = problem.solution(bits)
    write_solution(out_dir, problem, solution, "flows.geojson")
    return solution
