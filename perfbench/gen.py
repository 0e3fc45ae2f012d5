"""Seeded scenario generator for the benchmark workloads.

`random_network` and `random_od` follow the recipe of `tests/synth.py`
draw for draw, so generator seed 1 reproduces the ROADMAP instances.  A
scenario directory is written through the documented CSV schemas
(nodes.csv, links.csv, od.csv) plus a `scenario.cfg`.

    python3 perfbench/gen.py --workload assign-medium --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from probe import sizes

# railplan from the checkout's own source tree
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
from railplan import scenario_io  # noqa: E402
from railplan.network import haversine_km  # noqa: E402

# Written into every scenario.cfg and used by the checks, so neither moves
# with the program's defaults.
GAP_TOLERANCE = 1.0e-6
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class Recipe:
    command: str  # railplan subcommand: assign | optimize
    n_nodes: int
    extra_links: int
    yard_count: int
    capacity_range: tuple[float, float]
    od_pairs: int
    budget: float = 0.0  # optimize: capital budget, USD
    population: int = 0
    generations: int = 0


MODERATE = (1.0e5, 4.0e5)
CONGESTED = (1.0e4, 4.0e4)

# The optimize budgets are 25 % of the capital of electrifying every candidate
# corridor (shared links once), recorded at generator seed 1 and pinned here so
# that a change to the corridor or capital code cannot move them.
RECIPES = {
    "assign-medium": Recipe("assign", 200, 150, 20, MODERATE, 150),
    "assign-congested": Recipe("assign", 50, 40, 2, CONGESTED, 40),
    "optimize-small": Recipe("optimize", 60, 40, 20, MODERATE, 40, 1378762957.9047723, 12, 6),
}

# Same commands and layers at a size that runs in about a second each.
TOY_RECIPES = {
    "assign-medium": Recipe("assign", 16, 8, 4, MODERATE, 10),
    "assign-congested": Recipe("assign", 10, 6, 2, CONGESTED, 6),
    "optimize-small": Recipe("optimize", 12, 6, 4, MODERATE, 6, 210484900.2171899, 4, 2),
}


def random_network(
    rng: np.random.Generator,
    n_nodes: int,
    extra_links: int,
    yard_count: int,
    capacity_range: tuple[float, float],
    radius_range: tuple[float, float] = (3000.0, 30000.0),
    grade_span: float = 0.01,
) -> tuple[list[dict], list[dict]]:
    """Node and link rows of a strongly connected network: a bidirectional
    random spanning tree plus extra one-way links."""
    lat = 39.0 + 2.0 * rng.random(n_nodes)
    lon = -101.0 + 2.0 * rng.random(n_nodes)
    yards = {int(i) for i in rng.choice(n_nodes, size=min(yard_count, n_nodes), replace=False)}
    nodes = [
        {"id": i, "lat": float(lat[i]), "lon": float(lon[i]), "is_yard": i in yards}
        for i in range(n_nodes)
    ]
    pairs: list[tuple[int, int]] = []
    for i in range(1, n_nodes):
        j = int(rng.integers(0, i))
        pairs.append((j, i))
        pairs.append((i, j))
    for _ in range(extra_links):
        a, b = (int(v) for v in rng.choice(n_nodes, size=2, replace=False))
        pairs.append((a, b))

    links = []
    for lid, (a, b) in enumerate(pairs):
        straight = haversine_km(nodes[a]["lat"], nodes[a]["lon"], nodes[b]["lat"], nodes[b]["lon"])
        links.append(
            {
                "id": lid,
                "tail": a,
                "head": b,
                "length_km": max(1.0, straight * float(rng.uniform(1.02, 1.5))),
                "grade": float(rng.uniform(-grade_span, grade_span)),
                "curve_radius_m": float(rng.uniform(*radius_range)),
                "capacity_tpd": float(rng.uniform(*capacity_range)),
            }
        )
    return nodes, links


def random_od(
    rng: np.random.Generator,
    n_nodes: int,
    pairs: int,
    tons: tuple[float, float] = (5.0e3, 3.0e4),
) -> dict[tuple[int, int], float]:
    ids = list(range(n_nodes))
    demand: dict[tuple[int, int], float] = {}
    while len(demand) < min(pairs, n_nodes * (n_nodes - 1)):
        o, d = (int(v) for v in rng.choice(ids, size=2, replace=False))
        demand[(o, d)] = float(rng.uniform(*tons))
    return demand


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _shuffled(rows: list, rng: np.random.Generator | None) -> list:
    if rng is None:
        return rows
    return [rows[i] for i in rng.permutation(len(rows))]


def write_scenario(recipe: Recipe, seed: int, out: Path, row_seed: int | None = None) -> Path:
    """Write the scenario directory; returns the path of scenario.cfg.

    `seed` draws the instance.  `row_seed`, when given, permutes the rows of
    every CSV file; ids are unchanged, so the instance stays the same.
    """
    rng = np.random.default_rng(seed)
    nodes, links = random_network(
        rng, recipe.n_nodes, recipe.extra_links, recipe.yard_count, recipe.capacity_range
    )
    demand = random_od(rng, recipe.n_nodes, recipe.od_pairs)
    row_rng = None if row_seed is None else np.random.default_rng(row_seed)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "nodes.csv",
        ["id", "lat", "lon", "is_yard", "switching_cost"],
        _shuffled(
            [[n["id"], repr(n["lat"]), repr(n["lon"]), "true" if n["is_yard"] else "false", ""]
             for n in nodes],
            row_rng,
        ),
    )
    _write_csv(
        out / "links.csv",
        ["id", "tail", "head", "length_km", "grade", "curve_radius_m", "capacity_tpd",
         "signal_class", "candidate"],
        _shuffled(
            [[l["id"], l["tail"], l["head"], repr(l["length_km"]), repr(l["grade"]),
              repr(l["curve_radius_m"]), repr(l["capacity_tpd"]), "low", "true"] for l in links],
            row_rng,
        ),
    )
    _write_csv(
        out / "od.csv",
        ["origin", "destination", "tons_per_day"],
        _shuffled([[o, d, repr(t)] for (o, d), t in demand.items()], row_rng),
    )
    text = (
        f"seed = {seed}\n"
        f"gap_tolerance = {GAP_TOLERANCE!r}\n"
        f"max_iterations = {MAX_ITERATIONS}\n"
    )
    if recipe.command == "optimize":
        text += (
            f"budget = {recipe.budget!r}\n"
            f"population = {recipe.population}\n"
            f"generations = {recipe.generations}\n"
        )
    cfg = out / "scenario.cfg"
    cfg.write_text(text)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RECIPES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    cfg = write_scenario(RECIPES[args.workload], args.seed, Path(args.out))
    assembled = scenario_io.assemble(scenario_io.load_scenario(cfg))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **sizes(assembled)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
