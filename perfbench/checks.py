"""Correctness checks on the artifacts of one `railplan` CLI run.

Each check returns a list of problems; an empty list means the run passed.
Two kinds are kept apart: `wrong` problems mean an output is broken, and
`unconverged` problems mean the solve ended without meeting its tolerance.
Both count the run as failed.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

ASSIGN_ARTIFACTS = ("flows.csv", "gap_trace.csv", "flows.geojson")
OPTIMIZE_ARTIFACTS = (
    "corridors.csv", "generations.csv", "best_design.csv", "flows.csv",
    "gap_trace.csv", "electrified.geojson", "report.txt", "report.csv",
)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def conservation_problems(out: Path, scenario_dir: Path, rel_tol: float = 1.0e-6) -> list[str]:
    """Flow conservation at every physical node, from flows.csv alone.

    Switch arcs join the two sides of one yard, so summing a node's diesel
    and electric sides cancels them; every traction arc moves flow from its
    link's tail to its head.  Net outflow must equal the node's demand
    originating minus terminating.
    """
    links = {int(r["id"]): (int(r["tail"]), int(r["head"])) for r in _rows(scenario_dir / "links.csv")}
    net: dict[int, float] = defaultdict(float)
    total = 0.0
    for r in _rows(scenario_dir / "od.csv"):
        tons = float(r["tons_per_day"])
        net[int(r["origin"])] -= tons
        net[int(r["destination"])] += tons
        total += tons
    problems = []
    for r in _rows(out / "flows.csv"):
        flow = float(r["flow_tpd"])
        if not (math.isfinite(flow) and flow >= -rel_tol * max(1.0, total)):
            problems.append(f"arc {r['arc_id']}: bad flow {flow}")
        if r["physical_link"]:
            tail, head = links[int(r["physical_link"])]
            net[tail] += flow
            net[head] -= flow
    for node, residual in sorted(net.items()):
        if abs(residual) > rel_tol * max(1.0, total):
            problems.append(f"node {node}: conservation residual {residual:.3e} t/day")
    return problems


def gap_problems(out: Path, tol: float, max_iterations: int) -> list[str]:
    """Final gap above tolerance, or a trace that ran into max_iterations
    (the solver also stops on the Wardrop spread, which is not written)."""
    rows = _rows(out / "gap_trace.csv")
    if not rows:
        return ["gap_trace.csv has no rows"]
    gap = float(rows[-1]["relative_gap"])
    problems = []
    if not gap <= tol:
        problems.append(f"final gap {gap:.3e} above tolerance {tol:g}")
    if int(rows[-1]["iteration"]) >= max_iterations:
        problems.append(f"solve reached max_iterations={max_iterations} (gap {gap:.3e})")
    return problems


def total_cost(out: Path) -> float:
    """System cost in $/day of the flows in flows.csv."""
    return sum(float(r["flow_tpd"]) * float(r["cost_per_ton"]) for r in _rows(out / "flows.csv"))


def report_values(out: Path) -> dict[str, str]:
    return {r["metric"]: r["value"] for r in _rows(out / "report.csv")}


def check_run(command: str, out: Path, scenario_dir: Path, tol: float, max_iterations: int) -> dict:
    """All checks of one run: {"wrong": [...], "unconverged": [...], "cost": float}."""
    from railplan.scenario_io import validate_geojson

    expected = ASSIGN_ARTIFACTS if command == "assign" else OPTIMIZE_ARTIFACTS
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        return {"wrong": [f"missing artifacts {missing}"], "unconverged": [], "cost": math.nan}
    wrong: list[str] = []
    geojson = "flows.geojson" if command == "assign" else "electrified.geojson"
    try:
        validate_geojson(json.loads((out / geojson).read_text()))
    except ValueError as exc:
        wrong.append(f"{geojson}: {exc}")
    wrong += conservation_problems(out, scenario_dir)
    unconverged = gap_problems(out, tol, max_iterations)
    if command == "assign":
        cost = total_cost(out)
    else:
        report = report_values(out)
        if float(report["budget_used"]) > float(report["budget"]):
            wrong.append(f"budget_used {report['budget_used']} > budget {report['budget']}")
        cost = float(report["optimized_cost"])
        flows_cost = total_cost(out)
        if not math.isclose(cost, flows_cost, rel_tol=1.0e-6):
            wrong.append(f"report optimized_cost {cost} differs from flows.csv cost {flows_cost}")
    if not (math.isfinite(cost) and cost > 0.0):
        wrong.append(f"system cost {cost} is not a positive number")
    return {"wrong": wrong, "unconverged": unconverged, "cost": cost}
