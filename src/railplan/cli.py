"""Command line entry point.

Exit codes: 0 success, 2 validation failure (a bad input, or a path that
cannot be read or written), 3 infeasible problem.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import scenario_io
from .equilibrium import InfeasibleAssignmentError
# unused here, but perfbench/tracing.py patches cli.apply_design and needs the name
from .network import apply_design  # noqa: F401
from .scenario_io import Scenario, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="scenario key=value file")
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    parser.add_argument("--tol", type=float, default=None, help="override equilibrium gap tolerance")
    parser.add_argument("--out-dir", default="out", help="artifact directory")


def _load(args: argparse.Namespace) -> Scenario:
    scenario = scenario_io.load_scenario(args.config) if args.config else Scenario()
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.tol is not None:
        scenario = replace(scenario, gap_tolerance=args.tol)
    return scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="railplan", description="rail electrification planning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="expand the physical network and list arcs")
    _add_common(p)

    p = sub.add_parser("costs", help="per-link traction costs and electrification capital")
    _add_common(p)

    p = sub.add_parser("corridors", help="enumerate candidate yard-to-yard corridors")
    _add_common(p)

    p = sub.add_parser("assign", help="solve one traffic equilibrium")
    _add_common(p)
    p.add_argument("--design", default=None, help="CSV of corridor ids to electrify")

    p = sub.add_parser("optimize", help="search corridor designs under the budget")
    _add_common(p)

    p = sub.add_parser("sweep", help="re-optimize across a parameter axis")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=sorted(scenario_io._SWEEP_AXES))
    p.add_argument("--values", required=True, help="comma separated axis values")

    p = sub.add_parser("report", help="summarize a stored design")
    _add_common(p)
    p.add_argument("--design", required=True, help="CSV of corridor ids to electrify")
    return parser


def _cmd_transform(scenario: Scenario, args: argparse.Namespace) -> int:
    problem = scenario_io.assemble(scenario)
    expanded = problem.expanded
    print(f"nodes: {len(problem.network.nodes)} physical, {expanded.n_nodes} expanded")
    print(f"arcs:  {expanded.n_arcs} ({len(problem.network.links)} links, "
          f"{sum(len(v) for v in expanded.switch_arcs_at.values())} switch arcs)")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario_io.write_arcs(out / "arcs.csv", expanded)
    print(f"wrote {out / 'arcs.csv'}")
    return EXIT_OK


def _cmd_costs(scenario: Scenario, args: argparse.Namespace) -> int:
    problem = scenario_io.assemble(scenario)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario_io.write_link_costs(out / "link_costs.csv", problem.profiles, problem.link_costs)
    print(f"wrote {out / 'link_costs.csv'}")
    return EXIT_OK


def _cmd_corridors(scenario: Scenario, args: argparse.Namespace) -> int:
    problem = scenario_io.assemble(scenario)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario_io.save_corridors(out / "corridors.csv", problem.corridors)
    print(f"{len(problem.corridors)} corridors, wrote {out / 'corridors.csv'}")
    return EXIT_OK


def _cmd_assign(scenario: Scenario, args: argparse.Namespace) -> int:
    metrics = scenario_io.assign_run(scenario, args.design, args.out_dir).metrics
    status = "" if metrics.converged else " (not converged)"
    print(
        f"equilibrium: gap {metrics.relative_gap:.3e}, Wardrop spread {metrics.wardrop_max:.3e} "
        f"after {metrics.iteration} iterations{status}, objective {metrics.beckmann:.6e}"
    )
    return EXIT_OK


def _warn_unconverged(reports: list[scenario_io.RunReport]) -> None:
    """One stderr line when any equilibrium solve of the run did not converge."""
    k = sum(r.unconverged_solves for r in reports)
    if k:
        n = sum(r.solves for r in reports)
        print(f"warning: {k} of {n} equilibrium solves did not converge", file=sys.stderr)


def _cmd_optimize(scenario: Scenario, args: argparse.Namespace) -> int:
    report = scenario_io.optimize_run(scenario, args.out_dir)
    print(scenario_io.format_report(report))
    _warn_unconverged([report])
    return EXIT_OK


def _cmd_sweep(scenario: Scenario, args: argparse.Namespace) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --values: {exc}") from exc
    reports, rows = scenario_io.sweep(scenario, args.axis, values, args.out_dir)
    for row in rows:
        print(
            f"{row.axis}={row.value:g}: cost {row.best_cost:.6e}, "
            f"{len(row.selected)} corridors, +{len(row.added_vs_base)} "
            f"-{len(row.removed_vs_base)} vs base"
        )
    _warn_unconverged(reports)
    return EXIT_OK


def _cmd_report(scenario: Scenario, args: argparse.Namespace) -> int:
    problem = scenario_io.assemble(scenario)
    report = scenario_io.summarize_design(problem, scenario_io.stored_design(problem, args.design))
    scenario_io.write_report(report, args.out_dir)
    print(scenario_io.format_report(report))
    _warn_unconverged([report])
    return EXIT_OK


_COMMANDS = {
    "transform": _cmd_transform,
    "costs": _cmd_costs,
    "corridors": _cmd_corridors,
    "assign": _cmd_assign,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _load(args)
        return _COMMANDS[args.command](scenario, args)
    except (OSError, ValueError) as exc:  # ValidationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleAssignmentError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
