"""Run one `railplan` CLI command with timing shims around each layer.

    python3 perfbench/tracing.py --spans SPANS.json --run-id ID -- assign --config ...

The shims are installed from outside: `src/railplan/` is not edited.  Each
shim replaces a function at the name its caller looks up (a module global
or a class attribute), so `railplan.design.solve_equilibrium` and
`railplan.scenario_io.solve_equilibrium` are wrapped separately.  Spans
(name, start, end, parent, attributes) are kept in memory and written once,
with the run id, when the command returns.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index, attrs]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, clock(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = clock()
        span[4] = attrs
        self._stack.pop()

    def span(self, name: str, fn, attrs_of=None):
        """Wrap fn in a span; attrs_of(result, args, kwargs) adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, attrs_of(result, args, kwargs) if attrs_of and result is not None else None)

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so calls are counted without a span."""
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {"run_id": self.run_id, "names": self.names, "spans": self.spans, "counts": self.counts}
            )
        )


def _solve_attrs(result, args, kwargs) -> dict:
    _, metrics = result
    tol = kwargs.get("tol", 1.0e-6)
    return {
        "iterations": metrics.iteration,
        "unconverged": bool(metrics.relative_gap > tol or metrics.wardrop_max > tol),
    }


def install(tracer: Tracer) -> None:
    """Replace each traced function at every binding its callers use."""
    from railplan import cli, corridors, costmodel, design, equilibrium, network, scenario_io

    def patch(owners, attr, name, attrs_of=None):
        for owner in owners:
            setattr(owner, attr, tracer.span(name, getattr(owner, attr), attrs_of))

    # network
    patch([network, scenario_io], "expand", "network.expand")
    patch([network, scenario_io, design, cli], "apply_design", "network.apply_design")
    # costmodel
    patch([costmodel, scenario_io], "build_profiles", "costmodel.build_profiles")
    # corridors
    patch(
        [corridors, scenario_io],
        "candidate_corridors",
        "corridors.candidate_corridors",
        lambda result, args, kwargs: {"count": len(result)},
    )
    # equilibrium: the solve entry point and the stages BushSolver looks up
    patch([equilibrium, design, scenario_io], "solve_equilibrium", "equilibrium.solve", _solve_attrs)
    patch([equilibrium], "update_bush", "equilibrium.update_bush")
    patch([equilibrium], "shortest_longest_labels", "equilibrium.label_pass")
    patch([equilibrium], "relative_gap", "equilibrium.gap_check")
    patch([equilibrium.BushSolver], "wardrop_violation", "equilibrium.gap_check")
    equilibrium.newton_flow_shift = tracer.counter(
        "equilibrium.newton_shift_calls", equilibrium.newton_flow_shift
    )
    equilibrium.CostEngine.costs = tracer.counter(
        "equilibrium.cost_recomputes", equilibrium.CostEngine.costs
    )
    # design
    evaluate = design.DesignProblem.evaluate

    @functools.wraps(evaluate)
    def traced_evaluate(problem, bits):
        hit = tuple(bits) in problem._cache
        index = tracer.begin("design.evaluate")
        try:
            return evaluate(problem, bits)
        finally:
            tracer.end(index, {"hit": hit})

    design.DesignProblem.evaluate = traced_evaluate
    patch([design.DesignProblem], "baseline_state", "design.baseline_state")
    patch([design], "seed_population", "design.seed_population")
    patch([design], "evolve", "design.evolve")
    patch([design], "repair", "design.repair")
    patch([design], "_evaluate_all", "design.generation")
    # scenario_io
    patch([scenario_io], "load_scenario", "scenario_io.load")
    patch([scenario_io], "assemble", "scenario_io.assemble")
    patch([scenario_io], "summarize_design", "scenario_io.summarize")
    for writer in (
        "write_flows", "write_gap_trace", "write_generations", "write_design",
        "save_corridors", "emit_geojson", "write_report",
    ):
        patch([scenario_io], writer, "scenario_io.write")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="traced railplan CLI run")
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--run-id", default="0")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    index = tracer.begin("cli.import")
    import railplan.cli

    tracer.end(index)
    install(tracer)
    index = tracer.begin("cli.main")
    try:
        code = railplan.cli.main(cli_args)
    finally:
        tracer.end(index)
        tracer.dump(Path(args.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
