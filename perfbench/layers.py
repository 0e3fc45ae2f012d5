"""Per-layer metrics from the spans of one traced run (see tracing.py).

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the CLI runs on one thread.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# name -> unit; the order is the order of the printed result
PER_LAYER = {
    "cli.import_s": "s",
    "scenario_io.load_s": "s",
    "scenario_io.assemble_s": "s",
    "network.expand_s": "s",
    "costmodel.build_profiles_s": "s",
    "corridors.candidate_corridors_s": "s",
    "corridors.count": "count",
    "network.apply_design_calls": "count",
    "network.apply_design_s": "s",
    "equilibrium.solves": "count",
    "equilibrium.solve_s": "s",
    "equilibrium.iterations": "count",
    "equilibrium.unconverged": "count",
    "equilibrium.update_bush_s": "s",
    "equilibrium.update_bush_calls": "count",
    "equilibrium.label_pass_s": "s",
    "equilibrium.label_pass_calls": "count",
    "equilibrium.gap_check_s": "s",
    "equilibrium.gap_check_calls": "count",
    "equilibrium.newton_shift_calls": "count",
    "equilibrium.cost_recomputes": "count",
    "equilibrium.shift_s": "s",
    "equilibrium.shift_calls": "count",
    "design.evaluate_calls": "count",
    "design.unique_solves": "count",
    "design.cache_hits": "count",
    "design.cache_hit_ratio": "ratio",
    "design.generations": "count",
    "design.solves_per_generation": "solves/gen",
    "design.seed_population_s": "s",
    "design.evolve_s": "s",
    "design.repair_s": "s",
    "design.repair_calls": "count",
    "scenario_io.summarize_s": "s",
    "scenario_io.extra_solves": "count",
    "scenario_io.write_s": "s",
    "scenario_io.bytes_written": "bytes",
    "trace.self_time_s": "s",
    "trace.overhead_s": "s",
}

# solves made for DesignProblem; any other solve is one the pipeline adds
_DESIGN_PARENTS = {"design.evaluate", "design.baseline_state"}


def span_problems(spans_path: Path) -> list[str]:
    """Spans that do not nest: a parent opened after its child, or a child
    that starts before or ends after its parent."""
    spans = json.loads(spans_path.read_text())["spans"]
    problems = []
    for i, (_, start, end, parent, _) in enumerate(spans):
        if not start <= end:
            problems.append(f"span {i} ends before it starts")
        if parent >= i:
            problems.append(f"span {i} has parent {parent}, opened after it")
        elif parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            problems.append(f"span {i} is not inside its parent {parent}")
    return problems


def layer_metrics(spans_path: Path) -> dict[str, float]:
    """Every PER_LAYER metric except the two measured from outside
    (scenario_io.bytes_written and trace.overhead_s)."""
    doc = json.loads(spans_path.read_text())
    names: list[str] = doc["names"]
    spans: list[list] = doc["spans"]
    child_time = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (nid, start, end, parent, _) in enumerate(spans):
        name = names[nid]
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1

    def under(i: int, wanted: set[str]) -> bool:
        """True if an ancestor of span i is named in `wanted`."""
        p = spans[i][3]
        while p >= 0:
            if names[spans[p][0]] in wanted:
                return True
            p = spans[p][3]
        return False

    solves = [i for i, s in enumerate(spans) if names[s[0]] == "equilibrium.solve"]
    evaluations = [s for s in spans if names[s[0]] == "design.evaluate"]
    unique = sum(1 for i in solves if under(i, {"design.evaluate"}))
    hits = sum(1 for s in evaluations if s[4] and s[4]["hit"])
    generations = calls["design.generation"]
    in_evolve = sum(1 for i in solves if under(i, {"design.evolve"}))
    counts = doc["counts"]
    return {
        "cli.import_s": total["cli.import"],
        "scenario_io.load_s": total["scenario_io.load"],
        "scenario_io.assemble_s": total["scenario_io.assemble"],
        "network.expand_s": total["network.expand"],
        "costmodel.build_profiles_s": total["costmodel.build_profiles"],
        "corridors.candidate_corridors_s": total["corridors.candidate_corridors"],
        "corridors.count": sum(
            s[4]["count"] for s in spans if names[s[0]] == "corridors.candidate_corridors" and s[4]
        ),
        "network.apply_design_calls": calls["network.apply_design"],
        "network.apply_design_s": total["network.apply_design"],
        "equilibrium.solves": len(solves),
        "equilibrium.solve_s": total["equilibrium.solve"],
        "equilibrium.iterations": sum(spans[i][4]["iterations"] for i in solves if spans[i][4]),
        "equilibrium.unconverged": sum(1 for i in solves if spans[i][4] and spans[i][4]["unconverged"]),
        "equilibrium.update_bush_s": self_time["equilibrium.update_bush"],
        "equilibrium.update_bush_calls": calls["equilibrium.update_bush"],
        "equilibrium.label_pass_s": self_time["equilibrium.label_pass"],
        "equilibrium.label_pass_calls": calls["equilibrium.label_pass"],
        "equilibrium.gap_check_s": self_time["equilibrium.gap_check"],
        "equilibrium.gap_check_calls": calls["equilibrium.gap_check"],
        "equilibrium.newton_shift_calls": counts["equilibrium.newton_shift_calls"],
        "equilibrium.cost_recomputes": counts["equilibrium.cost_recomputes"],
        "equilibrium.shift_s": self_time["equilibrium.solve"],
        "equilibrium.shift_calls": len(solves),
        "design.evaluate_calls": len(evaluations),
        "design.unique_solves": unique,
        "design.cache_hits": hits,
        "design.cache_hit_ratio": hits / len(evaluations) if evaluations else 0.0,
        "design.generations": generations,
        "design.solves_per_generation": in_evolve / generations if generations else 0.0,
        "design.seed_population_s": total["design.seed_population"],
        "design.evolve_s": total["design.evolve"],
        "design.repair_s": total["design.repair"],
        "design.repair_calls": calls["design.repair"],
        "scenario_io.summarize_s": total["scenario_io.summarize"],
        "scenario_io.extra_solves": sum(1 for i in solves if not under(i, _DESIGN_PARENTS)),
        "scenario_io.write_s": total["scenario_io.write"],
        "trace.self_time_s": sum(self_time.values()),
    }
