"""The benchmark harness in `perfbench/` still binds to the program.

`perfbench/tracing.py` patches functions by name and `perfbench/probe.py`
reads the assembled problem's fields, so a renamed or dropped name breaks the
benchmark without failing any other test.  These run the harness's own
scripts, as the benchmark does, on the seed-1 `optimize-small` scenario.
"""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *map(str, args)], cwd=ROOT, env=env, capture_output=True, text=True
    )


def rows(path):
    with open(path, newline="") as fh:
        return len(list(csv.DictReader(fh)))


def test_probe_and_tracing_run_on_the_generated_scenario(tmp_path):
    scenario = tmp_path / "small"
    gen = run("perfbench/gen.py", "--workload", "optimize-small", "--seed", "1", "--out", scenario)
    assert gen.returncode == 0, gen.stderr
    generated = json.loads(gen.stdout)

    probe = run("perfbench/probe.py", scenario / "scenario.cfg")
    assert probe.returncode == 0, probe.stderr
    sizes = json.loads(probe.stdout)["sizes"]
    assert sizes == {k: v for k, v in generated.items() if k not in ("workload", "seed")}
    assert sizes["nodes"] == rows(scenario / "nodes.csv")
    assert sizes["links"] == rows(scenario / "links.csv")
    assert sizes["od_pairs"] == rows(scenario / "od.csv")

    spans = tmp_path / "spans.json"
    traced = run(
        "perfbench/tracing.py", "--spans", spans, "--",
        "optimize", "--config", scenario / "scenario.cfg", "--out-dir", tmp_path / "out",
    )
    assert traced.returncode == 0, traced.stderr
    doc = json.loads(spans.read_text())
    named = {doc["names"][span[0]] for span in doc["spans"]}
    assert {"design.evaluate", "equilibrium.solve"} <= named


def test_tracing_counts_the_one_solve_of_an_assign(tmp_path):
    # assign solves through `DesignProblem.solution`, which no span wraps, so
    # the traced run counts its one solve as made outside a design lookup
    scenario = tmp_path / "congested"
    gen = run("perfbench/gen.py", "--workload", "assign-congested", "--seed", "1", "--out", scenario)
    assert gen.returncode == 0, gen.stderr
    spans = tmp_path / "spans.json"
    traced = run(
        "perfbench/tracing.py", "--spans", spans, "--",
        "assign", "--config", scenario / "scenario.cfg", "--out-dir", tmp_path / "out",
    )
    assert traced.returncode == 0, traced.stderr
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    metrics = layers.layer_metrics(spans)
    assert metrics["equilibrium.solves"] == 1
    assert metrics["scenario_io.extra_solves"] == 1
    assert metrics["equilibrium.iterations"] > 0
