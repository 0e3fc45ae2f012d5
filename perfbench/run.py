"""railplan benchmark: seeded CLI workloads, end-to-end timings, per-layer trace.

    python3 perfbench/run.py --workload assign-medium --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Each workload writes its scenario with
gen.py, times fresh-process set-up with probe.py, then runs its `railplan`
command (`python -m railplan.cli`, sources from `src/`) one process at a
time for as many runs as fit in `--seconds`, checking every run's artifacts.
Every time is rescaled to a reference machine speed measured on the
command's CPU while it runs (launch.py, calibrate.py).  With `--trace 1`
untraced and traced runs alternate (tracing.py) and the per-layer metrics
are printed instead.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "railplan" / "__init__.py").is_file():
    sys.exit(f"error: no railplan sources under {SRC}")

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402  (puts SRC on sys.path)
import layers  # noqa: E402

# The instance every seed runs on: the ROADMAP instances.  --seed permutes
# the CSV rows only (see README.md for why the instance itself is fixed).
INSTANCE_SEED = 1
# set-up probes: two before every run, so they sample the whole window,
# topped up to at least nine after the last run
PROBES_PER_RUN = 2
MIN_PROBES = 9
RUN_DEADLINE_S = 170.0  # whole benchmark process, children included

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_cost_usd_day": "USD/day",
}


def run_child(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one process to completion through launch.py and return its report
    (`exit`, `run_s` wall, `peak_rss_mb`) plus `speed`, the factor that
    rescales its times to the reference machine speed (calibrate.py).  Its
    output goes to `log`.

    The launcher and the command share a new session, killed together if
    they are still running at `deadline` (perf_counter).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "launch.py"), str(log), "--", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - started, 0.0))
    except subprocess.TimeoutExpired:
        _kill_session(proc)
        return {"exit": -signal.SIGKILL, "run_s": time.perf_counter() - started,
                "peak_rss_mb": 0.0, "speed": 1.0}
    except BaseException:
        _kill_session(proc)
        raise
    try:
        report = json.loads(out)
    except ValueError as exc:
        raise RuntimeError(f"launcher exited {proc.returncode} without a report") from exc
    report["speed"] = calibrate.REFERENCE_UNIT_S / report["unit_s"]
    return report


def _kill_session(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def setup_probe(cfg: Path, work: Path, deadline: float) -> dict:
    """One fresh-process set-up (probe.py), with `wall_setup_s` as timed
    inside the probe and `setup_s` rescaled to the reference speed."""
    log = work / "probe.log"
    report = run_child([sys.executable, str(BENCH / "probe.py"), str(cfg)], log, deadline)
    if report["exit"] != 0:
        raise RuntimeError(f"set-up probe exited {report['exit']}:\n{log.read_text()[-2000:]}")
    probe = json.loads(log.read_text().splitlines()[-1])
    probe["wall_setup_s"] = probe["import_s"] + probe["load_s"] + probe["assemble_s"]
    probe["setup_s"] = probe["wall_setup_s"] * report["speed"]
    return probe


def one_run(
    recipe: gen.Recipe, cfg: Path, work: Path, index: int, traced: bool, deadline: float
) -> dict:
    """One CLI command in a fresh process, with its checks (and spans)."""
    out = work / f"out{index}"
    cli = [recipe.command, "--config", str(cfg), "--out-dir", str(out)]
    spans = work / f"spans{index}.json"
    if traced:
        argv = [sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans),
                "--run-id", str(index), "--", *cli]
    else:
        argv = [sys.executable, "-m", "railplan.cli", *cli]
    report = run_child(argv, work / f"run{index}.log", deadline)
    speed = report["speed"]
    result = {
        "traced": traced,
        "wall_s": report["run_s"],
        "run_s": report["run_s"] * speed,
        "speed": speed,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    if report["exit"] != 0:
        result.update(wrong=[f"exit code {report['exit']}"], unconverged=[], cost=float("nan"))
    else:
        result.update(
            checks.check_run(recipe.command, out, cfg.parent, gen.GAP_TOLERANCE, gen.MAX_ITERATIONS)
        )
        if traced:
            result["layers"] = {
                name: value * speed if layers.PER_LAYER[name] == "s" else value
                for name, value in layers.layer_metrics(spans).items()
            }
            result["span_problems"] = layers.span_problems(spans)
            result["layers"]["scenario_io.bytes_written"] = sum(
                p.stat().st_size for p in out.iterdir() if p.is_file()
            )
    shutil.rmtree(out, ignore_errors=True)
    spans.unlink(missing_ok=True)
    return result


def measure(
    workload: str, seed: int, seconds: float, trace: bool, toy: bool = False
) -> tuple[dict, list[dict]]:
    """Generate, set up, run and check one workload: (result object, runs)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    recipe = (gen.TOY_RECIPES if toy else gen.RECIPES)[workload]
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = gen.write_scenario(recipe, INSTANCE_SEED, work / "scenario", row_seed=seed)
        probes = [setup_probe(cfg, work, deadline)]
        print(f"{workload}: " + ", ".join(f"{k} {v}" for k, v in probes[0]["sizes"].items()))

        runs: list[dict] = []
        # closed loop: the next command starts when the previous one exits and
        # only if, at the slowest run time so far, it ends inside the window
        window_end = time.perf_counter() + seconds
        while len(runs) < (2 if trace else 1) or (
            time.perf_counter() + max(r["wall_s"] for r in runs) <= window_end
        ):
            if time.perf_counter() >= deadline:
                break
            probes += [setup_probe(cfg, work, deadline) for _ in range(PROBES_PER_RUN)]
            run = one_run(recipe, cfg, work, len(runs), trace and len(runs) % 2 == 1, deadline)
            runs.append(run)
            status = "ok"
            if run["wrong"] or run["unconverged"]:
                status = "FAILED: " + "; ".join(run["wrong"] + run["unconverged"])
            print(
                f"  run {len(runs) - 1}{' traced' if run['traced'] else ''}: "
                f"{run['wall_s']:.3f} s wall, {run['run_s']:.3f} s rescaled, {run['peak_rss_mb']:.1f} MB, {status}"
            )
        while len(probes) < (1 if toy else MIN_PROBES):
            probes.append(setup_probe(cfg, work, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    setup = [p["setup_s"] for p in probes]
    print(
        f"  wall: run_s {statistics.median(r['wall_s'] for r in untraced):.4f} s, "
        f"setup_s {statistics.median(p['wall_setup_s'] for p in probes):.4f} s; "
        f"speed factor {statistics.median(r['speed'] for r in untraced):.4f}"
    )
    if trace:
        metrics = {}
        for name, unit in layers.PER_LAYER.items():
            if name == "trace.overhead_s":
                value = statistics.median(r["run_s"] for r in traced) - statistics.median(
                    r["run_s"] for r in untraced
                )
            else:
                value = statistics.median(r["layers"][name] for r in traced if "layers" in r)
            metrics[name] = {"value": value, "unit": unit}
    else:
        costs = [r["cost"] for r in runs if not r["wrong"]]
        values = {
            "run_s": statistics.median(r["run_s"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "best_cost_usd_day": statistics.median(costs) if costs else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {
        "correct": all(not r["wrong"] for r in runs),
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["wrong"] or r["unconverged"]),
        "metrics": metrics,
    }
    return result, runs


def self_test() -> list[str]:
    """Every workload at toy size, untraced and traced: the metrics of
    BENCHMARK.json are all printed with their units, cache accounting adds
    up, spans nest inside their parents, and self times fit inside the
    traced run.  Returns the problems."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, runs = measure(workload, 1, 0.0, trace, toy=True)
            got = result["metrics"]
            where = f"{workload} trace={int(trace)}"
            for m in wanted:
                if m["name"] not in got:
                    problems.append(f"{where}: {m['name']} not printed")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{where}: metrics missing from BENCHMARK.json: {sorted(extra)}")
            if not result["correct"]:
                problems.append(f"{where}: outputs failed their checks")
            if not trace:
                problems += [f"{where}: {k} is 0" for k, v in got.items() if v["value"] == 0]
                continue
            value = {k: v["value"] for k, v in got.items()}
            if value["design.unique_solves"] + value["design.cache_hits"] != value["design.evaluate_calls"]:
                problems.append(f"{where}: unique solves + cache hits != evaluate calls")
            problems += [f"{where}: {p}" for r in runs for p in r.get("span_problems", [])]
            traced_run_s = max(r["run_s"] for r in runs if r["traced"])
            if value["trace.self_time_s"] > traced_run_s:
                problems.append(
                    f"{where}: self times {value['trace.self_time_s']:.3f} s > run_s {traced_run_s:.3f} s"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="railplan benchmark")
    parser.add_argument("--workload", choices=sorted(gen.RECIPES))
    parser.add_argument("--seed", type=int, default=1, help="CSV row-order seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="toy-size check of the benchmark")
    args = parser.parse_args(argv)
    if args.self_test:
        problems = self_test()
        for p in problems:
            print(f"self-test: {p}")
        print("self-test: " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
