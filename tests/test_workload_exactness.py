"""The solver agrees bit for bit with the scalar oracles of oracles.py on the
seed-1 benchmark scenarios, which are larger than the random instances of
test_bush_exactness.py: more origins, bigger bushes, more iterations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from railplan import equilibrium, scenario_io
from railplan.equilibrium import BushSolver
from railplan.network import apply_design

from oracles import FullRelabelSolver, oracle_labels

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """The assembled seed-1 scenario of a benchmark workload, by name."""
    made = {}

    def get(name):
        if name not in made:
            out = tmp_path_factory.mktemp(name)
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
            gen = subprocess.run(
                [sys.executable, "perfbench/gen.py", "--workload", name, "--seed", "1", "--out", str(out)],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            assert gen.returncode == 0, gen.stderr
            made[name] = scenario_io.assemble(scenario_io.load_scenario(out / "scenario.cfg"))
        return made[name]

    return get


def solver(cls, problem):
    usable = apply_design(problem.expanded, ())
    return cls(problem.expanded, usable, problem.od, problem.profiles, tol=problem.tol, max_iter=problem.max_iter)


# at most (label-pass arcs, completed sorts) of one seed-1 BushSolver solve.
# Bushes that kept the dead electric nodes, relabelled eagerly and sorted
# every initial tree took 506,692 arcs and 443 sorts on assign-medium and
# 274,571 arcs on assign-congested; sorting each initial tree at its first
# change took 359 sorts on assign-medium, and keeping its settle order 325.
# Sorting by min label took 408,044 arcs and 168 sorts there, and 205,261
# arcs and 215 sorts on assign-congested (416,507 and 214,201 arcs before).
# Steps conjugate to the last step taken cut iterations 16 -> 15 and 89 ->
# 75: 386,025 arcs and 168 sorts on assign-medium, 178,329 arcs and 209
# sorts on assign-congested.
WORK_BOUNDS = {"assign-medium": (387_000, 168), "assign-congested": (179_000, 209)}


@pytest.mark.parametrize("name", ["assign-medium", "assign-congested"])
def test_solve_matches_full_relabel_oracle(workload, name, monkeypatch):
    problem = workload(name)
    label_pass, toposort = equilibrium.shortest_longest_labels, equilibrium._toposort
    work = {"arcs": 0, "sorts": 0}

    def counted_pass(expanded, bush, costs, labels=None, start=1, stop=None):
        end = len(bush.order) if stop is None else stop
        if start < end:  # the pass walks the arcs into positions start..end-1
            work["arcs"] += int(bush.offsets[end] - bush.offsets[start])
        return label_pass(expanded, bush, costs, labels, start, stop)

    def counted_sort(*args):
        order = toposort(*args)  # a sort that meets a cycle raises, uncounted
        work["sorts"] += 1
        return order

    monkeypatch.setattr(equilibrium, "shortest_longest_labels", counted_pass)
    monkeypatch.setattr(equilibrium, "_toposort", counted_sort)
    state, metrics = solver(BushSolver, problem).solve()
    arcs, sorts = work["arcs"], work["sorts"]
    monkeypatch.undo()
    want, want_metrics = solver(FullRelabelSolver, problem).solve()
    max_arcs, max_sorts = WORK_BOUNDS[name]
    assert arcs <= max_arcs and sorts <= max_sorts, (arcs, sorts)
    assert state.x.tolist() == want.x.tolist()
    assert state.cost.tolist() == want.cost.tolist()
    assert metrics.trace == want_metrics.trace
    assert metrics.converged and metrics.iteration == want_metrics.iteration


def test_sampled_full_label_passes_match_oracle(workload, monkeypatch):
    # FullRelabelSolver sweeps on the oracle's labels, but its bush update
    # and spread check call the program's label pass, as BushSolver's do, so
    # an error there can leave both solves equal in the test above
    problem = workload("assign-medium")
    label_pass = equilibrium.shortest_longest_labels
    full_passes = [0]

    def checked(expanded, bush, costs, labels=None, start=1, stop=None):
        got = label_pass(expanded, bush, costs, labels, start, stop)
        if labels is None:
            full_passes[0] += 1
            if full_passes[0] % 25 == 0:
                for want, have in zip(oracle_labels(expanded, bush, costs), got):
                    assert want.tolist() == have
        return got

    monkeypatch.setattr(equilibrium, "shortest_longest_labels", checked)
    _, metrics = solver(BushSolver, problem).solve()
    assert metrics.converged and full_passes[0] >= 1000


def test_an_early_stop_of_the_spread_check_repairs_no_labels(workload, monkeypatch):
    dijkstra = equilibrium._dijkstra
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "_dijkstra", counted)
    checks = []  # (stopped early, repairs made)

    class Watched(BushSolver):
        def wardrop_violation(self, bound=float("inf")):
            before = calls[0]
            spread = super().wardrop_violation(bound)
            checks.append((self.checked_gap is None, calls[0] - before))
            return spread

    _, metrics = solver(Watched, workload("assign-congested")).solve()
    early = [repairs for stopped, repairs in checks if stopped]
    assert len(early) == metrics.iteration - 1 > 0
    assert early == [0] * len(early)
    assert checks[-1][1] > 0  # the gap repairs labels when every bush passes
