"""Upper-level electrification design search under a capital budget.

A design is a bit per candidate corridor.  Capital is charged on the union
of member links (shared links once); electrifying a corridor also energizes
reverse twin links, since the wire over a track serves both directions.
Fitness is the total system cost of the resulting user equilibrium.

A design only makes its corridors' electric arcs usable on top of the
all-diesel network: its mask holds the all-diesel mask and lies within the
all-corridor one.  So every design's solve starts from the all-diesel
equilibrium: when those flows still pass the relative-gap test with the
design's arcs usable, they are the design's equilibrium and no iteration
runs.  Where electric traction does not pay, that is nearly every design.
The all-diesel design is therefore solved before any other, whatever order
the designs come in, so a design's fitness does not depend on it.  Its
equilibrium is kept once as a `screen.StartTable`; a screen repairs the
shortest paths of only the origins that some corridor can shorten (module
docstring of `screen`).

The GA draws from the one `pcg64.Generator` that its caller passes to
`seed_population` and then to `evolve`: numpy's `default_rng(seed)` stream in
pure Python, so a seed gives the designs it gave under numpy without importing
numpy's random package.  The GA reads every draw as a Python value, so a numpy
`Generator` passed in gives the same designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .corridors import Corridor
from .costmodel import LinkCostTable
from .equilibrium import (
    FlowState,
    GapMetrics,
    ODMatrix,
    flow_cost,
    solve_equilibrium,
)
from .network import ExpandedNetwork, RailNetwork, apply_design
from .screen import StartTable

if TYPE_CHECKING:
    from .pcg64 import Generator

Bits = tuple[int, ...]


def design_bits(ids: Iterable[int], n: int) -> Bits:
    """The bits of the design electrifying corridors `ids` of `n`."""
    chosen = set(ids)
    unknown = chosen - set(range(n))
    if unknown:
        raise ValueError(f"unknown corridor ids {sorted(unknown)}")
    return tuple(1 if i in chosen else 0 for i in range(n))


@dataclass
class GAConfig:
    """GA settings; `scenario_io.Scenario` inherits them as scenario.cfg keys."""

    population: int = 64
    generations: int = 200
    crossover: float = 0.9
    mutation: float = -1.0  # negative: 1/len(corridors)
    elites: int = 2
    seed: int = 0
    greedy_fraction: float = 0.5


@dataclass(frozen=True)
class EvaluatedDesign:
    bits: Bits
    total_cost: float  # $/day at equilibrium
    electric_share: float  # electric tonnage-km over total tonnage-km
    gap: float
    budget_used: float
    electrified_km: float
    converged: bool  # the equilibrium met its gap and Wardrop tolerances

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)


@dataclass(frozen=True)
class Solution:
    """One solve of a design: its scalars, flows, solver metrics and usable
    arcs."""

    evaluated: EvaluatedDesign
    state: FlowState
    metrics: GapMetrics
    usable: np.ndarray


@dataclass
class DesignProblem:
    """Everything fitness needs, plus memoization of solved genomes.

    The cache keeps the scalars of every solved design, and the full solution
    of the all-diesel one only.  What depends on the all-diesel solve alone,
    the screen's `StartTable` and the corridor scores of `repair`, is
    computed once, when first needed.
    """

    expanded: ExpandedNetwork
    profiles: LinkCostTable
    corridors: Sequence[Corridor]
    link_costs: dict[int, float]
    budget: float
    od: ODMatrix
    tol: float = 1.0e-6
    max_iter: int = 500
    _cache: dict[Bits, EvaluatedDesign] = field(default_factory=dict, init=False, repr=False)
    _baseline: Solution | None = field(default=None, init=False, repr=False)
    _start: StartTable | None = field(default=None, init=False, repr=False)
    _scores: list[float] | None = field(default=None, init=False, repr=False)

    def _check(self, bits: Iterable[int]) -> Bits:
        """`bits` as a tuple, checked to hold one 0/1 bit per corridor."""
        bits = tuple(bits)
        if len(bits) != len(self.corridors):
            raise ValueError(
                f"design has {len(bits)} bits for {len(self.corridors)} corridors"
            )
        if not set(bits) <= {0, 1}:
            raise ValueError("design bits must be 0/1")
        return bits

    @property
    def network(self) -> RailNetwork:
        return self.expanded.net

    def member_links(self, bits: Bits) -> set[int]:
        """Union of selected corridors' own links (capital is charged here)."""
        out: set[int] = set()
        for c, b in zip(self.corridors, bits):
            if b:
                out.update(c.link_ids)
        return out

    def electrified_links(self, bits: Bits) -> set[int]:
        """Member links closed under direction reversal."""
        return self.network.with_reverse_twins(self.member_links(bits))

    def union_cost(self, bits: Bits) -> float:
        return sum((self.link_costs[l] for l in self.member_links(bits)), 0.0)

    def electrified_km(self, bits: Bits) -> float:
        return self.network.total_length_km(self.member_links(bits))

    def evaluate(self, bits: Bits) -> EvaluatedDesign:
        bits = self._check(bits)
        hit = self._cache.get(bits)
        if hit is not None:
            return hit
        solution = self._solve(bits)
        self._cache[bits] = solution.evaluated
        if not any(bits):
            self._baseline = solution
        return solution.evaluated

    def _solve(self, bits: Bits) -> Solution:
        """Solve a design, starting from the all-diesel equilibrium (module
        docstring), which is solved first when it is not kept yet."""
        start = self.start() if any(bits) else None
        usable = apply_design(self.expanded, self.electrified_links(bits))
        state, metrics = solve_equilibrium(
            self.expanded,
            usable,
            self.od,
            self.profiles,
            tol=self.tol,
            max_iter=self.max_iter,
            start=start,
        )
        result = EvaluatedDesign(
            bits=bits,
            total_cost=flow_cost(state.x, state.cost),
            electric_share=electric_tonnage_share(self.expanded, state),
            gap=metrics.relative_gap,
            budget_used=self.union_cost(bits),
            electrified_km=self.electrified_km(bits),
            converged=metrics.converged,
        )
        return Solution(result, state, metrics, usable)

    @property
    def solved(self) -> list[EvaluatedDesign]:
        """Every design solved so far, once each."""
        return list(self._cache.values())

    def baseline(self) -> EvaluatedDesign:
        """All-diesel reference equilibrium."""
        return self.evaluate(tuple([0] * len(self.corridors)))

    def _baseline_solution(self) -> Solution:
        """The kept all-diesel solution, solved on first use."""
        if self._baseline is None:
            self.baseline()
        return self._baseline

    def baseline_state(self) -> FlowState:
        """All-diesel flow state."""
        return self._baseline_solution().state

    def start(self) -> StartTable:
        """The all-diesel equilibrium that every design is screened against."""
        if self._start is None:
            base = self._baseline_solution()
            widest = apply_design(self.expanded, self.electrified_links((1,) * len(self.corridors)))
            self._start = StartTable(self.expanded, self.od, base.state, base.metrics, base.usable, widest)
        return self._start

    def corridor_scores(self) -> list[float]:
        """`repair`'s benefit/cost score per corridor: the free-flow
        diesel-vs-electric fuel saving per ton, times baseline flow, per
        capital dollar."""
        if self._scores is None:
            p = self.profiles
            both = p.diesel_reachable & p.electric_reachable  # no saving across an impassable side
            with np.errstate(invalid="ignore"):  # inf - inf on a link with no finite fuel cost
                saving = np.where(both, p.diesel_fuel_per_ton - p.electric_fuel_per_ton, 0.0)
            self._scores = _per_capital_dollar(self, dict(zip(p.link_ids, saving.tolist())).__getitem__)
        return self._scores

    def with_budget(self, budget: float) -> DesignProblem:
        """This problem under another budget, sharing what is made from the
        all-diesel solve alone, which no budget changes: the kept solution
        and its cache entry, the `StartTable` and the corridor scores, made
        here first where they are not yet.  No other design is cached."""
        start, scores = self.start(), self.corridor_scores()
        other = replace(self, budget=budget)
        other._baseline, other._start, other._scores = self._baseline, start, scores
        other._cache[self._baseline.evaluated.bits] = self._baseline.evaluated
        return other

    def solution(self, bits: Bits) -> Solution:
        """Full solution of a design: the kept all-diesel one once it is
        solved, otherwise a fresh solve, which is not kept."""
        bits = self._check(bits)
        if self._baseline is not None and self._baseline.evaluated.bits == bits:
            return self._baseline
        return self._solve(bits)


def electric_tonnage_share(expanded: ExpandedNetwork, state: FlowState) -> float:
    """Electric tonnage-km over total traction tonnage-km."""
    n = 2 * len(expanded.link_ids)
    tkm = state.x[:n] * expanded.arc_length_km[:n]
    moved = electric = 0.0
    for d, e in zip(tkm[0::2].tolist(), tkm[1::2].tolist()):  # in arc order, not numpy's pairwise sum
        moved += d
        moved += e
        electric += e
    return 0.0 if moved <= 0.0 else electric / moved


def _per_capital_dollar(problem: DesignProblem, weight: Callable[[int], float]) -> list[float]:
    """Per corridor: the all-diesel baseline flow times `weight(link)`, summed
    over its links and their reverse twins, per capital dollar (inf for a
    corridor that costs nothing)."""
    flows = problem.baseline_state().physical_flows(problem.expanded)
    net = problem.network
    out = []
    for c in problem.corridors:
        total = 0.0
        for lid in net.with_reverse_twins(c.link_ids):
            xd, xe = flows[lid]
            total += weight(lid) * (xd + xe)
        out.append(total / c.cost_usd if c.cost_usd > 0.0 else math.inf)
    return out


def repair(bits: Bits, problem: DesignProblem) -> Bits:
    """Drop corridors until the union capital cost fits the budget.

    Removal order: lowest benefit/cost score first, most expensive first on
    score ties, lowest id last.  Union cost is recomputed after every
    removal so shared links are charged once throughout.
    """
    bits = problem._check(bits)
    if problem.union_cost(bits) <= problem.budget:
        return bits
    scores = problem.corridor_scores()
    current = list(bits)
    while problem.union_cost(tuple(current)) > problem.budget:
        selected = [i for i, b in enumerate(current) if b]
        if not selected:
            break
        victim = min(selected, key=lambda i: (scores[i], -problem.corridors[i].cost_usd, i))
        current[victim] = 0
    return tuple(current)


def _greedy_fill(problem: DesignProblem, density: np.ndarray) -> Bits:
    order = sorted(range(len(density)), key=lambda i: (-density[i], i))
    bits = [0] * len(density)
    for i in order:
        bits[i] = 1
        if problem.union_cost(tuple(bits)) > problem.budget:
            bits[i] = 0
    return tuple(bits)


def seed_population(
    config: GAConfig,
    problem: DesignProblem,
    rng: Generator,
) -> list[Bits]:
    """Initial genomes: a greedy density fill (first one pure, the rest with
    jittered densities so seeds differ) topped up with repaired random picks."""
    n = len(problem.corridors)
    if n == 0:
        return [()] * config.population
    # baseline tonnage-km moved per capital dollar
    links = problem.network.links
    density = np.array(_per_capital_dollar(problem, lambda lid: links[lid].length_km))
    n_greedy = int(round(config.population * config.greedy_fraction))
    population: list[Bits] = []
    for k in range(n_greedy):
        jitter = 1.0 if k == 0 else rng.uniform(0.75, 1.25, size=n)
        population.append(_greedy_fill(problem, density * jitter))
    while len(population) < config.population:
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        population.append(repair(bits, problem))
    return population


def _evaluate_all(genomes: list[Bits], problem: DesignProblem) -> list[EvaluatedDesign]:
    return [problem.evaluate(g) for g in genomes]


def evolve(
    population: list[Bits],
    config: GAConfig,
    problem: DesignProblem,
    rng: Generator,
) -> tuple[EvaluatedDesign, list[tuple[int, float, float, float, float]]]:
    """Generational GA: tournament of 2, uniform crossover, bit mutation,
    budget repair, elitism.  Returns the winner, the cheapest design from the
    first generation that reaches its cost and the lowest genome among its
    ties there, and per-generation history rows (gen, best, mean,
    budget_used, electrified_km).
    """
    n = len(problem.corridors)
    p_mut = config.mutation if config.mutation >= 0.0 else (1.0 / n if n else 0.0)
    genomes = [tuple(g) for g in population]

    def tournament(evals: list[EvaluatedDesign]) -> int:
        i, j = int(rng.integers(len(genomes))), int(rng.integers(len(genomes)))
        return i if evals[i].total_cost <= evals[j].total_cost else j

    history: list[tuple[int, float, float, float, float]] = []
    best: EvaluatedDesign | None = None
    for gen in range(config.generations + 1):
        evals = _evaluate_all(genomes, problem)
        ranked = sorted(range(len(genomes)), key=lambda i: (evals[i].total_cost, genomes[i]))
        gen_best = evals[ranked[0]]
        if best is None or gen_best.total_cost < best.total_cost:
            best = gen_best
        finite = [e.total_cost for e in evals if math.isfinite(e.total_cost)]
        mean = float(np.mean(finite)) if finite else math.inf
        history.append(
            (gen, gen_best.total_cost, mean, gen_best.budget_used, gen_best.electrified_km)
        )
        if gen == config.generations:
            break
        next_genomes = [genomes[i] for i in ranked[: config.elites]]
        while len(next_genomes) < len(genomes):
            a = genomes[tournament(evals)]
            b = genomes[tournament(evals)]
            if rng.random() < config.crossover:
                child = tuple(x if u < 0.5 else y for x, y, u in zip(a, b, rng.random(n)))
            else:
                child = a
            if p_mut > 0.0:
                child = tuple(int(c) ^ int(u < p_mut) for c, u in zip(child, rng.random(n)))
            next_genomes.append(repair(child, problem))
        genomes = next_genomes
    assert best is not None
    return best, history
