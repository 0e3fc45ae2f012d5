"""Upper-level electrification design search under a capital budget.

A design is a bit per candidate corridor.  Capital is charged on the union
of member links (shared links once); electrifying a corridor also energizes
reverse twin links, since the wire over a track serves both directions.
Fitness is the total system cost of the resulting user equilibrium.

A design only makes electric arcs usable on top of the all-diesel network,
so every design's solve starts from the all-diesel equilibrium: when those
flows still pass the relative-gap test with the design's arcs usable, they
are the design's equilibrium and no iteration runs (see `solve_equilibrium`).
Where electric traction does not pay, that is nearly every design.  The
all-diesel design is therefore solved before any other, whatever order the
designs come in, so a design's fitness does not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corridors import Corridor
from .costmodel import LinkCostProfile
from .equilibrium import (
    FlowState,
    GapMetrics,
    ODMatrix,
    solve_equilibrium,
)
from .network import ArcKind, ExpandedNetwork, apply_design

Bits = tuple[int, ...]


@dataclass(frozen=True)
class DesignVector:
    bits: Bits

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("design bits must be 0/1")

    @classmethod
    def from_ids(cls, ids: Iterable[int], n: int) -> "DesignVector":
        chosen = set(ids)
        unknown = chosen - set(range(n))
        if unknown:
            raise ValueError(f"unknown corridor ids {sorted(unknown)}")
        return cls(tuple(1 if i in chosen else 0 for i in range(n)))

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)


@dataclass
class GAConfig:
    population: int = 64
    generations: int = 200
    crossover: float = 0.9
    mutation: float | None = None  # default 1/len(corridors)
    elites: int = 2
    seed: int = 0
    greedy_fraction: float = 0.5


@dataclass(frozen=True)
class EvaluatedDesign:
    design: DesignVector
    total_cost: float  # $/day at equilibrium
    electric_share: float  # electric tonnage-km over total tonnage-km
    gap: float
    budget_used: float
    electrified_km: float
    converged: bool  # the equilibrium met its gap and Wardrop tolerances


@dataclass(frozen=True)
class Solution:
    """One solve of a design: its scalars, flows and solver metrics."""

    evaluated: EvaluatedDesign
    state: FlowState
    metrics: GapMetrics


@dataclass
class DesignProblem:
    """Everything fitness needs, plus memoization of solved genomes.

    The cache keeps the scalars of every solved design.  Full solutions are
    kept for two designs only: the all-diesel one, and the best one solved
    while `generation` is set.  Best is the least (total cost, generation,
    bits), which is the design `evolve` returns: the cheapest, from the first
    generation that has it, the lowest genome among its ties there.
    """

    expanded: ExpandedNetwork
    profiles: dict[int, LinkCostProfile]
    corridors: Sequence[Corridor]
    link_costs: dict[int, float]
    budget: float
    od: ODMatrix
    tol: float = 1.0e-6
    max_iter: int = 500
    generation: int | None = None  # the GA generation being evaluated
    _cache: dict[Bits, EvaluatedDesign] = field(default_factory=dict, repr=False)
    _baseline: Solution | None = field(default=None, repr=False)
    _best: Solution | None = field(default=None, repr=False)
    _best_key: tuple | None = field(default=None, repr=False)

    def _check(self, bits: Bits) -> None:
        if len(bits) != len(self.corridors):
            raise ValueError(
                f"design has {len(bits)} bits for {len(self.corridors)} corridors"
            )

    def member_links(self, bits: Bits) -> set[int]:
        """Union of selected corridors' own links (capital is charged here)."""
        out: set[int] = set()
        for c, b in zip(self.corridors, bits):
            if b:
                out.update(c.link_ids)
        return out

    def electrified_links(self, bits: Bits) -> set[int]:
        """Member links closed under direction reversal."""
        return self.expanded.net.with_reverse_twins(self.member_links(bits))

    def union_cost(self, bits: Bits) -> float:
        return sum(self.link_costs[l] for l in self.member_links(bits))

    def electrified_km(self, bits: Bits) -> float:
        return self.expanded.net.total_length_km(self.member_links(bits))

    def evaluate(self, bits: Bits) -> EvaluatedDesign:
        bits = tuple(bits)
        self._check(bits)
        hit = self._cache.get(bits)
        if hit is not None:
            return hit
        solution = self._solve(bits)
        result = solution.evaluated
        self._cache[bits] = result
        if not any(bits):
            self._baseline = solution
        if self.generation is not None:
            key = (result.total_cost, self.generation, bits)
            if self._best_key is None or key < self._best_key:
                self._best, self._best_key = solution, key
        return result

    def _solve(self, bits: Bits) -> Solution:
        """Solve a design, starting from the all-diesel equilibrium (module
        docstring), which is solved first when it is not kept yet."""
        start = None
        if any(bits):
            if self._baseline is None:
                self.baseline()
            start = (self._baseline.state, self._baseline.metrics)
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
            design=DesignVector(bits),
            total_cost=float(state.x @ state.cost),
            electric_share=electric_tonnage_share(self.expanded, state),
            gap=metrics.relative_gap,
            budget_used=self.union_cost(bits),
            electrified_km=self.electrified_km(bits),
            converged=metrics.converged,
        )
        return Solution(result, state, metrics)

    @property
    def solved(self) -> list[EvaluatedDesign]:
        """Every design solved so far, once each."""
        return list(self._cache.values())

    def baseline(self) -> EvaluatedDesign:
        """All-diesel reference equilibrium."""
        return self.evaluate(tuple([0] * len(self.corridors)))

    def baseline_state(self) -> FlowState:
        """All-diesel flow state."""
        self.baseline()
        return self._baseline.state

    def solution(self, bits: Bits) -> Solution:
        """Full solution of a design: the kept one for the all-diesel and the
        best design, otherwise a fresh solve, which is not kept."""
        bits = tuple(bits)
        for kept in (self._best, self._baseline):
            if kept is not None and kept.evaluated.design.bits == bits:
                return kept
        self._check(bits)
        return self._solve(bits)


def electric_tonnage_share(expanded: ExpandedNetwork, state: FlowState) -> float:
    """Electric tonnage-km over total traction tonnage-km."""
    x = state.x.tolist()
    length_km = expanded.arc_length_km.tolist()
    moved = 0.0
    electric = 0.0
    for arc in expanded.arcs:
        if arc.kind is ArcKind.SWITCH:
            continue
        tkm = x[arc.id] * length_km[arc.id]
        moved += tkm
        if arc.kind is ArcKind.ELECTRIC:
            electric += tkm
    return 0.0 if moved <= 0.0 else electric / moved


def _corridor_scores(problem: DesignProblem) -> list[float]:
    """Static benefit/cost score per corridor from the all-diesel baseline.

    Benefit: free-flow diesel-vs-electric saving per ton on each member link
    (twins included) times that link's baseline flow.
    """
    flows = problem.baseline_state().physical_flows(problem.expanded)
    net = problem.expanded.net
    scores = []
    for c in problem.corridors:
        benefit = 0.0
        for lid in net.with_reverse_twins(c.link_ids):
            prof = problem.profiles[lid]
            saving = prof.diesel.fuel_cost_per_ton - prof.electric.fuel_cost_per_ton
            xd, xe = flows[lid]
            benefit += saving * (xd + xe)
        scores.append(benefit / c.cost_usd if c.cost_usd > 0.0 else math.inf)
    return scores


def repair(bits: Bits, problem: DesignProblem) -> Bits:
    """Drop corridors until the union capital cost fits the budget.

    Removal order: lowest benefit/cost score first, most expensive first on
    score ties, lowest id last.  Union cost is recomputed after every
    removal so shared links are charged once throughout.
    """
    bits = tuple(bits)
    problem._check(bits)
    if problem.union_cost(bits) <= problem.budget:
        return bits
    scores = _corridor_scores(problem)
    current = list(bits)
    while problem.union_cost(tuple(current)) > problem.budget:
        selected = [i for i, b in enumerate(current) if b]
        if not selected:
            break
        victim = min(selected, key=lambda i: (scores[i], -problem.corridors[i].cost_usd, i))
        current[victim] = 0
    return tuple(current)


def _density(problem: DesignProblem) -> np.ndarray:
    """Baseline tonnage-km moved per capital dollar, per corridor."""
    flows = problem.baseline_state().physical_flows(problem.expanded)
    net = problem.expanded.net
    out = []
    for c in problem.corridors:
        tkm = 0.0
        for lid in net.with_reverse_twins(c.link_ids):
            xd, xe = flows[lid]
            tkm += (xd + xe) * net.links[lid].length_km
        out.append(tkm / c.cost_usd if c.cost_usd > 0.0 else math.inf)
    return np.array(out)


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
    rng: np.random.Generator | None = None,
) -> list[Bits]:
    """Initial genomes: a greedy density fill (first one pure, the rest with
    jittered densities so seeds differ) topped up with repaired random picks."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = len(problem.corridors)
    if n == 0:
        return [()] * config.population
    density = _density(problem)
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
    for g in dict.fromkeys(genomes):
        if g not in problem._cache:
            problem.evaluate(g)
    return [problem.evaluate(g) for g in genomes]


def evolve(
    population: list[Bits],
    config: GAConfig,
    problem: DesignProblem,
    rng: np.random.Generator | None = None,
) -> tuple[EvaluatedDesign, list[tuple[int, float, float, float, float]]]:
    """Generational GA: tournament of 2, uniform crossover, bit mutation,
    budget repair, elitism.  Returns the best design ever seen and per-
    generation history rows (gen, best, mean, budget_used, electrified_km).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = len(problem.corridors)
    p_mut = config.mutation if config.mutation is not None else (1.0 / n if n else 0.0)
    genomes = [tuple(g) for g in population]

    def tournament(evals: list[EvaluatedDesign]) -> int:
        i, j = int(rng.integers(len(genomes))), int(rng.integers(len(genomes)))
        return i if evals[i].total_cost <= evals[j].total_cost else j

    history: list[tuple[int, float, float, float, float]] = []
    best: EvaluatedDesign | None = None
    for gen in range(config.generations + 1):
        problem.generation = gen
        evals = _evaluate_all(genomes, problem)
        problem.generation = None
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
                picks = rng.random(n) < 0.5
                child = tuple(a[k] if picks[k] else b[k] for k in range(n))
            else:
                child = a
            if p_mut > 0.0:
                flips = rng.random(n) < p_mut
                child = tuple(int(c) ^ int(f) for c, f in zip(child, flips))
            next_genomes.append(repair(child, problem))
        genomes = next_genomes
    assert best is not None
    return best, history
