"""The array-native bush hot path agrees bit for bit with the scalar oracles
of oracles.py on random and overloaded networks."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from railplan import equilibrium
from railplan.costmodel import RateTable
from railplan.equilibrium import (
    BushSolver,
    CostEngine,
    _adjacency,
    _initial_bush,
    _toposort,
    relative_gap,
    shortest_longest_labels,
    solve_equilibrium,
    update_bush,
)
from railplan.network import ArcKind, apply_design

from oracles import (
    AllPositionsSolver,
    FullRelabelSolver,
    RecordingSolver,
    bush_arcs,
    oracle_labels,
    oracle_toposort,
    oracle_update,
    oracle_wardrop,
    shift_delta,
)
from synth import assembled_instance, random_network, random_od

CAPACITY = {"moderate": (2.0e4, 8.0e4), "overloaded": (1.0e3, 5.0e3)}

seeds = st.integers(0, 2**32 - 1)
loads = st.sampled_from(sorted(CAPACITY))
electrified_shares = st.sampled_from([0.0, 0.5, 1.0])


def instance(seed, load, electrified_share, rates=None):
    rng = np.random.default_rng(seed)
    net = random_network(
        rng,
        n_nodes=int(rng.integers(4, 11)),
        extra_links=int(rng.integers(0, 12)),
        yard_count=int(rng.integers(0, 4)),
        capacity_range=CAPACITY[load],
    )
    od = random_od(rng, net, pairs=int(rng.integers(1, 6)))
    expanded, profiles = assembled_instance(net, rates=rates)
    electrified = {lid for lid in sorted(net.links) if rng.random() < electrified_share}
    return rng, expanded, profiles, apply_design(expanded, electrified), od


RATES = {
    "default": RateTable(),
    "pays": RateTable(fuel_cost_electric=0.3e-8, switch_cost_per_train=200.0),
    # 2 kW electric locomotives: impassable electric sides, at cost inf
    "weak": RateTable(locomotive_power_electric_w=2.0e3),
}


@settings(max_examples=30, deadline=None)
@given(seed=seeds, load=loads, electrified_share=electrified_shares, rates=st.sampled_from(sorted(RATES)))
def test_a_cold_solve_returns_the_cost_engines_costs_of_its_flows(seed, load, electrified_share, rates):
    # screen.StartTable takes a solve's costs as they are
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # impassable sides
        _, expanded, profiles, usable, od = instance(seed, load, electrified_share, RATES[rates])
    state, _ = solve_equilibrium(expanded, usable, od, profiles, max_iter=100)
    assert state.cost.tolist() == CostEngine(expanded, profiles).costs(state.x).tolist()


@settings(max_examples=40, deadline=None)
@given(seed=seeds, load=loads, electrified_share=electrified_shares, tied_costs=st.booleans())
def test_labels_and_bush_update_match_scalar_oracle(seed, load, electrified_share, tied_costs):
    rng, expanded, profiles, usable, od = instance(seed, load, electrified_share)
    engine = CostEngine(expanded, profiles, usable)
    adjacency = _adjacency(expanded, engine.usable)
    candidates = BushSolver(expanded, usable, od, profiles)._candidates
    free_flow = engine.costs(np.zeros(expanded.n_arcs)).tolist()
    for origin, dests in od.by_origin().items():
        bush = _initial_bush(expanded, adjacency, free_flow, origin, dests)
        nodes = set(bush.order.tolist())
        for _ in range(4):
            # few distinct cost values make label ties common
            if tied_costs:
                costs = rng.integers(1, 4, expanded.n_arcs).astype(float)
            else:
                costs = rng.uniform(0.5, 5.0, expanded.n_arcs)
            arcs = np.array(sorted(bush_arcs(bush)))
            bush.flow[:] = 0.0
            bush.flow[arcs] = np.where(rng.random(arcs.size) < 0.6, rng.uniform(0.0, 1.0e4, arcs.size), 0.0)

            got = shortest_longest_labels(expanded, bush, costs)
            for want, have in zip(oracle_labels(expanded, bush, costs), got):
                assert want.tolist() == have

            before = bush_arcs(bush)
            want_arcs, want_order = oracle_update(expanded, bush, costs, engine.usable)
            added = update_bush(expanded, bush, costs, candidates, got)
            assert bush_arcs(bush) == want_arcs
            assert bush.order.tolist() == want_order
            assert (added is not None) == (want_arcs != before)
            if added is not None:
                assert set(added.tolist()) == want_arcs - before
            # any topological order of the initial node set, indexed by pos
            assert set(bush.order.tolist()) == nodes and len(bush.order) == len(nodes)
            assert bush.order.dtype == bush.pos.dtype == np.int32
            assert bush.order[0] == bush.origin
            for a in bush_arcs(bush):
                assert bush.pos[expanded.tail[a]] < bush.pos[expanded.head[a]]
            # every node but the origin keeps an inbound arc, so a label pass
            # writes every position it covers
            assert set(bush.order[1:].tolist()) <= {int(expanded.head[a]) for a in bush_arcs(bush)}
            want_pos = np.full(expanded.n_nodes, -1)
            want_pos[bush.order] = np.arange(len(bush.order))
            assert bush.pos.tolist() == want_pos.tolist()
            inbound = np.diff(bush.offsets)
            assert bush.merges.tolist() == [p for p in range(len(bush.order)) if inbound[p] >= 2]


@settings(max_examples=30, deadline=None)
@given(seed=seeds, load=loads, electrified_share=electrified_shares)
def test_tree_label_passes_match_oracle_fresh_or_reused(seed, load, electrified_share):
    # every full pass the solver makes on a bush without merges
    rng, expanded, profiles, usable, od = instance(seed, load, electrified_share)
    label_pass = equilibrium.shortest_longest_labels
    checked = [0]

    def checked_pass(expanded, bush, costs, labels=None, start=1, stop=None):
        got = label_pass(expanded, bush, costs, labels, start, stop)
        if labels is None and not bush.merges.size:
            for want, have in zip(oracle_labels(expanded, bush, costs), got):
                assert want.tolist() == have
            checked[0] += 1
        return got

    solver = BushSolver(expanded, usable, od, profiles, max_iter=20)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "shortest_longest_labels", checked_pass)
        solver.solve()
    assert checked[0] >= len(solver.bushes)  # the first pass on each initial tree

    # a full pass on a tree's labels from a pass at other costs and flows,
    # whose U and pred_max it must reset
    free_flow = solver.engine.costs(np.zeros(expanded.n_arcs)).tolist()
    for origin, dests in od.by_origin().items():
        bush = _initial_bush(expanded, solver._adjacency, free_flow, origin, dests)
        arcs = bush.pull.astype(np.int64)
        labels = None
        for _ in range(3):
            costs = rng.uniform(0.5, 5.0, expanded.n_arcs)
            bush.flow[arcs] = np.where(rng.random(arcs.size) < 0.6, rng.uniform(0.0, 1.0e4, arcs.size), 0.0)
            labels = shortest_longest_labels(expanded, bush, costs, labels)
            for want, have in zip(oracle_labels(expanded, bush, costs), labels):
                assert want.tolist() == have


@settings(max_examples=30, deadline=None)
@given(seed=seeds, load=loads)
def test_update_over_candidates_matches_three_term_rule(seed, load):
    # a design that leaves some electric nodes live and others dead; the
    # oracle tests every usable arc, into dead nodes too
    _, expanded, profiles, usable, od = instance(seed, load, 0.5)
    solver = BushSolver(expanded, usable, od, profiles, max_iter=10)
    engine = solver.engine
    electric = {expanded.electric_node(p) for p in expanded.node_ids}
    touched = set()
    for a in np.flatnonzero(engine.usable & (expanded.kind == ArcKind.ELECTRIC)).tolist():
        touched.update((int(expanded.tail[a]), int(expanded.head[a])))
    assume(electric & touched and electric - touched)
    update = equilibrium.update_bush
    calls = [0]

    def checked_update(expanded, bush, costs, candidates, labels):
        before = bush_arcs(bush)
        want_arcs, want_order = oracle_update(expanded, bush, costs, engine.usable)
        added = update(expanded, bush, costs, candidates, labels)
        assert bush_arcs(bush) == want_arcs
        assert bush.order.tolist() == want_order
        assert (added is not None) == (want_arcs != before)
        if added is not None:
            assert added.tolist() == sorted(want_arcs - before)
        calls[0] += 1
        return added

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "update_bush", checked_update)
        solver.solve()
    assert calls[0] >= len(solver.bushes)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, load=loads, electrified_share=electrified_shares)
def test_forward_adds_keep_a_trees_sorted_order(seed, load, electrified_share):
    # on a bush in _toposort's order, a sort after adds that all run forward
    # gives that order back, so update_bush skips it without changing the
    # order; shown on trees sorted at once
    rng, expanded, profiles, usable, od = instance(seed, load, electrified_share)
    engine = CostEngine(expanded, profiles, usable)
    adjacency = _adjacency(expanded, engine.usable)
    free_flow = engine.costs(np.zeros(expanded.n_arcs)).tolist()
    for origin, dests in od.by_origin().items():
        bush = _initial_bush(expanded, adjacency, free_flow, origin, dests)
        tree = bush.pull.astype(np.int64)
        L = np.array(shortest_longest_labels(expanded, bush, np.array(free_flow))[0])
        order = _toposort(expanded, tree, bush.origin, L).tolist()
        assert order == oracle_toposort(expanded, tree, bush.origin, L)
        pos = np.full(expanded.n_nodes, -1)
        pos[order] = np.arange(len(order))
        tail_pos, head_pos = pos[expanded.tail], pos[expanded.head]
        forward = np.flatnonzero((tail_pos >= 0) & (tail_pos < head_pos))
        forward = np.setdiff1d(forward, tree)
        adds = forward[rng.random(forward.size) < rng.uniform(0.0, 1.0)]
        assert _toposort(expanded, np.concatenate((tree, adds)), bush.origin, L).tolist() == order


@settings(max_examples=60, deadline=None)
@given(seed=seeds, tied=st.booleans())
def test_toposort_matches_label_keyed_kahn_oracle(seed, tied):
    # random bushes on a bare arc table, some nodes off the bush: arcs that
    # all run forward in the (L, index) order take the sort, arcs against
    # the labels the Kahn pass; a cycle and a second source raise on both
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    inside = rng.permutation(n)[: int(rng.integers(2, n))]  # a bush's nodes, the origin first
    origin = int(inside[0])
    L = np.full(n, math.inf)
    L[inside] = rng.integers(0, 4, inside.size) if tied else rng.uniform(0.0, 5.0, inside.size)
    L[origin] = 0.0
    by_label = [origin, *sorted(inside[1:].tolist(), key=lambda v: (L[v], v))]

    def bush(order):  # a tree in `order` plus extra arcs forward in it
        pairs = [(order[int(rng.integers(i))], v) for i, v in enumerate(order) if i]
        for _ in range(int(rng.integers(0, 2 * len(order)))):
            i, j = sorted(rng.choice(len(order), 2, replace=False).tolist())
            pairs.append((order[i], order[j]))
        return pairs

    def check(pairs):
        tail, head = (np.array(side, dtype=np.int64) for side in zip(*pairs))
        expanded = SimpleNamespace(n_nodes=n, tail=tail, head=head)
        arcs = rng.permutation(len(pairs))
        try:
            want = oracle_toposort(expanded, arcs, origin, L)
        except ValueError:
            with pytest.raises(ValueError, match="cycle"):
                _toposort(expanded, arcs, origin, L)
            return None
        got = _toposort(expanded, arcs, origin, L)
        assert got.tolist() == want
        return want

    forward = bush(by_label)
    assert check(forward) == by_label
    shuffled = [origin, *rng.permutation(inside[1:]).tolist()]
    against = bush(shuffled)
    order = check(against)
    if any(by_label.index(t) > by_label.index(h) for t, h in against):
        assert order != by_label
    # a cycle through an arc back to an ancestor (or to the node itself)
    v = shuffled[-1]
    up = dict((h, t) for t, h in against[: len(shuffled) - 1])
    ancestors = [v]
    while ancestors[-1] != origin:
        ancestors.append(up[ancestors[-1]])
    assert check(against + [(v, ancestors[int(rng.integers(len(ancestors)))])]) is None
    outside = sorted(set(range(n)) - set(inside.tolist()))
    if outside:
        assert check(forward + [(outside[0], v)]) is None


@settings(max_examples=30, deadline=None)
@given(seed=seeds, load=loads, electrified_share=electrified_shares, rates=st.sampled_from(["default", "weak"]))
def test_a_bush_holds_the_live_nodes_its_origin_reaches(seed, load, electrified_share, rates):
    # an electric node is live when a usable traction arc touches it, in or
    # out; the weak rates make electrified links impassable electrically
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # impassable sides
        _, expanded, profiles, usable, od = instance(seed, load, electrified_share, RATES[rates])
    solver = BushSolver(expanded, usable, od, profiles, max_iter=3)
    solver.solve()
    usable = solver.engine.usable
    electric = {expanded.electric_node(p) for p in expanded.node_ids}
    touched = set()
    for a in range(expanded.n_arcs):
        if usable[a] and expanded.kind[a] != ArcKind.SWITCH:
            touched.update((int(expanded.tail[a]), int(expanded.head[a])))
    for bush in solver.bushes:
        reached, stack = {bush.origin}, [bush.origin]
        while stack:
            for a in expanded.out_arcs[stack.pop()]:
                v = int(expanded.head[a])
                if usable[a] and v not in reached:
                    reached.add(v)
                    stack.append(v)
        assert set(bush.order.tolist()) == {v for v in reached if v not in electric or v in touched}


@settings(max_examples=40, deadline=None)
@given(seed=seeds, load=loads, electrified_share=electrified_shares, data=st.data())
def test_partial_label_pass_matches_oracle(seed, load, electrified_share, data):
    rng, expanded, profiles, usable, od = instance(seed, load, electrified_share)
    engine = CostEngine(expanded, profiles, usable)
    costs = engine.costs(np.zeros(expanded.n_arcs))
    origin, dests = next(iter(od.by_origin().items()))
    bush = _initial_bush(expanded, _adjacency(expanded, engine.usable), costs.tolist(), origin, dests)
    candidates = BushSolver(expanded, usable, od, profiles)._candidates
    for _ in range(2):  # grow the bush so that nodes have several inbound arcs
        costs = rng.uniform(0.5, 5.0, expanded.n_arcs)
        update_bush(expanded, bush, costs, candidates, shortest_longest_labels(expanded, bush, costs))
    arcs = bush.pull.astype(np.int64)
    bush.flow[arcs] = np.where(rng.random(arcs.size) < 0.6, rng.uniform(0.0, 1.0e4, arcs.size), 0.0)
    costs = rng.integers(1, 4, expanded.n_arcs).astype(float)
    labels = shortest_longest_labels(expanded, bush, costs)
    before = [list(part) for part in labels]

    n = len(bush.order)
    start = data.draw(st.integers(1, n))
    stop = data.draw(st.integers(start, n))
    # change only arcs into positions >= start: earlier labels stand
    late = arcs[bush.pos[expanded.head[arcs]] >= start]
    costs[late] = rng.integers(1, 4, late.size).astype(float)
    bush.flow[late] = np.where(rng.random(late.size) < 0.5, rng.uniform(0.0, 1.0e4, late.size), 0.0)

    got = shortest_longest_labels(expanded, bush, costs, labels, start, stop)
    assert got is labels
    want = oracle_labels(expanded, bush, costs)
    relabelled = set(bush.order[start:stop].tolist())
    for w, have, old in zip(want, got, before):
        for node in range(expanded.n_nodes):
            expected = w[node].item() if node in relabelled else old[node]
            assert have[node] == expected
            if bush.pos[node] < start:
                assert w[node].item() == old[node]


# where the arcs of one traction pair go: "min"/"max" puts one arc on that
# segment with its partner off the segments, "same-*" both on one segment,
# "split" one on each
PLACEMENTS = ("min", "max", "same-min", "same-max", "split")


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    load=loads,
    placements=st.lists(st.sampled_from(PLACEMENTS), min_size=1, max_size=8),
    switch_arcs=st.integers(0, 3),
)
def test_safeguard_matches_dict_shift_delta(seed, load, placements, switch_arcs):
    rng, expanded, profiles, usable, od = instance(seed, load, 0.5)
    solver = BushSolver(expanded, usable, od, profiles)
    pairs = list(expanded.pair_of.values())
    rng.shuffle(pairs)
    min_path, max_path = [], []
    for placement, pair in zip(placements, pairs):
        a, p = pair if rng.random() < 0.5 else pair[::-1]
        if placement in ("min", "same-min", "split"):
            min_path.append(a)
        if placement in ("max", "same-max"):
            max_path.append(a)
        if placement == "same-min":
            min_path.append(p)
        if placement in ("same-max", "split"):
            max_path.append(p)
    switches = [a for pair in expanded.switch_arcs_at.values() for a in pair]
    rng.shuffle(switches)
    for a in switches[:switch_arcs]:
        (min_path if rng.random() < 0.5 else max_path).append(a)
    rng.shuffle(min_path)
    rng.shuffle(max_path)
    # flows up to twice the capacity, some arcs empty; dx fits the max segment
    cap = solver.engine.cap
    x = np.where(rng.random(expanded.n_arcs) < 0.2, 0.0, rng.uniform(0.0, 2.0, expanded.n_arcs) * cap)
    solver.x = x
    room = min((x[a] for a in max_path), default=cap.max())
    dx = float(rng.uniform(0.0, 1.0) * room)

    terms = solver._shift_terms(min_path, max_path)
    for _ in range(3):  # dx, dx/2, dx/4: the first halvings of the safeguard
        deltas = {a: dx for a in min_path}
        deltas.update({a: -dx for a in max_path})
        assert solver._objective_change(terms, dx) == shift_delta(solver.engine, x, deltas)
        dx *= 0.5


@settings(max_examples=20, deadline=None)
@given(seed=seeds, load=loads, electrified_share=electrified_shares)
def test_incremental_relabel_matches_full_relabel(seed, load, electrified_share):
    _, expanded, profiles, usable, od = instance(seed, load, electrified_share)
    solvers = [
        cls(expanded, usable, od, profiles, tol=1.0e-10, max_iter=25)
        for cls in (RecordingSolver, FullRelabelSolver)
    ]
    (state, metrics), (full_state, full_metrics) = [solver.solve() for solver in solvers]
    assert state.x.tolist() == full_state.x.tolist()
    assert state.cost.tolist() == full_state.cost.tolist()
    assert metrics.iteration == full_metrics.iteration
    assert solvers[0].shift_beckmann == solvers[1].shift_beckmann
    assert metrics.trace == full_metrics.trace
    assert metrics.relative_gap == full_metrics.relative_gap
    assert metrics.wardrop_max == full_metrics.wardrop_max
    # the last row's gap is always computed
    assert metrics.trace[-1][2] == metrics.relative_gap


@settings(max_examples=20, deadline=None)
@given(seed=seeds, electrified_share=electrified_shares, iterations=st.integers(1, 4))
def test_wardrop_spread_matches_oracle_and_stops_above_bound(seed, electrified_share, iterations):
    _, expanded, profiles, usable, od = instance(seed, "overloaded", electrified_share)
    solver = BushSolver(expanded, usable, od, profiles, max_iter=iterations)
    solver.solve()
    full = oracle_wardrop(solver)
    assert solver.wardrop_violation() == full
    for bound in (0.0, 0.5 * full, full):
        spread = solver.wardrop_violation(bound)
        if full <= bound:
            assert spread == full
        else:
            assert bound < spread <= full


@settings(max_examples=10, deadline=None)
@given(seed=seeds, load=loads, electrified_share=electrified_shares)
def test_skipped_gap_checks_keep_every_stop_decision(seed, load, electrified_share):
    # A solve cut at max_iter=j computes the spread and the gap of iteration j
    # in full, so it tells whether the full stopping rule would stop there.
    _, expanded, profiles, usable, od = instance(seed, load, electrified_share)
    tol, max_iter = 1.0e-6, 30

    def solve(iterations):
        return BushSolver(expanded, usable, od, profiles, tol=tol, max_iter=iterations).solve()[1]

    metrics = solve(max_iter)
    for j in range(1, metrics.iteration + 1):
        cut = solve(j)
        stops = cut.relative_gap <= tol and cut.wardrop_max <= tol
        assert cut.converged == stops
        if j < metrics.iteration:
            assert not stops
        else:
            assert stops or j == max_iter
            assert (cut.relative_gap, cut.wardrop_max) == (metrics.relative_gap, metrics.wardrop_max)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, load=loads, electrified_share=electrified_shares)
def test_merge_sweep_matches_all_positions_sweep(seed, load, electrified_share):
    _, expanded, profiles, usable, od = instance(seed, load, electrified_share)
    solvers = [
        cls(expanded, usable, od, profiles, tol=1.0e-10, max_iter=25)
        for cls in (BushSolver, AllPositionsSolver)
    ]
    (state, metrics), (want_state, want_metrics) = [solver.solve() for solver in solvers]
    assert state.x.tolist() == want_state.x.tolist()
    assert state.cost.tolist() == want_state.cost.tolist()
    assert metrics == want_metrics
    for bush, want in zip(*(solver.bushes for solver in solvers)):
        assert bush.flow.tolist() == want.flow.tolist()
        assert bush_arcs(bush) == bush_arcs(want)


class GapCheckingSolver(BushSolver):
    """Records (stop-check gap, `relative_gap` at the same flows and costs)
    at every iteration whose gap the solver computed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gaps: list[tuple[float, float]] = []

    def wardrop_violation(self, bound=math.inf):
        spread = super().wardrop_violation(bound)
        if self.checked_gap is not None:
            want = relative_gap(self.expanded, self.engine.usable, self.cost, self.x, self.od)
            self.gaps.append((self.checked_gap, want))
        return spread


@settings(max_examples=30, deadline=None)
@given(
    seed=seeds,
    load=loads,
    electrified_share=electrified_shares,
    rates=st.sampled_from(sorted(RATES)),
    max_iter=st.sampled_from([1, 2, 30]),
)
def test_stop_check_gap_is_relative_gap_bit_for_bit(seed, load, electrified_share, rates, max_iter):
    # after one iteration the min labels are far from the distances, so the
    # repair does real work
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # impassable sides
        _, expanded, profiles, usable, od = instance(seed, load, electrified_share, RATES[rates])
    solver = GapCheckingSolver(expanded, usable, od, profiles, max_iter=max_iter)
    _, metrics = solver.solve()
    assert solver.gaps  # the last iteration's at least
    for got, want in solver.gaps:
        assert got == want
    assert [gap for _, _, gap in metrics.trace if gap is not None] == [got for got, _ in solver.gaps]
