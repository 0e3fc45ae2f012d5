"""The step each solver iteration takes along its per-bush flow change, made
conjugate to the last step taken, keeps every bush flow non-negative,
conserving and on its own arcs, never raises the recorded objective, books
the exact objective change, and leaves the solver as it was when it is
rejected.  A step reuses nothing of a bush whose arc set changed, and with no
last step it has the bits of a step along the flow change alone."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from railplan.costmodel import RateTable
from railplan.equilibrium import BushSolver, ODMatrix, solve_equilibrium
from railplan.network import apply_design

from oracles import RecordingSolver
from synth import assembled_instance, grid3x3_network, random_network, random_od, stall_instance

CAPACITY = {"moderate": (2.0e4, 8.0e4), "overloaded": (1.0e3, 5.0e3)}
# the default rates, and cheap electricity and switching, where electric
# traction pays and bushes swap flow between the tractions
RATES = {"default": RateTable(), "pays": RateTable(fuel_cost_electric=0.3e-8, switch_cost_per_train=200.0)}


class CheckedSolver(RecordingSolver):
    """RecordingSolver that checks every extrapolation step as it is taken,
    and counts the steps taken with a conjugate part in `conjugate`."""

    taken = not_taken = conjugate = 0
    _conjugated = False

    def _conjugate(self, steps, last, direction):
        parts = super()._conjugate(steps, last, direction)
        self._conjugated = parts is not steps
        return parts

    def _extrapolate(self, steps, beckmann):
        self._conjugated = False
        x, cost = self.x.copy(), self.cost.copy()
        flows = [bush.flow.copy() for bush in self.bushes]
        # the recorder seeds its sequence when first called, so this call may
        # add the seed before it books the step
        recorded = max(1, len(self.shift_beckmann))
        after = super()._extrapolate(steps, beckmann)
        seq = self.shift_beckmann
        if after == beckmann:
            assert self.x.tolist() == x.tolist()
            assert self.cost.tolist() == cost.tolist()
            assert all(b.flow.tolist() == f.tolist() for b, f in zip(self.bushes, flows))
            assert len(seq) == recorded
            self.not_taken += 1
        else:
            assert after < beckmann
            assert after == self.engine.beckmann(self.x)
            assert self.cost.tolist() == self.engine.costs(self.x).tolist()
            assert len(seq) == recorded + 1
            assert math.isclose(seq[-1] - seq[-2], after - beckmann,
                                rel_tol=1.0e-9, abs_tol=4.0 * math.ulp(seq[-2]))
            for bush in self.bushes:  # no flow off the bush's own arcs
                off = np.ones(len(bush.flow), dtype=bool)
                off[bush.pull] = False
                assert not bush.flow[off].any()
            self.taken += 1
            self.conjugate += self._conjugated
        return after


def instance(seed, load, rates, electrified_share):
    rng = np.random.default_rng(seed)
    net = random_network(
        rng,
        n_nodes=int(rng.integers(4, 13)),
        extra_links=int(rng.integers(0, 14)),
        yard_count=int(rng.integers(0, 5)),
        capacity_range=CAPACITY[load],
    )
    od = random_od(rng, net, pairs=int(rng.integers(1, 8)))
    expanded, profiles = assembled_instance(net, rates=RATES[rates])
    electrified = {lid for lid in sorted(net.links) if rng.random() < electrified_share}
    return expanded, profiles, apply_design(expanded, electrified), od


def assert_bushes_feasible(solver):
    expanded = solver.expanded
    dests = {expanded.diesel_node(o): d for o, d in solver.od.by_origin().items()}
    for bush in solver.bushes:
        assert (bush.flow >= 0.0).all()
        # inflow minus outflow: the destinations' demand, minus all of it at the origin
        balance = np.bincount(expanded.head, bush.flow, expanded.n_nodes) - np.bincount(
            expanded.tail, bush.flow, expanded.n_nodes
        )
        want = np.zeros(expanded.n_nodes)
        for dest, d in dests[bush.origin]:
            want[expanded.diesel_node(dest)] += d
        want[bush.origin] -= bush.demand
        assert np.abs(balance - want).max() <= 1.0e-9 * bush.demand


def test_extrapolation_keeps_bushes_feasible_and_objective_falling():
    conjugate = []  # per example, the steps taken with a conjugate part

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        load=st.sampled_from(sorted(CAPACITY)),
        rates=st.sampled_from(sorted(RATES)),
        electrified_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def check(seed, load, rates, electrified_share):
        expanded, profiles, usable, od = instance(seed, load, rates, electrified_share)
        solver = CheckedSolver(expanded, usable, od, profiles, tol=1.0e-10, max_iter=30)
        _, metrics = solver.solve()
        assert solver.taken + solver.not_taken == metrics.iteration
        assert_bushes_feasible(solver)
        seq = solver.shift_beckmann
        assert all(b <= a for a, b in zip(seq, seq[1:]))
        conjugate.append(solver.conjugate)

    check()
    assert sum(conjugate) > 0


class NoStep(RecordingSolver):
    def _extrapolate(self, steps, beckmann):
        return beckmann


class RejectingSolver(CheckedSolver):
    """Every candidate objective of a step reads +inf."""

    candidates = 0

    def _candidate(self, x):
        self.candidates += 1
        return math.inf

    def _extrapolate(self, steps, beckmann):
        self.engine.beckmann = self._candidate
        try:
            return super()._extrapolate(steps, beckmann)
        finally:
            del self.engine.beckmann


def test_rejected_steps_leave_the_solve_as_without_them():
    expanded, profiles = assembled_instance(grid3x3_network(capacity_tpd=5.0e3))
    od = ODMatrix({(0, 8): 2.0e4, (6, 2): 1.0e4})
    usable = apply_design(expanded, ())
    runs = [
        cls(expanded, usable, od, profiles, max_iter=6)
        for cls in (RejectingSolver, NoStep, CheckedSolver)
    ]
    (state, metrics), (want_state, want), _ = [solver.solve() for solver in runs]
    rejecting, no_step, taking = runs
    assert (rejecting.not_taken, rejecting.taken, metrics.iteration) == (6, 0, 6)
    assert rejecting.candidates > 0
    assert state.x.tolist() == want_state.x.tolist()
    assert state.cost.tolist() == want_state.cost.tolist()
    assert rejecting.shift_beckmann == no_step.shift_beckmann
    assert metrics.trace == want.trace
    # without the forced rejection, steps are taken
    assert taking.taken > 0


def congested_grid():
    expanded, profiles = assembled_instance(grid3x3_network(capacity_tpd=5.0e3))
    od = ODMatrix({(0, 8): 2.0e4, (6, 2): 1.0e4, (2, 6): 8.0e3, (8, 0): 1.2e4})
    return expanded, profiles, apply_design(expanded, ()), od


class ArcSetWatcher(CheckedSolver):
    """Checks that a bush whose arc set changed since its last step enters
    the next step without it, and steps along its own moves alone."""

    reset = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.arc_sets = {}  # bush -> its arc ids when its last step was taken

    def _extrapolate(self, steps, beckmann):
        self.moves = {bush: (arcs, d_b) for bush, arcs, d_b in steps}
        self.dropped = []
        for bush, arc_set in self.arc_sets.items():
            if sorted(bush.pull.tolist()) != arc_set:
                assert bush.step is None
                self.dropped.append(bush)
        after = super()._extrapolate(steps, beckmann)
        self.arc_sets = {bush: sorted(bush.pull.tolist()) for bush in self.bushes if bush.step is not None}
        return after

    def _conjugate(self, steps, last, direction):
        parts = super()._conjugate(steps, last, direction)
        if parts is not steps:
            for bush, arcs, p_b in parts:
                if bush in self.dropped:
                    arcs_d, d_b = self.moves[bush]
                    assert arcs.tolist() == arcs_d.tolist() and p_b.tolist() == d_b.tolist()
                    self.reset += 1
        return parts


@pytest.mark.parametrize("seed", [1, 8])
def test_a_bush_whose_arc_set_changed_reuses_nothing_of_its_last_step(seed):
    expanded, profiles, usable, od = stall_instance(seed)
    solver = ArcSetWatcher(expanded, usable, od, profiles, max_iter=40)
    solver.solve()
    assert solver.conjugate > 0 and solver.reset > 0


class WithoutLastStep(CheckedSolver):
    """Checks the step of the first iteration, and of every iteration after
    a step not taken, against the step from the same state of a solver whose
    conjugate part is forced to 0."""

    compared = 0
    last_taken = False

    def _state(self):
        return (self.x.copy(), self.cost.copy(),
                [(bush.flow.copy(), bush.step) for bush in self.bushes])

    def _extrapolate(self, steps, beckmann):
        if self.last_taken:
            after = super()._extrapolate(steps, beckmann)
            self.last_taken = after != beckmann
            return after
        x, cost, bushes = self._state()
        after = super()._extrapolate(steps, beckmann)
        got = self._state()
        self.x[:], self.cost[:] = x, cost
        for bush, (flow, step) in zip(self.bushes, bushes):
            bush.flow[:], bush.step = flow, step
        self._conjugate = lambda steps, last, direction: steps
        try:
            assert BushSolver._extrapolate(self, steps, beckmann) == after
        finally:
            del self._conjugate
        assert self.x.tolist() == got[0].tolist() and self.cost.tolist() == got[1].tolist()
        for bush, (flow, step) in zip(self.bushes, got[2]):
            assert bush.flow.tolist() == flow.tolist()
            assert (bush.step is None) == (step is None)
            if step is not None:
                assert bush.step[0].tolist() == step[0].tolist()
                assert bush.step[1].tolist() == step[1].tolist()
        self.compared += 1
        self.last_taken = after != beckmann
        return after


def test_a_step_without_a_last_step_has_the_bits_of_one_without_conjugation():
    expanded, profiles, usable, od = congested_grid()
    solver = WithoutLastStep(expanded, usable, od, profiles, max_iter=40)
    solver.solve()
    # the first iteration and at least one after a step not taken
    assert solver.compared >= 2 and solver.not_taken > 0 and solver.conjugate > 0


def test_a_vanishing_component_bounds_no_step_and_raises_no_warning():
    # flow / -p overflows to inf on a subnormal p, which bounds nothing
    expanded, profiles, usable, od = congested_grid()
    solver = CheckedSolver(expanded, usable, od, profiles, max_iter=1)
    solver.solve()
    bush = solver.bushes[0]
    arc = int(bush.flow.nonzero()[0][0])
    beckmann, not_taken = solver.engine.beckmann(solver.x), solver.not_taken
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        after = solver._extrapolate([(bush, np.array([arc]), np.array([-5.0e-324]))], beckmann)
    assert after == beckmann and solver.not_taken == not_taken + 1


@pytest.mark.parametrize("seed", [1, 8, 161, 184])
def test_stall_recipe_raises_no_runtime_warning(seed):
    # components of the direction can nearly cancel, and flow / -p then
    # overflowed in the step bound at seed 184 while beta was not clipped
    expanded, profiles, usable, od = stall_instance(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, metrics = solve_equilibrium(expanded, usable, od, profiles, tol=1.0e-6, max_iter=500)
    assert metrics.relative_gap <= 1.0e-4
