"""The step each solver iteration takes along its per-bush flow change keeps
every bush flow non-negative and conserving, never raises the recorded
objective, books the exact objective change, and leaves the solver as it was
when it is rejected."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from railplan.costmodel import RateTable
from railplan.equilibrium import ODMatrix
from railplan.network import apply_design

from oracles import RecordingSolver
from synth import assembled_instance, grid3x3_network, random_network, random_od

CAPACITY = {"moderate": (2.0e4, 8.0e4), "overloaded": (1.0e3, 5.0e3)}
# the default rates, and cheap electricity and switching, where electric
# traction pays and bushes swap flow between the tractions
RATES = {"default": RateTable(), "pays": RateTable(fuel_cost_electric=0.3e-8, switch_cost_per_train=200.0)}


class CheckedSolver(RecordingSolver):
    """RecordingSolver that checks every extrapolation step as it is taken."""

    taken = not_taken = 0

    def _extrapolate(self, steps, beckmann):
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
            self.taken += 1
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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    load=st.sampled_from(sorted(CAPACITY)),
    rates=st.sampled_from(sorted(RATES)),
    electrified_share=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_extrapolation_keeps_bushes_feasible_and_objective_falling(seed, load, rates, electrified_share):
    expanded, profiles, usable, od = instance(seed, load, rates, electrified_share)
    solver = CheckedSolver(expanded, usable, od, profiles, tol=1.0e-10, max_iter=30)
    _, metrics = solver.solve()
    assert solver.taken + solver.not_taken == metrics.iteration
    assert_bushes_feasible(solver)
    seq = solver.shift_beckmann
    assert all(b <= a for a, b in zip(seq, seq[1:]))


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
