"""The screen of a solve against a converged start (module docstring of
`equilibrium`).

A `StartTable` keeps what every screen shares: the arc costs at the start's
flows, their total, and each origin's distances D over the start's usable
arcs.  The costs are the start solve's own `FlowState.cost`, which is
`CostEngine.costs` of its flows: costs do not depend on which arcs are
usable.  An impassable traction side costs inf, so no usable mask needs to
leave it out: it never passes D[tail] + c < D[head], never lowers a label,
and carries no flow.  Float addition of a non-negative cost is monotone, so
a full Dijkstra's label is the least float path sum over the usable arcs,
and so is every label of a labelling that some path reaches and no usable
arc lowers.  More arcs never raise a least sum: masks start, design and
widest, each within the next, give D_widest <= D_design <= D_start.  The
table takes the widest mask its screens may use (every corridor electrified,
in a design search; one outside it raises `ValueError`).  An origin whose
destination distances stay bit-equal, repaired over it, is closed: the table
keeps those distances, which no design moves, and D the open origins' rows.
Only arcs usable here and not in the start can shorten a path.  One
comparison, D[tail] + c < D[head], finds the open origins where one does;
`equilibrium._dijkstra` repairs their distances from D, seeded at the broken
heads, relaxing the usable arcs only while a label strictly falls (the
solver's stop check repairs its bush labels the same way).  The repair ends
in a labelling as above: its labels only fall to path sums, a node that fell
relaxes its out-arcs at its final label, and an arc out of a node that did
not fall is a start arc, which D leaves nothing to lower, or was compared.
Summed in `relative_gap`'s origin and destination order, the distances give
its gap bit for bit.  Where an arc usable in the start is not usable here,
distances can grow, and the screen calls `relative_gap` itself.
"""

from __future__ import annotations

import numpy as np

from .equilibrium import (
    FlowState,
    GapMetrics,
    ODMatrix,
    _adjacency,
    _dijkstra,
    _gap,
    flow_cost,
    relative_gap,
)
from .network import ExpandedNetwork


class StartTable:
    """A converged equilibrium kept to screen solves on more usable arcs, with
    what every screen shares (module docstring)."""

    def __init__(
        self,
        expanded: ExpandedNetwork,
        od: ODMatrix,
        state: FlowState,
        metrics: GapMetrics,
        usable: np.ndarray | None,
        widest: np.ndarray,
    ):
        self.expanded, self.od, self.state, self.metrics = expanded, od, state, metrics
        self.usable = np.ones(expanded.n_arcs, dtype=bool) if usable is None else np.asarray(usable, dtype=bool)
        self.widest = np.asarray(widest, dtype=bool) | self.usable
        self.cost = state.cost
        self.tstt = flow_cost(state.x, self.cost)
        self.origins = od.by_origin()
        adjacency, self._cost = _adjacency(expanded, self.usable), self.cost.tolist()
        rows = [_dijkstra(adjacency, self._cost, [(0.0, expanded.diesel_node(r))])[0] for r in self.origins]
        self.dist = np.array(rows).reshape(len(rows), expanded.n_nodes)
        self.closed = []  # per origin: a closed one's destination distances, None for an open one
        for row, low, dests in zip(rows, self._repaired(self.widest), self.origins.values()):
            kept = {v: row[v] for v in (expanded.diesel_node(s) for s, _ in dests)}
            self.closed.append(None if any(low[v] != d for v, d in kept.items()) else kept)
        self.dist = self.dist[[kept is None for kept in self.closed]]

    def screen(self, usable: np.ndarray | None, tol: float) -> tuple[FlowState, GapMetrics] | None:
        """The start's flows at iteration 0 when they meet the stopping rule
        of a solve with these usable arcs and `tol`, else None."""
        state, metrics = self.state, self.metrics
        usable = np.ones(self.expanded.n_arcs, dtype=bool) if usable is None else np.asarray(usable, dtype=bool)
        if metrics.wardrop_max > tol or np.any(state.x[~usable] > 0.0):
            return None
        gap = self.relative_gap(usable)
        if gap > tol:
            return None
        return FlowState(x=state.x.copy(), cost=self.cost.copy()), GapMetrics(
            relative_gap=gap,
            iteration=0,
            beckmann=metrics.beckmann,
            wardrop_max=metrics.wardrop_max,
            converged=True,
            trace=[(0, metrics.beckmann, gap)],
        )

    def relative_gap(self, usable: np.ndarray) -> float:
        """`relative_gap` of the start's flows with these usable arcs."""
        if np.any(usable & ~self.widest):
            raise ValueError("usable arcs outside the widest mask of this start")
        if np.any(self.usable & ~usable):
            return relative_gap(self.expanded, usable, self.cost, self.state.x, self.od)
        repaired = self._repaired(usable)
        dists = (next(repaired) if kept is None else kept for kept in self.closed)
        return _gap(self.expanded, self.origins, dists, self.tstt)

    def _repaired(self, usable: np.ndarray):
        """Each row of `dist` repaired over `usable`, which holds the start's arcs, as a list."""
        added = np.flatnonzero(usable & ~self.usable)
        head = self.expanded.head[added]
        offered = self.dist[:, self.expanded.tail[added]] + self.cost[added]
        broken = offered < self.dist[:, head]
        adjacency = _adjacency(self.expanded, usable) if broken.any() else None
        return (
            _dijkstra(adjacency, self._cost, zip(offer[hit].tolist(), head[hit].tolist()), row.tolist())[0]
            if hit.any() else row.tolist()
            for row, offer, hit in zip(self.dist, offered, broken)
        )
