"""Candidate electrification corridors: yard-to-yard shortest paths.

A corridor is a yard pair's shortest path that survives a second, pruned
search stopped at the first yard reached, i.e. an adjacent-yard geodesic
with no yard in its interior.  Ties pick the lexicographically smallest
link-id sequence and direction duplicates collapse to one corridor per
undirected link set.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from typing import Mapping

from .network import RailNetwork


@dataclass(frozen=True)
class Corridor:
    id: int
    link_ids: tuple[int, ...]
    yard_a: int
    yard_b: int
    length_km: float
    cost_usd: float


def corridor_cost(link_ids: tuple[int, ...] | list[int], link_costs: Mapping[int, float]) -> float:
    """Electrification capital for a corridor; empty corridors cost nothing."""
    return sum(link_costs[l] for l in link_ids)


def corridor_length_km(net: RailNetwork, link_ids: tuple[int, ...] | list[int]) -> float:
    """Summed length of a corridor's links."""
    return sum(net.links[l].length_km for l in link_ids)


def _lex_dijkstra(
    adjacency: dict[int, list[tuple[int, int, float]]],
    source: int,
    prune_at: set[int] | None = None,
) -> dict[int, tuple[int, ...]]:
    """Shortest paths as link-id tuples, smallest sequence winning ties.

    With prune_at, settled yards other than the source are not expanded, so
    every returned path ends at the first yard it touches.
    """
    best: dict[int, tuple[float, tuple[int, ...]]] = {source: (0.0, ())}
    settled: set[int] = set()
    heap: list[tuple[float, tuple[int, ...], int]] = [(0.0, (), source)]
    while heap:
        dist, path, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        best[u] = (dist, path)
        if prune_at is not None and u != source and u in prune_at:
            continue
        for link_id, v, w in adjacency.get(u, ()):
            if v in settled:
                continue
            heapq.heappush(heap, (dist + w, path + (link_id,), v))
    return {u: p for u, (_, p) in best.items() if u in settled}


def candidate_corridors(
    net: RailNetwork,
    weights: Mapping[int, float],
    link_costs: Mapping[int, float],
) -> list[Corridor]:
    """Corridor set from the two-search intersection over candidate links.

    weights is the routing metric per link (free-flow cost or length);
    link_costs the electrification capital per link.  Yards unreachable from
    every other yard are flagged and skipped.
    """
    yards = net.yards()
    yard_set = set(yards)
    adjacency: dict[int, list[tuple[int, int, float]]] = {}
    for lid in sorted(net.links):
        link = net.links[lid]
        if not link.candidate:
            continue
        w = float(weights[lid])
        if w <= 0.0:
            raise ValueError(f"link {lid}: nonpositive corridor weight")
        adjacency.setdefault(link.tail, []).append((lid, link.head, w))

    full: dict[tuple[int, int], tuple[int, ...]] = {}
    pruned: dict[tuple[int, int], tuple[int, ...]] = {}
    for y in yards:
        reach_full = _lex_dijkstra(adjacency, y)
        reach_pruned = _lex_dijkstra(adjacency, y, prune_at=yard_set)
        connected = False
        for t in yards:
            if t == y:
                continue
            p = reach_full.get(t)
            if p:
                full[(y, t)] = p
                connected = True
            p = reach_pruned.get(t)
            if p:
                pruned[(y, t)] = p
        if not connected and len(yards) > 1:
            warnings.warn(f"yard {y}: unreachable from every other yard; skipped")

    kept: dict[frozenset[frozenset[int]], tuple[tuple[int, ...], int, int]] = {}
    for (a, b), path in sorted(full.items()):
        if pruned.get((a, b)) != path:
            continue
        key = frozenset(
            frozenset((net.links[l].tail, net.links[l].head)) for l in path
        )
        incumbent = kept.get(key)
        if incumbent is None or path < incumbent[0]:
            kept[key] = (path, a, b)

    rows = sorted(kept.values(), key=lambda r: (r[1], r[2], r[0]))
    corridors = []
    for i, (path, a, b) in enumerate(rows):
        corridors.append(
            Corridor(
                id=i,
                link_ids=path,
                yard_a=a,
                yard_b=b,
                length_km=corridor_length_km(net, path),
                cost_usd=corridor_cost(path, link_costs),
            )
        )
    return corridors
