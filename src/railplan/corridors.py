"""Candidate electrification corridors: yard-to-yard shortest paths.

A corridor is a yard pair's shortest path with no yard in its interior: an
adjacent-yard geodesic.  One search per yard finds every yard pair's path,
and a pair is kept when no link but its last ends at a yard.  Ties pick the
lexicographically smallest link-id sequence and direction duplicates
collapse to one corridor per undirected link set.
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


def _lex_dijkstra(
    adjacency: dict[int, list[tuple[int, int, float]]],
    source: int,
) -> dict[int, tuple[int, ...]]:
    """Shortest paths as link-id tuples, smallest sequence winning ties."""
    best: dict[int, tuple[float, tuple[int, ...]]] = {source: (0.0, ())}
    settled: set[int] = set()
    heap: list[tuple[float, tuple[int, ...], int]] = [(0.0, (), source)]
    while heap:
        dist, path, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        best[u] = (dist, path)
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
    """Corridor set over candidate links (module docstring).

    weights is the routing metric per link (free-flow cost or length);
    link_costs the electrification capital per link.  A yard that no
    corridor starts or ends at is flagged.
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

    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for y in yards:
        reach = _lex_dijkstra(adjacency, y)
        for t in yards:
            p = reach.get(t)
            if p:  # the source's own path is empty
                paths[(y, t)] = p

    kept: dict[frozenset[frozenset[int]], tuple[tuple[int, ...], int, int]] = {}
    for (a, b), path in sorted(paths.items()):
        if any(net.links[l].head in yard_set for l in path[:-1]):
            continue
        key = frozenset(
            frozenset((net.links[l].tail, net.links[l].head)) for l in path
        )
        incumbent = kept.get(key)
        if incumbent is None or path < incumbent[0]:
            kept[key] = (path, a, b)

    rows = sorted(kept.values(), key=lambda r: (r[1], r[2], r[0]))
    ends = {y for _, a, b in rows for y in (a, b)}
    for y in yards:
        if len(yards) > 1 and y not in ends:
            warnings.warn(f"yard {y}: no corridor starts or ends at it")
    corridors = []
    for i, (path, a, b) in enumerate(rows):
        corridors.append(
            Corridor(
                id=i,
                link_ids=path,
                yard_a=a,
                yard_b=b,
                length_km=net.total_length_km(path),
                cost_usd=corridor_cost(path, link_costs),
            )
        )
    return corridors
