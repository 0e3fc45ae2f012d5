"""Machine-speed reference: a fixed unit of work that does not use railplan.

launch.py runs these units at nice 19 on the CPU of the command it times
(see there for why).  run.py then rescales each measured time by
REFERENCE_UNIT_S / mean unit time, so that a slower or faster machine period
does not read as a slower or faster program.  A unit resembles the program's
hot path (a heap Dijkstra in pure Python) so that both slow down alike.  It
imports only the standard library, so it adds nothing to the RSS that
launch.py hands to the command it spawns, and no change to the program can
move it.
"""

from __future__ import annotations

import heapq
import math
import random
import time

# typical mean unit time on the reference VM (2-vCPU Intel Xeon, Python
# 3.11.7); a rescaled time reads as the time it takes there at that speed
REFERENCE_UNIT_S = 3.5e-4

_N_NODES = 300
_DEGREE = 4


def _graph() -> tuple[list[list[int]], list[int], list[float]]:
    rng = random.Random(20211007)
    head = [rng.randrange(_N_NODES) for _ in range(_N_NODES * _DEGREE)]
    cost = [rng.uniform(1.0, 10.0) for _ in head]
    out_arcs = [list(range(u * _DEGREE, (u + 1) * _DEGREE)) for u in range(_N_NODES)]
    return out_arcs, head, cost


_OUT_ARCS, _HEAD, _COST = _graph()


def _dijkstra(source: int) -> float:
    dist = [math.inf] * _N_NODES
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for a in _OUT_ARCS[u]:
            v = _HEAD[a]
            nd = d + _COST[a]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return sum(d for d in dist if d < math.inf)


def unit() -> float:
    """CPU seconds this thread spent on one fixed unit of reference work."""
    started = time.thread_time()
    _dijkstra(0)
    return time.thread_time() - started

