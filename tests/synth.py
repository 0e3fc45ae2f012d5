"""Instance builders shared by the test modules: fixed hand networks plus
seeded random generators for the property-style loops."""

from __future__ import annotations

import numpy as np

from railplan.costmodel import RateTable, TrainConsist, build_profiles, yard_switch_costs
from railplan.equilibrium import ODMatrix
from railplan.network import Node, PhysicalLink, RailNetwork, apply_design, expand


def bidirectional(pairs, lengths, **common):
    """Directed link list from undirected (tail, head) pairs; pair k gets
    link ids 2k (forward) and 2k+1 (reverse)."""
    links = []
    for k, ((a, b), length) in enumerate(zip(pairs, lengths)):
        links.append(PhysicalLink(id=2 * k, tail=a, head=b, length_km=length, **common))
        links.append(PhysicalLink(id=2 * k + 1, tail=b, head=a, length_km=length, **common))
    return links


def line_network(n_nodes=5, yards=(0, 2, 4), length_km=50.0, capacity_tpd=5.0e4):
    """Nodes on a flat east-west line, every adjacent pair linked both ways."""
    nodes = [
        Node(i, 40.0, -100.0 + 0.4 * i, is_yard=(i in yards)) for i in range(n_nodes)
    ]
    pairs = [(i, i + 1) for i in range(n_nodes - 1)]
    links = bidirectional(
        pairs,
        [length_km] * len(pairs),
        capacity_tpd=capacity_tpd,
        curve_radius_m=20000.0,
    )
    return RailNetwork.build(nodes, links)


def two_path_network(capacity_tpd=2.0e4, long_km=100.0, short_km=60.0):
    """Two routes 0->1: a direct link and a dogleg through node 2, plus the
    reverse links.  Both endpoints are yards."""
    nodes = [
        Node(0, 40.0, -100.0, is_yard=True),
        Node(1, 40.0, -99.0, is_yard=True),
        Node(2, 40.5, -99.5),
    ]
    links = bidirectional(
        [(0, 1), (0, 2), (2, 1)],
        [long_km, short_km, short_km],
        capacity_tpd=capacity_tpd,
        curve_radius_m=20000.0,
    )
    return RailNetwork.build(nodes, links)


def grid3x3_network(yards=(0, 2, 7), length_km=10.0, capacity_tpd=5.0e4):
    """3x3 grid, row-major node ids, equal link lengths.

    Undirected edges in scan order (right then down per node) so edge k
    carries link ids 2k and 2k+1:
        0-1, 0-3, 1-2, 1-4, 2-5, 3-4, 3-6, 4-5, 4-7, 5-8, 6-7, 7-8
    """
    nodes = []
    for i in range(9):
        row, col = divmod(i, 3)
        nodes.append(Node(i, 41.0 - 0.1 * row, -100.0 + 0.1 * col, is_yard=(i in yards)))
    pairs = []
    for i in range(9):
        row, col = divmod(i, 3)
        if col < 2:
            pairs.append((i, i + 1))
        if row < 2:
            pairs.append((i, i + 3))
    links = bidirectional(
        pairs,
        [length_km] * len(pairs),
        capacity_tpd=capacity_tpd,
        curve_radius_m=20000.0,
    )
    return RailNetwork.build(nodes, links)


def random_network(
    rng: np.random.Generator,
    n_nodes: int = 8,
    extra_links: int = 6,
    yard_count: int = 2,
    radius_range: tuple[float, float] = (3000.0, 30000.0),
    grade_span: float = 0.01,
    capacity_range: tuple[float, float] = (2.0e4, 8.0e4),
) -> RailNetwork:
    """Strongly connected random network: a bidirectional random spanning
    tree plus extra one-way links."""
    lat = 39.0 + 2.0 * rng.random(n_nodes)
    lon = -101.0 + 2.0 * rng.random(n_nodes)
    yard_ids = set(int(i) for i in rng.choice(n_nodes, size=min(yard_count, n_nodes), replace=False))
    nodes = [Node(i, float(lat[i]), float(lon[i]), is_yard=(i in yard_ids)) for i in range(n_nodes)]

    pairs: list[tuple[int, int]] = []
    for i in range(1, n_nodes):
        j = int(rng.integers(0, i))
        pairs.append((j, i))
        pairs.append((i, j))
    for _ in range(extra_links):
        a, b = (int(v) for v in rng.choice(n_nodes, size=2, replace=False))
        pairs.append((a, b))

    from railplan.network import haversine_km

    links = []
    for lid, (a, b) in enumerate(pairs):
        straight = haversine_km(nodes[a].lat, nodes[a].lon, nodes[b].lat, nodes[b].lon)
        links.append(
            PhysicalLink(
                id=lid,
                tail=a,
                head=b,
                length_km=max(1.0, straight * float(rng.uniform(1.02, 1.5))),
                grade=float(rng.uniform(-grade_span, grade_span)),
                curve_radius_m=float(rng.uniform(*radius_range)),
                capacity_tpd=float(rng.uniform(*capacity_range)),
            )
        )
    return RailNetwork.build(nodes, links)


def random_od(rng: np.random.Generator, net: RailNetwork, pairs: int = 3,
              tons: tuple[float, float] = (5.0e3, 3.0e4)) -> ODMatrix:
    ids = sorted(net.nodes)
    demand: dict[tuple[int, int], float] = {}
    while len(demand) < min(pairs, len(ids) * (len(ids) - 1)):
        o, d = (int(v) for v in rng.choice(ids, size=2, replace=False))
        demand[(o, d)] = float(rng.uniform(*tons))
    return ODMatrix(demand)


def assembled_instance(net: RailNetwork, consist=None, rates=None):
    """(expanded, profiles) for a network under the given or default rates."""
    consist = consist or TrainConsist()
    rates = rates or RateTable()
    profiles = build_profiles(net, consist, rates)
    expanded = expand(net, yard_switch_costs(net, rates, consist))
    return expanded, profiles


def stall_instance(seed: int):
    """(expanded, profiles, usable, od) of the stall recipe at `seed`: an
    overloaded random network of 12-30 nodes, half its links electrified,
    under the electric-pays rates when seed % 4 is 2 or 3."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 31))
    net = random_network(rng, n_nodes=n, extra_links=int(rng.integers(n // 2, 2 * n)),
                         yard_count=int(rng.integers(0, 6)), capacity_range=(1.0e3, 5.0e3))
    od = random_od(rng, net, pairs=int(rng.integers(3, 3 * n)))
    pays = RateTable(fuel_cost_electric=0.3e-8, switch_cost_per_train=200.0)
    expanded, profiles = assembled_instance(net, rates=pays if seed % 4 in (2, 3) else None)
    electrified = {lid for lid in sorted(net.links) if rng.random() < 0.5}
    return expanded, profiles, apply_design(expanded, electrified), od
