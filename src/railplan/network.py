"""Rail network model and the diesel/electric arc expansion.

Every physical node is split into a diesel side and an electric side.  A
physical link becomes a parallel pair of traction arcs (one per side) and a
yard gets two directed switch arcs crossing between its sides.  Non-yard
nodes get no switch arcs, so a train can change traction only at a yard.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

EARTH_RADIUS_KM = 6371.0
DEFAULT_MIN_RADIUS_M = 300.0
DEFAULT_MAX_RADIUS_M = 1.0e5


class SignalClass(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class ArcKind(Enum):
    DIESEL = "diesel"
    ELECTRIC = "electric"
    SWITCH = "switch"


@dataclass
class Node:
    id: int
    lat: float
    lon: float
    is_yard: bool = False
    switching_cost: float | None = None  # $ per train, yards only


@dataclass
class PhysicalLink:
    """One directed stretch of track.

    length_km is the actual track length; straight_line_km the great-circle
    distance between the endpoints.  alpha = length/straight (floored at 1)
    is the terrain-difficulty proxy.  curve_radius_m left empty is derived
    from alpha once the network-wide alpha range is known.
    """

    id: int
    tail: int
    head: int
    length_km: float
    grade: float = 0.0  # signed fraction, + is uphill
    curve_radius_m: float | None = None
    capacity_tpd: float = 1.0e5  # tons/day
    signal_class: SignalClass = SignalClass.LOW
    candidate: bool = True
    straight_line_km: float | None = None
    alpha: float | None = None
    k_f: float | None = None  # per-link flange adjustment factor
    k_a: float | None = None  # per-link air adjustment factor
    desired_speed: float | None = None  # m/s, overrides the global default


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance on a 6371 km sphere."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def compute_alpha(link: PhysicalLink, tail: Node, head: Node) -> float:
    """Ratio of track length to great-circle length, floored at 1.

    Stores straight_line_km and alpha on the link.  Coincident endpoints
    leave no usable baseline; those links get ``inf`` here and are clamped
    to the network-wide maximum by :meth:`RailNetwork.build`.
    """
    gc = haversine_km(tail.lat, tail.lon, head.lat, head.lon)
    link.straight_line_km = gc
    if gc <= 0.0:
        warnings.warn(
            f"link {link.id}: coincident endpoints with nonzero length; "
            "alpha deferred to network maximum"
        )
        link.alpha = math.inf
        return link.alpha
    link.alpha = max(1.0, link.length_km / gc)
    return link.alpha


def terrain_fraction(alpha: float, alpha_min: float, alpha_max: float) -> float:
    """Terrain difficulty lambda = (alpha - alpha_min)/(alpha_max - alpha_min),
    clamped to [0, 1]; a degenerate range counts as easy everywhere."""
    span = alpha_max - alpha_min
    # spans at float-noise scale are geometry noise, not terrain signal
    degenerate = span <= 1e-9 * max(1.0, abs(alpha_max))
    lam = 0.0 if degenerate else (alpha - alpha_min) / span
    return min(max(lam, 0.0), 1.0)


def curve_radius_from_alpha(alpha: float, alpha_min: float, alpha_max: float) -> float:
    """Map terrain difficulty onto a curve radius: hardest terrain, tightest."""
    lam = terrain_fraction(alpha, alpha_min, alpha_max)
    return DEFAULT_MAX_RADIUS_M - lam * (DEFAULT_MAX_RADIUS_M - DEFAULT_MIN_RADIUS_M)


@dataclass
class RailNetwork:
    nodes: dict[int, Node]
    links: dict[int, PhysicalLink]
    _twins: dict[tuple[int, int], list[int]] = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, nodes: Iterable[Node], links: Iterable[PhysicalLink]) -> "RailNetwork":
        """Validate, fill alphas and missing curve radii, index twins."""
        # every range test below is written so that NaN fails it
        node_map: dict[int, Node] = {}
        for n in nodes:
            if n.id in node_map:
                raise ValueError(f"duplicate node id {n.id}")
            if not (-90.0 <= n.lat <= 90.0 and -180.0 <= n.lon <= 180.0):
                raise ValueError(f"node {n.id}: lat {n.lat}, lon {n.lon} out of range")
            if n.is_yard:
                if n.switching_cost is not None and not 0.0 <= n.switching_cost < math.inf:
                    raise ValueError(
                        f"node {n.id}: negative switching cost or non-finite {n.switching_cost}"
                    )
            elif n.switching_cost is not None:
                raise ValueError(f"node {n.id}: switching cost on a non-yard")
            node_map[n.id] = n

        link_map: dict[int, PhysicalLink] = {}
        for l in links:
            if l.id in link_map:
                raise ValueError(f"duplicate link id {l.id}")
            if l.tail not in node_map or l.head not in node_map:
                raise ValueError(f"link {l.id}: dangling endpoint reference")
            if l.tail == l.head:
                raise ValueError(f"link {l.id}: a self-loop, its tail and head are both node {l.tail}")
            if not 0.0 < l.length_km < math.inf:
                raise ValueError(f"link {l.id}: nonpositive or non-finite length {l.length_km}")
            if not 0.0 < l.capacity_tpd < math.inf:
                raise ValueError(f"link {l.id}: nonpositive or non-finite capacity {l.capacity_tpd}")
            if not abs(l.grade) < 0.1:
                raise ValueError(f"link {l.id}: grade {l.grade} out of range")
            for name in ("k_f", "k_a"):
                v = getattr(l, name)
                if v is not None and not 0.0 <= v < math.inf:
                    raise ValueError(f"link {l.id}: {name} {v} must be finite and non-negative")
            if l.desired_speed is not None and not 0.0 < l.desired_speed < math.inf:
                raise ValueError(
                    f"link {l.id}: desired_speed {l.desired_speed} must be finite and positive"
                )
            link_map[l.id] = l

        for l in link_map.values():
            if l.alpha is None:
                compute_alpha(l, node_map[l.tail], node_map[l.head])
        finite = [l.alpha for l in link_map.values() if math.isfinite(l.alpha)]
        fallback = max(finite) if finite else 1.0
        for l in link_map.values():
            if not math.isfinite(l.alpha):
                l.alpha = fallback

        if finite:
            a_lo, a_hi = min(finite), max(finite)
        else:
            a_lo = a_hi = 1.0
        for l in link_map.values():
            if l.curve_radius_m is None:
                l.curve_radius_m = curve_radius_from_alpha(l.alpha, a_lo, a_hi)
            if not l.curve_radius_m > 0.0:  # NaN fails too
                raise ValueError(f"link {l.id}: curve radius {l.curve_radius_m} m must be positive")

        twins: dict[tuple[int, int], list[int]] = {}
        for l in link_map.values():
            twins.setdefault((l.tail, l.head), []).append(l.id)
        for ids in twins.values():
            ids.sort()
        return cls(nodes=node_map, links=link_map, _twins=twins)

    def yards(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.is_yard)

    def alpha_range(self) -> tuple[float, float]:
        alphas = [l.alpha for l in self.links.values()]
        return (min(alphas), max(alphas))

    def twins_of(self, link_id: int) -> list[int]:
        """Links running the opposite way between the same two nodes."""
        l = self.links[link_id]
        return [i for i in self._twins.get((l.head, l.tail), []) if i != link_id]

    def with_reverse_twins(self, link_ids: Iterable[int]) -> set[int]:
        """Close a link set under direction reversal (same physical track)."""
        out: set[int] = set()
        for lid in link_ids:
            out.add(lid)
            out.update(self.twins_of(lid))
        return out

    def total_length_km(self, link_ids: Iterable[int] | None = None) -> float:
        ids = self.links.keys() if link_ids is None else link_ids
        return sum((self.links[i].length_km for i in ids), 0.0)


class ExpandedNetwork:
    """Expanded graph: dense node indices, one array per arc attribute, adjacency lists.

    Node indexing: physical ids sorted, node k gets diesel index 2k and
    electric index 2k+1.  Arc ids: the traction pair of link j (in sorted
    link-id order) is (2j, 2j+1), diesel first; the switch arcs follow in
    sorted yard order, diesel to electric first.  Per arc: `kind`, `tail`
    and `head` (expanded nodes), `link` (physical link id, -1 for a switch
    arc), `partner` (the pair's other arc; a switch arc is its own),
    `fixed_cost` ($/ton, switch arcs only), `arc_length_km` and `non_electric`.
    """

    def __init__(self, net: RailNetwork, switch_cost_per_ton: float | Mapping[int, float]):
        self.net = net
        self.node_ids = sorted(net.nodes)
        self.node_index = {nid: k for k, nid in enumerate(self.node_ids)}
        self.link_ids = sorted(net.links)
        yards = net.yards()
        costs = []
        for nid in yards:
            w = switch_cost_per_ton[nid] if isinstance(switch_cost_per_ton, Mapping) else switch_cost_per_ton
            if w < 0.0:
                raise ValueError(f"yard {nid}: negative switch cost")
            costs.append(float(w))

        links = [net.links[lid] for lid in self.link_ids]
        n_pair = 2 * len(links)
        self.n_nodes = 2 * len(self.node_ids)
        self.n_arcs = n_pair + 2 * len(yards)
        ids = np.arange(self.n_arcs)
        side = ids % 2  # 1 on a pair's electric arc and on a yard's electric-to-diesel arc
        ends = np.array(
            [(self.node_index[l.tail], self.node_index[l.head]) for l in links]
            + [(self.node_index[nid],) * 2 for nid in yards],
            dtype=np.int64,
        ).reshape(-1, 2).repeat(2, axis=0)
        self.tail = 2 * ends[:, 0] + side
        self.head = 2 * ends[:, 1] + np.where(ids < n_pair, side, 1 - side)
        kinds = np.array([ArcKind.DIESEL, ArcKind.ELECTRIC, ArcKind.SWITCH], dtype=object)
        self.kind = kinds[np.where(ids < n_pair, side, 2)]
        self.non_electric = self.kind != ArcKind.ELECTRIC
        self.link = np.array(self.link_ids + [-1] * len(yards), dtype=np.int64).repeat(2)
        self.partner = np.where(ids < n_pair, ids ^ 1, ids)
        self.fixed_cost = np.array([0.0] * len(links) + costs).repeat(2)
        self.arc_length_km = np.array([l.length_km for l in links] + [0.0] * len(yards)).repeat(2)
        self.pair_of = {lid: (2 * j, 2 * j + 1) for j, lid in enumerate(self.link_ids)}
        self.switch_arcs_at = {nid: (n_pair + 2 * k, n_pair + 2 * k + 1) for k, nid in enumerate(yards)}
        self.out_arcs: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for a, u in enumerate(self.tail.tolist()):
            self.out_arcs[u].append(a)

    def diesel_node(self, phys_id: int) -> int:
        return 2 * self.node_index[phys_id]

    def node_label(self, idx: int) -> str:
        side = "D" if idx % 2 == 0 else "E"
        return f"{self.node_ids[idx // 2]}:{side}"

    def aggregate_flows(self, x: np.ndarray) -> dict[int, tuple[float, float]]:
        """Per physical link: (diesel flow, electric flow) in tons/day."""
        n = 2 * len(self.link_ids)
        return dict(zip(self.link_ids, zip(x[0:n:2].tolist(), x[1:n:2].tolist())))


def expand(net: RailNetwork, switch_cost_per_ton: float | Mapping[int, float]) -> ExpandedNetwork:
    """Build the two-sided expansion.  switch_cost_per_ton is $/ton, either a
    scalar default or a per-yard mapping keyed by node id."""
    return ExpandedNetwork(net, switch_cost_per_ton)


def apply_design(expanded: ExpandedNetwork, electrified_links: Iterable[int]) -> np.ndarray:
    """Usability mask for an electrification decision.

    Diesel and switch arcs are always usable; an electric traction arc only
    when its physical link is electrified.  Unknown link ids are rejected.
    """
    chosen = set(electrified_links)
    unknown = [lid for lid in chosen if lid not in expanded.pair_of]
    if unknown:
        raise ValueError(f"electrified set references unknown links {sorted(unknown)}")
    usable = expanded.non_electric.copy()
    usable[[expanded.pair_of[lid][1] for lid in chosen]] = True
    return usable
