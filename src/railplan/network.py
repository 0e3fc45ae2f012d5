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
MIN_CURVE_RADIUS_M = 15.24  # arcsin argument bound of the curve formula
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


def curve_radius_from_alpha(
    alpha: float,
    alpha_min: float,
    alpha_max: float,
    r_min: float = DEFAULT_MIN_RADIUS_M,
    r_max: float = DEFAULT_MAX_RADIUS_M,
) -> float:
    """Map terrain difficulty onto a curve radius: hardest terrain, tightest."""
    span = alpha_max - alpha_min
    # spans at float-noise scale are geometry noise, not terrain signal
    degenerate = span <= 1e-9 * max(1.0, abs(alpha_max))
    lam = 0.0 if degenerate else (alpha - alpha_min) / span
    lam = min(max(lam, 0.0), 1.0)
    return r_max - lam * (r_max - r_min)


@dataclass
class RailNetwork:
    nodes: dict[int, Node]
    links: dict[int, PhysicalLink]
    _twins: dict[tuple[int, int], list[int]] = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, nodes: Iterable[Node], links: Iterable[PhysicalLink]) -> "RailNetwork":
        """Validate, fill alphas and missing curve radii, index twins."""
        node_map: dict[int, Node] = {}
        for n in nodes:
            if n.id in node_map:
                raise ValueError(f"duplicate node id {n.id}")
            if n.is_yard:
                if n.switching_cost is not None and n.switching_cost < 0:
                    raise ValueError(f"node {n.id}: negative switching cost")
            elif n.switching_cost is not None:
                raise ValueError(f"node {n.id}: switching cost on a non-yard")
            node_map[n.id] = n

        link_map: dict[int, PhysicalLink] = {}
        for l in links:
            if l.id in link_map:
                raise ValueError(f"duplicate link id {l.id}")
            if l.tail not in node_map or l.head not in node_map:
                raise ValueError(f"link {l.id}: dangling endpoint reference")
            # written so that NaN fails every test
            if not 0.0 < l.length_km < math.inf:
                raise ValueError(f"link {l.id}: nonpositive or non-finite length {l.length_km}")
            if not 0.0 < l.capacity_tpd < math.inf:
                raise ValueError(f"link {l.id}: nonpositive or non-finite capacity {l.capacity_tpd}")
            if not abs(l.grade) < 0.1:
                raise ValueError(f"link {l.id}: grade {l.grade} out of range")
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
            if not l.curve_radius_m > MIN_CURVE_RADIUS_M:  # NaN fails too
                raise ValueError(
                    f"link {l.id}: curve radius {l.curve_radius_m} m must exceed "
                    f"{MIN_CURVE_RADIUS_M} m"
                )

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
        return sum(self.links[i].length_km for i in ids)


@dataclass(frozen=True)
class ExpandedArc:
    id: int
    kind: ArcKind
    tail: int  # expanded node index
    head: int
    physical_link: int | None = None
    partner: int | None = None  # the other traction arc of the pair
    fixed_cost: float = 0.0  # $/ton, switch arcs only


class ExpandedNetwork:
    """Expanded graph: dense node indices, arc arrays, adjacency lists.

    Node indexing: physical ids sorted, node k gets diesel index 2k and
    electric index 2k+1.  Arc ids: the traction pair of link j (in sorted
    link-id order) is (2j, 2j+1), switch arcs follow in sorted yard order.
    """

    def __init__(self, net: RailNetwork, switch_cost_per_ton: float | Mapping[int, float]):
        self.net = net
        self.node_ids = sorted(net.nodes)
        self.node_index = {nid: k for k, nid in enumerate(self.node_ids)}
        self.link_ids = sorted(net.links)

        def cost_at(nid: int) -> float:
            if isinstance(switch_cost_per_ton, Mapping):
                return float(switch_cost_per_ton[nid])
            return float(switch_cost_per_ton)

        arcs: list[ExpandedArc] = []
        self.pair_of: dict[int, tuple[int, int]] = {}
        for j, lid in enumerate(self.link_ids):
            link = net.links[lid]
            t = self.node_index[link.tail]
            h = self.node_index[link.head]
            d_id, e_id = 2 * j, 2 * j + 1
            arcs.append(ExpandedArc(d_id, ArcKind.DIESEL, 2 * t, 2 * h, lid, e_id))
            arcs.append(ExpandedArc(e_id, ArcKind.ELECTRIC, 2 * t + 1, 2 * h + 1, lid, d_id))
            self.pair_of[lid] = (d_id, e_id)

        self.switch_arcs_at: dict[int, tuple[int, int]] = {}
        for nid in net.yards():
            k = self.node_index[nid]
            w = cost_at(nid)
            if w < 0.0:
                raise ValueError(f"yard {nid}: negative switch cost")
            a = len(arcs)
            arcs.append(ExpandedArc(a, ArcKind.SWITCH, 2 * k, 2 * k + 1, None, None, w))
            arcs.append(ExpandedArc(a + 1, ArcKind.SWITCH, 2 * k + 1, 2 * k, None, None, w))
            self.switch_arcs_at[nid] = (a, a + 1)

        self.arcs = arcs
        self.n_nodes = 2 * len(self.node_ids)
        self.n_arcs = len(arcs)
        self.tail = np.array([a.tail for a in arcs], dtype=np.int64)
        self.head = np.array([a.head for a in arcs], dtype=np.int64)
        self.arc_length_km = np.array(
            [net.links[a.physical_link].length_km if a.physical_link is not None else 0.0 for a in arcs]
        )
        self.out_arcs: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for a in arcs:
            self.out_arcs[a.tail].append(a.id)

    def diesel_node(self, phys_id: int) -> int:
        return 2 * self.node_index[phys_id]

    def electric_node(self, phys_id: int) -> int:
        return 2 * self.node_index[phys_id] + 1

    def node_label(self, idx: int) -> str:
        side = "D" if idx % 2 == 0 else "E"
        return f"{self.node_ids[idx // 2]}:{side}"

    def aggregate_flows(self, x: np.ndarray) -> dict[int, tuple[float, float]]:
        """Per physical link: (diesel flow, electric flow) in tons/day."""
        return {
            lid: (float(x[d]), float(x[e]))
            for lid, (d, e) in self.pair_of.items()
        }


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
    unknown = chosen - set(expanded.net.links)
    if unknown:
        raise ValueError(f"electrified set references unknown links {sorted(unknown)}")
    mask = np.ones(expanded.n_arcs, dtype=bool)
    for lid, (_, e_arc) in expanded.pair_of.items():
        if lid not in chosen:
            mask[e_arc] = False
    return mask
