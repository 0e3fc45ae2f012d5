"""Yard-to-yard corridor enumeration."""

import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from railplan.corridors import candidate_corridors, corridor_cost
from railplan.costmodel import (
    ElectrificationRates,
    RateTable,
    TrainConsist,
    build_profiles,
    electrification_costs,
)
from railplan.network import Node, PhysicalLink, RailNetwork

from oracles import oracle_corridors
from synth import grid3x3_network, random_network


def unit_weights(net):
    return {lid: 1.0 for lid in net.links}


def capital(net):
    return electrification_costs(net, ElectrificationRates())


def test_line_adjacent_yards_only(line_net):
    # yards 0, 2, 4 on a five-node chain; the 0-4 geodesic runs through
    # yard 2, so only the two adjacent corridors survive
    corridors = candidate_corridors(line_net, unit_weights(line_net), capital(line_net))
    assert [(c.yard_a, c.yard_b, c.link_ids) for c in corridors] == [
        (0, 2, (0, 2)),
        (2, 4, (4, 6)),
    ]
    assert [c.id for c in corridors] == [0, 1]
    for c in corridors:
        assert c.length_km == pytest.approx(100.0, rel=1e-12)


def test_grid_hand_enumeration(grid3x3):
    # yards 0, 2, 7; scan-order links: edge k <-> links (2k, 2k+1)
    #   0-2 runs 0->1->2                 links (0, 4)
    #   0-7 runs 0->1->4->7              links (0, 6, 16)
    #   2-7 runs 2->1->4->7              links (5, 6, 16)
    # 2-6 style pairs through yard 0 would be pruned, and reverse-direction
    # duplicates collapse onto the lexicographically smallest sequence
    corridors = candidate_corridors(grid3x3, unit_weights(grid3x3), capital(grid3x3))
    assert [(c.yard_a, c.yard_b, c.link_ids) for c in corridors] == [
        (0, 2, (0, 4)),
        (0, 7, (0, 6, 16)),
        (2, 7, (5, 6, 16)),
    ]
    assert [c.length_km for c in corridors] == pytest.approx([20.0, 30.0, 30.0])


def test_grid_alternate_yards(grid3x3):
    # corner yards 0, 2, 6: both 2-6 geodesics of interest pass through
    # yard 0 or tie against it; the survivors are the two clean pairs
    net = grid3x3_network(yards=(0, 2, 6))
    corridors = candidate_corridors(net, unit_weights(net), capital(net))
    assert [(c.yard_a, c.yard_b, c.link_ids) for c in corridors] == [
        (0, 2, (0, 4)),
        (0, 6, (2, 12)),
    ]


def test_corridor_costs_sum_links(grid3x3):
    costs = capital(grid3x3)
    corridors = candidate_corridors(grid3x3, unit_weights(grid3x3), costs)
    for c in corridors:
        assert c.cost_usd == pytest.approx(
            sum(costs[l] for l in c.link_ids), rel=1e-12
        )
    assert corridor_cost((), costs) == 0.0


def test_non_candidate_links_break_corridors(line_net):
    nodes = list(line_net.nodes.values())
    links = []
    for l in line_net.links.values():
        links.append(
            PhysicalLink(
                id=l.id, tail=l.tail, head=l.head, length_km=l.length_km,
                curve_radius_m=l.curve_radius_m, capacity_tpd=l.capacity_tpd,
                candidate=l.id not in (2, 3),
            )
        )
    net = RailNetwork.build(nodes, links)
    with pytest.warns(UserWarning, match="yard 0"):
        corridors = candidate_corridors(net, unit_weights(net), capital(net))
    assert [(c.yard_a, c.yard_b, c.link_ids) for c in corridors] == [(2, 4, (4, 6))]


def test_isolated_yard_warns():
    nodes = [
        Node(0, 40.0, -100.0, is_yard=True),
        Node(1, 40.0, -99.0, is_yard=True),
        Node(2, 40.0, -98.0, is_yard=True),  # no links at all
    ]
    links = [
        PhysicalLink(0, 0, 1, length_km=90.0, curve_radius_m=20000.0, capacity_tpd=5e4),
        PhysicalLink(1, 1, 0, length_km=90.0, curve_radius_m=20000.0, capacity_tpd=5e4),
    ]
    net = RailNetwork.build(nodes, links)
    with pytest.warns(UserWarning, match="yard 2"):
        corridors = candidate_corridors(net, unit_weights(net), capital(net))
    assert [(c.yard_a, c.yard_b) for c in corridors] == [(0, 1)]


def test_yard_reached_only_one_way_is_not_flagged():
    # the one-way chain 0 -> 1 -> 2: yard 2 reaches no yard, but corridor
    # (0, 2) ends at it, so no yard is flagged
    nodes = [
        Node(0, 40.0, -100.0, is_yard=True),
        Node(1, 40.0, -99.0),
        Node(2, 40.0, -98.0, is_yard=True),
    ]
    links = [
        PhysicalLink(0, 0, 1, length_km=90.0, curve_radius_m=20000.0, capacity_tpd=5e4),
        PhysicalLink(1, 1, 2, length_km=90.0, curve_radius_m=20000.0, capacity_tpd=5e4),
    ]
    net = RailNetwork.build(nodes, links)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corridors = candidate_corridors(net, unit_weights(net), capital(net))
    assert [(c.yard_a, c.yard_b, c.link_ids) for c in corridors] == [(0, 2, (0, 1))]


def test_nonpositive_weight_rejected(line_net):
    weights = unit_weights(line_net)
    weights[3] = 0.0
    with pytest.raises(ValueError, match="weight"):
        candidate_corridors(line_net, weights, capital(line_net))


def test_corridor_lengths_match_networkx_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        net = random_network(rng, n_nodes=9, extra_links=8, yard_count=4)
        weights = {lid: l.length_km for lid, l in net.links.items()}
        corridors = candidate_corridors(net, weights, capital(net))
        g = nx.DiGraph()
        for lid, l in net.links.items():
            if not l.candidate:
                continue
            w = weights[lid]
            if not g.has_edge(l.tail, l.head) or g[l.tail][l.head]["w"] > w:
                g.add_edge(l.tail, l.head, w=w)
        for c in corridors:
            dist = nx.shortest_path_length(g, c.yard_a, c.yard_b, weight="w")
            assert sum(weights[l] for l in c.link_ids) == pytest.approx(dist, rel=1e-12)
            # interior nodes are never yards
            interior = [net.links[l].tail for l in c.link_ids[1:]]
            assert not any(net.nodes[n].is_yard for n in interior)


def test_enumeration_deterministic(grid3x3):
    w = unit_weights(grid3x3)
    costs = capital(grid3x3)
    first = candidate_corridors(grid3x3, w, costs)
    second = candidate_corridors(grid3x3, w, costs)
    assert first == second


def _weights(kind, net, rng):
    """Routing weights per link: unit and small integers tie often, tenths
    sum inexactly, and `assemble` routes by length or free-flow cost."""
    ids = sorted(net.links)
    if kind == "unit":
        return unit_weights(net)
    if kind == "integer":
        return {lid: float(k) for lid, k in zip(ids, rng.integers(1, 4, len(ids)))}
    if kind == "tenths":
        return {lid: 0.1 * float(k) for lid, k in zip(ids, rng.integers(1, 10, len(ids)))}
    if kind == "length":
        return {lid: l.length_km for lid, l in net.links.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # impassable sides
        profiles = build_profiles(net, TrainConsist(), RateTable())
    return dict(zip(profiles.link_ids, (profiles.congestion_coef + profiles.diesel_fuel_per_ton).tolist()))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["unit", "integer", "tenths", "length", "free_flow"]),
)
def test_one_search_per_yard_matches_the_two_search_oracle(seed, kind):
    rng = np.random.default_rng(seed)
    yards = int(rng.integers(2, 9))
    net = random_network(
        rng,
        n_nodes=int(rng.integers(yards, 15)),
        extra_links=int(rng.integers(0, 16)),
        yard_count=yards,
    )
    weights, costs = _weights(kind, net, rng), capital(net)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = candidate_corridors(net, weights, costs)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = oracle_corridors(net, weights, costs)
    assert got == want
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
