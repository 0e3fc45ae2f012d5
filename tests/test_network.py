"""Geometry, validation, and the diesel/electric two-sided expansion."""

import math

import numpy as np
import pytest

from railplan.network import (
    ArcKind,
    Node,
    PhysicalLink,
    RailNetwork,
    apply_design,
    compute_alpha,
    curve_radius_from_alpha,
    expand,
    haversine_km,
)

from synth import grid3x3_network, line_network, random_network


def simple_link(lid=0, tail=0, head=1, **kw):
    kw.setdefault("length_km", 100.0)
    kw.setdefault("curve_radius_m", 20000.0)
    kw.setdefault("capacity_tpd", 5.0e4)
    return PhysicalLink(id=lid, tail=tail, head=head, **kw)


# --- geometry ---------------------------------------------------------------------


def test_haversine_against_law_of_cosines():
    pts = [(40.0, -100.0, 41.0, -99.0), (35.5, -120.0, 36.0, -118.5),
           (45.0, -90.0, 44.0, -93.0)]
    for lat1, lon1, lat2, lon2 in pts:
        p1, p2 = math.radians(lat1), math.radians(lat2)
        dl = math.radians(lon2 - lon1)
        oracle = 6371.0 * math.acos(
            math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
        )
        assert haversine_km(lat1, lon1, lat2, lon2) == pytest.approx(oracle, rel=1e-9)


def test_haversine_equator_degree():
    assert haversine_km(0.0, 0.0, 0.0, 1.0) == pytest.approx(
        6371.0 * math.radians(1.0), rel=1e-12
    )
    assert haversine_km(40.0, -100.0, 40.0, -100.0) == 0.0


def test_compute_alpha_ratio_and_floor():
    a = Node(0, 40.0, -100.0)
    b = Node(1, 40.0, -99.0)
    straight = haversine_km(a.lat, a.lon, b.lat, b.lon)

    link = simple_link(length_km=1.3 * straight)
    assert compute_alpha(link, a, b) == pytest.approx(1.3, rel=1e-12)
    assert link.straight_line_km == pytest.approx(straight, rel=1e-12)

    short = simple_link(length_km=0.5 * straight)
    assert compute_alpha(short, a, b) == 1.0


def test_coincident_endpoints_fall_back_to_network_max():
    nodes = [Node(0, 40.0, -100.0), Node(1, 40.0, -99.0), Node(2, 40.0, -100.0)]
    straight = haversine_km(40.0, -100.0, 40.0, -99.0)
    links = [
        simple_link(0, 0, 1, length_km=1.4 * straight),
        simple_link(1, 0, 2, length_km=5.0),  # zero great-circle baseline
    ]
    with pytest.warns(UserWarning, match="coincident"):
        net = RailNetwork.build(nodes, links)
    assert net.links[1].alpha == pytest.approx(1.4, rel=1e-12)


def test_curve_radius_from_alpha_interpolation():
    assert curve_radius_from_alpha(1.0, 1.0, 1.5) == 1.0e5
    assert curve_radius_from_alpha(1.5, 1.0, 1.5) == 300.0
    assert curve_radius_from_alpha(1.25, 1.0, 1.5) == pytest.approx(50150.0, rel=1e-12)
    # degenerate span: everything counts as easy
    assert curve_radius_from_alpha(2.0, 1.3, 1.3) == 1.0e5


def test_build_fills_missing_radii_from_alpha():
    nodes = [Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)]
    straight = haversine_km(40.0, -100.0, 40.0, -99.0)
    links = [
        simple_link(0, 0, 1, length_km=1.0 * straight, curve_radius_m=None),
        simple_link(1, 0, 1, length_km=1.25 * straight, curve_radius_m=None),
        simple_link(2, 0, 1, length_km=1.5 * straight, curve_radius_m=None),
    ]
    net = RailNetwork.build(nodes, links)
    assert net.links[0].curve_radius_m == pytest.approx(1.0e5, rel=1e-12)
    assert net.links[1].curve_radius_m == pytest.approx(50150.0, rel=1e-12)
    assert net.links[2].curve_radius_m == pytest.approx(300.0, rel=1e-12)


# --- validation --------------------------------------------------------------------


def test_build_rejects_bad_inputs():
    a, b = Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)
    with pytest.raises(ValueError, match="duplicate node"):
        RailNetwork.build([a, Node(0, 41.0, -100.0)], [])
    with pytest.raises(ValueError, match="duplicate link"):
        RailNetwork.build([a, b], [simple_link(0), simple_link(0)])
    with pytest.raises(ValueError, match="dangling"):
        RailNetwork.build([a, b], [simple_link(0, 0, 9)])
    with pytest.raises(ValueError, match="length"):
        RailNetwork.build([a, b], [simple_link(0, length_km=0.0)])
    with pytest.raises(ValueError, match="capacity"):
        RailNetwork.build([a, b], [simple_link(0, capacity_tpd=-1.0)])
    with pytest.raises(ValueError, match="grade"):
        RailNetwork.build([a, b], [simple_link(0, grade=0.12)])
    with pytest.raises(ValueError, match="radius"):
        RailNetwork.build([a, b], [simple_link(0, curve_radius_m=10.0)])
    with pytest.raises(ValueError, match="non-yard"):
        RailNetwork.build([Node(0, 40.0, -100.0, switching_cost=100.0), b], [])
    with pytest.raises(ValueError, match="negative switching"):
        RailNetwork.build(
            [Node(0, 40.0, -100.0, is_yard=True, switching_cost=-5.0), b], []
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("length_km", math.nan, "length"),
        ("length_km", math.inf, "length"),
        ("capacity_tpd", math.nan, "capacity"),
        ("capacity_tpd", math.inf, "capacity"),
        ("grade", math.nan, "grade"),
        ("curve_radius_m", math.nan, "radius"),
    ],
)
def test_build_rejects_non_finite_link_inputs(field, value, message):
    nodes = [Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)]
    with pytest.raises(ValueError, match=message):
        RailNetwork.build(nodes, [simple_link(0, **{field: value})])


def test_twins_and_reverse_closure(line_net):
    # line pair k: forward 2k, reverse 2k+1
    assert line_net.twins_of(0) == [1]
    assert line_net.twins_of(1) == [0]
    assert line_net.with_reverse_twins([0, 4]) == {0, 1, 4, 5}
    assert line_net.total_length_km([0, 1]) == pytest.approx(100.0, rel=1e-12)


def test_yards_sorted(grid3x3):
    assert grid3x3.yards() == [0, 2, 7]


# --- expansion ---------------------------------------------------------------------


def test_expansion_shape_and_ids(line_net):
    ex = expand(line_net, 0.5)
    n_links = len(line_net.links)
    n_yards = len(line_net.yards())
    assert ex.n_nodes == 2 * len(line_net.nodes)
    assert ex.n_arcs == 2 * n_links + 2 * n_yards

    for j, lid in enumerate(sorted(line_net.links)):
        d, e = ex.pair_of[lid]
        assert (d, e) == (2 * j, 2 * j + 1)
        assert ex.arcs[d].kind is ArcKind.DIESEL
        assert ex.arcs[e].kind is ArcKind.ELECTRIC
        assert ex.arcs[d].partner == e and ex.arcs[e].partner == d
        assert ex.arcs[d].physical_link == lid == ex.arcs[e].physical_link
        # diesel arcs connect even (D) indices, electric arcs odd (E) indices
        assert ex.arcs[d].tail % 2 == 0 and ex.arcs[d].head % 2 == 0
        assert ex.arcs[e].tail % 2 == 1 and ex.arcs[e].head % 2 == 1

    offset = 2 * n_links
    for yard in line_net.yards():
        d2e, e2d = ex.switch_arcs_at[yard]
        assert (d2e, e2d) == (offset, offset + 1)
        offset += 2
        assert ex.arcs[d2e].kind is ArcKind.SWITCH
        assert ex.arcs[d2e].tail == ex.diesel_node(yard)
        assert ex.arcs[d2e].head == ex.electric_node(yard)
        assert ex.arcs[e2d].tail == ex.electric_node(yard)
        assert ex.arcs[e2d].head == ex.diesel_node(yard)
        assert ex.arcs[d2e].fixed_cost == 0.5 == ex.arcs[e2d].fixed_cost


def test_expansion_per_yard_switch_costs(grid3x3):
    costs = {0: 0.25, 2: 0.75, 7: 1.25}
    ex = expand(grid3x3, costs)
    for yard, (d2e, e2d) in ex.switch_arcs_at.items():
        assert ex.arcs[d2e].fixed_cost == costs[yard]
        assert ex.arcs[e2d].fixed_cost == costs[yard]
    with pytest.raises(ValueError, match="negative"):
        expand(grid3x3, -1.0)


def test_expansion_counts_random_networks():
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = random_network(rng, n_nodes=int(rng.integers(4, 10)),
                             extra_links=int(rng.integers(0, 8)),
                             yard_count=int(rng.integers(0, 4)))
        ex = expand(net, 0.5)
        assert ex.n_arcs == 2 * len(net.links) + 2 * len(net.yards())
        assert ex.n_nodes == 2 * len(net.nodes)
        # adjacency round trip
        for arc in ex.arcs:
            assert arc.id in ex.out_arcs[arc.tail]


def test_node_labels(line_net):
    ex = expand(line_net, 0.5)
    assert ex.node_label(ex.diesel_node(3)) == "3:D"
    assert ex.node_label(ex.electric_node(3)) == "3:E"


def test_aggregate_flows_round_trip(line_net):
    ex = expand(line_net, 0.5)
    x = np.arange(ex.n_arcs, dtype=float)
    flows = ex.aggregate_flows(x)
    assert set(flows) == set(line_net.links)
    for lid, (d, e) in ex.pair_of.items():
        assert flows[lid] == (float(x[d]), float(x[e]))


# --- design masking -----------------------------------------------------------------


def test_apply_design_masks_electric_only(line_net):
    ex = expand(line_net, 0.5)
    nothing = apply_design(ex, set())
    for arc in ex.arcs:
        expected = arc.kind is not ArcKind.ELECTRIC
        assert nothing[arc.id] == expected

    some = apply_design(ex, {0, 1})
    d, e = ex.pair_of[0]
    assert some[e]
    d2, e2 = ex.pair_of[4]
    assert not some[e2]

    everything = apply_design(ex, set(line_net.links))
    assert everything.all()


def test_apply_design_monotone(line_net):
    ex = expand(line_net, 0.5)
    small = apply_design(ex, {0, 1})
    big = apply_design(ex, {0, 1, 2, 3})
    assert np.all(small <= big)


def test_apply_design_rejects_unknown(line_net):
    ex = expand(line_net, 0.5)
    with pytest.raises(ValueError, match="unknown links"):
        apply_design(ex, {99})
