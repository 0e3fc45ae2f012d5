"""Geometry, validation, and the diesel/electric two-sided expansion."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from railplan.design import electric_tonnage_share
from railplan.equilibrium import FlowState
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

from railplan.scenario_io import write_arcs, write_flows

from oracles import (
    oracle_aggregate_flows,
    oracle_apply_design,
    oracle_arc_rows,
    oracle_arcs,
    oracle_electric_tonnage_share,
    oracle_flow_rows,
)
from synth import random_network


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
    with pytest.raises(ValueError, match="link 3: a self-loop"):
        RailNetwork.build([a, b], [simple_link(0), simple_link(3, 1, 1)])
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
        assert ex.kind[d] is ArcKind.DIESEL
        assert ex.kind[e] is ArcKind.ELECTRIC
        assert ex.partner[d] == e and ex.partner[e] == d
        assert ex.link[d] == lid == ex.link[e]
        # diesel arcs connect even (D) indices, electric arcs odd (E) indices
        assert ex.tail[d] % 2 == 0 and ex.head[d] % 2 == 0
        assert ex.tail[e] % 2 == 1 and ex.head[e] % 2 == 1

    offset = 2 * n_links
    for yard in line_net.yards():
        d2e, e2d = ex.switch_arcs_at[yard]
        assert (d2e, e2d) == (offset, offset + 1)
        offset += 2
        assert ex.kind[d2e] is ArcKind.SWITCH is ex.kind[e2d]
        assert ex.tail[d2e] == ex.diesel_node(yard)
        assert ex.head[d2e] == ex.electric_node(yard)
        assert ex.tail[e2d] == ex.electric_node(yard)
        assert ex.head[e2d] == ex.diesel_node(yard)
        assert ex.fixed_cost[d2e] == 0.5 == ex.fixed_cost[e2d]
        assert ex.link[d2e] == -1 == ex.link[e2d]
        assert ex.partner[d2e] == d2e and ex.partner[e2d] == e2d


def test_expansion_per_yard_switch_costs(grid3x3):
    costs = {0: 0.25, 2: 0.75, 7: 1.25}
    ex = expand(grid3x3, costs)
    for yard, (d2e, e2d) in ex.switch_arcs_at.items():
        assert ex.fixed_cost[d2e] == costs[yard]
        assert ex.fixed_cost[e2d] == costs[yard]
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
        for a, tail in enumerate(ex.tail):
            assert a in ex.out_arcs[tail]


def relabeled(net, rng):
    """The network under random node and link ids, some negative, so that
    sorted id order differs from the order the links were drawn in."""
    node_id = rng.choice(np.arange(-500, 500), size=len(net.nodes), replace=False).tolist()
    link_id = rng.choice(np.arange(-500, 500), size=len(net.links), replace=False).tolist()
    nodes = [replace(n, id=node_id[n.id]) for n in net.nodes.values()]
    links = [replace(l, id=link_id[l.id], tail=node_id[l.tail], head=node_id[l.head]) for l in net.links.values()]
    return RailNetwork.build(nodes, links)


def csv_cells(row):
    """A row as the CSV writers write it: None empty, a float by repr."""
    return ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_arc_table_matches_the_per_arc_reference(seed, tmp_path_factory):
    """Every arc array, the id lookups, the adjacency, the design mask, the
    per-link flows, the electric share and the rows of arcs.csv and
    flows.csv agree with the table built one arc object at a time."""
    rng = np.random.default_rng(seed)
    drawn = random_network(rng, n_nodes=int(rng.integers(2, 12)), extra_links=int(rng.integers(0, 10)),
                           yard_count=int(rng.integers(0, 6)))
    net = relabeled(drawn, rng)
    costs = {y: float(rng.uniform(0.0, 2.0)) for y in net.yards()}
    ex = expand(net, costs)
    arcs = oracle_arcs(net, costs)

    assert ex.n_arcs == len(arcs)
    for name in ("kind", "tail", "head", "fixed_cost"):
        assert getattr(ex, name).tolist() == [getattr(a, name) for a in arcs], name
    assert ex.link.tolist() == [-1 if a.physical_link is None else a.physical_link for a in arcs]
    assert ex.partner.tolist() == [a.id if a.partner is None else a.partner for a in arcs]
    assert ex.arc_length_km.tolist() == [
        0.0 if a.physical_link is None else net.links[a.physical_link].length_km for a in arcs
    ]
    assert ex.pair_of == {a.physical_link: (a.id, a.partner) for a in arcs if a.kind is ArcKind.DIESEL}
    node_ids = sorted(net.nodes)
    assert ex.switch_arcs_at == {
        node_ids[a.tail // 2]: (a.id, a.id + 1) for a in arcs if a.kind is ArcKind.SWITCH and a.tail % 2 == 0
    }
    assert ex.out_arcs == [[a.id for a in arcs if a.tail == u] for u in range(ex.n_nodes)]

    electrified = [lid for lid in net.links if rng.random() < 0.5]
    mask = apply_design(ex, electrified)
    assert mask.dtype == bool and np.array_equal(mask, oracle_apply_design(arcs, electrified))

    x = rng.uniform(0.0, 5.0e4, size=ex.n_arcs)
    x[rng.random(ex.n_arcs) < 0.3] = 0.0
    cost = rng.uniform(0.0, 1.0, size=ex.n_arcs)
    assert list(ex.aggregate_flows(x).items()) == list(oracle_aggregate_flows(arcs, x).items())
    state = FlowState(x, cost)
    assert electric_tonnage_share(ex, state) == oracle_electric_tonnage_share(net, arcs, x)

    out = tmp_path_factory.mktemp("tables")
    write_arcs(out / "arcs.csv", ex)
    write_flows(out / "flows.csv", ex, state)

    def label(idx):
        return f"{node_ids[idx // 2]}:{'DE'[idx % 2]}"

    rows = read_rows(out / "arcs.csv")
    assert rows[0] == ["arc_id", "kind", "tail", "head", "physical_link", "fixed_cost"]
    assert rows[1:] == [csv_cells(r) for r in oracle_arc_rows(arcs, label)]
    assert all(r[4] == "" for r in rows[1:] if r[1] == "switch")
    rows = read_rows(out / "flows.csv")
    assert rows[0] == ["arc_id", "kind", "physical_link", "flow_tpd", "cost_per_ton"]
    assert rows[1:] == [csv_cells(r) for r in oracle_flow_rows(arcs, x, cost)]
    assert all(r[2] == "" for r in rows[1:] if r[1] == "switch")


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
    for a, kind in enumerate(ex.kind):
        assert nothing[a] == (kind is not ArcKind.ELECTRIC)

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
