"""Train physics, the link cost table, switching, and electrification capital."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from railplan.costmodel import (
    ElectrificationRates,
    RateTable,
    TrainConsist,
    _brake,
    _davis,
    _gather,
    _power_speed,
    air_resistance,
    bearing_resistance,
    build_profiles,
    build_throttles,
    congestion_derivative,
    congestion_integral,
    congestion_time,
    curve_resistance,
    electrification_cost,
    electrification_costs,
    flange_resistance,
    grade_resistance,
    switch_cost_per_train,
    switching_cost_per_ton,
    yard_switch_costs,
)
from railplan.network import ArcKind, Node, PhysicalLink, RailNetwork, SignalClass

from oracles import (
    Impassable,
    oracle_brake,
    oracle_impassable_warnings,
    oracle_link_profile,
    oracle_power_speed,
)
from synth import line_network

G = 9.80665


def flat_link(length_km=100.0, grade=0.0, radius=20000.0, **kw):
    return PhysicalLink(
        id=0, tail=0, head=1, length_km=length_km, grade=grade,
        curve_radius_m=radius, capacity_tpd=5.0e4, **kw,
    )


def power_speed(links, consist, rates, levels):
    """The array pass over `links` at the notch powers `levels`: each link's
    (P, v), P nan and v 0 where it is impassable."""
    p, v = _power_speed(_gather(links, consist, rates), consist, rates, levels)
    return list(zip(p.tolist(), v.tolist()))


def link_brake(link, consist, rates, levels):
    return _brake(_gather([link], consist, rates), consist, rates, levels[0])[0].item()


def resistance(link, consist, v, rates, brake_force):
    """Full resistance at speed v: the Davis terms plus the brake force."""
    return _davis(_gather([link], consist, rates), v, consist, rates)[0].item() + brake_force


def diesel_t0(link, consist, rates):
    """The link's diesel free-flow time in the cost table."""
    net = RailNetwork.build([Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)], [link])
    return build_profiles(net, consist, rates).t0_hr[0].item()


# --- resistance components -------------------------------------------------------


def test_bearing_single_railcar(rates):
    # one 100 t gross car on 4 axles: 2.9*100 + 97.3*4 = 679.2 N
    consist = TrainConsist(n_locomotives=0, n_railcars=1,
                           railcar_tare_t=30.0, railcar_cargo_t=70.0, railcar_axles=4)
    assert bearing_resistance(consist, rates) == pytest.approx(679.2, rel=1e-9)


def test_bearing_two_locomotives(rates):
    # two 200 t units on 6 axles each: 2*(2.9*200 + 97.3*6) = 2327.6 N
    consist = TrainConsist(n_locomotives=2, locomotive_mass_t=200.0,
                           locomotive_axles=6, n_railcars=0)
    assert bearing_resistance(consist, rates) == pytest.approx(2327.6, rel=1e-9)


def test_flange_golden(rates):
    # 10 m/s, 2 locos + 50 cars: 10*(0.329*2 + 0.494*50) = 253.58 N
    consist = TrainConsist(n_locomotives=2, n_railcars=50)
    assert flange_resistance(10.0, consist, rates) == pytest.approx(253.58, rel=1e-9)


def test_air_golden(rates):
    # 52 conventional cars at 20 m/s: 20^2 * 52*1.56 = 32448 N
    consist = TrainConsist(n_locomotives=0, n_railcars=52, railcar_drag=1.56)
    assert air_resistance(20.0, consist, rates) == pytest.approx(32448.0, rel=1e-9)


def test_grade_golden(rates):
    # 5000 t on a 1% upgrade: 5000*1000*9.80665*0.01 = 490332.5 N
    assert grade_resistance(5000.0, 0.01, rates) == pytest.approx(490332.5, rel=1e-9)
    assert grade_resistance(5000.0, -0.01, rates) == pytest.approx(-490332.5, rel=1e-9)


def test_curve_golden(rates):
    expected = 0.4536 * 5000.0 * 1000.0 * G * math.asin(15.24 / 1000.0)
    got = curve_resistance(5000.0, 1000.0, rates)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(3.39e5, rel=0.01)


def test_curve_radius_floor(rates):
    with pytest.raises(ValueError):
        curve_resistance(5000.0, 15.24, rates)
    with pytest.raises(ValueError):
        curve_resistance(5000.0, 10.0, rates)
    with pytest.raises(ValueError):
        curve_resistance(5000.0, math.nan, rates)


def test_flange_air_link_overrides(rates, consist):
    assert flange_resistance(10.0, consist, rates, k_f=2.0) == pytest.approx(
        2.0 * flange_resistance(10.0, consist, rates), rel=1e-12
    )
    assert air_resistance(10.0, consist, rates, k_a=0.5) == pytest.approx(
        0.5 * air_resistance(10.0, consist, rates), rel=1e-12
    )


def test_total_resistance_is_component_sum(rates, consist):
    link = flat_link(grade=0.004, radius=4000.0)
    v = 18.0
    expected = (
        bearing_resistance(consist, rates)
        + flange_resistance(v, consist, rates)
        + air_resistance(v, consist, rates)
        + grade_resistance(consist.train_mass_t, link.grade, rates)
        + curve_resistance(consist.train_mass_t, link.curve_radius_m, rates)
        + 123.0
    )
    got = resistance(link, consist, v, rates, brake_force=123.0)
    assert got == pytest.approx(expected, rel=1e-12)


# --- braking ---------------------------------------------------------------------


def test_brake_incidental_golden(rates):
    # 0.1% grade equivalent on a 5000 t train: 49033.25 N
    consist = TrainConsist(n_locomotives=0, n_railcars=50,
                           railcar_tare_t=30.0, railcar_cargo_t=70.0)
    assert consist.train_mass_t == 5000.0
    got = link_brake(flat_link(grade=0.0), consist, rates, (9.9e6 * 0.05, 9.9e6))
    assert got == pytest.approx(49033.25, rel=1e-9)


def test_brake_level_and_upgrade_use_incidental(rates, consist):
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    incidental = 0.001 * consist.train_mass_t * 1000.0 * G
    for grade in (0.0, 0.005, 0.02):
        got = link_brake(flat_link(grade=grade), consist, rates, throttle)
        assert got == pytest.approx(incidental, rel=1e-12)


def test_brake_mild_downgrade_stays_incidental(rates, consist):
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    link = flat_link(grade=-0.002, radius=10000.0)
    incidental = 0.001 * consist.train_mass_t * 1000.0 * G
    got = link_brake(link, consist, rates, throttle)
    assert got == pytest.approx(incidental, rel=1e-12)


def test_brake_steep_downgrade_balances_min_notch(rates, consist):
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    link = flat_link(grade=-0.02, radius=10000.0)
    v = rates.desired_speed
    davis = (
        bearing_resistance(consist, rates)
        + flange_resistance(v, consist, rates)
        + air_resistance(v, consist, rates)
        + grade_resistance(consist.train_mass_t, link.grade, rates)
        + curve_resistance(consist.train_mass_t, link.curve_radius_m, rates)
    )
    incidental = 0.001 * consist.train_mass_t * 1000.0 * G
    assert (davis + incidental) * v < throttle[0]
    brake = link_brake(link, consist, rates, throttle)
    assert brake == pytest.approx(throttle[0] / v - davis, rel=1e-12)
    # balance: holding speed on the descent takes exactly the minimum notch
    assert resistance(link, consist, v, rates, brake) * v == pytest.approx(
        throttle[0], rel=1e-12
    )


# --- throttles and power/speed -----------------------------------------------------


def test_throttle_table_uniform(rates):
    # four 2 MW locomotives: 8 MW at the top notch
    consist = TrainConsist(n_locomotives=4)
    t = build_throttles(consist, dataclasses.replace(rates, locomotive_power_diesel_w=2.0e6))[ArcKind.DIESEL]
    assert len(t) == 8
    assert t[0] == pytest.approx(0.4e6, rel=1e-12)
    assert t[-1] == pytest.approx(8.0e6, rel=1e-12)
    steps = np.diff(t)
    assert np.allclose(steps, steps[0], rtol=1e-12)
    assert all(a < b for a, b in zip(t, t[1:]))


@pytest.mark.parametrize("notches", [1, 2, 8])
@pytest.mark.parametrize("fraction", [0.05, 0.3, 0.9])
def test_throttle_levels_are_the_uniform_expression_bit_for_bit(notches, fraction):
    rates = RateTable(notch_count=notches, min_notch_fraction=fraction,
                      locomotive_power_diesel_w=3.3e6, locomotive_power_electric_w=4.7e6)
    throttles = build_throttles(TrainConsist(n_locomotives=3), rates)
    for kind, power in ((ArcKind.DIESEL, 3.3e6), (ArcKind.ELECTRIC, 4.7e6)):
        top = 3 * power
        if notches == 1:
            want = (top,)
        else:
            step = (1.0 - fraction) / (notches - 1)
            want = tuple(top * (fraction + k * step) for k in range(notches))
        # float == is bit equality here: no notch is nan or zero
        assert type(throttles[kind]) is tuple and throttles[kind] == want


def test_throttle_levels_that_coincide_are_rejected():
    # adjacent notches round to the same power just below a fraction of 1
    rates = RateTable(min_notch_fraction=0.9999999999999999)
    with pytest.raises(ValueError, match="strictly ascending"):
        build_throttles(TrainConsist(), rates)


def test_build_throttles_scale_with_consist(rates):
    consist = TrainConsist(n_locomotives=2)
    t = build_throttles(consist, rates)
    assert t[ArcKind.DIESEL][-1] == pytest.approx(2 * 3.3e6, rel=1e-12)
    assert t[ArcKind.ELECTRIC][-1] == pytest.approx(2 * 4.5e6, rel=1e-12)


def test_power_speed_easy_link_holds_desired(rates, consist):
    link = flat_link(radius=50000.0)
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    [(p, v)] = power_speed([link], consist, rates, throttle)
    assert v == rates.desired_speed
    assert diesel_t0(link, consist, rates) == pytest.approx(link.length_km / (3.6 * v), rel=1e-12)
    # independently pick the smallest sufficient notch
    brake = link_brake(link, consist, rates, throttle)
    needed = resistance(link, consist, v, rates, brake) * v
    expected_notch = next(l for l in throttle if l >= needed)
    assert p == expected_notch


def test_power_speed_limited_matches_bisection_oracle(rates, consist):
    link = flat_link(grade=0.02, radius=5000.0)
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    [(p, v)] = power_speed([link], consist, rates, throttle)
    assert p == throttle[-1]
    assert v < rates.desired_speed
    brake = link_brake(link, consist, rates, throttle)

    def gap(speed):
        return resistance(link, consist, speed, rates, brake) * speed - p

    v_oracle = brentq(gap, 0.1, rates.desired_speed, xtol=1e-12)
    assert v == pytest.approx(v_oracle, rel=1e-6)
    assert diesel_t0(link, consist, rates) == pytest.approx(link.length_km / (3.6 * v), rel=1e-12)


def test_power_speed_speed_drops_with_grade(rates, consist):
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    links = [flat_link(grade=float(grade)) for grade in np.linspace(0.0, 0.03, 13)]
    speeds = [v for _, v in power_speed(links, consist, rates, throttle)]
    assert all(a >= b for a, b in zip(speeds, speeds[1:]))


def test_power_speed_impassable(rates, consist):
    weak = RateTable(locomotive_power_diesel_w=1.0e5)
    throttle = build_throttles(consist, weak)[ArcKind.DIESEL]
    [(p, v)] = power_speed([flat_link(grade=0.03)], consist, weak, throttle)
    assert math.isnan(p) and v == 0.0


def test_link_desired_speed_override(rates, consist):
    link = flat_link(radius=50000.0, desired_speed=15.0)
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    [(_, v)] = power_speed([link], consist, rates, throttle)
    assert v == 15.0
    assert diesel_t0(link, consist, rates) == pytest.approx(link.length_km / (3.6 * 15.0), rel=1e-12)


# --- congestion ----------------------------------------------------------------------


def test_congestion_time_anchors():
    t0, cap = 2.0, 1.0e4
    assert congestion_time(t0, 0.0, cap) == t0
    assert congestion_time(t0, cap, cap) == 2.0 * t0
    assert congestion_time(t0, 2.0 * cap, cap) == 17.0 * t0


def test_profile_congestion_anchors(rates, consist):
    net = line_network(n_nodes=2, yards=(), length_km=80.0)
    p = build_profiles(net, consist, rates)
    coef, cap = p.congestion_coef[0], p.capacity_tpd[0]
    base = congestion_time(coef, 0.0, cap, p.beta)
    assert base == coef
    assert congestion_time(coef, cap, cap, p.beta) == 2.0 * base
    assert congestion_time(coef, 2.0 * cap, cap, p.beta) == 17.0 * base


def test_profile_integral_matches_derivative(rates, consist):
    net = line_network(n_nodes=2, yards=(), length_km=80.0)
    p = build_profiles(net, consist, rates)
    coef, cap, beta = p.congestion_coef[0], p.capacity_tpd[0], p.beta
    x, h = 1.7e4, 1.0
    fd = (congestion_integral(coef, x + h, cap, beta) - congestion_integral(coef, x - h, cap, beta)) / (2.0 * h)
    assert fd == pytest.approx(congestion_time(coef, x, cap, beta), rel=1e-7)
    fd2 = (congestion_time(coef, x + h, cap, beta) - congestion_time(coef, x - h, cap, beta)) / (2.0 * h)
    assert fd2 == pytest.approx(congestion_derivative(coef, x, cap, beta), rel=1e-7)


# --- the link cost table ----------------------------------------------------------


def test_profile_fuel_and_coef_oracle(rates, consist):
    net = line_network(n_nodes=2, yards=(), length_km=120.0)
    link = net.links[0]
    throttles = build_throttles(consist, rates)
    table = build_profiles(net, consist, rates)

    for kind, eta, price in (
        (ArcKind.DIESEL, rates.eta_diesel, rates.fuel_cost_diesel),
        (ArcKind.ELECTRIC, rates.eta_electric, rates.fuel_cost_electric),
    ):
        [(p, v)] = power_speed([link], consist, rates, throttles[kind])
        t0 = link.length_km / (3.6 * v)
        expected = (t0 * 3600.0) * (p / eta) * price / consist.cargo_mass_t
        assert getattr(table, f"{kind.value}_fuel_per_ton")[0] == pytest.approx(expected, rel=1e-12)
        assert getattr(table, f"{kind.value}_reachable")[0]

    [(_, v_d)] = power_speed([link], consist, rates, throttles[ArcKind.DIESEL])
    t0_d = link.length_km / (3.6 * v_d)
    coef = t0_d * (rates.crew_rate + rates.cargo_rate) / consist.cargo_mass_t
    assert table.congestion_coef[0] == pytest.approx(coef, rel=1e-12)
    assert table.t0_hr[0] == t0_d


def test_profile_impassable_side_warns(consist):
    # cripple only the diesel side: the pair shares one congestion clock,
    # so an unreachable diesel leg poisons the whole link
    weak = RateTable(locomotive_power_diesel_w=1.0e5)
    nodes = [Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)]
    links = [PhysicalLink(0, 0, 1, length_km=100.0, grade=0.03,
                          curve_radius_m=20000.0, capacity_tpd=5e4)]
    net = RailNetwork.build(nodes, links)
    with pytest.warns(UserWarning, match="impassable"):
        table = build_profiles(net, consist, weak)
    assert not table.diesel_reachable[0]
    assert table.congestion_coef[0] == math.inf
    assert table.electric_reachable[0]


# --- the array build against the scalar oracle ----------------------------------

# default rates, then weak locomotives: many sides impassable, diesel and electric
PROFILE_RATES = [
    RateTable(),
    RateTable(locomotive_power_electric_w=2.0e3),
    RateTable(locomotive_power_diesel_w=2.5e5, locomotive_power_electric_w=4.0e5, notch_count=3),
]


def random_links_network(seed):
    """A chain of random links: grades from steep downgrades that need the
    brake to steep upgrades that need the bisection, some with their own
    k_f, k_a and desired speed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    nodes = [Node(i, 40.0, -100.0 + 0.1 * i) for i in range(n + 1)]

    def maybe(lo, hi):
        return float(rng.uniform(lo, hi)) if rng.random() < 0.3 else None

    links = [
        PhysicalLink(
            id=i, tail=i, head=i + 1,
            length_km=float(rng.uniform(1.0, 400.0)),
            grade=float(rng.choice([0.0, rng.uniform(-0.035, 0.035)])),
            curve_radius_m=float(rng.choice([16.0, rng.uniform(16.0, 2000.0), 50000.0])),
            capacity_tpd=float(rng.uniform(1.0e4, 1.0e5)),
            k_f=maybe(0.0, 3.0), k_a=maybe(0.0, 3.0), desired_speed=maybe(5.0, 40.0),
        )
        for i in range(n)
    ]
    return RailNetwork.build(nodes, links)


def recorded(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = build()
    return out, [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rates_index=st.integers(0, len(PROFILE_RATES) - 1))
def test_build_profiles_matches_scalar_oracle(seed, rates_index):
    rates, consist = PROFILE_RATES[rates_index], TrainConsist()
    net = random_links_network(seed)
    throttles = build_throttles(consist, rates)
    got, got_warnings = recorded(lambda: build_profiles(net, consist, rates))
    want = {lid: oracle_link_profile(net.links[lid], consist, rates, throttles) for lid in sorted(net.links)}
    assert got.link_ids == list(want) and got.beta == rates.beta
    columns = [f.name for f in dataclasses.fields(got) if f.name not in ("link_ids", "beta")]
    assert sorted(columns) == sorted(want[got.link_ids[0]])
    for name in columns:
        assert getattr(got, name).tolist() == [row[name] for row in want.values()], name
    assert got_warnings == oracle_impassable_warnings(want)
    # the array pass's notch, speed and brake of every link, in one pass
    links = [net.links[lid] for lid in got.link_ids]
    diesel = throttles[ArcKind.DIESEL]
    assert _brake(_gather(links, consist, rates), consist, rates, diesel[0]).tolist() == [
        oracle_brake(link, consist, rates, diesel) for link in links
    ]
    for kind in (ArcKind.DIESEL, ArcKind.ELECTRIC):
        for link, (p, v) in zip(links, power_speed(links, consist, rates, throttles[kind])):
            try:
                want_p, want_v, _ = oracle_power_speed(link, consist, rates, throttles[kind])
            except Impassable:
                assert math.isnan(p) and v == 0.0, link.id
            else:
                assert (p, v) == (want_p, want_v), link.id


def test_profile_oracle_draws_cover_every_branch():
    """The draws of the property test above reach the notch, the bisection,
    impassable diesel and electric sides, the downgrade brake, and per-link
    overrides, under each rate table."""
    consist = TrainConsist()
    for rates in PROFILE_RATES:
        seen = set()
        for seed in range(20):
            net = random_links_network(seed)
            throttles = build_throttles(consist, rates)
            for link in net.links.values():
                seen.update(k for k in ("k_f", "k_a", "desired_speed") if getattr(link, k) is not None)
                incidental = 0.001 * consist.train_mass_t * 1000.0 * G
                if oracle_brake(link, consist, rates, throttles[ArcKind.DIESEL]) != incidental:
                    seen.add("brake")
                for kind in (ArcKind.DIESEL, ArcKind.ELECTRIC):
                    try:
                        p, _, _ = oracle_power_speed(link, consist, rates, throttles[kind])
                    except Impassable:
                        seen.add(f"impassable {kind.value}")
                        continue
                    seen.add("notch" if p < throttles[kind][-1] else "top notch")
        expected = {"k_f", "k_a", "desired_speed", "brake", "notch", "top notch"}
        if rates is not PROFILE_RATES[0]:
            expected |= {"impassable diesel", "impassable electric"} if rates.notch_count == 3 else {"impassable electric"}
        assert expected <= seen, (rates, expected - seen)


def test_profile_rejects_cargoless_consist(rates):
    empty = TrainConsist(railcar_cargo_t=0.0)
    net = line_network(n_nodes=2, yards=())
    with pytest.raises(ValueError):
        build_profiles(net, empty, rates)


def test_rate_table_validation():
    with pytest.raises(ValueError):
        RateTable(beta=1.0)
    with pytest.raises(ValueError):
        RateTable(switching_cost_mode="hourly")
    with pytest.raises(ValueError):
        RateTable(min_notch_fraction=0.0)
    with pytest.raises(ValueError):
        RateTable(notch_count=0)
    # one notch runs at full power whatever the fraction; more would coincide
    one = RateTable(min_notch_fraction=1.0, notch_count=1, locomotive_power_diesel_w=1.0)
    assert build_throttles(TrainConsist(n_locomotives=1), one)[ArcKind.DIESEL] == (1.0,)
    with pytest.raises(ValueError, match="min_notch_fraction"):
        RateTable(min_notch_fraction=1.0, notch_count=2)
    with pytest.raises(ValueError, match="locomotive_power_electric_w"):
        RateTable(locomotive_power_electric_w=0.0)


# --- switching --------------------------------------------------------------------


def test_switch_cost_fixed_mode(rates, consist):
    assert switch_cost_per_train(rates) == 3800.0
    assert switching_cost_per_ton(rates, consist) == pytest.approx(3800.0 / 7000.0, rel=1e-12)


def test_switch_cost_composed_golden():
    # 1.5 h * (6 crew-equivalents * 50 + 0) = 450 $/train
    rates = RateTable(switching_cost_mode="composed", crew_rate=50.0, cargo_rate=0.0)
    assert switch_cost_per_train(rates) == pytest.approx(450.0, rel=1e-9)
    with_energy = RateTable(switching_cost_mode="composed", crew_rate=50.0,
                            cargo_rate=0.0, switch_energy_cost=25.0)
    assert switch_cost_per_train(with_energy) == pytest.approx(475.0, rel=1e-9)


def test_yard_switch_costs_overrides(rates, consist):
    nodes = [
        Node(0, 40.0, -100.0, is_yard=True, switching_cost=7000.0),
        Node(1, 40.0, -99.0, is_yard=True),
        Node(2, 40.0, -98.0),
    ]
    links = bidirectional_pair(0, 1) + bidirectional_pair(1, 2, base_id=2)
    net = RailNetwork.build(nodes, links)
    costs = yard_switch_costs(net, rates, consist)
    assert set(costs) == {0, 1}
    assert costs[0] == pytest.approx(7000.0 / consist.cargo_mass_t, rel=1e-12)
    assert costs[1] == pytest.approx(3800.0 / consist.cargo_mass_t, rel=1e-12)


def bidirectional_pair(a, b, base_id=0, length=50.0):
    return [
        PhysicalLink(base_id, a, b, length_km=length, curve_radius_m=20000.0, capacity_tpd=5e4),
        PhysicalLink(base_id + 1, b, a, length_km=length, curve_radius_m=20000.0, capacity_tpd=5e4),
    ]


# --- electrification capital ----------------------------------------------------------


def three_alpha_network():
    """Parallel links with alphas 1.0, 1.25, 1.5 between the same endpoints."""
    nodes = [Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)]
    from railplan.network import haversine_km

    straight = haversine_km(40.0, -100.0, 40.0, -99.0)
    links = [
        PhysicalLink(0, 0, 1, length_km=straight, curve_radius_m=20000.0, capacity_tpd=5e4),
        PhysicalLink(1, 0, 1, length_km=1.25 * straight, curve_radius_m=20000.0, capacity_tpd=5e4),
        PhysicalLink(2, 0, 1, length_km=1.5 * straight, curve_radius_m=20000.0, capacity_tpd=5e4,
                     signal_class=SignalClass.HIGH),
    ]
    return RailNetwork.build(nodes, links), straight


def test_electrification_cost_endpoints_and_midpoint():
    net, straight = three_alpha_network()
    elec = ElectrificationRates()
    lo, hi = net.alpha_range()
    assert (lo, hi) == (1.0, 1.5)
    min_sum = 150e3 + 100e3 + 80e3 + 50e3
    max_sum = 250e3 + 180e3 + 140e3 + 100e3

    easy = electrification_cost(net.links[0], elec, lo, hi)
    assert easy == pytest.approx(straight * (min_sum + 20e3), rel=1e-12)

    mid = electrification_cost(net.links[1], elec, lo, hi)
    assert mid == pytest.approx(1.25 * straight * (0.5 * (min_sum + max_sum) + 20e3), rel=1e-12)

    hard = electrification_cost(net.links[2], elec, lo, hi)
    assert hard == pytest.approx(1.5 * straight * (max_sum + 90e3), rel=1e-12)


def test_electrification_cost_ppi_and_degenerate_span():
    net, straight = three_alpha_network()
    doubled = ElectrificationRates(ppi_capital=2.0)
    base = ElectrificationRates()
    lo, hi = net.alpha_range()
    assert electrification_cost(net.links[1], doubled, lo, hi) == pytest.approx(
        2.0 * electrification_cost(net.links[1], base, lo, hi), rel=1e-12
    )
    # degenerate alpha span counts every link as easy terrain
    flat = electrification_cost(net.links[0], base, 1.2, 1.2)
    min_sum = 150e3 + 100e3 + 80e3 + 50e3
    assert flat == pytest.approx(straight * (min_sum + 20e3), rel=1e-12)


def test_electrification_costs_candidates_only(rates):
    nodes = [Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)]
    links = [
        PhysicalLink(0, 0, 1, length_km=90.0, curve_radius_m=20000.0, capacity_tpd=5e4),
        PhysicalLink(1, 1, 0, length_km=90.0, curve_radius_m=20000.0, capacity_tpd=5e4,
                     candidate=False),
    ]
    net = RailNetwork.build(nodes, links)
    costs = electrification_costs(net, ElectrificationRates())
    assert set(costs) == {0}
