"""Train physics, link cost profiles, switching, and electrification capital."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from railplan.costmodel import (
    ElectrificationRates,
    LinkImpassableError,
    RateTable,
    ThrottleTable,
    TrainConsist,
    air_resistance,
    bearing_resistance,
    brake_resistance,
    build_link_profile,
    build_profiles,
    build_throttles,
    congestion_time,
    curve_resistance,
    electrification_cost,
    electrification_costs,
    flange_resistance,
    grade_resistance,
    solve_power_speed,
    switch_cost_per_train,
    switching_cost_per_ton,
    total_resistance,
    yard_switch_costs,
)
from railplan.network import ArcKind, Node, PhysicalLink, RailNetwork, SignalClass

from synth import line_network

G = 9.80665


def flat_link(length_km=100.0, grade=0.0, radius=20000.0, **kw):
    return PhysicalLink(
        id=0, tail=0, head=1, length_km=length_km, grade=grade,
        curve_radius_m=radius, capacity_tpd=5.0e4, **kw,
    )


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
    got = total_resistance(link, consist, v, rates, brake_force=123.0)
    assert got == pytest.approx(expected, rel=1e-12)


# --- braking ---------------------------------------------------------------------


def test_brake_incidental_golden(rates):
    # 0.1% grade equivalent on a 5000 t train: 49033.25 N
    consist = TrainConsist(n_locomotives=0, n_railcars=50,
                           railcar_tare_t=30.0, railcar_cargo_t=70.0)
    throttle = ThrottleTable.uniform(9.9e6)
    assert consist.train_mass_t == 5000.0
    got = brake_resistance(flat_link(grade=0.0), consist, rates, throttle)
    assert got == pytest.approx(49033.25, rel=1e-9)


def test_brake_level_and_upgrade_use_incidental(rates, consist):
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    incidental = 0.001 * consist.train_mass_t * 1000.0 * G
    for grade in (0.0, 0.005, 0.02):
        got = brake_resistance(flat_link(grade=grade), consist, rates, throttle)
        assert got == pytest.approx(incidental, rel=1e-12)


def test_brake_mild_downgrade_stays_incidental(rates, consist):
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    link = flat_link(grade=-0.002, radius=10000.0)
    incidental = 0.001 * consist.train_mass_t * 1000.0 * G
    got = brake_resistance(link, consist, rates, throttle)
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
    assert (davis + incidental) * v < throttle.min_power
    brake = brake_resistance(link, consist, rates, throttle)
    assert brake == pytest.approx(throttle.min_power / v - davis, rel=1e-12)
    # balance: holding speed on the descent takes exactly the minimum notch
    assert total_resistance(link, consist, v, rates, brake) * v == pytest.approx(
        throttle.min_power, rel=1e-12
    )


# --- throttles and power/speed -----------------------------------------------------


def test_throttle_table_uniform():
    t = ThrottleTable.uniform(8.0e6, notches=8, min_fraction=0.05)
    assert len(t.levels) == 8
    assert t.min_power == pytest.approx(0.4e6, rel=1e-12)
    assert t.max_power == pytest.approx(8.0e6, rel=1e-12)
    steps = np.diff(t.levels)
    assert np.allclose(steps, steps[0], rtol=1e-12)
    assert all(a < b for a, b in zip(t.levels, t.levels[1:]))


def test_build_throttles_scale_with_consist(rates):
    consist = TrainConsist(n_locomotives=2)
    t = build_throttles(consist, rates)
    assert t[ArcKind.DIESEL].max_power == pytest.approx(2 * 3.3e6, rel=1e-12)
    assert t[ArcKind.ELECTRIC].max_power == pytest.approx(2 * 4.5e6, rel=1e-12)


def test_power_speed_easy_link_holds_desired(rates, consist):
    link = flat_link(radius=50000.0)
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    p, v, t0 = solve_power_speed(link, consist, rates, throttle)
    assert v == rates.desired_speed
    assert t0 == pytest.approx(link.length_km / (3.6 * v), rel=1e-12)
    # independently pick the smallest sufficient notch
    brake = brake_resistance(link, consist, rates, throttle)
    needed = total_resistance(link, consist, v, rates, brake) * v
    expected_notch = next(l for l in throttle.levels if l >= needed)
    assert p == expected_notch


def test_power_speed_limited_matches_bisection_oracle(rates, consist):
    link = flat_link(grade=0.02, radius=5000.0)
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    p, v, t0 = solve_power_speed(link, consist, rates, throttle)
    assert p == throttle.max_power
    assert v < rates.desired_speed
    brake = brake_resistance(link, consist, rates, throttle)

    def gap(speed):
        return total_resistance(link, consist, speed, rates, brake) * speed - p

    v_oracle = brentq(gap, 0.1, rates.desired_speed, xtol=1e-12)
    assert v == pytest.approx(v_oracle, rel=1e-6)
    assert t0 == pytest.approx(link.length_km / (3.6 * v), rel=1e-12)


def test_power_speed_speed_drops_with_grade(rates, consist):
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    speeds = []
    for grade in np.linspace(0.0, 0.03, 13):
        _, v, _ = solve_power_speed(flat_link(grade=float(grade)), consist, rates, throttle)
        speeds.append(v)
    assert all(a >= b for a, b in zip(speeds, speeds[1:]))


def test_power_speed_impassable(rates, consist):
    weak = RateTable(locomotive_power_diesel_w=1.0e5)
    throttle = build_throttles(consist, weak)[ArcKind.DIESEL]
    with pytest.raises(LinkImpassableError):
        solve_power_speed(flat_link(grade=0.03), consist, weak, throttle)


def test_link_desired_speed_override(rates, consist):
    link = flat_link(radius=50000.0, desired_speed=15.0)
    throttle = build_throttles(consist, rates)[ArcKind.DIESEL]
    _, v, t0 = solve_power_speed(link, consist, rates, throttle)
    assert v == 15.0
    assert t0 == pytest.approx(link.length_km / (3.6 * 15.0), rel=1e-12)


# --- congestion ----------------------------------------------------------------------


def test_congestion_time_anchors():
    t0, cap = 2.0, 1.0e4
    assert congestion_time(t0, 0.0, cap) == t0
    assert congestion_time(t0, cap, cap) == 2.0 * t0
    assert congestion_time(t0, 2.0 * cap, cap) == 17.0 * t0


def test_profile_congestion_anchors(rates, consist):
    net = line_network(n_nodes=2, yards=(), length_km=80.0)
    prof = build_profiles(net, consist, rates)[0]
    base = prof.congestion_cost(0.0)
    assert base == prof.congestion_coef
    assert prof.congestion_cost(prof.capacity_tpd) == 2.0 * base
    assert prof.congestion_cost(2.0 * prof.capacity_tpd) == 17.0 * base


def test_profile_integral_matches_derivative(rates, consist):
    net = line_network(n_nodes=2, yards=(), length_km=80.0)
    prof = build_profiles(net, consist, rates)[0]
    x = 1.7e4
    h = 1.0
    fd = (prof.congestion_integral(x + h) - prof.congestion_integral(x - h)) / (2.0 * h)
    assert fd == pytest.approx(prof.congestion_cost(x), rel=1e-7)
    fd2 = (prof.congestion_cost(x + h) - prof.congestion_cost(x - h)) / (2.0 * h)
    assert fd2 == pytest.approx(prof.congestion_derivative(x), rel=1e-7)


# --- link profiles ----------------------------------------------------------------


def test_profile_fuel_and_coef_oracle(rates, consist):
    net = line_network(n_nodes=2, yards=(), length_km=120.0)
    link = net.links[0]
    throttles = build_throttles(consist, rates)
    prof = build_profiles(net, consist, rates)[0]

    for kind, eta, price in (
        (ArcKind.DIESEL, rates.eta_diesel, rates.fuel_cost_diesel),
        (ArcKind.ELECTRIC, rates.eta_electric, rates.fuel_cost_electric),
    ):
        p, v, t0 = solve_power_speed(link, consist, rates, throttles[kind])
        expected = (t0 * 3600.0) * (p / eta) * price / consist.cargo_mass_t
        tp = prof.traction(kind)
        assert tp.power_w == p and tp.speed_ms == v
        assert tp.fuel_cost_per_ton == pytest.approx(expected, rel=1e-12)

    _, _, t0_d = solve_power_speed(link, consist, rates, throttles[ArcKind.DIESEL])
    coef = t0_d * (rates.crew_rate + rates.cargo_rate) / consist.cargo_mass_t
    assert prof.congestion_coef == pytest.approx(coef, rel=1e-12)
    assert prof.t0_hr == t0_d


def test_profile_impassable_side_warns(consist):
    # cripple only the diesel side: the pair shares one congestion clock,
    # so an unreachable diesel leg poisons the whole link
    weak = RateTable(locomotive_power_diesel_w=1.0e5)
    nodes = [Node(0, 40.0, -100.0), Node(1, 40.0, -99.0)]
    links = [PhysicalLink(0, 0, 1, length_km=100.0, grade=0.03,
                          curve_radius_m=20000.0, capacity_tpd=5e4)]
    net = RailNetwork.build(nodes, links)
    with pytest.warns(UserWarning, match="impassable"):
        prof = build_link_profile(net.links[0], consist, weak)
    assert not prof.diesel.reachable
    assert prof.congestion_coef == math.inf
    assert prof.electric.reachable


def test_profile_rejects_cargoless_consist(rates):
    empty = TrainConsist(railcar_cargo_t=0.0)
    net = line_network(n_nodes=2, yards=())
    with pytest.raises(ValueError):
        build_link_profile(net.links[0], empty, rates)


def test_rate_table_validation():
    with pytest.raises(ValueError):
        RateTable(beta=1.0)
    with pytest.raises(ValueError):
        RateTable(switching_cost_mode="hourly")
    with pytest.raises(ValueError):
        RateTable(min_notch_fraction=0.0)
    with pytest.raises(ValueError):
        RateTable(notch_count=0)


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
