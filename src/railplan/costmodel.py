"""Train resistance physics and every monetary cost attached to a link.

Forces are newtons, masses metric tons (converted to kg inside), speeds m/s,
powers watts, money dollars.  Link travel times are hours; energy prices are
$/J, so the fuel term converts its free-flow time to seconds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

from .network import ArcKind, PhysicalLink, RailNetwork, SignalClass

TON_KG = 1000.0


class LinkImpassableError(RuntimeError):
    """No throttle notch can hold positive speed against link resistance."""


@dataclass(frozen=True)
class TrainConsist:
    """The representative train unit moving all demand."""

    n_locomotives: int = 3
    n_railcars: int = 100
    locomotive_mass_t: float = 195.0
    railcar_tare_t: float = 30.0
    railcar_cargo_t: float = 70.0
    locomotive_axles: int = 6
    railcar_axles: int = 4
    locomotive_drag: float = 1.56  # K, N*s^2/m^2; 1.56 conventional, 2.06 otherwise
    railcar_drag: float = 1.56

    @property
    def railcar_gross_t(self) -> float:
        return self.railcar_tare_t + self.railcar_cargo_t

    @property
    def train_mass_t(self) -> float:
        return self.n_locomotives * self.locomotive_mass_t + self.n_railcars * self.railcar_gross_t

    @property
    def cargo_mass_t(self) -> float:
        """Per-train payload; the divisor turning $/train into $/ton."""
        return self.n_railcars * self.railcar_cargo_t


@dataclass(frozen=True)
class RateTable:
    """Physical constants and monetary rates feeding the cost formulas."""

    crew_rate: float = 520.0  # $/hr per train
    cargo_rate: float = 260.0  # $/hr per train, cargo time value
    fuel_cost_diesel: float = 2.0e-8  # $/J
    fuel_cost_electric: float = 2.8e-8  # $/J
    eta_diesel: float = 0.35
    eta_electric: float = 0.90
    flange_factor: float = 1.0  # k_f network default
    air_factor: float = 1.0  # k_a network default
    bearing_a: float = 2.9  # N per gross ton
    bearing_b: float = 97.3  # N per axle
    flange_b_locomotive: float = 0.329
    flange_b_railcar: float = 0.494
    gravity: float = 9.80665
    beta: float = 4.0  # congestion exponent
    curve_coefficient: float = 0.4536
    curve_arg_m: float = 15.24
    brake_grade_equivalent: float = 0.001
    desired_speed: float = 25.0  # m/s
    locomotive_power_diesel_w: float = 3.3e6
    locomotive_power_electric_w: float = 4.5e6
    notch_count: int = 8
    min_notch_fraction: float = 0.05
    switch_cost_per_train: float = 3800.0
    switch_hours: float = 1.5
    switch_crew_equivalents: float = 6.0
    switch_energy_cost: float = 0.0  # $ per switch event
    switching_cost_mode: str = "fixed"  # fixed | composed

    def __post_init__(self):
        if self.beta <= 1.0:
            raise ValueError("congestion exponent must exceed 1")
        if self.switching_cost_mode not in ("fixed", "composed"):
            raise ValueError(f"unknown switching_cost_mode {self.switching_cost_mode!r}")
        if not (0.0 < self.min_notch_fraction <= 1.0):
            raise ValueError("min_notch_fraction must be in (0, 1]")
        if self.notch_count < 1:
            raise ValueError("need at least one throttle notch")


@dataclass(frozen=True)
class ThrottleTable:
    """Discrete power levels (W) a traction type can sustain, ascending."""

    levels: tuple[float, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("empty throttle table")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("throttle levels must be strictly ascending")

    @classmethod
    def uniform(cls, max_power_w: float, notches: int = 8, min_fraction: float = 0.05) -> "ThrottleTable":
        if notches == 1:
            return cls(levels=(max_power_w,))
        step = (1.0 - min_fraction) / (notches - 1)
        return cls(levels=tuple(max_power_w * (min_fraction + k * step) for k in range(notches)))

    @property
    def min_power(self) -> float:
        return self.levels[0]

    @property
    def max_power(self) -> float:
        return self.levels[-1]


def build_throttles(consist: TrainConsist, rates: RateTable) -> dict[ArcKind, ThrottleTable]:
    """Per-traction notch tables for the whole consist (per-loco power times count)."""
    return {
        ArcKind.DIESEL: ThrottleTable.uniform(
            consist.n_locomotives * rates.locomotive_power_diesel_w,
            rates.notch_count,
            rates.min_notch_fraction,
        ),
        ArcKind.ELECTRIC: ThrottleTable.uniform(
            consist.n_locomotives * rates.locomotive_power_electric_w,
            rates.notch_count,
            rates.min_notch_fraction,
        ),
    }


# --- resistance terms -------------------------------------------------------


def bearing_resistance(consist: TrainConsist, rates: RateTable) -> float:
    """Sum over vehicles of a*gross_tons + b*axles."""
    loco = rates.bearing_a * consist.locomotive_mass_t + rates.bearing_b * consist.locomotive_axles
    car = rates.bearing_a * consist.railcar_gross_t + rates.bearing_b * consist.railcar_axles
    return consist.n_locomotives * loco + consist.n_railcars * car


def flange_resistance(v: float, consist: TrainConsist, rates: RateTable, k_f: float | None = None) -> float:
    k = rates.flange_factor if k_f is None else k_f
    return k * v * (
        rates.flange_b_locomotive * consist.n_locomotives
        + rates.flange_b_railcar * consist.n_railcars
    )


def air_resistance(v: float, consist: TrainConsist, rates: RateTable, k_a: float | None = None) -> float:
    k = rates.air_factor if k_a is None else k_a
    drag_sum = (
        consist.n_locomotives * consist.locomotive_drag
        + consist.n_railcars * consist.railcar_drag
    )
    return k * v * v * drag_sum


def grade_resistance(train_mass_t: float, grade: float, rates: RateTable) -> float:
    """Gravity pull along the slope; negative on downgrades."""
    return train_mass_t * TON_KG * rates.gravity * grade


def curve_resistance(train_mass_t: float, curve_radius_m: float, rates: RateTable) -> float:
    if curve_radius_m <= rates.curve_arg_m:
        raise ValueError(
            f"curve radius {curve_radius_m} m must exceed {rates.curve_arg_m} m"
        )
    return (
        rates.curve_coefficient
        * train_mass_t
        * TON_KG
        * rates.gravity
        * math.asin(rates.curve_arg_m / curve_radius_m)
    )


def _davis_resistance(link: PhysicalLink, consist: TrainConsist, v: float, rates: RateTable) -> float:
    """All speed-dependent and geometric terms, without braking."""
    return (
        bearing_resistance(consist, rates)
        + flange_resistance(v, consist, rates, link.k_f)
        + air_resistance(v, consist, rates, link.k_a)
        + grade_resistance(consist.train_mass_t, link.grade, rates)
        + curve_resistance(consist.train_mass_t, link.curve_radius_m, rates)
    )


def brake_resistance(
    link: PhysicalLink,
    consist: TrainConsist,
    rates: RateTable,
    throttle: ThrottleTable,
    v_desired: float | None = None,
) -> float:
    """Brake force on the link.

    Level track, upgrades, and mild downgrades use incidental braking worth a
    0.1% grade.  On downgrades steep enough that minimum throttle would push
    the train past its desired speed, the brake instead balances minimum
    throttle power at that speed.
    """
    v_d = v_desired if v_desired is not None else (link.desired_speed or rates.desired_speed)
    incidental = rates.brake_grade_equivalent * consist.train_mass_t * TON_KG * rates.gravity
    if link.grade >= 0.0:
        return incidental
    base = _davis_resistance(link, consist, v_d, rates)
    if (base + incidental) * v_d >= throttle.min_power:
        return incidental
    return throttle.min_power / v_d - base


def total_resistance(
    link: PhysicalLink,
    consist: TrainConsist,
    v: float,
    rates: RateTable,
    brake_force: float = 0.0,
) -> float:
    """Full resistance at speed v; pass the precomputed link brake force."""
    return _davis_resistance(link, consist, v, rates) + brake_force


# --- power/speed fixpoint ----------------------------------------------------

_V_FLOOR = 0.1  # m/s, bisection lower bracket
_BISECTION_TOL = 1.0e-8  # m/s
_BISECTION_MAX_ITER = 200


def solve_power_speed(
    link: PhysicalLink,
    consist: TrainConsist,
    rates: RateTable,
    throttle: ThrottleTable,
    v_desired: float | None = None,
) -> tuple[float, float, float]:
    """Pick the throttle notch and speed for a link: (P watts, v m/s, t0 hours).

    The smallest notch that can hold the desired speed wins and the train
    runs at exactly that speed.  If even the top notch falls short, speed
    comes from bisecting P = R(v)*v on [0.1, v_desired].
    """
    v_d = v_desired if v_desired is not None else (link.desired_speed or rates.desired_speed)
    brake = brake_resistance(link, consist, rates, throttle, v_d)

    def load(v: float) -> float:
        return total_resistance(link, consist, v, rates, brake) * v

    needed = load(v_d)
    for p in throttle.levels:
        if p >= needed:
            return p, v_d, link.length_km / (3.6 * v_d)

    p = throttle.levels[-1]
    lo, hi = _V_FLOOR, v_d
    if load(lo) > p:
        raise LinkImpassableError(
            f"link {link.id}: resistance exceeds {p:.3e} W at any positive speed"
        )
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if load(mid) > p:
            hi = mid
        else:
            lo = mid
        if hi - lo < _BISECTION_TOL:
            break
    v = 0.5 * (lo + hi)
    return p, v, link.length_km / (3.6 * v)


# --- congestion ----------------------------------------------------------------
#
# The congestion clock and its derivative and integral in x.  Each takes
# Python floats or numpy arrays (elementwise); `base` is the free-flow value,
# a time t0 or a link's $/ton congestion coefficient.


def congestion_time(base, x, capacity, beta: float = 4.0):
    """Polynomial delay: t = t0 * (1 + (x/u)^beta)."""
    return base * (1.0 + (x / capacity) ** beta)


def congestion_derivative(base, x, capacity, beta: float):
    """d/dx of `congestion_time`: t0 * beta * x^(beta-1) / u^beta."""
    return base * beta * x ** (beta - 1.0) / capacity**beta


def congestion_integral(base, x, capacity, beta: float):
    """Closed form of the 0..x integral of `congestion_time`."""
    b1 = beta + 1.0
    return base * (x + x**b1 / (b1 * capacity**beta))


@dataclass(frozen=True)
class TractionProfile:
    power_w: float
    speed_ms: float
    t0_hr: float
    fuel_cost_per_ton: float  # the flow-independent c'' part, $/ton
    reachable: bool = True


@dataclass(frozen=True)
class LinkCostProfile:
    """Everything the assignment needs about one physical link.

    The congestion clock runs on the diesel free-flow time so the delay part
    of the cost is one shared function of the pair's total flow; each
    traction arc adds its own constant fuel term on top.
    """

    link_id: int
    capacity_tpd: float
    t0_hr: float
    congestion_coef: float  # $/ton multiplier on (1 + (x/u)^beta)
    beta: float
    diesel: TractionProfile
    electric: TractionProfile

    def traction(self, kind: ArcKind) -> TractionProfile:
        if kind is ArcKind.DIESEL:
            return self.diesel
        if kind is ArcKind.ELECTRIC:
            return self.electric
        raise ValueError(f"no traction profile for {kind}")

    def congestion_cost(self, x_total: float) -> float:
        """c'(x_D + x_E), $/ton."""
        return congestion_time(self.congestion_coef, x_total, self.capacity_tpd, self.beta)

    def congestion_derivative(self, x_total: float) -> float:
        return congestion_derivative(self.congestion_coef, x_total, self.capacity_tpd, self.beta)

    def congestion_integral(self, x_total: float) -> float:
        return congestion_integral(self.congestion_coef, x_total, self.capacity_tpd, self.beta)


def build_link_profile(
    link: PhysicalLink,
    consist: TrainConsist,
    rates: RateTable,
    throttles: Mapping[ArcKind, ThrottleTable] | None = None,
) -> LinkCostProfile:
    if consist.cargo_mass_t <= 0.0:
        raise ValueError("consist carries no cargo; per-ton costs undefined")
    if throttles is None:
        throttles = build_throttles(consist, rates)
    per_ton = consist.cargo_mass_t

    def traction_profile(kind: ArcKind, eta: float, fuel_cost: float) -> TractionProfile:
        try:
            p, v, t0 = solve_power_speed(link, consist, rates, throttles[kind])
        except LinkImpassableError:
            warnings.warn(f"link {link.id}: impassable under {kind.value} traction")
            return TractionProfile(math.nan, 0.0, math.inf, math.inf, False)
        fuel = (t0 * 3600.0) * (p / eta) * fuel_cost / per_ton
        return TractionProfile(p, v, t0, fuel, True)

    diesel = traction_profile(ArcKind.DIESEL, rates.eta_diesel, rates.fuel_cost_diesel)
    electric = traction_profile(ArcKind.ELECTRIC, rates.eta_electric, rates.fuel_cost_electric)
    if diesel.reachable:
        coef = diesel.t0_hr * (rates.crew_rate + rates.cargo_rate) / per_ton
        t0 = diesel.t0_hr
    else:
        coef = math.inf
        t0 = math.inf
    return LinkCostProfile(
        link_id=link.id,
        capacity_tpd=link.capacity_tpd,
        t0_hr=t0,
        congestion_coef=coef,
        beta=rates.beta,
        diesel=diesel,
        electric=electric,
    )


def build_profiles(
    net: RailNetwork,
    consist: TrainConsist,
    rates: RateTable,
    throttles: Mapping[ArcKind, ThrottleTable] | None = None,
) -> dict[int, LinkCostProfile]:
    if throttles is None:
        throttles = build_throttles(consist, rates)
    return {
        lid: build_link_profile(net.links[lid], consist, rates, throttles)
        for lid in sorted(net.links)
    }


# --- switching ---------------------------------------------------------------


def switch_cost_per_train(rates: RateTable) -> float:
    """$ per switch event, either the flat figure or hours*(crew+cargo)+energy."""
    if rates.switching_cost_mode == "fixed":
        return rates.switch_cost_per_train
    return (
        rates.switch_hours
        * (rates.switch_crew_equivalents * rates.crew_rate + rates.cargo_rate)
        + rates.switch_energy_cost
    )


def switching_cost_per_ton(rates: RateTable, consist: TrainConsist) -> float:
    if consist.cargo_mass_t <= 0.0:
        raise ValueError("consist carries no cargo; per-ton switch cost undefined")
    return switch_cost_per_train(rates) / consist.cargo_mass_t


def yard_switch_costs(net: RailNetwork, rates: RateTable, consist: TrainConsist) -> dict[int, float]:
    """Per-yard $/ton switch-arc costs; node overrides beat the rate default."""
    default = switching_cost_per_ton(rates, consist)
    out: dict[int, float] = {}
    for nid in net.yards():
        node = net.nodes[nid]
        if node.switching_cost is not None:
            out[nid] = node.switching_cost / consist.cargo_mass_t
        else:
            out[nid] = default
    return out


# --- electrification capital cost ---------------------------------------------


@dataclass(frozen=True)
class ElectrificationRates:
    """Per-km capital cost components, each with an easy/hard terrain bound."""

    ocs_min: float = 150e3
    ocs_max: float = 250e3
    substation_min: float = 100e3
    substation_max: float = 180e3
    transmission_min: float = 80e3
    transmission_max: float = 140e3
    public_works_min: float = 50e3
    public_works_max: float = 100e3
    signal_cost: Mapping[SignalClass, float] = field(
        default_factory=lambda: {
            SignalClass.LOW: 20e3,
            SignalClass.MEDIUM: 50e3,
            SignalClass.HIGH: 90e3,
        }
    )
    ppi_capital: float = 1.0

    @property
    def min_sum(self) -> float:
        return self.ocs_min + self.substation_min + self.transmission_min + self.public_works_min

    @property
    def max_sum(self) -> float:
        return self.ocs_max + self.substation_max + self.transmission_max + self.public_works_max


def electrification_cost(
    link: PhysicalLink,
    elec: ElectrificationRates,
    alpha_min: float,
    alpha_max: float,
) -> float:
    """Capital cost of wiring one link, interpolated by terrain difficulty.

    lambda = (alpha - alpha_min)/(alpha_max - alpha_min) picks the spot
    between the easy-terrain and hard-terrain component sums; a degenerate
    range (alpha_max == alpha_min) counts as easy everywhere.
    """
    if link.alpha is None:
        raise ValueError(f"link {link.id}: alpha not computed")
    span = alpha_max - alpha_min
    # spans at float-noise scale are geometry noise, not terrain signal
    degenerate = span <= 1e-9 * max(1.0, abs(alpha_max))
    lam = 0.0 if degenerate else (link.alpha - alpha_min) / span
    lam = min(max(lam, 0.0), 1.0)
    per_km = lam * elec.max_sum + (1.0 - lam) * elec.min_sum + elec.signal_cost[link.signal_class]
    return link.length_km * per_km * elec.ppi_capital


def electrification_costs(net: RailNetwork, elec: ElectrificationRates) -> dict[int, float]:
    """Capital cost for every candidate link."""
    a_lo, a_hi = net.alpha_range()
    return {
        lid: electrification_cost(link, elec, a_lo, a_hi)
        for lid, link in sorted(net.links.items())
        if link.candidate
    }
