"""Train resistance physics and every monetary cost attached to a link.

Forces are newtons, masses metric tons (converted to kg inside), speeds m/s,
powers watts, money dollars.  Link travel times are hours; energy prices are
$/J, so the fuel term converts its free-flow time to seconds.

All links are priced at once into a `LinkCostTable`, one array per
attribute, in one array pass per traction: one comparison against the
throttle levels picks the notch, and the speed bisection runs in lockstep
over the links still open.  Arrays see only +, -, *, / and comparisons, each
correctly rounded in numpy as in Python, in the scalar order, so every link
gets the bits of a one-link scalar pass (`tests/oracles.py`).  numpy's
`arcsin` can differ from libm `asin` in the last bit, so the curve term takes
`math.asin` per link.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .network import ArcKind, PhysicalLink, RailNetwork, SignalClass, terrain_fraction

TON_KG = 1000.0


@dataclass(frozen=True)
class TrainConsist:
    """The representative train unit moving all demand.

    No locomotives or no railcars is legal here, for the resistance of one
    group of units; a scenario's train needs both, and cargo (`load_rates`).
    """

    n_locomotives: int = 3
    n_railcars: int = 100
    locomotive_mass_t: float = 195.0
    railcar_tare_t: float = 30.0
    railcar_cargo_t: float = 70.0
    locomotive_axles: int = 6
    railcar_axles: int = 4
    locomotive_drag: float = 1.56  # K, N*s^2/m^2; 1.56 conventional, 2.06 otherwise
    railcar_drag: float = 1.56

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must not be negative, got {getattr(self, f.name)}")

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
            raise ValueError(f"beta, the congestion exponent, must exceed 1, got {self.beta}")
        if self.switching_cost_mode not in ("fixed", "composed"):
            raise ValueError(f"unknown switching_cost_mode {self.switching_cost_mode!r}")
        if not (0.0 < self.min_notch_fraction <= 1.0):
            raise ValueError("min_notch_fraction must be in (0, 1]")
        if self.notch_count < 1:
            raise ValueError(f"notch_count must be at least 1, got {self.notch_count}")
        if self.notch_count > 1 and self.min_notch_fraction == 1.0:
            raise ValueError("min_notch_fraction must be below 1 when notch_count > 1, or the notches coincide")
        for name in ("locomotive_power_diesel_w", "locomotive_power_electric_w"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.desired_speed > 0.0:
            raise ValueError(f"desired_speed must be positive, got {self.desired_speed}")
        for name in ("eta_diesel", "eta_electric"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name}, an efficiency, must be in (0, 1], got {getattr(self, name)}")
        if not self.gravity > 0.0:
            raise ValueError(f"gravity must be positive, got {self.gravity}")
        for name in (
            "crew_rate", "cargo_rate", "fuel_cost_diesel", "fuel_cost_electric",
            "switch_cost_per_train", "switch_hours", "switch_crew_equivalents", "switch_energy_cost",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")


def build_throttles(consist: TrainConsist, rates: RateTable) -> dict[ArcKind, tuple[float, ...]]:
    """Per-traction notch powers (W) for the whole consist, strictly ascending
    to per-loco power times count; one notch runs at full power."""
    n, f = rates.notch_count, rates.min_notch_fraction
    step = (1.0 - f) / max(n - 1, 1)
    out = {}
    for kind, power in (
        (ArcKind.DIESEL, rates.locomotive_power_diesel_w),
        (ArcKind.ELECTRIC, rates.locomotive_power_electric_w),
    ):
        top = consist.n_locomotives * power
        levels = (top,) if n == 1 else tuple(top * (f + k * step) for k in range(n))
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("throttle levels must be strictly ascending")
        out[kind] = levels
    return out


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


# per-link arrays: grade, curve resistance (N), k_f, k_a, desired speed (m/s), length (km)
_Links = namedtuple("_Links", "grade curve k_f k_a v_d length_km")


def _gather(links: Sequence[PhysicalLink], consist: TrainConsist, rates: RateTable) -> _Links:
    """The links' inputs to the resistance, defaults filled in."""
    m = consist.train_mass_t
    rows = [
        (l.grade, curve_resistance(m, l.curve_radius_m, rates), rates.flange_factor if l.k_f is None else l.k_f,
         rates.air_factor if l.k_a is None else l.k_a, l.desired_speed or rates.desired_speed, l.length_km)
        for l in links
    ]
    return _Links(*np.array(rows, dtype=float).reshape(len(rows), 6).T.copy())


def _davis(t: _Links, v, consist: TrainConsist, rates: RateTable) -> np.ndarray:
    """All speed-dependent and geometric terms at speeds v, without braking."""
    return (
        bearing_resistance(consist, rates)
        + flange_resistance(v, consist, rates, t.k_f)
        + air_resistance(v, consist, rates, t.k_a)
        + grade_resistance(consist.train_mass_t, t.grade, rates)
        + t.curve
    )


def _brake(t: _Links, consist: TrainConsist, rates: RateTable, min_power: float) -> np.ndarray:
    """Every link's brake force.  Level track, upgrades and mild downgrades
    brake incidentally, worth a `brake_grade_equivalent` grade.  On a
    downgrade so steep that the lowest notch would push the train past its
    desired speed, the brake instead balances that notch at that speed."""
    incidental = rates.brake_grade_equivalent * consist.train_mass_t * TON_KG * rates.gravity
    base = _davis(t, t.v_d, consist, rates)
    steep = (t.grade < 0.0) & ~((base + incidental) * t.v_d >= min_power)
    return np.where(steep, min_power / t.v_d - base, incidental)


# --- power/speed fixpoint ----------------------------------------------------

_V_FLOOR = 0.1  # m/s, bisection lower bracket
_BISECTION_TOL = 1.0e-8  # m/s
_BISECTION_MAX_ITER = 200


def _power_speed(t: _Links, consist: TrainConsist, rates: RateTable, levels: tuple[float, ...]):
    """Every link's notch power P and speed v: arrays, P nan and v 0 where a
    link is impassable.

    The smallest notch that holds the desired speed wins, and the train runs
    at exactly that speed.  If even the top notch falls short, v comes from
    bisecting P = R(v)*v between 0.1 m/s and the desired speed; a link whose
    resistance at 0.1 m/s already needs more than the top notch is impassable.
    """
    brake = _brake(t, consist, rates, levels[0])
    powers = np.array(levels)
    fits = powers >= ((_davis(t, t.v_d, consist, rates) + brake) * t.v_d)[:, None]
    hit = fits.any(axis=1)
    p, v = np.where(hit, powers[fits.argmax(axis=1)], levels[-1]), t.v_d.copy()
    slow = np.flatnonzero(~hit)
    s, brake = _Links(*(a[slow] for a in t)), brake[slow]

    def over(speed: np.ndarray) -> np.ndarray:
        return (_davis(s, speed, consist, rates) + brake) * speed > levels[-1]

    lo, hi = np.full(len(slow), _V_FLOOR), s.v_d
    stuck = over(lo)
    bisecting = ~stuck
    for _ in range(_BISECTION_MAX_ITER):
        if not bisecting.any():
            break
        mid = 0.5 * (lo + hi)
        up = over(mid)
        hi = np.where(bisecting & up, mid, hi)
        lo = np.where(bisecting & ~up, mid, lo)
        bisecting &= ~(hi - lo < _BISECTION_TOL)
    v[slow] = np.where(stuck, 0.0, 0.5 * (lo + hi))
    p[slow[stuck]] = math.nan
    return p, v


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


@dataclass(frozen=True, eq=False)
class LinkCostTable:
    """Every link's cost terms, one array per attribute.  Row j prices link
    `link_ids[j]`; the ids are sorted, so that is the traction pair (2j, 2j+1).

    The congestion clock runs on the diesel free-flow time `t0_hr`: the delay
    part, `congestion_time(congestion_coef, x_D + x_E, capacity_tpd, beta)`
    $/ton, is one function of the pair's total flow, and each traction arc
    adds its own constant fuel cost.  A side no notch can move is not
    reachable and its fuel costs inf; if it is diesel, so do `t0_hr` and
    `congestion_coef`.
    """

    link_ids: list[int]
    capacity_tpd: np.ndarray
    t0_hr: np.ndarray
    congestion_coef: np.ndarray  # $/ton multiplier on (1 + (x/u)^beta)
    beta: float
    diesel_fuel_per_ton: np.ndarray  # the flow-independent c'' parts, $/ton
    electric_fuel_per_ton: np.ndarray
    diesel_reachable: np.ndarray
    electric_reachable: np.ndarray


def build_profiles(net: RailNetwork, consist: TrainConsist, rates: RateTable) -> LinkCostTable:
    """The cost table of every link, in one array pass per traction (module
    docstring); each traction side warns once about its impassable links, diesel first."""
    if consist.cargo_mass_t <= 0.0:
        raise ValueError("consist carries no cargo; per-ton costs undefined")
    per_ton = consist.cargo_mass_t
    link_ids = sorted(net.links)
    links = [net.links[lid] for lid in link_ids]
    t, throttles, sides = _gather(links, consist, rates), build_throttles(consist, rates), []
    for kind, eta, fuel_cost in (
        (ArcKind.DIESEL, rates.eta_diesel, rates.fuel_cost_diesel),
        (ArcKind.ELECTRIC, rates.eta_electric, rates.fuel_cost_electric),
    ):
        p, v = _power_speed(t, consist, rates, throttles[kind])
        ok = v > 0.0
        t0 = np.where(ok, t.length_km / (3.6 * np.where(ok, v, 1.0)), math.inf)
        fuel = np.where(ok, (t0 * 3600.0) * (p / eta) * fuel_cost / per_ton, math.inf)
        sides.append((ok, t0, fuel))
        ids = [link_ids[i] for i in np.flatnonzero(~ok).tolist()]
        if ids:
            warnings.warn(f"{len(ids)} of {len(links)} links impassable under {kind.value} traction: {ids}")
    (diesel_ok, t0, diesel_fuel), (electric_ok, _, electric_fuel) = sides
    coef = np.where(diesel_ok, t0 * (rates.crew_rate + rates.cargo_rate) / per_ton, math.inf)
    capacity = np.array([l.capacity_tpd for l in links], dtype=float)
    return LinkCostTable(
        link_ids, capacity, t0, coef, rates.beta, diesel_fuel, electric_fuel, diesel_ok, electric_ok
    )


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

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith(("_min", "_max")) and getattr(self, f.name) < 0.0:
                raise ValueError(f"{f.name} must not be negative, got {getattr(self, f.name)}")
        for cls, cost in self.signal_cost.items():
            if cost < 0.0:
                raise ValueError(f"signal_{cls.value} must not be negative, got {cost}")
        if not self.ppi_capital > 0.0:
            raise ValueError(f"ppi_capital must be positive, got {self.ppi_capital}")

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

    The terrain fraction lambda (`network.terrain_fraction`) picks the spot
    between the easy-terrain and hard-terrain component sums.
    """
    if link.alpha is None:
        raise ValueError(f"link {link.id}: alpha not computed")
    lam = terrain_fraction(link.alpha, alpha_min, alpha_max)
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
