"""Stochastic world model: truth state, blocked-path channel, measurements.

Each step the channel decides whether the direct path is blocked. Blocked
(NLOS) steps add a strictly non-negative exponential bias to the range and
a zero-mean Gaussian bias to the bearing, on top of the always-present
systematic offsets and thermal noise. In the structured variant a
rectangular obstacle forces NLOS whenever it cuts the agent-to-target
segment, with a reduced stochastic rate elsewhere.

Angles in `Scenario` are degrees (the configuration boundary); everything
downstream of the ``*_rad`` properties is radians.

Randomness enters only through :func:`channel_draws`: six raw draws per
step in a fixed order, whatever the pose, which the channel then scales
by the scenario parameters. So runs with the same seed stay draw-for-draw
paired across parameter sweeps and poses (only the scaling changes, never
the underlying sample path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import Modality, h_aoa, h_rtt, wrap_angle
from .filters import Measurement
from .knobs import check, knob


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: center plus half extents, meters."""

    cx: float
    cy: float
    half_width: float
    half_height: float

    def __post_init__(self):
        if self.half_width <= 0.0 or self.half_height <= 0.0:
            raise ValueError("rectangle extents must be positive")


def segment_intersects_rect(a, b, rect: Rect) -> bool:
    """True iff the closed segment a-b meets the closed rectangle.

    Standard slab clipping: intersect the segment's parameter interval
    [0, 1] with the slabs of both axes.
    """
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    t0, t1 = 0.0, 1.0
    for p0, dp, lo, hi in (
        (ax, bx - ax, rect.cx - rect.half_width, rect.cx + rect.half_width),
        (ay, by - ay, rect.cy - rect.half_height, rect.cy + rect.half_height),
    ):
        if dp == 0.0:
            if p0 < lo or p0 > hi:
                return False
            continue
        ta = (lo - p0) / dp
        tb = (hi - p0) / dp
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


@dataclass(frozen=True)
class Scenario:
    """World plus channel configuration for one experiment.

    ``p_nlos`` drives the stochastic channel; with an ``obstacle`` set the
    blockage is geometric instead and ``p_nlos_clear`` applies on clear
    lines of sight. One blockage coin per step covers both modalities
    unless ``shared_nlos_flag`` is off.
    """

    truth: tuple[float, float] = knob((50.0, 50.0), "scenario", kind="floats", n=2)
    start: tuple[float, float] = knob((10.0, 10.0), "scenario", kind="floats", n=2)
    arena: float = knob(100.0, "scenario", gt=0.0)
    p_nlos: float = knob(0.9, "scenario", ge=0.0, le=1.0)
    mu_nlos: float = knob(8.0, "scenario", gt=0.0)
    sigma_b_theta_deg: float = knob(5.0, "scenario", gt=0.0)
    delta_r: float = knob(1.5, "scenario")
    delta_theta_deg: float = knob(-3.0, "scenario")
    sigma_r: float = knob(1.5, "scenario", gt=0.0)
    sigma_theta_deg: float = knob(2.0, "scenario", gt=0.0)
    steps: int = knob(300, "experiment", ge=1)
    obstacle: Optional[Rect] = knob(None, "scenario", kind="floats", n=4, make=Rect)
    p_nlos_clear: float = knob(0.1, "scenario", ge=0.0, le=1.0)
    shared_nlos_flag: bool = knob(True, "scenario", key="shared_nlos")
    seed: int = knob(0, "experiment")

    def __post_init__(self):
        check(self)
        for label, point in (("truth", self.truth), ("start", self.start)):
            x, y = point
            if not (0.0 <= x <= self.arena and 0.0 <= y <= self.arena):
                raise ValueError(f"{label} {point} outside the {self.arena} m arena")

    @property
    def delta_theta_rad(self) -> float:
        return math.radians(self.delta_theta_deg)

    @property
    def sigma_theta_rad(self) -> float:
        return math.radians(self.sigma_theta_deg)

    @property
    def sigma_b_theta_rad(self) -> float:
        return math.radians(self.sigma_b_theta_deg)


class ChannelDraw(NamedTuple):
    """One step's channel realization. ``b_r`` is never negative
    (:func:`sample_channel` checks it): a blocked path can only lengthen the
    measured range. ``is_nlos_aoa`` equals ``is_nlos`` under the shared-coin
    default."""

    is_nlos: bool
    b_r: float
    b_theta: float
    eps_r: float
    eps_theta: float
    is_nlos_aoa: bool


def channel_draws(rng: np.random.Generator) -> tuple:
    """One step's six raw draws, in order: the shared and the bearing
    blockage coins, the range-bias exponential, and the bearing-bias,
    range-noise and bearing-noise standard normals."""
    return (rng.random(), rng.random(), rng.standard_exponential(),
            rng.standard_normal(), rng.standard_normal(), rng.standard_normal())


def sample_channel(scenario: Scenario, agent, draws: tuple) -> ChannelDraw:
    """One step of the channel at the given agent pose, from the step's
    :func:`channel_draws`. All six draws are used whatever the pose;
    parameter values only scale or gate them."""
    u_shared, u_aoa, e_bias, z_btheta, z_r, z_theta = draws
    if scenario.obstacle is not None:
        blocked = segment_intersects_rect(agent, scenario.truth, scenario.obstacle)
        p = 1.0 if blocked else scenario.p_nlos_clear
    else:
        p = scenario.p_nlos
    is_nlos = u_shared < p
    is_nlos_aoa = is_nlos if scenario.shared_nlos_flag else (u_aoa < p)
    b_r = scenario.mu_nlos * e_bias if is_nlos else 0.0
    if b_r < 0.0:
        raise ValueError("range NLOS bias must be non-negative")
    return tuple.__new__(ChannelDraw, (
        is_nlos, b_r, scenario.sigma_b_theta_rad * z_btheta if is_nlos_aoa else 0.0,
        scenario.sigma_r * z_r, scenario.sigma_theta_rad * z_theta, is_nlos_aoa))


def observe_with_draw(scenario: Scenario, agent, draws: tuple,
                      step: int = 0) -> tuple[Measurement, Measurement, ChannelDraw, bool]:
    """Generate the step's (range, bearing) measurement pair, taken from the
    agent position ``(x, y)`` (which the measurements keep as given), from
    the step's :func:`channel_draws`.

    Returns the pair plus the channel draw and whether the range had to be
    clamped at zero (noise can't make a physical range negative). Raises
    ``CoincidentPointsError`` on the target itself.
    """
    draw = sample_channel(scenario, agent, draws)
    true_range = h_rtt(scenario.truth, agent)
    true_bearing = h_aoa(scenario.truth, agent)

    y_rtt = true_range + scenario.delta_r + draw.b_r + draw.eps_r
    clamped = y_rtt < 0.0
    if clamped:
        y_rtt = 0.0
    y_aoa = wrap_angle(true_bearing + scenario.delta_theta_rad + draw.b_theta + draw.eps_theta)

    return (tuple.__new__(Measurement, (Modality.RTT, y_rtt, agent, step)),
            tuple.__new__(Measurement, (Modality.AOA, y_aoa, agent, step)), draw, clamped)


PRESETS = {
    "canonical_low": Scenario(sigma_r=0.5),
    "canonical_medium": Scenario(sigma_r=1.5),
    "canonical_high": Scenario(sigma_r=2.5),
    "obstacle": Scenario(sigma_r=1.5, obstacle=Rect(50.0, 35.0, 25.0, 8.0), p_nlos_clear=0.1),
}


def get_preset(name: str) -> Scenario:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
