"""Stochastic world model: truth state, blocked-path channel, measurements.

Each step the channel decides whether the direct path is blocked. Blocked
(NLOS) steps add a strictly non-negative exponential bias to the range and
a zero-mean Gaussian bias to the bearing, on top of the always-present
systematic offsets and thermal noise, to the true values that the filter's
model (:func:`~asymloc.geometry.linearize`) predicts. In the structured
variant a rectangular obstacle forces NLOS whenever it cuts the
agent-to-target segment, with a reduced stochastic rate elsewhere.

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

from .geometry import Measurement, Modality, linearize, wrap_angle
from .knobs import check, knob


def segment_intersects_rect(a, b, rect) -> bool:
    """True iff the closed segment a-b meets the closed axis-aligned
    rectangle ``rect = (cx, cy, half_width, half_height)``, meters.

    Standard slab clipping: intersect the segment's parameter interval
    [0, 1] with the slabs of both axes.
    """
    cx, cy, half_width, half_height = rect
    t0, t1 = 0.0, 1.0
    for p0, dp, lo, hi in (
        (a[0], b[0] - a[0], cx - half_width, cx + half_width),
        (a[1], b[1] - a[1], cy - half_height, cy + half_height),
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

    ``p_nlos`` drives the stochastic channel; with an ``obstacle``
    ``(cx, cy, half_width, half_height)`` set (meters, positive half
    extents) the blockage is geometric instead and ``p_nlos_clear`` applies
    on clear lines of sight. One blockage coin per step covers both modalities
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
    obstacle: Optional[tuple[float, float, float, float]] = knob(None, "scenario", kind="floats", n=4)
    p_nlos_clear: float = knob(0.1, "scenario", ge=0.0, le=1.0)
    shared_nlos_flag: bool = knob(True, "scenario", key="shared_nlos")
    seed: int = knob(0, "experiment", ge=0)

    def __post_init__(self):
        check(self)
        for label, point in (("truth", self.truth), ("start", self.start)):
            x, y = point
            if not (0.0 <= x <= self.arena and 0.0 <= y <= self.arena):
                raise ValueError(f"{label} {point} outside the {self.arena} m arena")
        if self.obstacle is not None and min(self.obstacle[2:]) <= 0.0:
            raise ValueError(f"obstacle: half extents must be > 0, got {self.obstacle}")

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
    """One step's channel realization, as :func:`observe_with_draw` samples
    it. ``b_r`` is never negative (checked there, since the draws are caller
    input): a blocked path can only lengthen the measured range.
    ``is_nlos_aoa`` equals ``is_nlos`` under the shared-coin default."""

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


def observe_with_draw(scenario: Scenario, agent,
                      draws: tuple) -> tuple[Measurement, Measurement, ChannelDraw, bool]:
    """Sample the step's channel at the agent position ``(x, y)`` from the
    step's :func:`channel_draws` (all six are used whatever the pose;
    parameter values only scale or gate them), and generate the (range,
    bearing) measurement pair taken from there (the measurements keep the
    position as given).

    Returns the pair plus the channel draw and whether the range had to be
    clamped at zero (noise can't make a physical range negative). Raises
    ``CoincidentPointsError`` where ``linearize`` does for the bearing.
    """
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
    draw = tuple.__new__(ChannelDraw, (
        is_nlos, b_r, scenario.sigma_b_theta_rad * z_btheta if is_nlos_aoa else 0.0,
        scenario.sigma_r * z_r, scenario.sigma_theta_rad * z_theta, is_nlos_aoa))
    true_bearing, true_range, _, _ = linearize(scenario.truth, agent, True)

    y_rtt = true_range + scenario.delta_r + draw.b_r + draw.eps_r
    clamped = y_rtt < 0.0
    if clamped:
        y_rtt = 0.0
    y_aoa = wrap_angle(true_bearing + scenario.delta_theta_rad + draw.b_theta + draw.eps_theta)

    return (tuple.__new__(Measurement, (Modality.RTT, y_rtt, agent)),
            tuple.__new__(Measurement, (Modality.AOA, y_aoa, agent)), draw, clamped)


PRESETS = {
    "canonical_low": Scenario(sigma_r=0.5),
    "canonical_medium": Scenario(sigma_r=1.5),
    "canonical_high": Scenario(sigma_r=2.5),
    "obstacle": Scenario(sigma_r=1.5, obstacle=(50.0, 35.0, 25.0, 8.0), p_nlos_clear=0.1),
}
