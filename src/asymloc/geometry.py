"""Planar geometry for range/bearing observation of a static target.

The world is a flat 2D plane (nadir-view abstraction: the agent flies at a
known, constant altitude, so the vertical axis never enters the math). This
module provides the observation functions for the two sensor modalities,
their position Jacobians, and angle arithmetic. A point is anything
indexable as ``p[0]``, ``p[1]``: an ``(x, y)`` tuple or a numpy array.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

TAU = 2.0 * math.pi


class CoincidentPointsError(ValueError):
    """Agent and target coincide; bearing and Jacobians are undefined there."""


class Modality(Enum):
    """Sensor modality of a single measurement."""

    RTT = "rtt"
    AOA = "aoa"


def h_rtt(target, agent) -> float:
    """Ideal range observation: Euclidean distance from agent to target."""
    return math.hypot(target[0] - agent[0], target[1] - agent[1])


def h_aoa(target, agent) -> float:
    """Ideal bearing observation: global bearing of the target seen from the
    agent, ``atan2(dy, dx)`` in ``(-pi, pi]``.

    Raises
    ------
    CoincidentPointsError
        If target and agent coincide (bearing undefined).
    """
    dx, dy = target[0] - agent[0], target[1] - agent[1]
    if dx == 0.0 and dy == 0.0:
        raise CoincidentPointsError("bearing undefined for coincident target/agent")
    return math.atan2(dy, dx)


def jacobian(modality: Modality, target, agent) -> np.ndarray:
    """Gradient of the observation function w.r.t. the target position.

    RTT: the unit radial vector u = (target - agent) / d.
    AOA: the unit tangential vector (u rotated +90 degrees) scaled by 1/d.

    The two directions are orthogonal by construction; only the AoA
    magnitude decays with distance.

    Raises
    ------
    CoincidentPointsError
        If d = 0 (both Jacobians singular there).
    """
    dx, dy = target[0] - agent[0], target[1] - agent[1]
    d = math.hypot(dx, dy)
    if d == 0.0:
        raise CoincidentPointsError("Jacobian undefined for coincident target/agent")
    if modality is Modality.RTT:
        return np.array([dx / d, dy / d])
    if modality is Modality.AOA:
        # tangential direction / distance: grad atan2 = (-dy, dx) / d^2
        return np.array([-dy / (d * d), dx / (d * d)])
    raise ValueError(f"unknown modality: {modality!r}")


def wrap_angle(a: float) -> float:
    """Wrap an angle to ``(-pi, pi]``, preserving its value mod 2*pi."""
    if -math.pi < a <= math.pi:
        return a
    w = (a + math.pi) % TAU - math.pi
    return math.pi if w == -math.pi else w
