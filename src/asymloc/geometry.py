"""Planar geometry for range/bearing observation of a static target.

The world is a flat 2D plane (nadir-view abstraction: the agent flies at a
known, constant altitude, so the vertical axis never enters the math). This
module holds the one observation model: :func:`linearize` predicts a
:class:`Measurement` with its position Jacobian, and the world measures
through it. ``filters.update`` writes its expressions inline in each IRLS
round, and a property test pins that round to :func:`linearize` bit for
bit. Angle arithmetic completes it. A point is anything indexable as
``p[0]``, ``p[1]``: an ``(x, y)`` tuple or an array.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

TAU = 2.0 * math.pi


class CoincidentPointsError(ValueError):
    """Agent and target coincide; bearing and Jacobians are undefined there."""


class Modality(Enum):
    """Sensor modality of a single measurement."""

    RTT = "rtt"
    AOA = "aoa"


class Measurement(NamedTuple):
    """One observation from a known agent position ``(x, y)``."""

    modality: Modality
    value: float
    agent: tuple[float, float]


def linearize(target, agent, bearing: bool = False) -> tuple[float, float, float, float]:
    """The observation at ``target`` seen from ``agent`` and its position
    Jacobian, from one distance evaluation: ``(prediction, range, j0, j1)``.

    The prediction is the range d, or with ``bearing`` the bearing
    ``atan2(dy, dx)``. The Jacobian is the gradient of the prediction
    w.r.t. the target position. For range it is the unit radial vector
    u = (target - agent) / d. For bearing it is the unit tangential vector
    (u rotated +90 degrees) scaled by 1/d. The two directions are orthogonal
    by construction; only the bearing magnitude decays with distance.

    Raises
    ------
    CoincidentPointsError
        If d = 0 (bearing and both Jacobians undefined there), or for the
        bearing if ``d * d`` underflows to 0 (its Jacobian overflows).
    """
    dx, dy = target[0] - agent[0], target[1] - agent[1]
    d = math.hypot(dx, dy)
    if d == 0.0:
        raise CoincidentPointsError("Jacobian undefined for coincident target/agent")
    if bearing:
        # tangential direction / distance: grad atan2 = (-dy, dx) / d^2
        d2 = d * d
        if d2 == 0.0:
            raise CoincidentPointsError("bearing Jacobian overflows at this distance")
        return math.atan2(dy, dx), d, -dy / d2, dx / d2
    return d, d, dx / d, dy / d


def wrap_angle(a: float) -> float:
    """Wrap an angle to ``(-pi, pi]``, preserving its value mod 2*pi."""
    if -math.pi < a <= math.pi:
        return a
    w = (a + math.pi) % TAU - math.pi
    return math.pi if w == -math.pi else w
