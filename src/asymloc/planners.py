"""Motion strategies: passive sweep, reactive crossing, and information-optimal.

All planners are dynamics-free guidance laws: they map (current pose,
current target estimate) to the next pose, an ``(x, y)`` float pair, moving
at most ``eta`` meters per step and staying inside the square arena.

* ``lawnmower`` -- boustrophedon sweep, ignores the estimate entirely; the
  no-information-seeking control case.
* ``reactive_crossing`` -- steers at a point ``ell`` meters beyond the
  estimate, so the agent repeatedly overshoots and views the target from
  the far side; O(1) per step.
* ``fim_e_optimal`` -- evaluates a ring of candidate poses and picks the
  one maximizing the minimum eigenvalue of the single-measurement Fisher
  information at the current estimate; the expensive benchmark.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from .geometry import Modality
from .knobs import check, knob


@dataclass(frozen=True)
class PlannerConfig:
    """Shared planner knobs; ``arena`` is the side length of the square world."""

    eta: float = knob(5.0, "planner", gt=0.0)
    ell: float = knob(20.0, "planner", gt=0.0)
    eps_stop: float = knob(0.1, "planner", ge=0.0)
    candidate_count: int = knob(16, "planner", ge=2)
    lawnmower_spacing: float = knob(10.0, "planner", gt=0.0)
    arena: float = knob(100.0, gt=0.0)  # taken from the scenario, not a config key

    def __post_init__(self):
        check(self)


def reactive_crossing(agent, estimate, cfg: PlannerConfig) -> tuple[float, float]:
    """Step toward the point ``ell`` meters past the estimate.

    Staying put once within ``eps_stop`` of the estimate (or exactly on it,
    where no direction is defined) keeps the agent from orbiting a converged
    solution. The step length is exactly ``eta`` (before arena clamping).
    """
    ax, ay = float(agent[0]), float(agent[1])
    ex, ey = float(estimate[0]), float(estimate[1])
    gx, gy = ex - ax, ey - ay
    dist = math.hypot(gx, gy)
    if dist < cfg.eps_stop or dist == 0.0:
        return ax, ay
    vx = ex + cfg.ell * (gx / dist) - ax
    vy = ey + cfg.ell * (gy / dist) - ay
    v_norm = math.hypot(vx, vy)
    return (min(max(ax + cfg.eta * vx / v_norm, 0.0), cfg.arena),
            min(max(ay + cfg.eta * vy / v_norm, 0.0), cfg.arena))


def fim(estimate, candidate, noise: Mapping[Modality, float]) -> tuple[float, float, float]:
    """Single-measurement Fisher information of the position: the floats
    ``(a, b, c)`` of the symmetric 2x2 ``[[a, b], [b, c]]``.

    The sum of ``J J^T / sigma^2`` over the range and the bearing rows, with
    the Jacobians evaluated at (estimate, candidate) and each sigma read from
    ``noise``; a map without both modalities raises the ``KeyError`` that
    names the missing one. Range and bearing Jacobians are orthogonal, so
    the sum has rank 2. The same entry formula is inlined in
    :func:`fim_e_optimal`'s candidate loop. Raises ``ValueError`` wherever
    an entry's denominator is 0 (a candidate at the estimate, or so near it
    that ``d2 * d2`` underflows).
    """
    dx, dy = float(estimate[0]) - float(candidate[0]), float(estimate[1]) - float(candidate[1])
    d2 = dx * dx + dy * dy
    k_r, k_theta = d2 * noise[Modality.RTT] ** 2, d2 * d2 * noise[Modality.AOA] ** 2
    a = b = c = 0.0
    try:
        a += dx * dx / k_r
        b += dx * dy / k_r
        c += dy * dy / k_r
        a += dy * dy / k_theta
        b -= dx * dy / k_theta
        c += dx * dx / k_theta
    except ZeroDivisionError:
        raise ValueError("Fisher information undefined for candidate at the estimate") from None
    return a, b, c


@functools.lru_cache
def _ring(n: int, eta: float) -> tuple[tuple[float, float], ...]:
    """The offsets of ``n`` headings on the circle of radius ``eta``."""
    return tuple((eta * math.cos(2.0 * math.pi * i / n), eta * math.sin(2.0 * math.pi * i / n))
                 for i in range(n))


def fim_e_optimal(agent, estimate, cfg: PlannerConfig,
                  noise: Mapping[Modality, float]) -> tuple[float, float]:
    """Pick the candidate pose maximizing ``lambda_min`` of the Fisher
    information at the current estimate.

    Candidates are ``candidate_count`` headings on the circle of radius
    ``eta`` around the agent, plus staying put (listed last). Candidates
    outside the arena or coincident with the estimate are excluded; any
    other candidate where :func:`fim` raises ``ValueError`` makes this raise
    it too, and ``noise`` without both modalities raises :func:`fim`'s
    ``KeyError``. Scores within ``1e-9 * max(1, |best|)`` of the best tie,
    and ties go to the first surviving candidate. If nothing survives, the
    agent stays.

    The score is a standoff rule. At distance ``d`` from the estimate the
    range row contributes ``1/sigma_r^2`` along the radial direction and the
    bearing row ``1/(d^2 sigma_theta^2)`` along the tangential one, so
    ``lambda_min = min(1/sigma_r^2, 1/(d^2 sigma_theta^2))``.
    Every candidate within ``d* = sigma_r / sigma_theta`` of the estimate
    (43 m on ``canonical_medium``) ties at ``1/sigma_r^2`` and the first
    such candidate wins; if none is that close, the nearest candidate wins.

    Each score is :func:`fim`'s entries and ``eig_sym``'s smaller
    eigenvalue, inlined with the same operations in the same order.
    """
    ax, ay = float(agent[0]), float(agent[1])
    ex, ey = float(estimate[0]), float(estimate[1])
    var_r, var_theta = noise[Modality.RTT] ** 2, noise[Modality.AOA] ** 2
    arena = cfg.arena
    candidates = [(ax + ox, ay + oy) for ox, oy in _ring(cfg.candidate_count, cfg.eta)]
    candidates.append((ax, ay))

    scores = []
    try:
        for cx, cy in candidates:
            if not (0.0 <= cx <= arena and 0.0 <= cy <= arena) or (cx == ex and cy == ey):
                scores.append(-math.inf)
                continue
            dx, dy = ex - cx, ey - cy
            d2 = dx * dx + dy * dy
            k_r, k_theta = d2 * var_r, d2 * d2 * var_theta
            a = b = c = 0.0
            a += dx * dx / k_r
            b += dx * dy / k_r
            c += dy * dy / k_r
            a += dy * dy / k_theta
            b -= dx * dy / k_theta
            c += dx * dx / k_theta
            scores.append(0.5 * (a + c) - math.hypot(0.5 * (a - c), b))
    except ZeroDivisionError:
        raise ValueError("Fisher information undefined for candidate at the estimate") from None
    best = max(scores)
    if not math.isfinite(best):
        return ax, ay
    # candidates within fp noise of the optimum count as exact ties, so the
    # first-index rule (not rounding artifacts) decides flat regions
    tol = 1e-9 * max(1.0, abs(best))
    winner = next(i for i, s in enumerate(scores) if s >= best - tol)
    return candidates[winner]


class LawnmowerPlanner:
    """Boustrophedon sweep: advance ``eta`` along the current track, shift
    by ``lawnmower_spacing`` and reverse at the arena edge; the vertical
    sweep direction flips when the shift would leave the arena. All state
    is explicit, so the path is deterministic given the start."""

    def __init__(self, cfg: PlannerConfig):
        self.cfg = cfg
        self._dx = 1.0
        self._dy = 1.0

    def next_pose(self, agent, estimate=None) -> tuple[float, float]:
        ax, ay = float(agent[0]), float(agent[1])
        cfg = self.cfg
        nx = ax + self._dx * cfg.eta
        if 0.0 <= nx <= cfg.arena:
            return nx, ay
        ny = ay + self._dy * cfg.lawnmower_spacing
        if not 0.0 <= ny <= cfg.arena:
            self._dy = -self._dy
            ny = ay + self._dy * cfg.lawnmower_spacing
        self._dx = -self._dx
        return min(max(ax, 0.0), cfg.arena), min(max(ny, 0.0), cfg.arena)


class ReactiveCrossingPlanner:
    def __init__(self, cfg: PlannerConfig):
        self.cfg = cfg

    def next_pose(self, agent, estimate) -> tuple[float, float]:
        return reactive_crossing(agent, estimate, self.cfg)


class FimPlanner:
    def __init__(self, cfg: PlannerConfig, noise: Mapping[Modality, float]):
        self.cfg = cfg
        self.noise = dict(noise)

    def next_pose(self, agent, estimate) -> tuple[float, float]:
        return fim_e_optimal(agent, estimate, self.cfg, self.noise)


PLANNER_KINDS = ("passive", "reactive", "fim")


def make_planner(kind: str, cfg: PlannerConfig, noise: Mapping[Modality, float]):
    """Instantiate a planner by registry name (fresh state per run)."""
    if kind == "passive":
        return LawnmowerPlanner(cfg)
    if kind == "reactive":
        return ReactiveCrossingPlanner(cfg)
    if kind == "fim":
        return FimPlanner(cfg, noise)
    raise ValueError(f"unknown planner kind {kind!r}; expected one of {PLANNER_KINDS}")
