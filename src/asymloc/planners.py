"""Motion strategies: passive sweep, reactive crossing, and information-optimal.

All planners are dynamics-free guidance laws: they map (current pose,
current target estimate) to the next pose, moving at most ``eta`` meters
per step and staying inside the square arena.

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

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .geometry import Modality
from .knobs import check, knob
from .observability import eig2x2_sym


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


def clamp_to_arena(pose: np.ndarray, arena: float) -> np.ndarray:
    return np.clip(pose, 0.0, arena)


def reactive_crossing(agent, estimate, cfg: PlannerConfig) -> np.ndarray:
    """Step toward the point ``ell`` meters past the estimate.

    Staying put once within ``eps_stop`` of the estimate keeps the agent
    from orbiting a converged solution. The step length is exactly ``eta``
    (before arena clamping).
    """
    a = np.asarray(agent, dtype=float)
    e = np.asarray(estimate, dtype=float)
    gap = e - a
    dist = float(np.hypot(gap[0], gap[1]))
    if dist < cfg.eps_stop:
        return a.copy()
    d = gap / dist
    crossing_point = e + cfg.ell * d
    v = crossing_point - a
    v_norm = float(np.hypot(v[0], v[1]))
    step = a + cfg.eta * v / v_norm
    return clamp_to_arena(step, cfg.arena)


def fim(estimate, candidate, noise: Mapping[Modality, float]) -> np.ndarray:
    """Single-measurement Fisher information of the position, 2x2.

    Sum over the modalities present in ``noise`` of ``J J^T / sigma^2``
    with the Jacobians evaluated at (estimate, candidate). Range and
    bearing Jacobians are orthogonal, so using both gives rank 2.
    """
    e = np.asarray(estimate, dtype=float)
    c = np.asarray(candidate, dtype=float)
    dx, dy = e[0] - c[0], e[1] - c[1]
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        raise ValueError("Fisher information undefined for candidate at the estimate")
    m = np.zeros((2, 2))
    if Modality.RTT in noise:
        s2 = noise[Modality.RTT] ** 2
        m += np.array([[dx * dx, dx * dy], [dx * dy, dy * dy]]) / (d2 * s2)
    if Modality.AOA in noise:
        s2 = noise[Modality.AOA] ** 2
        m += np.array([[dy * dy, -dx * dy], [-dx * dy, dx * dx]]) / (d2 * d2 * s2)
    return m


def fim_e_optimal(agent, estimate, cfg: PlannerConfig,
                  noise: Mapping[Modality, float]) -> np.ndarray:
    """Pick the candidate pose maximizing ``lambda_min`` of the Fisher
    information at the current estimate.

    Candidates are ``candidate_count`` headings on the circle of radius
    ``eta`` around the agent, plus staying put (listed last). Candidates
    outside the arena or coincident with the estimate are excluded; exact
    ties go to the first surviving candidate. If nothing survives, the
    agent stays.
    """
    a = np.asarray(agent, dtype=float)
    e = np.asarray(estimate, dtype=float)
    n = cfg.candidate_count
    candidates = [a + cfg.eta * np.array([math.cos(t), math.sin(t)])
                  for t in 2.0 * math.pi * np.arange(n) / n]
    candidates.append(a.copy())

    scores = np.full(n + 1, -np.inf)
    for i, c in enumerate(candidates):
        if not (0.0 <= c[0] <= cfg.arena and 0.0 <= c[1] <= cfg.arena):
            continue
        if c[0] == e[0] and c[1] == e[1]:
            continue
        scores[i], _ = eig2x2_sym(fim(e, c, noise))
    best = float(scores.max())
    if not np.isfinite(best):
        return a.copy()
    # candidates within fp noise of the optimum count as exact ties, so the
    # first-index rule (not rounding artifacts) decides flat regions
    tol = 1e-9 * max(1.0, abs(best))
    winner = int(np.argmax(scores >= best - tol))
    return candidates[winner].copy()


class LawnmowerPlanner:
    """Boustrophedon sweep: advance ``eta`` along the current track, shift
    by ``lawnmower_spacing`` and reverse at the arena edge; the vertical
    sweep direction flips when the shift would leave the arena. All state
    is explicit, so the path is deterministic given the start."""

    def __init__(self, cfg: PlannerConfig):
        self.cfg = cfg
        self._dx = 1.0
        self._dy = 1.0

    def next_pose(self, agent, estimate=None) -> np.ndarray:
        a = np.asarray(agent, dtype=float)
        cfg = self.cfg
        nx = a[0] + self._dx * cfg.eta
        if 0.0 <= nx <= cfg.arena:
            return np.array([nx, a[1]])
        ny = a[1] + self._dy * cfg.lawnmower_spacing
        if not 0.0 <= ny <= cfg.arena:
            self._dy = -self._dy
            ny = a[1] + self._dy * cfg.lawnmower_spacing
        self._dx = -self._dx
        return clamp_to_arena(np.array([a[0], ny]), cfg.arena)


class ReactiveCrossingPlanner:
    def __init__(self, cfg: PlannerConfig):
        self.cfg = cfg

    def next_pose(self, agent, estimate) -> np.ndarray:
        return reactive_crossing(agent, estimate, self.cfg)


class FimPlanner:
    def __init__(self, cfg: PlannerConfig, noise: Mapping[Modality, float]):
        self.cfg = cfg
        self.noise = dict(noise)

    def next_pose(self, agent, estimate) -> np.ndarray:
        return fim_e_optimal(agent, estimate, self.cfg, self.noise)


PLANNER_KINDS = ("passive", "reactive", "fim")


def make_planner(kind: str, cfg: PlannerConfig,
                 noise: Optional[Mapping[Modality, float]] = None):
    """Instantiate a planner by registry name (fresh state per run)."""
    if kind == "passive":
        return LawnmowerPlanner(cfg)
    if kind == "reactive":
        return ReactiveCrossingPlanner(cfg)
    if kind == "fim":
        if noise is None:
            raise ValueError("fim planner needs per-modality noise scales")
        return FimPlanner(cfg, noise)
    raise ValueError(f"unknown planner kind {kind!r}; expected one of {PLANNER_KINDS}")
