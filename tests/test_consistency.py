"""Estimator consistency: the textbook filter's covariance must cover its
own error.

With no NLOS the ``ekf`` kind is a plain EKF on a static target, so the
normalized estimation error squared ``e^T P^-1 e`` of its 4-state belief
(``e`` against ``[*truth, delta_r, delta_theta_rad]``) is chi-square with 4
degrees of freedom when the filter is consistent, and the mean over ``N``
independent runs is chi-square(4N) / N. ``process_noise`` inflates ``P``
for a target that never moves, so the filter errs on the conservative
side; the check is one-sided, against an overconfident covariance.
"""

import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest

from asymloc.experiment import World
from asymloc.filters import RobustEkf, make_filter_config
from asymloc.planners import PlannerConfig, make_planner
from asymloc.sim_env import get_preset
from arrays import cov_of, mean_of

N_RUNS = 50
N_STEPS = 300
FIRST_CHECKED_STEP = 50


def chi_square_quantile(dof: int, prob: float) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + NormalDist().inv_cdf(prob) * math.sqrt(c)) ** 3


def ekf_passive_nees(scenario) -> np.ndarray:
    """Per-run, per-step NEES of the ``ekf`` posterior after the step's
    updates, in the lawnmower's closed loop as ``run_single`` runs it (same
    first-fix guess, same step order), which does not expose the covariance."""
    cfg = make_filter_config("ekf", scenario.sigma_r, scenario.sigma_theta_rad)
    truth = np.array([*scenario.truth, scenario.delta_r, scenario.delta_theta_rad])
    errors = np.empty((N_RUNS, scenario.steps, 4))
    covs = np.empty((N_RUNS, scenario.steps, 4, 4))
    for i in range(N_RUNS):
        world = World(scenario, scenario.seed + i)
        agent = np.asarray(scenario.start, dtype=float)
        obs = world.observe(agent, 0)
        guess = np.clip(agent + obs[0].value * np.array([math.cos(obs[1].value),
                                                         math.sin(obs[1].value)]),
                        0.0, scenario.arena)
        filt = RobustEkf(cfg, guess)
        planner = make_planner("passive", PlannerConfig(arena=scenario.arena))
        for t in range(scenario.steps):
            filt.predict()
            if t > 0:
                obs = world.observe(agent, t)
            if obs is not None:  # the lawnmower may pass exactly over the target
                filt.update(obs[0])
                filt.update(obs[1])
            errors[i, t] = mean_of(filt.state) - truth
            covs[i, t] = cov_of(filt.state)
            agent = planner.next_pose(agent, filt.state.m[:2])
    return np.einsum("rti,rti->rt", errors, np.linalg.solve(covs, errors[..., None])[..., 0])


@pytest.mark.parametrize("preset", ["canonical_medium", "canonical_low"])
def test_ekf_mean_nees_stays_under_the_chi_square_bound(preset):
    scenario = dataclasses.replace(get_preset(preset), p_nlos=0.0, steps=N_STEPS)
    mean_nees = ekf_passive_nees(scenario).mean(axis=0)
    bound = chi_square_quantile(4 * N_RUNS, 0.999) / N_RUNS
    late = mean_nees[FIRST_CHECKED_STEP:]
    print(f"\n{preset}: mean NEES over {N_RUNS} runs, steps {FIRST_CHECKED_STEP}.."
          f"{N_STEPS - 1}: average {late.mean():.2f}, max {late.max():.2f} "
          f"(step {FIRST_CHECKED_STEP + int(late.argmax())}); bound {bound:.2f}")
    assert np.all(np.isfinite(late))
    assert late.max() < bound, (int(late.argmax()) + FIRST_CHECKED_STEP, late.max(), bound)


def test_wilson_hilferty_matches_tabulated_quantiles():
    # chi-square tables: 99.9% and 50% at 200 dof
    assert chi_square_quantile(200, 0.999) == pytest.approx(267.54, rel=1e-3)
    assert chi_square_quantile(200, 0.5) == pytest.approx(199.33, rel=1e-3)
