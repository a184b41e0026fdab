"""End-to-end acceptance suite.

Each numbered test checks one exit criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see the lines on
success). The statistical criteria share two session-scoped Monte Carlo
ensembles: the stochastic-channel scenario and the structured-obstacle
scenario, 50 runs x 300 steps each.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from asymloc.cli import main as cli_main
from asymloc.experiment import GridSpec, run_grid, run_single
from asymloc.filters import Measurement, init_state, make_filter_config, predict, update
from asymloc.geometry import Modality, h_aoa, h_rtt, wrap_angle
from asymloc.losses import LossSpec, k_from_lambda, lambda_from_k, loss, loss_grad
from asymloc.observability import CurvatureSample, accumulate, crossing_improves
from asymloc.planners import PlannerConfig, fim_e_optimal, reactive_crossing
from asymloc.sim_env import Scenario, get_preset

from arrays import cov_of, matrix_of, mean_of
from test_filters import independent_plain_ekf


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def canonical_grid():
    return GridSpec(scenario=get_preset("canonical_medium"),
                    filters=("proposed", "huber"),
                    planners=("passive", "reactive", "fim"),
                    n_runs=50, threshold=2.5, n_jobs=2)


def assert_no_aborts(results, grid):
    # the metrics' nanmean would silently average over the surviving runs
    for cell in results.values():
        assert cell.live_runs == [grid.n_runs] * grid.scenario.steps, (
            cell.combination, [r.abort_reason for r in cell.runs if r.aborted_at is not None])


@pytest.fixture(scope="session")
def canonical():
    grid = canonical_grid()
    tic = time.perf_counter()
    results = run_grid(grid)
    elapsed = time.perf_counter() - tic
    assert_no_aborts(results, grid)
    return results, elapsed


@pytest.fixture(scope="session")
def obstacle():
    grid = GridSpec(scenario=get_preset("obstacle"),
                    filters=("proposed",), planners=("reactive", "fim"),
                    n_runs=50, threshold=2.5, n_jobs=2)
    results = run_grid(grid)
    assert_no_aborts(results, grid)
    return results


def test_criterion_01_loss_layer_analytics():
    tic = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_val_gap = 0.0
    worst_arg_gap = 0.0
    for _ in range(1000):
        r = float(rng.uniform(-5, 10))
        lam = float(rng.uniform(0.1, 2.0))
        sigma = float(rng.uniform(0.5, 2.0))
        spec = LossSpec.one_sided(sigma=sigma, lam=lam)
        b_star = max(0.0, r - spec.tau)
        from asymloc.losses import soft_threshold_bias
        assert soft_threshold_bias(r, spec) == b_star
        # dense scan of the bias subproblem; anything above max(r, 0) is
        # dominated, so the grid stops there
        grid = np.arange(0.0, max(r, 0.0) + 2e-4, 1e-4)
        vals = (r - grid) ** 2 / (2 * sigma**2) + lam * grid
        i = int(np.argmin(vals))
        f_star = (r - b_star) ** 2 / (2 * sigma**2) + lam * b_star
        worst_val_gap = max(worst_val_gap, abs(f_star - float(vals[i])))
        worst_arg_gap = max(worst_arg_gap, abs(b_star - float(grid[i])))
    assert worst_val_gap <= 1e-6
    assert worst_arg_gap <= 1e-4

    # continuity and C1 smoothness at the threshold
    for _ in range(100):
        spec = LossSpec.one_sided(sigma=float(rng.uniform(0.3, 3)), lam=float(rng.uniform(0.1, 3)))
        t = spec.tau
        assert abs(loss(t + 1e-12, spec) - loss(t - 1e-12, spec)) <= 1e-9
        assert abs(loss_grad(t + 1e-12, spec) - loss_grad(t - 1e-12, spec)) <= 1e-9

    # convexity over random triples, every family
    for spec in (LossSpec.one_sided(sigma=1.2, lam=0.9),
                 LossSpec.symmetric(sigma=1.2, k=1.1),
                 LossSpec.quadratic(sigma=1.2)):
        r1 = rng.uniform(-30, 30, 1000)
        r2 = rng.uniform(-30, 30, 1000)
        th = rng.uniform(0, 1, 1000)
        for a, b, t in zip(r1, r2, th):
            assert loss(t * a + (1 - t) * b, spec) <= t * loss(a, spec) + (1 - t) * loss(b, spec) + 1e-9

    elapsed = time.perf_counter() - tic
    ok = elapsed < 5.0
    report(1, "loss-layer analytics", ok,
           f"value gap {worst_val_gap:.1e}, argmin gap {worst_arg_gap:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_parameter_equivalence():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        lam = float(rng.uniform(1e-3, 10))
        sigma = float(rng.uniform(1e-3, 10))
        k = k_from_lambda(lam, sigma)
        worst = max(worst,
                    abs(lambda_from_k(k, sigma) - lam) / lam,
                    abs(lam * sigma**2 - k * sigma) / (lam * sigma**2))
    ok = worst <= 1e-12
    report(2, "parameter equivalence", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_03_curvature_degeneracy():
    tic = time.perf_counter()
    rng = np.random.default_rng(1003)
    # all-saturated set collapses to the zero matrix
    saturated = [CurvatureSample(rng.normal(0, 1, 2), 0.0, True) for _ in range(40)]
    rep = accumulate(saturated)
    assert np.array_equal(matrix_of(rep), np.zeros((2, 2)))
    assert rep.lambda_min == 0.0

    worst_gain = math.inf
    n_checked = 0
    while n_checked < 1000:
        base = [CurvatureSample(rng.normal(0, 1, 2), float(rng.uniform(0.1, 2)), False)
                for _ in range(int(rng.integers(1, 6)))]
        before = accumulate(base)
        if before.lambda_max - before.lambda_min < 1e-9:
            continue
        _, evecs = np.linalg.eigh(matrix_of(before))
        angle = float(rng.uniform(-np.deg2rad(80), np.deg2rad(80)))
        c, s = math.cos(angle), math.sin(angle)
        j = np.array([[c, -s], [s, c]]) @ evecs[:, 0]
        _, gain = crossing_improves(before, CurvatureSample(j, float(rng.uniform(0.1, 2)), False))
        worst_gain = min(worst_gain, gain)
        n_checked += 1
    elapsed = time.perf_counter() - tic
    ok = worst_gain > 0.0 and elapsed < 5.0
    report(3, "curvature degeneracy and recovery", ok,
           f"min eigenvalue gain {worst_gain:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_04_passive_rmse_ordering(canonical):
    results, elapsed = canonical
    prop = results[("proposed", "passive")].metrics.final_rmse
    hub = results[("huber", "passive")].metrics.final_rmse
    ok = hub > prop and prop < 1.0 and elapsed < 120.0
    report(4, "stagnation vs asymmetric modeling", ok,
           f"huber(passive) {hub:.3f} m > proposed(passive) {prop:.3f} m < 1.0, grid {elapsed:.0f}s")
    assert hub > prop
    assert prop < 1.0
    assert elapsed < 120.0


def test_criterion_05_bilateral_acceleration(canonical):
    results, _ = canonical
    t_pass = results[("proposed", "passive")].metrics.steps_to_threshold
    t_rea = results[("proposed", "reactive")].metrics.steps_to_threshold
    t_fim = results[("proposed", "fim")].metrics.steps_to_threshold
    ok = (t_pass is not None and t_rea is not None and t_fim is not None
          and t_rea <= 0.5 * t_pass and t_fim <= t_rea + 10)
    report(5, "bilateral acceleration", ok,
           f"settle steps: passive {t_pass}, reactive {t_rea}, fim {t_fim}")
    assert t_pass is not None and t_rea is not None and t_fim is not None
    assert t_rea <= 0.5 * t_pass
    assert t_fim <= t_rea + 10


def test_ensemble_rmse_monotone_after_approach(canonical):
    # supporting property: reactive ensemble error keeps shrinking (10%
    # ripple) once it first dips below 5 m
    results, _ = canonical
    rmse = results[("proposed", "reactive")].metrics.rmse_series
    assert rmse.min() < 5.0
    seg = rmse[int(np.argmax(rmse < 5.0)):]
    floor = np.minimum.accumulate(seg)
    assert (seg <= 1.10 * floor + 1e-12).all()


def _rtt_residual_density(x, scenario):
    """Density of the range residual ``delta_r + b_r + eps_r`` of the
    stochastic channel: LOS is Gaussian about the offset, NLOS adds an
    exponential bias (an exponentially modified Gaussian)."""
    s, mu, p = scenario.sigma_r, scenario.mu_nlos, scenario.p_nlos
    z = x - scenario.delta_r
    los = np.exp(-0.5 * (z / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    gauss_cdf = 0.5 * np.vectorize(math.erfc)((s / mu - z / s) / math.sqrt(2.0))
    nlos = np.exp(0.5 * (s / mu) ** 2 - z / mu) * gauss_cdf / mu
    return (1.0 - p) * los + p * nlos


def _rtt_residual_grid(scenario, dx=2e-3):
    """Quadrature nodes and weights covering the residual density; the
    exponential tail is cut at exp(-40)."""
    lo = scenario.delta_r - 12.0 * scenario.sigma_r
    hi = scenario.delta_r + 40.0 * scenario.mu_nlos + 12.0 * scenario.sigma_r
    x = np.arange(lo, hi, dx)
    return x, _rtt_residual_density(x, scenario) * dx


def bias_fixed_point(scenario, psi):
    """Offset ``delta`` solving ``E[psi(r - delta)] = 0`` over the channel.

    Under IRLS weighting (``R_eff = sigma^2 / w``) each range update pulls
    the learned offset by ``psi`` of its residual, so the offset settles
    where the mean influence vanishes. The mean influence is
    non-increasing in ``delta``; the root is bracketed by the grid and
    found by bisection.
    """
    x, wts = _rtt_residual_grid(scenario)
    lo, hi = float(x[0]), float(x[-1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(np.sum(psi(x - mid) * wts)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def one_sided_psi(tau):
    return lambda r: np.minimum(r, tau)


def symmetric_psi(tau):
    return lambda r: np.clip(r, -tau, tau)


def test_bias_fixed_point_oracle_closed_forms():
    grid = canonical_grid()
    sc = grid.scenario
    fc = make_filter_config("huber", sc.sigma_r, sc.sigma_theta_rad, grid.filter_params)
    tau = fc.rtt_loss.tau
    _, wts = _rtt_residual_grid(sc)
    assert abs(float(wts.sum()) - 1.0) <= 1e-9

    # symmetric channel: the symmetric influence balances at the offset
    los_only = dataclasses.replace(sc, p_nlos=0.0)
    assert abs(bias_fixed_point(los_only, symmetric_psi(tau)) - sc.delta_r) <= 1e-6

    # a threshold beyond the whole residual range makes both losses
    # quadratic, so both roots are the residual mean
    mean = sc.delta_r + sc.p_nlos * sc.mu_nlos
    for psi in (one_sided_psi(1e4), symmetric_psi(1e4)):
        assert abs(bias_fixed_point(sc, psi) - mean) <= 1e-6

    # pointwise psi_one_sided <= psi_symmetric orders the roots
    assert bias_fixed_point(sc, one_sided_psi(tau)) < bias_fixed_point(sc, symmetric_psi(tau))


# Monte Carlo offsets after 300 steps sit 0.1-0.25 m above the fixed points
# (the bias series is still drifting down); the gap between the two filters
# tracks the analytic gap far more tightly
FIXED_POINT_TOL = 0.4
FIXED_POINT_GAP_TOL = 0.15


def test_criterion_06_bias_learning(canonical):
    results, _ = canonical
    grid = canonical_grid()
    prop = float(results[("proposed", "passive")].metrics.bias_r_series[-1])
    hub = float(results[("huber", "passive")].metrics.bias_r_series[-1])
    in_band = 3.0 <= prop <= 9.0

    # With IRLS weighting each filter's learned offset settles where its
    # mean influence vanishes, E[psi(r - delta)] = 0, with psi = min(r, tau)
    # for the one-sided loss and psi = clip(r, -tau, tau) for the symmetric
    # one. psi_one_sided <= psi_symmetric pointwise (the symmetric loss caps
    # the pull of negative residuals that the one-sided loss keeps
    # quadratic), so the symmetric baseline learns the larger offset. Each
    # filter must land on its own loss's fixed point.
    fixed = {}
    for kind, psi in (("proposed", one_sided_psi), ("huber", symmetric_psi)):
        sc = grid.scenario
        fc = make_filter_config(kind, sc.sigma_r, sc.sigma_theta_rad, grid.filter_params)
        tau = fc.rtt_loss.tau
        fixed[kind] = bias_fixed_point(grid.scenario, psi(tau))
    gap, fixed_gap = hub - prop, fixed["huber"] - fixed["proposed"]
    on_own = (abs(prop - fixed["proposed"]) <= FIXED_POINT_TOL
              and abs(hub - fixed["huber"]) <= FIXED_POINT_TOL)
    gap_ok = abs(gap - fixed_gap) <= FIXED_POINT_GAP_TOL
    ok = in_band and hub > prop and on_own and gap_ok
    report(6, "bias learning", ok,
           f"proposed learned offset {prop:.2f} m (band [3, 9]: {in_band}, "
           f"fixed point {fixed['proposed']:.2f} m), huber {hub:.2f} m "
           f"(fixed point {fixed['huber']:.2f} m), gap {gap:.2f} m vs {fixed_gap:.2f} m")
    assert in_band
    assert hub > prop, (f"huber {hub:.2f} <= proposed {prop:.2f}: the symmetric "
                        "baseline's fixed point lies above the one-sided one")
    assert on_own, (f"learned offsets proposed {prop:.2f} m, huber {hub:.2f} m; fixed "
                    f"points {fixed['proposed']:.2f} m, {fixed['huber']:.2f} m "
                    f"(tolerance {FIXED_POINT_TOL} m)")
    assert gap_ok, (f"offset gap {gap:.2f} m vs fixed-point gap {fixed_gap:.2f} m "
                    f"(tolerance {FIXED_POINT_GAP_TOL} m)")


def test_criterion_07_planner_cost_ordering():
    # sequential micro-benchmark (grid timings under a process pool carry
    # scheduler noise): per-decision wall time, 16 candidates
    cfg = PlannerConfig(candidate_count=16, arena=100.0)
    noise = {Modality.RTT: 1.5, Modality.AOA: math.radians(2.0)}
    agent = np.array([40.0, 40.0])
    est = np.array([60.0, 55.0])

    def time_per_call(fn, reps=3000):
        best = math.inf
        for _ in range(3):
            tic = time.perf_counter()
            for _ in range(reps):
                fn()
            best = min(best, (time.perf_counter() - tic) / reps)
        return best

    t_rea = time_per_call(lambda: reactive_crossing(agent, est, cfg))
    t_fim = time_per_call(lambda: fim_e_optimal(agent, est, cfg, noise))
    ratio = t_fim / t_rea
    ok = ratio >= 5.0
    report(7, "planner cost ordering", ok,
           f"fim {t_fim * 1e6:.1f} us/step vs reactive {t_rea * 1e6:.1f} us/step, ratio {ratio:.1f}x")
    assert ok


def test_criterion_08_obstacle_reversal(obstacle):
    rea = obstacle[("proposed", "reactive")].metrics.final_rmse
    fim = obstacle[("proposed", "fim")].metrics.final_rmse
    ok = rea < fim
    report(8, "structured-obstacle reversal", ok,
           f"reactive {rea:.3f} m vs fim {fim:.3f} m")
    # held at ten scenario seed bases, reactive at least 2.0 m below fim
    assert ok


def test_criterion_09_reduction_sanity():
    # quadratic-loss filter vs an independently written textbook EKF
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(100):
        sigma_r = float(rng.uniform(0.5, 2.0))
        sigma_t = float(rng.uniform(0.02, 0.1))
        cfg = make_filter_config("ekf", sigma_r, sigma_t)
        truth = rng.uniform(20, 80, 2)
        st = init_state(cfg, rng.uniform(20, 80, 2))
        mean_ref, cov_ref = mean_of(st), cov_of(st)
        for step in range(10):
            agent = tuple(rng.uniform(0, 100, 2))
            if h_rtt(truth, agent) < 2.0:
                continue
            if step % 2 == 0:
                z = Measurement(Modality.RTT,
                                h_rtt(truth, agent) + float(rng.normal(0, sigma_r)), agent)
                sig = sigma_r
            else:
                z = Measurement(Modality.AOA,
                                wrap_angle(h_aoa(truth, agent) + float(rng.normal(0, sigma_t))), agent)
                sig = sigma_t
            st = predict(st, cfg.params.process_noise)
            st, _ = update(st, z, cfg)
            mean_ref, cov_ref = independent_plain_ekf(mean_ref, cov_ref, z, sig,
                                                     cfg.params.process_noise)
            worst = max(worst, float(np.abs(mean_of(st) - mean_ref).max()),
                        float(np.abs(cov_of(st) - cov_ref).max()))
    assert worst <= 1e-9

    # zero-noise closed loop converges below 1 cm within 30 steps
    sc = Scenario(p_nlos=0.0, sigma_r=1e-9, sigma_theta_deg=1e-9,
                  delta_r=0.0, delta_theta_deg=0.0, steps=40)
    fc = make_filter_config("ekf", sc.sigma_r, sc.sigma_theta_rad)
    res = run_single(sc, fc, "reactive", PlannerConfig(arena=sc.arena), run_seed=0)
    converged = bool((res.errors[29:] < 0.01).all())
    ok = worst <= 1e-9 and converged
    report(9, "reduction sanity", ok,
           f"max EKF deviation {worst:.1e}, noise-free error at step 30 {res.errors[29]:.2e} m")
    assert converged


def test_criterion_10_determinism(tmp_path):
    common = ["--preset", "canonical_medium", "--seed", "42", "--runs", "2",
              "--steps", "40", "--filters", "proposed", "--planners", "reactive"]
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["run", *common, "--out", str(out), "--no-timing"]) == 0
        blobs.append(b"".join(sorted(p.read_bytes() for p in out.glob("*.csv"))))
    identical = blobs[0] == blobs[1]

    masked = []
    for sub in ("c", "d"):
        out = tmp_path / sub
        assert cli_main(["run", *common, "--out", str(out)]) == 0
        lines = (out / "proposed_reactive.csv").read_text().splitlines()
        masked.append([ln.rsplit(",", 1)[0] for ln in lines])
    stable = masked[0] == masked[1]

    ok = identical and stable
    report(10, "seeded determinism", ok,
           f"byte-identical without timing: {identical}; stable modulo cost column: {stable}")
    assert identical
    assert stable
