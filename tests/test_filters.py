import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from asymloc import filters
from asymloc.filters import (FILTER_KINDS, EstimatorState, FilterConfig, FilterDivergenceError,
                             FilterParams, Measurement, RobustEkf, init_state, make_filter_config,
                             predict, update)
from asymloc.geometry import CoincidentPointsError, Modality, h_aoa, h_rtt, wrap_angle
from asymloc.losses import LossSpec, loss
from arrays import belief, cov_of, mean_of


def one_sided_config(rtt_loss=LossSpec.one_sided(sigma=1.0, lam=1.0), **params):
    return FilterConfig(rtt_loss=rtt_loss, aoa_loss=LossSpec.symmetric(sigma=0.035, k=1.345),
                        params=FilterParams(**params))


class TestInit:
    def test_constructor_example(self):
        cfg = one_sided_config(init_position_std=40.0, sigma_delta_r=2.0,
                               sigma_delta_theta_deg=math.degrees(0.0873))
        st = init_state(cfg, (50.0, 50.0))
        np.testing.assert_array_equal(mean_of(st), [50.0, 50.0, 0.0, 0.0])
        np.testing.assert_allclose(np.diag(cov_of(st)), [1600.0, 1600.0, 4.0, 0.0873**2])
        assert (cov_of(st) == cov_of(st).T).all()
        assert (np.linalg.eigvalsh(cov_of(st)) > 0).all()

    def test_offsets_start_at_zero(self):
        st = init_state(one_sided_config(), (12.0, 3.0))
        assert mean_of(st)[2] == mean_of(st)[3] == 0.0


class TestEstimatorState:
    def test_float_layout(self):
        cov = np.arange(16.0).reshape(4, 4)
        st = belief(np.array([1.0, 2.0, 3.0, 4.0]), cov + cov.T)
        assert st == EstimatorState((1.0, 2.0, 3.0, 4.0),
                                    (0.0, 5.0, 10.0, 15.0, 10.0, 15.0, 20.0, 20.0, 25.0, 30.0))
        np.testing.assert_array_equal(mean_of(st), [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(cov_of(st), cov + cov.T)

    # the array helper that builds a state from (mean, cov) refuses what the
    # float layout cannot hold
    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros(5), np.zeros((4, 1)), np.zeros((2, 2))])
    def test_mean_of_wrong_shape_is_refused(self, bad):
        with pytest.raises(ValueError, match="mean must have shape"):
            belief(bad, np.eye(4))

    @pytest.mark.parametrize("bad", [np.eye(3), np.eye(5), np.ones(16), np.ones((4, 4, 1))])
    def test_cov_of_wrong_shape_is_refused(self, bad):
        with pytest.raises(ValueError, match="exactly symmetric"):
            belief(np.zeros(4), bad)

    def test_non_symmetric_cov_is_refused(self):
        # the state keeps one triangle, so a differing lower one would be lost
        for i, j in ((1, 0), (3, 2), (0, 3)):
            bad = np.eye(4)
            bad[i, j] = 0.1
            with pytest.raises(ValueError, match="exactly symmetric"):
                belief(np.zeros(4), bad)
        near = np.eye(4)
        near[0, 1], near[1, 0] = 0.1, np.nextafter(0.1, 1.0)
        with pytest.raises(ValueError, match="exactly symmetric"):
            belief(np.zeros(4), near)

    def test_mean_and_cov_cannot_be_assigned(self):
        # neither the float tuples m and p nor their entries, and no array
        # attribute can be set beside them
        st = init_state(one_sided_config(), (50.0, 50.0))
        for name, value in (("m", (1.0, 2.0)), ("p", (1.0,) * 10), ("mean", np.ones(4)),
                            ("cov", np.eye(4))):
            with pytest.raises(AttributeError):
                setattr(st, name, value)
        with pytest.raises(TypeError):
            st.m[0] = 1.0
        assert st.m == (50.0, 50.0, 0.0, 0.0) and st.p[0] == 1600.0

    def test_copies_keep_the_floats(self):
        st = predict(init_state(one_sided_config(), (50.0, 20.0)), 1e-3)
        for copied in (pickle.loads(pickle.dumps(st)), copy.deepcopy(st)):
            assert type(copied) is EstimatorState
            assert (copied.m, copied.p) == (st.m, st.p)
            assert type(copied.m) is tuple and type(copied.p) is tuple

    @pytest.mark.parametrize("modality", [Modality.RTT, Modality.AOA])
    def test_predict_and_update_leave_their_input_unchanged(self, modality):
        cfg = one_sided_config()
        st = init_state(cfg, (50.0, 50.0))
        m, p = st.m, st.p
        grown = predict(st, 1e-3)
        agent = (10.0, 10.0)
        value = h_rtt((50.0, 50.0), agent) + 3.0 if modality is Modality.RTT else 0.3
        post, diag = update(grown, Measurement(modality, value, agent), cfg)
        assert not diag.skipped
        assert (st.m, st.p) == (m, p)
        assert grown.p != p and grown.m == m
        assert post.m != grown.m and post.p != grown.p
        assert predict(grown, 0.0).p == grown.p


class TestPredict:
    def test_zero_noise_identity(self):
        st = init_state(one_sided_config(), (10.0, 10.0))
        st2 = predict(st, 0.0)
        np.testing.assert_array_equal(mean_of(st2), mean_of(st))
        np.testing.assert_array_equal(cov_of(st2), cov_of(st))

    def test_trace_nondecreasing_and_linear(self):
        st = init_state(one_sided_config(), (10.0, 10.0))
        q = 1e-3
        cur = st
        for n in range(1, 6):
            cur = predict(cur, q)
            assert np.trace(cov_of(cur)) >= np.trace(cov_of(st))
            np.testing.assert_allclose(cov_of(cur), cov_of(st) + n * q * np.eye(4), atol=1e-15)


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        cfg = one_sided_config()
        st = init_state(cfg, (50.0, 50.0))
        agent = (10.0, 10.0)
        z = Measurement(Modality.RTT, h_rtt((50.0, 50.0), agent), agent)
        st2, diag = update(st, z, cfg)
        np.testing.assert_allclose(mean_of(st2), mean_of(st), atol=1e-12)
        assert diag.weight == 1.0
        assert not diag.saturated

    def test_saturated_gain_scales_with_weight(self):
        # +10*tau residual gives w = 0.1; with the prior much tighter than
        # the noise, the per-unit-residual gain drops by the same factor
        cfg = one_sided_config(irls_iterations=1)
        agent = (0.0, 0.0)
        truth = np.array([30.0, 0.0, 0.0, 0.0])
        base = belief(truth.copy(), 1e-3 * np.eye(4))
        tau = cfg.rtt_loss.tau
        z_small = Measurement(Modality.RTT, 30.0 + 0.5 * tau, agent)
        z_big = Measurement(Modality.RTT, 30.0 + 10.0 * tau, agent)
        st_small, d_small = update(base, z_small, cfg)
        st_big, d_big = update(base, z_big, cfg)
        assert d_small.weight == 1.0
        assert d_big.weight == pytest.approx(0.1, rel=1e-6)
        gain_small = np.linalg.norm(mean_of(st_small) - mean_of(base)) / (0.5 * tau)
        gain_big = np.linalg.norm(mean_of(st_big) - mean_of(base)) / (10.0 * tau)
        assert gain_big == pytest.approx(0.1 * gain_small, rel=0.02)

    def test_coincident_estimate_skips(self):
        cfg = one_sided_config()
        st = init_state(cfg, (10.0, 10.0))
        z = Measurement(Modality.RTT, 5.0, (10.0, 10.0))
        st2, diag = update(st, z, cfg)
        assert diag.skipped
        np.testing.assert_array_equal(mean_of(st2), mean_of(st))
        np.testing.assert_array_equal(cov_of(st2), cov_of(st))

    def test_aoa_update_skipped_below_range_floor(self):
        # the floor is filters.MIN_AOA_RANGE (1 m): strictly nearer is skipped;
        # a zero residual keeps every IRLS round at the same distance
        cfg = one_sided_config()
        z = Measurement(Modality.AOA, 0.0, (10.0, 10.0))
        for distance, skipped in ((0.5, True), (1.0, False), (1.5, False)):
            _, diag = update(init_state(cfg, (10.0 + distance, 10.0)), z, cfg)
            assert diag.skipped is skipped, distance

    def test_rtt_diagnostics_carry_implied_bias(self):
        cfg = one_sided_config()
        st = belief(mean_of(init_state(cfg, (50.0, 50.0))),
                            np.diag([1.0, 1.0, 0.5, 0.01]))  # converged-filter regime
        agent = (10.0, 10.0)
        z = Measurement(Modality.RTT, h_rtt((50.0, 50.0), agent) + 30.0, agent)
        st2, diag = update(st, z, cfg)
        assert diag.saturated
        assert diag.weight == pytest.approx(cfg.rtt_loss.tau / diag.residual, rel=1e-12)
        # the reported bias solves the soft threshold at the reported residual
        assert diag.implied_bias == pytest.approx(max(0.0, diag.residual - cfg.rtt_loss.tau), abs=1e-12)


def map_objective(x1, x2, dr, dt, measurements, cfg, guess, init_std):
    """Independent evaluation of the joint robust objective (data terms,
    offset priors, and the near-flat position prior the filter carries)."""
    total = (dr**2 / (2 * cfg.params.sigma_delta_r**2)
             + dt**2 / (2 * cfg.params.sigma_delta_theta_rad**2))
    total += ((x1 - guess[0])**2 + (x2 - guess[1])**2) / (2 * init_std**2)
    for z in measurements:
        if z.modality is Modality.RTT:
            r = z.value - np.hypot(x1 - z.agent[0], x2 - z.agent[1]) - dr
            total += np.where(r <= cfg.rtt_loss.tau, r * r / (2 * cfg.rtt_loss.sigma**2),
                              cfg.rtt_loss.lam * r - 0.5 * cfg.rtt_loss.lam**2 * cfg.rtt_loss.sigma**2)
        else:
            raw = z.value - np.arctan2(x2 - z.agent[1], x1 - z.agent[0]) - dt
            r = np.abs((raw + np.pi) % (2 * np.pi) - np.pi)
            tau, sg, k = cfg.aoa_loss.tau, cfg.aoa_loss.sigma, cfg.aoa_loss.k
            total += np.where(r <= tau, r * r / (2 * sg**2), (k / sg) * r - 0.5 * k**2)
    return total


class TestUpdateCallCounts:
    """One ``linearize`` and one ``irls_weight`` call per IRLS round, and
    none after a skip: the benchmark's per-round and per-step call counts
    read these calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"linearize": 0, "irls_weight": 0}
        fail_at = {"linearize": None}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                if counts[name] == fail_at.get(name):
                    raise CoincidentPointsError("forced skip")
                return fn(*args)
            return wrapper
        for name in counts:
            monkeypatch.setattr(filters, name, counted(name, getattr(filters, name)))
        return counts, fail_at

    @pytest.mark.parametrize("modality", [Modality.RTT, Modality.AOA])
    @pytest.mark.parametrize("rounds", [1, 3, 10])
    def test_once_per_round(self, calls, modality, rounds):
        counts, _ = calls
        cfg = one_sided_config(irls_iterations=rounds)
        agent = (10.0, 20.0)
        value = (h_rtt((40.0, 50.0), agent) + 3.0 if modality is Modality.RTT
                 else h_aoa((40.0, 50.0), agent) + 0.1)
        _, diag = update(init_state(cfg, (40.0, 50.0)), Measurement(modality, value, agent), cfg)
        assert not diag.skipped
        assert counts == {"linearize": rounds, "irls_weight": rounds}

    @pytest.mark.parametrize("guess, modality", [((10.0, 20.0), Modality.RTT),
                                                 ((10.0, 20.0), Modality.AOA),
                                                 ((10.5, 20.0), Modality.AOA)])
    def test_skip_in_the_first_round_stops_before_the_weight(self, calls, guess, modality):
        # coincident estimate (both modalities), then AoA under MIN_AOA_RANGE
        counts, _ = calls
        cfg = one_sided_config()
        state = init_state(cfg, guess)
        new_state, diag = update(state, Measurement(modality, 0.3, (10.0, 20.0)), cfg)
        assert diag.skipped and new_state is state
        assert counts == {"linearize": 1, "irls_weight": 0}

    @pytest.mark.parametrize("modality", [Modality.RTT, Modality.AOA])
    def test_skip_in_a_later_round_stops_there(self, calls, modality):
        counts, fail_at = calls
        fail_at["linearize"] = 2
        cfg = one_sided_config(irls_iterations=5)
        state = init_state(cfg, (40.0, 50.0))
        new_state, diag = update(state, Measurement(modality, 0.3, (10.0, 20.0)), cfg)
        assert diag.skipped and new_state is state
        assert counts == {"linearize": 2, "irls_weight": 1}


class TestMapOracle:
    def test_two_measurement_posterior_matches_grid_minimum(self):
        # s2 is placed so its bearing ray cuts the s1 range circle at a wide
        # angle; a grazing intersection would amplify linearization error far
        # beyond the tolerance and test geometry instead of the filter
        truth = (50.0, 50.0)
        s1, s2 = (10.0, 10.0), (90.0, 60.0)
        cfg = FilterConfig(rtt_loss=LossSpec.one_sided(sigma=1.5, k=1.5),
                           aoa_loss=LossSpec.symmetric(sigma=0.035, k=1.345),
                           params=FilterParams(sigma_delta_r=2.0, sigma_delta_theta_deg=5.0,
                                               init_position_std=1e4, irls_iterations=10,
                                               process_noise=0.0))
        guess = (49.0, 51.0)
        m1 = Measurement(Modality.RTT, h_rtt(truth, s1) + 0.8, s1)
        m2 = Measurement(Modality.AOA, h_aoa(truth, s2) - 0.01, s2)

        st = init_state(cfg, guess)
        st, _ = update(st, m1, cfg)
        st, _ = update(st, m2, cfg)

        # dense 4-D grid around truth (looping the smallest axis to bound memory)
        xs = np.arange(48.0, 52.0 + 1e-9, 0.05)
        drs = np.arange(-1.0, 2.0 + 1e-9, 0.05)
        dts = np.arange(-0.04, 0.02 + 1e-9, 0.002)
        X1, X2, DR = np.meshgrid(xs, xs, drs, indexing="ij")
        best = (np.inf, None)
        for dt in dts:
            vals = map_objective(X1, X2, DR, dt, [m1, m2], cfg, guess, 1e4)
            i = np.unravel_index(np.argmin(vals), vals.shape)
            if vals[i] < best[0]:
                best = (float(vals[i]), (X1[i], X2[i], DR[i], dt))
        x1o, x2o, dro, dto = best[1]

        assert mean_of(st)[0] == pytest.approx(x1o, abs=0.1)
        assert mean_of(st)[1] == pytest.approx(x2o, abs=0.1)
        assert mean_of(st)[2] == pytest.approx(dro, abs=0.1)
        assert mean_of(st)[3] == pytest.approx(dto, abs=0.01)


def independent_plain_ekf(mean, cov, z, sigma, q):
    """Textbook EKF update written from scratch (separate formulas, no reuse
    of the library's update path)."""
    mean = mean.copy()
    cov = cov + q * np.eye(4)
    dx = mean[0] - z.agent[0]
    dy = mean[1] - z.agent[1]
    d = math.hypot(dx, dy)
    if z.modality is Modality.RTT:
        pred = d + mean[2]
        H = np.array([dx / d, dy / d, 1.0, 0.0])
        innov = z.value - pred
    else:
        pred = math.atan2(dy, dx) + mean[3]
        H = np.array([-dy / d**2, dx / d**2, 0.0, 1.0])
        innov = wrap_angle(z.value - pred)
    S = H @ cov @ H + sigma**2
    K = cov @ H / S
    mean = mean + K * innov
    ikh = np.eye(4) - np.outer(K, H)
    cov = ikh @ cov @ ikh.T + np.outer(K, K) * sigma**2
    return mean, 0.5 * (cov + cov.T)


class TestReduction:
    def test_quadratic_filter_equals_plain_ekf(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            sigma_r = float(rng.uniform(0.5, 2.0))
            sigma_t = float(rng.uniform(0.01, 0.1))
            q = float(rng.uniform(0.0, 1e-3))
            cfg = make_filter_config("ekf", sigma_r, sigma_t, FilterParams(process_noise=q))
            truth = rng.uniform(20, 80, 2)
            st = init_state(cfg, rng.uniform(20, 80, 2))
            mean_ref, cov_ref = mean_of(st), cov_of(st)
            for step in range(12):
                agent = tuple(rng.uniform(0, 100, 2))
                d = h_rtt(truth, agent)
                if d < 2.0:
                    continue
                mod = Modality.RTT if step % 2 == 0 else Modality.AOA
                if mod is Modality.RTT:
                    z = Measurement(mod, d + float(rng.normal(0, sigma_r)), agent)
                    sig = sigma_r
                else:
                    z = Measurement(mod, wrap_angle(h_aoa(truth, agent)
                                                    + float(rng.normal(0, sigma_t))), agent)
                    sig = sigma_t
                st = predict(st, q)
                st, _ = update(st, z, cfg)
                mean_ref, cov_ref = independent_plain_ekf(mean_ref, cov_ref, z, sig, q)
                np.testing.assert_allclose(mean_of(st), mean_ref, atol=1e-9)
                np.testing.assert_allclose(cov_of(st), cov_ref, atol=1e-9)


class TestAsymmetry:
    def setup_method(self):
        self.agent = (0.0, 0.0)
        self.prior = belief(np.array([40.0, 0.0, 0.0, 0.0]), np.diag([9.0, 9.0, 4.0, 0.01]))
        self.one = one_sided_config()
        self.quad = FilterConfig(rtt_loss=LossSpec.quadratic(1.0),
                                 aoa_loss=LossSpec.quadratic(0.035))

    def test_positive_outlier_moves_less_than_quadratic(self):
        z = Measurement(Modality.RTT, 40.0 + 25.0, self.agent)
        st_one, _ = update(self.prior, z, self.one)
        st_quad, _ = update(self.prior, z, self.quad)
        move_one = np.linalg.norm(mean_of(st_one) - mean_of(self.prior))
        move_quad = np.linalg.norm(mean_of(st_quad) - mean_of(self.prior))
        assert move_one < move_quad

    def test_negative_residual_identical_to_quadratic(self):
        z = Measurement(Modality.RTT, 40.0 - 25.0, self.agent)
        cfg_one = one_sided_config(irls_iterations=1)
        cfg_quad = FilterConfig(rtt_loss=LossSpec.quadratic(1.0),
                                aoa_loss=LossSpec.quadratic(0.035),
                                params=FilterParams(irls_iterations=1))
        st_one, d1 = update(self.prior, z, cfg_one)
        st_quad, d2 = update(self.prior, z, cfg_quad)
        assert d1.weight == 1.0
        np.testing.assert_allclose(mean_of(st_one), mean_of(st_quad), atol=1e-9)
        np.testing.assert_allclose(cov_of(st_one), cov_of(st_quad), atol=1e-9)


class TestCovarianceHealth:
    def test_symmetric_psd_across_random_updates(self):
        rng = np.random.default_rng(303)
        cfg = one_sided_config()
        for _ in range(10_000):
            a = rng.normal(0, 3, (4, 4))
            st = belief(np.array([*rng.uniform(10, 90, 2), rng.normal(0, 2), rng.normal(0, 0.1)]),
                                a @ a.T + 1e-6 * np.eye(4))
            agent = tuple(rng.uniform(0, 100, 2))
            if h_rtt(mean_of(st)[:2], agent) < 1.5:
                continue
            mod = Modality.RTT if rng.random() < 0.5 else Modality.AOA
            value = float(rng.uniform(0, 120)) if mod is Modality.RTT else float(rng.uniform(-np.pi, np.pi))
            st2, _ = update(st, Measurement(mod, value, agent), cfg)
            assert np.array_equal(cov_of(st2), cov_of(st2).T)
            assert np.linalg.eigvalsh(cov_of(st2)).min() >= -1e-9

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(kind=hst.sampled_from(FILTER_KINDS),
           a=hst.lists(hst.floats(-3.0, 3.0), min_size=16, max_size=16),
           log_sd=hst.lists(hst.floats(-2.0, 2.0), min_size=4, max_size=4),
           pos=hst.tuples(hst.floats(0.0, 100.0), hst.floats(0.0, 100.0)),
           agent=hst.tuples(hst.floats(0.0, 100.0), hst.floats(0.0, 100.0)),
           rtt=hst.booleans(), u=hst.floats(0.0, 1.0))
    def test_posterior_psd_property(self, kind, a, log_sd, pos, agent, rtt, u):
        # the expanded Joseph form P - K PH^T - PH K^T + S K K^T no longer
        # carries the (I - K H^T) P (I - K H^T)^T product that made PSD
        # structural; this pins it over random PSD priors
        cfg = make_filter_config(kind, 1.5, math.radians(2.0))
        m = np.array(a).reshape(4, 4)
        sd = 10.0 ** np.array(log_sd)
        prior = (m @ m.T + 1e-3 * np.eye(4)) * np.outer(sd, sd)
        state = belief(np.array([pos[0], pos[1], 1.0, 0.01]), 0.5 * (prior + prior.T))
        value = 150.0 * u if rtt else math.pi * (2.0 * u - 1.0)
        z = Measurement(Modality.RTT if rtt else Modality.AOA, value, agent)
        cov = cov_of(update(state, z, cfg)[0])
        assert np.isfinite(cov).all()
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.trace(cov)

    @pytest.mark.parametrize("modality", [Modality.RTT, Modality.AOA])
    def test_non_finite_posterior_raises(self, modality):
        cfg = one_sided_config()
        st = init_state(cfg, (50.0, 50.0))
        with pytest.raises(FilterDivergenceError):
            update(st, Measurement(modality, math.nan, (10.0, 10.0)), cfg)

    def test_saturation_degenerates_to_dead_reckoning(self):
        # residuals so large the weight vanishes: covariance must follow the
        # prediction-only growth P0 + n*q*I
        q = 1e-4
        cfg = one_sided_config(process_noise=q)
        st = belief(np.array([30.0, 40.0, 0.0, 0.0]), np.diag([25.0, 25.0, 4.0, 0.01]))
        p0_pos = cov_of(st)[:2, :2]
        n = 50
        agent = (0.0, 0.0)
        for _ in range(n):
            st = predict(st, q)
            z = Measurement(Modality.RTT, h_rtt(mean_of(st)[:2], agent) + mean_of(st)[2] + 1e10, agent)
            st, diag = update(st, z, cfg)
            assert diag.weight < 1e-8
        expected = p0_pos + n * q * np.eye(2)
        assert np.abs(cov_of(st)[:2, :2] - expected).max() <= n * q


class TestRobustEkfWrapper:
    def test_em_refreshes_rate_from_window(self):
        cfg = one_sided_config(em_enabled=True, em_window=5,
                               rtt_loss=LossSpec.one_sided(sigma=1.0, lam=1.0))
        filt = RobustEkf(cfg, (50.0, 50.0))
        filt.state = belief(mean_of(filt.state), 1e-6 * np.eye(4))  # pin the state
        agent = (10.0, 10.0)
        d = h_rtt((50.0, 50.0), agent)
        biases = []
        for _ in range(5):
            diag = filt.update(Measurement(Modality.RTT, d + 3.0, agent))
            biases.append(diag.implied_bias)
        assert filt.config.rtt_loss.lam == pytest.approx(1.0 / np.mean(biases), rel=1e-9)

    def test_em_keeps_rate_without_bias_evidence(self):
        cfg = one_sided_config(em_enabled=True, em_window=3,
                               rtt_loss=LossSpec.one_sided(sigma=1.0, lam=1.0))
        filt = RobustEkf(cfg, (50.0, 50.0))
        filt.state = belief(mean_of(filt.state), 1e-6 * np.eye(4))
        agent = (10.0, 10.0)
        d = h_rtt((50.0, 50.0), agent)
        for _ in range(3):
            filt.update(Measurement(Modality.RTT, d, agent))  # zero residuals
        assert filt.config.rtt_loss.lam == 1.0
