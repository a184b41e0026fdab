import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymloc.losses import (LossFamily, LossSpec, NoNlosEvidenceError,
                            WrongLossFamilyError, at_curvature_kink, em_update_lambda,
                            irls_weight, k_from_lambda, lambda_from_k, loss,
                            loss_curvature, loss_grad, soft_threshold_bias)

ONE = LossSpec.one_sided(sigma=1.0, lam=1.0)          # tau = 1
SYM = LossSpec.symmetric(sigma=1.0, k=1.0)            # tau = 1
QUAD = LossSpec.quadratic(sigma=1.0)
ALL_SPECS = [ONE, SYM, QUAD,
             LossSpec.one_sided(sigma=1.5, lam=0.7),
             LossSpec.symmetric(sigma=2.5, k=1.345),
             LossSpec.quadratic(sigma=0.5)]


def bias_objective(b, r, spec):
    """The constrained bias subproblem the soft threshold solves."""
    return (r - b) ** 2 / (2 * spec.sigma**2) + spec.lam * b


def grid_min_bias(r, spec, step=1e-4):
    """Brute-force oracle: dense scan of the bias subproblem on b >= 0.

    Any b above max(r, 0) is dominated (the quadratic term and the linear
    penalty both grow there), so the grid is capped accordingly.
    """
    hi = max(r, 0.0) + step
    b = np.arange(0.0, hi + step, step)
    vals = bias_objective(b, r, spec)
    i = int(np.argmin(vals))
    return float(b[i]), float(vals[i])


class TestLossSpec:
    def test_one_sided_parameterizations_agree(self):
        a = LossSpec.one_sided(sigma=1.5, lam=1.0)
        b = LossSpec.one_sided(sigma=1.5, k=1.5)
        assert a == b
        assert a.tau == pytest.approx(1.0 * 1.5**2, abs=1e-15)

    def test_symmetric_tau(self):
        assert SYM.tau == 1.0
        assert LossSpec.symmetric(sigma=2.0, k=1.5).tau == 3.0

    def test_quadratic_has_no_threshold(self):
        assert QUAD.tau is None

    def test_validation(self):
        with pytest.raises(ValueError):
            LossSpec.one_sided(sigma=-1.0, lam=1.0)
        with pytest.raises(ValueError):
            LossSpec.one_sided(sigma=1.0)
        with pytest.raises(ValueError):
            LossSpec.one_sided(sigma=1.0, lam=1.0, k=1.0)
        with pytest.raises(ValueError):
            LossSpec.symmetric(sigma=1.0, k=-2.0)


class TestSoftThresholdBias:
    def test_formula_examples(self):
        spec = LossSpec.one_sided(sigma=2.0, lam=0.5)  # tau = 2
        assert soft_threshold_bias(10.0, spec) == pytest.approx(8.0, abs=1e-15)
        assert soft_threshold_bias(-3.0, ONE) == 0.0

    def test_matches_grid_oracle_on_spec_instance(self):
        # r=5, lam=1, sigma=1: closed form gives 4.0; the dense grid on
        # [0, 20] with 1e-4 step must agree
        b_star = soft_threshold_bias(5.0, ONE)
        assert b_star == pytest.approx(4.0, abs=1e-15)
        grid = np.arange(0.0, 20.0 + 1e-4, 1e-4)
        vals = bias_objective(grid, 5.0, ONE)
        assert abs(grid[int(np.argmin(vals))] - b_star) <= 1e-4

    def test_wrong_family(self):
        with pytest.raises(WrongLossFamilyError):
            soft_threshold_bias(1.0, SYM)

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        for r in rng.uniform(-20, 20, 200):
            assert soft_threshold_bias(float(r), ONE) >= 0.0


class TestLoss:
    def test_continuous_at_threshold(self):
        for spec in (ONE, LossSpec.one_sided(sigma=2.0, lam=0.4)):
            below = loss(spec.tau - 1e-12, spec)
            at = loss(spec.tau, spec)
            above = loss(spec.tau + 1e-12, spec)
            assert abs(at - below) < 1e-9
            assert abs(above - at) < 1e-9
            assert at == pytest.approx(spec.tau**2 / (2 * spec.sigma**2), rel=1e-12)

    def test_negative_side_quadratic(self):
        assert loss(-100.0, ONE) == pytest.approx(5000.0, abs=1e-9)

    def test_symmetric_example(self):
        assert loss(3.0, SYM) == pytest.approx(2.5, abs=1e-12)

    def test_quadratic(self):
        assert loss(3.0, QUAD) == pytest.approx(4.5, abs=1e-12)

    def test_convexity_random_triples(self):
        rng = np.random.default_rng(11)
        for spec in ALL_SPECS:
            r1 = rng.uniform(-30, 30, 1000)
            r2 = rng.uniform(-30, 30, 1000)
            th = rng.uniform(0, 1, 1000)
            for a, b, t in zip(r1, r2, th):
                lhs = loss(t * a + (1 - t) * b, spec)
                rhs = t * loss(a, spec) + (1 - t) * loss(b, spec)
                assert lhs <= rhs + 1e-9

    def test_marginalization_identity(self):
        # the one-sided loss equals the bias subproblem minimized over b >= 0
        rng = np.random.default_rng(21)
        spec = LossSpec.one_sided(sigma=1.3, lam=0.8)
        for r in rng.uniform(-10, 10, 1000):
            _, grid_val = grid_min_bias(float(r), spec, step=1e-4)
            assert loss(float(r), spec) <= grid_val + 1e-6
            assert grid_val - loss(float(r), spec) <= 1e-6

    def test_asymmetry_beyond_threshold(self):
        rng = np.random.default_rng(5)
        for spec in (ONE, LossSpec.one_sided(sigma=2.0, lam=0.3)):
            for r in spec.tau + rng.uniform(0.01, 50, 200):
                assert loss(-float(r), spec) > loss(float(r), spec)

    def test_symmetric_is_even(self):
        rng = np.random.default_rng(9)
        for r in rng.uniform(-40, 40, 500):
            assert loss(float(r), SYM) == loss(-float(r), SYM)


class TestLossGrad:
    def test_continuous_at_threshold(self):
        g_below = loss_grad(ONE.tau - 1e-10, ONE)
        g_above = loss_grad(ONE.tau + 1e-10, ONE)
        assert abs(g_above - g_below) < 1e-9

    def test_zero_at_zero(self):
        assert loss_grad(0.0, ONE) == 0.0

    def test_saturated_grad_is_lambda(self):
        assert loss_grad(100.0, ONE) == ONE.lam

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-6
        for spec in ALL_SPECS:
            for r in rng.uniform(-20, 20, 100):
                r = float(r)
                if spec.tau is not None and min(abs(r - spec.tau), abs(r + spec.tau)) < 2 * h:
                    continue  # kink neighborhood: derivative jump dominates
                fd = (loss(r + h, spec) - loss(r - h, spec)) / (2 * h)
                assert loss_grad(r, spec) == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestLossCurvature:
    def test_one_sided_table(self):
        assert loss_curvature(2 * ONE.tau, ONE) == 0.0
        assert loss_curvature(-5.0, ONE) == 1.0
        spec = LossSpec.one_sided(sigma=2.0, lam=1.0)
        assert loss_curvature(-1.0, spec) == 0.25

    def test_symmetric_saturates_both_sides(self):
        assert loss_curvature(-2 * SYM.tau, SYM) == 0.0
        assert loss_curvature(2 * SYM.tau, SYM) == 0.0
        assert loss_curvature(0.5, SYM) == 1.0

    def test_kink_returns_left_limit_with_flag(self):
        assert loss_curvature(ONE.tau, ONE) == 1.0
        assert at_curvature_kink(ONE.tau, ONE)
        assert not at_curvature_kink(0.99 * ONE.tau, ONE)
        assert at_curvature_kink(-SYM.tau, SYM)


class TestIrlsWeight:
    def test_one_sided(self):
        assert irls_weight(2 * ONE.tau, ONE) == pytest.approx(0.5)
        assert irls_weight(-50.0, ONE) == 1.0
        assert irls_weight(0.0, ONE) == 1.0

    def test_symmetric(self):
        assert irls_weight(-2 * SYM.tau, SYM) == pytest.approx(0.5)
        assert irls_weight(0.3, SYM) == 1.0

    def test_quadratic_full_trust(self):
        assert irls_weight(1e6, QUAD) == 1.0

    def test_matches_grad_ratio(self):
        # w = sigma^2 * loss_grad(r) / r wherever r != 0
        rng = np.random.default_rng(17)
        for spec in ALL_SPECS:
            for r in rng.uniform(-20, 20, 100):
                r = float(r)
                if abs(r) < 1e-6:
                    continue
                w = irls_weight(r, spec)
                assert w == pytest.approx(spec.sigma**2 * loss_grad(r, spec) / r, rel=1e-12)
                assert 0.0 < w <= 1.0


class TestParameterTranslation:
    def test_canonical_values(self):
        assert k_from_lambda(1.0, 1.5) == pytest.approx(1.5, abs=1e-15)
        assert lambda_from_k(1.5, 1.5) == pytest.approx(1.0, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            lam = float(rng.uniform(0.01, 10))
            sigma = float(rng.uniform(0.01, 10))
            assert lambda_from_k(k_from_lambda(lam, sigma), sigma) == pytest.approx(lam, rel=1e-12)

    def test_threshold_identity(self):
        lam, sigma = 0.8, 2.5
        k = k_from_lambda(lam, sigma)
        assert lam * sigma**2 == pytest.approx(k * sigma, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            k_from_lambda(0.0, 1.0)
        with pytest.raises(ValueError):
            lambda_from_k(1.0, -2.0)


class TestEmUpdate:
    def test_inverse_mean(self):
        assert em_update_lambda([8.0, 8.0, 8.0]) == pytest.approx(0.125, abs=1e-15)

    def test_zeros_stay_in_mean(self):
        assert em_update_lambda([0.0, 4.0]) == pytest.approx(0.5, abs=1e-15)

    def test_all_zero_raises(self):
        with pytest.raises(NoNlosEvidenceError):
            em_update_lambda([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            em_update_lambda([])

    def test_recovers_rate_from_samples(self):
        rng = np.random.default_rng(31)
        draws = rng.exponential(8.0, size=10000)
        lam = em_update_lambda(list(draws))
        assert lam == pytest.approx(0.125, rel=0.10)


# Property tests of the saturation rule: r > tau saturates a one-sided loss,
# |r| > tau a symmetric one, and nothing saturates a quadratic one.
SIGMAS = st.floats(min_value=1e-3, max_value=1e3)
KS = st.floats(min_value=1e-2, max_value=10.0)
# no subnormals: sigma^2 * (r / sigma^2) / r must stay a ratio of normal floats
RESIDUALS = st.floats(min_value=-1e4, max_value=1e4).filter(lambda r: r == 0.0 or abs(r) > 1e-100)
SATURATING = st.one_of(st.builds(lambda s, k: LossSpec.one_sided(s, k=k), SIGMAS, KS),
                       st.builds(LossSpec.symmetric, SIGMAS, KS))
SPECS = SATURATING | st.builds(LossSpec.quadratic, SIGMAS)


class TestSaturationRuleProperties:
    @settings(derandomize=True, deadline=None)
    @given(spec=SATURATING)
    def test_loss_and_grad_continuous_at_each_saturating_threshold(self, spec):
        sides = (1.0,) if spec.family is LossFamily.ONE_SIDED else (1.0, -1.0)
        for side in sides:
            edge = side * spec.tau
            beyond = math.nextafter(edge, side * math.inf)
            assert not spec.saturates(edge) and spec.saturates(beyond)
            assert at_curvature_kink(edge, spec)
            assert loss(beyond, spec) == pytest.approx(loss(edge, spec), rel=1e-9)
            assert loss_grad(beyond, spec) == pytest.approx(loss_grad(edge, spec), rel=1e-9)

    @settings(derandomize=True, deadline=None)
    @given(spec=SPECS, r=RESIDUALS)
    def test_irls_weight_in_unit_interval_and_grad_ratio(self, spec, r):
        w = irls_weight(r, spec)
        assert 0.0 < w <= 1.0
        if r != 0.0:
            assert w == pytest.approx(spec.sigma**2 * loss_grad(r, spec) / r, rel=1e-12)

    @settings(derandomize=True, deadline=None)
    @given(sigma=SIGMAS, k=KS, r=RESIDUALS)
    def test_one_sided_is_symmetric_with_the_negative_side_unconstrained(self, sigma, k, r):
        one = LossSpec.one_sided(sigma, k=k)
        sym = LossSpec.symmetric(sigma, k=k)
        quad = LossSpec.quadratic(sigma)
        assert one.tau == pytest.approx(sym.tau, rel=1e-12)
        fns = (loss, loss_grad, loss_curvature, irls_weight)
        if r <= 0.0:
            # below zero the non-negative bias constraint is inactive: plain least squares
            assert [f(r, one) for f in fns] == [f(r, quad) for f in fns]
        else:
            # the two thresholds may differ in the last bit; keep clear of them
            assume(abs(r - one.tau) > 1e-9 * one.tau and abs(r - sym.tau) > 1e-9 * sym.tau)
            for f in fns:
                assert f(r, one) == pytest.approx(f(r, sym), rel=1e-12)
