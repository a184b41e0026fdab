import math

import numpy as np
import pytest

from asymloc.geometry import h_rtt, linearize
from asymloc.losses import LossSpec, loss
from asymloc.observability import (CurvatureSample, SlidingCurvatureTracker, accumulate,
                                   classify_residual, crossing_improves, eig2x2_sym)

RTT = LossSpec.one_sided(sigma=1.0, lam=1.0)
SYM = LossSpec.symmetric(sigma=1.0, k=1.0)


def sample(jx, jy, weight, step=0):
    return CurvatureSample(np.array([jx, jy], dtype=float), weight, weight == 0.0, step)


class TestAccumulate:
    def test_all_saturated_gives_zero_matrix(self):
        samples = [sample(1.0, 0.0, 0.0), sample(0.5, 0.5, 0.0), sample(0.0, 1.0, 0.0)]
        rep = accumulate(samples)
        np.testing.assert_array_equal(rep.matrix, np.zeros((2, 2)))
        assert rep.lambda_min == 0.0
        assert rep.n_saturated == 3 and rep.n_active == 0
        assert not rep.bilateral

    def test_empty_is_zero(self):
        rep = accumulate([])
        assert rep.lambda_min == 0.0 and rep.lambda_max == 0.0

    def test_orthogonal_unit_jacobians(self):
        w = 1.0 / 1.5**2
        rep = accumulate([sample(1.0, 0.0, w), sample(0.0, 1.0, w)], mu_threshold=1e-3 * w)
        np.testing.assert_allclose(rep.matrix, np.diag([w, w]), atol=1e-15)
        assert rep.lambda_min == pytest.approx(w, rel=1e-12)
        assert rep.bilateral

    def test_single_sample_rank_one(self):
        j = np.array([0.6, 0.8])
        rep = accumulate([CurvatureSample(j, 2.0, False)])
        assert rep.lambda_min == pytest.approx(0.0, abs=1e-12)
        assert rep.lambda_max == pytest.approx(2.0 * (j @ j), rel=1e-12)

    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            samples = [sample(*rng.normal(0, 2, 2), float(rng.uniform(0, 3)))
                       for _ in range(rng.integers(1, 8))]
            rep = accumulate(samples)
            ev = np.linalg.eigvalsh(rep.matrix)
            assert rep.lambda_min == pytest.approx(max(ev[0], 0.0), abs=1e-10)
            assert rep.lambda_max == pytest.approx(ev[1], rel=1e-10, abs=1e-12)


class TestCrossingImproves:
    def test_orthogonal_completion(self):
        before = accumulate([sample(1.0, 0.0, 1.0)])
        after, gain = crossing_improves(before, sample(0.0, 1.0, 0.7))
        assert gain == pytest.approx(0.7, rel=1e-12)
        assert after.lambda_min == pytest.approx(0.7, rel=1e-12)

    def test_saturated_sample_adds_nothing(self):
        before = accumulate([sample(1.0, 0.0, 1.0), sample(0.0, 1.0, 0.5)])
        after, gain = crossing_improves(before, sample(0.3, 0.9, 0.0))
        assert gain == 0.0
        np.testing.assert_array_equal(after.matrix, before.matrix)
        assert after.n_saturated == before.n_saturated + 1

    def test_monotonicity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            base = [sample(*rng.normal(0, 1, 2), float(rng.uniform(0, 2)))
                    for _ in range(rng.integers(0, 6))]
            before = accumulate(base)
            new = sample(*rng.normal(0, 1, 2), float(rng.choice([0.0, 0.5, 1.5])))
            _, gain = crossing_improves(before, new)
            assert gain >= -1e-12

    def test_aligned_nonsaturated_sample_strictly_improves(self):
        # 1000 randomized instances: a fresh sample with curvature and a
        # Jacobian within 80 degrees of the current weakest direction must
        # strictly raise lambda_min
        rng = np.random.default_rng(11)
        for _ in range(1000):
            base = [sample(*rng.normal(0, 1, 2), float(rng.uniform(0.1, 2)))
                    for _ in range(int(rng.integers(1, 6)))]
            before = accumulate(base)
            if before.lambda_max - before.lambda_min < 1e-9:
                continue  # isotropic spectrum has no unique weak direction
            evals, evecs = np.linalg.eigh(before.matrix)
            v_min = evecs[:, 0]
            angle = float(rng.uniform(-np.deg2rad(80), np.deg2rad(80)))
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s], [s, c]])
            j = rot @ v_min
            w = float(rng.uniform(0.1, 2.0))
            _, gain = crossing_improves(before, CurvatureSample(j, w, False))
            assert gain > 0.0


class TestClassifyResidual:
    def test_one_sided_saturation(self):
        s = classify_residual(2 * RTT.tau, RTT, np.array([1.0, 0.0]), step=3)
        assert s.saturated and s.weight == 0.0 and s.step == 3

    def test_negative_residual_always_active(self):
        s = classify_residual(-5.0, RTT, np.array([1.0, 0.0]))
        assert not s.saturated
        assert s.weight == pytest.approx(1.0 / RTT.sigma**2)

    def test_symmetric_discards_both_tails(self):
        s = classify_residual(-2 * SYM.tau, SYM, np.array([1.0, 0.0]))
        assert s.saturated


class TestDegeneracyReproduction:
    def test_narrow_cone_with_saturated_ranges_is_nearly_rank_one(self):
        # unilateral viewing geometry: all range samples saturated (zero
        # weight) and the lone active sample aligned with the cone axis --
        # the accumulated curvature is effectively rank one
        rng = np.random.default_rng(21)
        axis = math.radians(40.0)
        samples = []
        for _ in range(30):
            th = axis + rng.uniform(-math.radians(5), math.radians(5))
            samples.append(sample(math.cos(th), math.sin(th), 0.0))
        samples.append(sample(math.cos(axis), math.sin(axis), 1.0))
        rep = accumulate(samples)
        assert rep.lambda_max > 0.0
        assert rep.lambda_min < 1e-6 * rep.lambda_max


class TestGaussNewtonAgainstFiniteDifferences:
    def test_curvature_matches_hessian_on_small_residuals(self):
        # the accumulated matrix is the Gauss-Newton part of the objective
        # Hessian; with near-zero residuals the dropped term is negligible
        rng = np.random.default_rng(31)
        truth = np.array([50.0, 50.0])
        agents = [rng.uniform(0, 100, 2) for _ in range(12)]
        spec = LossSpec.one_sided(sigma=1.5, k=1.5)
        values = [h_rtt(truth, a) + float(rng.normal(0, 1e-3)) for a in agents]

        def total_loss(x):
            return sum(loss(v - h_rtt(x, a), spec) for v, a in zip(values, agents))

        samples = [classify_residual(v - h_rtt(truth, a), spec,
                                     -np.array(linearize(truth, a)[2:]))
                   for v, a in zip(values, agents)]
        rep = accumulate(samples)

        h = 1e-5
        hess = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei = np.zeros(2); ei[i] = h
                ej = np.zeros(2); ej[j] = h
                hess[i, j] = (total_loss(truth + ei + ej) - total_loss(truth + ei - ej)
                              - total_loss(truth - ei + ej) + total_loss(truth - ei - ej)) / (4 * h * h)
        np.testing.assert_allclose(rep.matrix, hess, rtol=0.05)


class TestSlidingTracker:
    def test_matches_batch_accumulate_over_window(self):
        rng = np.random.default_rng(41)
        tracker = SlidingCurvatureTracker(window=5)
        history = []
        for step in range(40):
            s = sample(*rng.normal(0, 1, 2), float(rng.choice([0.0, 1.0, 0.5])), step)
            history.append(s)
            tracker.add(s)
            batch = accumulate(history[-5:])
            assert tracker.lambda_min() == pytest.approx(batch.lambda_min, abs=1e-9)
            rep = tracker.report()
            assert rep.n_saturated == batch.n_saturated
            assert rep.n_active == batch.n_active

    def test_eig_closed_form(self):
        m = np.array([[3.0, 1.0], [1.0, 2.0]])
        lo, hi = eig2x2_sym(m)
        ev = np.linalg.eigvalsh(m)
        assert lo == pytest.approx(ev[0], rel=1e-12)
        assert hi == pytest.approx(ev[1], rel=1e-12)
