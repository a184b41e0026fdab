import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymloc.geometry import h_rtt, linearize
from asymloc.losses import LossSpec, loss
from asymloc.observability import (CurvatureSample, SlidingCurvatureTracker, accumulate,
                                   classify_residual, crossing_improves, eig_sym)
from arrays import matrix_of

RTT = LossSpec.one_sided(sigma=1.0, lam=1.0)
SYM = LossSpec.symmetric(sigma=1.0, k=1.0)


def sample(jx, jy, weight):
    return CurvatureSample(np.array([jx, jy], dtype=float), weight, weight == 0.0)


class TestAccumulate:
    def test_all_saturated_gives_zero_matrix(self):
        samples = [sample(1.0, 0.0, 0.0), sample(0.5, 0.5, 0.0), sample(0.0, 1.0, 0.0)]
        rep = accumulate(samples)
        np.testing.assert_array_equal(matrix_of(rep), np.zeros((2, 2)))
        assert rep.lambda_min == 0.0

    def test_empty_is_zero(self):
        rep = accumulate([])
        assert rep.lambda_min == 0.0 and rep.lambda_max == 0.0

    def test_orthogonal_unit_jacobians(self):
        w = 1.0 / 1.5**2
        rep = accumulate([sample(1.0, 0.0, w), sample(0.0, 1.0, w)])
        np.testing.assert_allclose(matrix_of(rep), np.diag([w, w]), atol=1e-15)
        assert rep.lambda_min == pytest.approx(w, rel=1e-12)
        assert rep.lambda_min > 1e-3 * w

    def test_single_sample_rank_one(self):
        j = np.array([0.6, 0.8])
        rep = accumulate([CurvatureSample(j, 2.0, False)])
        assert rep.lambda_min == pytest.approx(0.0, abs=1e-12)
        assert rep.lambda_max == pytest.approx(2.0 * (j @ j), rel=1e-12)

    def test_entries_sum_the_rank_one_terms(self):
        rep = accumulate([sample(1.0, 2.0, 0.5), sample(-3.0, 0.25, 2.0), sample(1.0, 1.0, 0.0)])
        a, b, c = rep.entries
        assert (a, b, c) == (0.5 + 18.0, 1.0 - 1.5, 2.0 + 0.125)
        after, _ = crossing_improves(rep, sample(0.0, 1.0, 1.0))
        assert after.entries == (a, b, c + 1.0)

    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            samples = [sample(*rng.normal(0, 2, 2), float(rng.uniform(0, 3)))
                       for _ in range(rng.integers(1, 8))]
            rep = accumulate(samples)
            ev = np.linalg.eigvalsh(matrix_of(rep))
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
        assert after.entries == before.entries

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
            evals, evecs = np.linalg.eigh(matrix_of(before))
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
        s = classify_residual(2 * RTT.tau, RTT, np.array([1.0, 0.0]))
        assert s.saturated and s.weight == 0.0

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
        np.testing.assert_allclose(matrix_of(rep), hess, rtol=0.05)


class TestSlidingTracker:
    def test_matches_batch_accumulate_over_window(self):
        rng = np.random.default_rng(41)
        tracker = SlidingCurvatureTracker(window=5)
        history = []
        for _ in range(40):
            s = sample(*rng.normal(0, 1, 2), float(rng.choice([0.0, 1.0, 0.5])))
            history.append(s)
            tracker.add(s)
            batch = accumulate(history[-5:])
            assert tracker.lambda_min() == pytest.approx(batch.lambda_min, abs=1e-9)

    def test_eig_closed_form(self):
        lo, hi = eig_sym(3.0, 1.0, 2.0)
        ev = np.linalg.eigvalsh(np.array([[3.0, 1.0], [1.0, 2.0]]))
        assert lo == pytest.approx(ev[0], rel=1e-12)
        assert hi == pytest.approx(ev[1], rel=1e-12)


class NoneTermTracker:
    """Reference: the windowed tracker as it was when a saturated sample
    kept a ``None`` term that the running sums skip on the way in and out."""

    def __init__(self, window):
        self.window = window
        self.terms = deque()
        self.sums = (0.0, 0.0, 0.0)

    @staticmethod
    def term(s):
        if s.saturated or s.weight == 0.0:
            return None
        j0, j1 = s.jacobian
        return s.weight * (j0 * j0), s.weight * (j0 * j1), s.weight * (j1 * j1)

    def add(self, s):
        term = self.term(s)
        self.terms.append(term)
        a, b, c = self.sums
        if term is not None:
            a, b, c = a + term[0], b + term[1], c + term[2]
        if len(self.terms) > self.window:
            old = self.terms.popleft()
            if old is not None:
                a, b, c = a - old[0], b - old[1], c - old[2]
        self.sums = (a, b, c)

    def lambda_min(self):
        return max(eig_sym(*self.sums)[0], 0.0)


def none_term_entries(samples):
    """Reference ``accumulate`` entries: the sum of the non-``None`` terms."""
    a = b = c = 0.0
    for term in map(NoneTermTracker.term, samples):
        if term is not None:
            a, b, c = a + term[0], b + term[1], c + term[2]
    return a, b, c


JACOBIAN_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(-50.0, 50.0, allow_nan=False, allow_subnormal=True))
SAMPLE = st.builds(lambda j0, j1, w: CurvatureSample((j0, j1), w, w == 0.0),
                   JACOBIAN_ENTRY, JACOBIAN_ENTRY,
                   st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 10.0)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(window=st.integers(1, 40), samples=st.lists(SAMPLE, max_size=120))
def test_zero_terms_keep_the_none_term_bits(window, samples):
    """A saturated sample's zero-weight term ``(±0.0, ±0.0, ±0.0)`` gives the
    same bits as skipping it. The running sums start at ``+0.0``, and in
    round-to-nearest a sum or difference is ``-0.0`` only when its first
    operand is ``-0.0``, so they are never ``-0.0``; and ``x + ±0.0`` and
    ``x - ±0.0`` are ``x`` for every other ``x``. Adding or subtracting a
    zero term therefore leaves each running sum's bits as they are."""
    tracker, ref = SlidingCurvatureTracker(window), NoneTermTracker(window)
    for i, s in enumerate(samples):
        tracker.add(s)
        ref.add(s)
        assert repr(tracker.lambda_min()) == repr(ref.lambda_min())
        assert repr((tracker._a, tracker._b, tracker._c)) == repr(ref.sums)
        in_window = samples[max(0, i + 1 - window):i + 1]
        assert repr(accumulate(in_window).entries) == repr(none_term_entries(in_window))
