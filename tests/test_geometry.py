import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymloc.geometry import CoincidentPointsError, linearize, wrap_angle
from asymloc.sim_env import Scenario, observe_with_draw
from arrays import h_aoa, h_rtt


def test_linearize_range_examples():
    assert linearize((50, 50), (10, 10))[0] == pytest.approx(math.sqrt(3200), abs=1e-12)
    assert linearize((3, 4), (0, 0))[:2] == (5.0, 5.0)
    assert linearize((7.5, -2.0), (7.5, -1.0))[0] == 1.0


def test_linearize_bearing_examples():
    assert linearize((10, 0), (0, 0), True)[:2] == (0.0, 10.0)
    assert linearize((0, 10), (0, 0), True)[0] == pytest.approx(math.pi / 2, abs=1e-15)
    assert linearize((-1, 0), (0, 0), True)[0] == pytest.approx(math.pi, abs=1e-15)


def test_observe_on_target_raises():
    sc = Scenario(truth=(1.0, 2.0))
    with pytest.raises(CoincidentPointsError):
        observe_with_draw(sc, (1.0, 2.0), (0.5, 0.5, 1.0, 0.0, 0.0, 0.0))


def test_jacobian_examples():
    np.testing.assert_allclose(linearize((10, 0), (0, 0))[2:], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(linearize((10, 0), (0, 0), True)[2:], [0.0, 0.1], atol=1e-15)


def test_jacobian_coincident_raises():
    for bearing in (False, True):
        with pytest.raises(CoincidentPointsError):
            linearize((3, 3), (3, 3), bearing)


def test_jacobians_orthogonal_and_normed():
    rng = np.random.default_rng(7)
    for _ in range(50):
        target = rng.uniform(0, 100, 2)
        agent = rng.uniform(0, 100, 2)
        if np.allclose(target, agent):
            continue
        jr = np.array(linearize(target, agent)[2:])
        ja = np.array(linearize(target, agent, True)[2:])
        d = h_rtt(target, agent)
        assert abs(jr @ ja) < 1e-15 * max(1.0, 1.0 / d)
        assert np.linalg.norm(jr) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(ja) == pytest.approx(1.0 / d, rel=1e-12)


def test_jacobian_matches_finite_differences():
    # central differences with 1e-5 m step, 50 random geometries
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(50):
        target = rng.uniform(5, 95, 2)
        agent = rng.uniform(5, 95, 2)
        if h_rtt(target, agent) < 1.0:
            continue
        jr = np.array(linearize(target, agent)[2:])
        ja = np.array(linearize(target, agent, True)[2:])
        fd_r = np.empty(2)
        fd_a = np.empty(2)
        for i in range(2):
            dp = np.zeros(2)
            dp[i] = h
            fd_r[i] = (h_rtt(target + dp, agent) - h_rtt(target - dp, agent)) / (2 * h)
            fd_a[i] = wrap_angle(h_aoa(target + dp, agent) - h_aoa(target - dp, agent)) / (2 * h)
        np.testing.assert_allclose(jr, fd_r, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(ja, fd_a, rtol=1e-6, atol=1e-9)


@settings(derandomize=True, deadline=None)
@given(a=st.floats(min_value=-1e6, max_value=1e6))
def test_wrap_angle_idempotent(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w


def test_wrap_angle_examples():
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-12)
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.3) == 0.3


def test_wrap_angle_range_and_congruence():
    rng = np.random.default_rng(3)
    for a in rng.uniform(-50, 50, 500):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        # same angle mod 2*pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
