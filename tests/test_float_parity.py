"""The float arithmetic of the closed-loop step against the versions it
replaced, kept here as references.

``fim`` and ``fim_e_optimal`` do the same IEEE operations in the same
order as the numpy versions, so they must agree exactly. ``reactive_crossing``
moved from ``np.hypot`` to ``math.hypot``, which may differ in the last
bit, so it gets 1e-12 m. ``update`` replaced BLAS products by
left-to-right float sums and expanded the Joseph form, so against the numpy
version its mean and covariance get ``1e-12 * max(1, |ref|)`` per entry,
with the same skip and saturation decisions. Against the float update that
linearized through ``h_rtt``/``h_aoa`` and ``ref_jacobian`` (``ref_float_update``)
it does the same operations in the same order, so everything must be equal
bit for bit, and so must :func:`linearize` against those functions.
``predict`` adds the process noise to the float diagonal where the array
version (``ref_predict``) added it through ``cov.flat``: equal bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymloc.filters import (FILTER_KINDS, MIN_AOA_RANGE, FilterDivergenceError,
                             Measurement, UpdateDiagnostics, init_state, make_filter_config,
                             predict, update)
from asymloc.geometry import (CoincidentPointsError, Modality, h_aoa, h_rtt, linearize,
                              wrap_angle)
from asymloc.losses import LossFamily, irls_weight, soft_threshold_bias
from asymloc.observability import eig_sym
from asymloc.planners import PlannerConfig, fim, fim_e_optimal, reactive_crossing
from arrays import belief, cov_of, mean_of

NOISE = {Modality.RTT: 1.5, Modality.AOA: math.radians(2.0)}
_DELTA_INDEX = {Modality.RTT: 2, Modality.AOA: 3}


# ---------------------------------------------------------------------------
# numpy references
# ---------------------------------------------------------------------------

def ref_predict(state, process_noise):
    cov = cov_of(state)
    if process_noise > 0.0:
        cov.flat[::5] += process_noise
    return belief(mean_of(state), cov)


def ref_update(state, z, config):
    spec = config.rtt_loss if z.modality is Modality.RTT else config.aoa_loss
    d_idx = _DELTA_INDEX[z.modality]
    x0 = mean_of(state)
    P = cov_of(state)

    H = np.zeros(4)
    H[d_idx] = 1.0
    xi = x0
    K = None
    sigma2 = spec.sigma**2
    for _ in range(config.params.irls_iterations):
        try:
            if (z.modality is Modality.AOA
                    and h_rtt(xi[:2], z.agent) < MIN_AOA_RANGE):
                return state, UpdateDiagnostics(z.modality, skipped=True)
            pred = (h_rtt if z.modality is Modality.RTT else h_aoa)(xi[:2], z.agent)
            J = ref_jacobian(z.modality, xi[:2], z.agent)
        except CoincidentPointsError:
            return state, UpdateDiagnostics(z.modality, skipped=True)
        r = z.value - pred - xi[d_idx]
        if z.modality is Modality.AOA:
            r = wrap_angle(r)
        w = irls_weight(r, spec)
        H[0], H[1] = J[0], J[1]
        PH = P @ H
        S = float(H @ PH) + sigma2 / w
        K = PH / S
        xi = x0 + K * (r + float(H @ (xi - x0)))

    R_eff = sigma2 / w
    IKH = np.eye(4) - np.outer(K, H)
    cov = IKH @ P @ IKH.T + np.outer(K, K) * R_eff
    cov = 0.5 * (cov + cov.T)
    implied = None
    if z.modality is Modality.RTT and spec.family is LossFamily.ONE_SIDED:
        implied = soft_threshold_bias(r, spec)
    return belief(xi, cov), UpdateDiagnostics(z.modality, residual=r, weight=w,
                                                      saturated=w < 1.0, implied_bias=implied,
                                                      jacobian_pos=H[:2].copy())


def ref_jacobian(modality, target, agent):
    dx, dy = target[0] - agent[0], target[1] - agent[1]
    d = math.hypot(dx, dy)
    if d == 0.0:
        raise CoincidentPointsError("Jacobian undefined for coincident target/agent")
    if modality is Modality.RTT:
        return np.array([dx / d, dy / d])
    return np.array([-dy / (d * d), dx / (d * d)])


def ref_float_update(state, z, config):
    modality, agent = z.modality, z.agent
    is_aoa = modality is Modality.AOA
    spec = config.aoa_loss if is_aoa else config.rtt_loss
    d = _DELTA_INDEX[modality]
    h = h_aoa if is_aoa else h_rtt
    sigma2 = spec.sigma**2
    x0 = mean_of(state).tolist()
    P = cov_of(state).tolist()

    xi = x0
    for _ in range(config.params.irls_iterations):
        try:
            if is_aoa and h_rtt(xi, agent) < MIN_AOA_RANGE:
                return state, UpdateDiagnostics(modality, skipped=True)
            pred = h(xi, agent)
            J = ref_jacobian(modality, xi, agent)
        except CoincidentPointsError:
            return state, UpdateDiagnostics(modality, skipped=True)
        j0, j1 = J.tolist()
        r = z.value - pred - xi[d]
        if is_aoa:
            r = wrap_angle(r)
        w = irls_weight(r, spec)
        PH = [row[0] * j0 + row[1] * j1 + row[d] for row in P]
        S = j0 * PH[0] + j1 * PH[1] + PH[d] + sigma2 / w
        K = [v / S for v in PH]
        innov = r + (j0 * (xi[0] - x0[0]) + j1 * (xi[1] - x0[1]) + (xi[d] - x0[d]))
        xi = [x + k * innov for x, k in zip(x0, K)]

    cov = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        Pi, Ki, PHi = P[i], K[i], PH[i]
        for j in range(i, 4):
            cov[i][j] = cov[j][i] = Pi[j] - Ki * PH[j] - PHi * K[j] + S * Ki * K[j]
    variances = [cov[i][i] for i in range(4)]
    if not (all(map(math.isfinite, sum(cov, xi))) and min(variances) > 0.0):
        raise FilterDivergenceError(
            f"{modality.value} update at step {z.step} gave mean {xi} and variances {variances}")
    implied = None
    if not is_aoa and spec.family is LossFamily.ONE_SIDED:
        implied = soft_threshold_bias(r, spec)
    return belief(np.array(xi), np.array(cov)), UpdateDiagnostics(
        modality, residual=r, weight=w, saturated=w < 1.0, implied_bias=implied, jacobian_pos=J)


def ref_reactive_crossing(agent, estimate, cfg):
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
    return np.clip(step, 0.0, cfg.arena)


def ref_fim(estimate, candidate, noise):
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


def ref_fim_e_optimal(agent, estimate, cfg, noise):
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
        m = ref_fim(e, c, noise)
        scores[i], _ = eig_sym(m[0, 0], m[0, 1], m[1, 1])
    best = float(scores.max())
    if not np.isfinite(best):
        return a.copy()
    tol = 1e-9 * max(1.0, abs(best))
    winner = int(np.argmax(scores >= best - tol))
    return candidates[winner].copy()


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

NOISES = [NOISE, {Modality.RTT: 1.5}, {Modality.AOA: 0.035}]


class TestPlannerParity:
    def test_fim_bit_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            e, c = rng.uniform(0, 100, 2), rng.uniform(0, 100, 2)
            for noise in NOISES:
                got = fim((float(e[0]), float(e[1])), (float(c[0]), float(c[1])), noise)
                assert np.array_equal(got, ref_fim(e, c, noise))

    def test_fim_e_optimal_bit_identical(self):
        rng = np.random.default_rng(12)
        cfgs = [PlannerConfig(), PlannerConfig(eta=3.0, candidate_count=7, arena=60.0)]
        for i in range(1500):
            cfg = cfgs[i % 2]
            agent = rng.uniform(-2.0, cfg.arena + 2.0, 2)
            # estimates near, at and far from the agent, so exclusions, the
            # standoff ties and the nearest-candidate rule all occur
            est = agent + rng.normal(0.0, [1.0, 10.0, 60.0][i % 3], 2)
            if i % 50 == 0:
                est = agent.copy()
            for noise in NOISES:
                got = fim_e_optimal(agent, est, cfg, noise)
                assert np.array_equal(got, ref_fim_e_optimal(agent, est, cfg, noise))

    def test_reactive_crossing_within_1e12_m(self):
        rng = np.random.default_rng(13)
        cfgs = [PlannerConfig(), PlannerConfig(eta=7.0, ell=5.0, eps_stop=0.5, arena=50.0)]
        for i in range(5000):
            cfg = cfgs[i % 2]
            agent = rng.uniform(0.0, cfg.arena, 2)
            est = agent + rng.normal(0.0, [0.3, 5.0, 80.0][i % 3], 2)
            got = reactive_crossing(agent, est, cfg)
            np.testing.assert_allclose(got, ref_reactive_crossing(agent, est, cfg),
                                       rtol=0.0, atol=1e-12)


def random_prior(rng, scale):
    """A PSD prior at the filter's scales: position spread ``scale``,
    range offset up to 2 m, bearing offset up to 5 degrees, correlated."""
    sd = np.array([scale, scale, rng.uniform(0.1, 2.0), rng.uniform(0.002, 0.09)])
    a = rng.normal(0.0, 1.0, (4, 4)) + 2.0 * np.eye(4)
    corr = a @ a.T
    corr = corr / np.sqrt(np.outer(np.diag(corr), np.diag(corr)))
    cov = corr * np.outer(sd, sd)
    return 0.5 * (cov + cov.T)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.05, 1.0, 10.0, 40.0]),
       q=st.one_of(st.sampled_from([0.0, 1e-4]), st.floats(0.0, 100.0)),
       steps=st.integers(1, 3))
def test_predict_bit_identical_to_array_reference(seed, scale, q, steps):
    rng = np.random.default_rng(seed)
    mean = np.array([*rng.uniform(5, 95, 2), rng.normal(0, 2), rng.normal(0, 0.05)])
    cov = random_prior(rng, scale)
    state = belief(mean, cov)
    # the float layout gives back the bits it was built from
    assert mean_of(state).tobytes() == mean.tobytes()
    assert cov_of(state).tobytes() == cov.tobytes()
    got = want = state
    for _ in range(steps):
        got, want = predict(got, q), ref_predict(want, q)
        assert mean_of(got).tobytes() == mean_of(want).tobytes()
        assert cov_of(got).tobytes() == cov_of(want).tobytes()


def assert_update_parity(state, z, cfg):
    got, gd = update(state, z, cfg)
    want, wd = ref_update(state, z, cfg)
    assert (gd.skipped, gd.saturated) == (wd.skipped, wd.saturated)
    for g, w in ((mean_of(got), mean_of(want)), (cov_of(got), cov_of(want))):
        assert np.all(np.abs(g - w) <= 1e-12 * np.maximum(1.0, np.abs(w))), (g - w, w)
    # against the float reference: every bit, including the diagnostics
    exact, ed = ref_float_update(state, z, cfg)
    assert mean_of(got).tolist() == mean_of(exact).tolist()
    assert cov_of(got).tolist() == cov_of(exact).tolist()
    jac = None if ed.jacobian_pos is None else tuple(ed.jacobian_pos.tolist())
    assert gd == ed._replace(jacobian_pos=jac)
    return gd


@pytest.mark.parametrize("kind", ["proposed", "huber", "ekf"])
class TestUpdateParity:
    def test_random_updates(self, kind):
        rng = np.random.default_rng(21)
        cfg = make_filter_config(kind, 1.5, math.radians(2.0))
        saturated = 0
        for i in range(3000):
            mean = np.array([*rng.uniform(5, 95, 2), rng.normal(0, 2), rng.normal(0, 0.05)])
            scale = [0.05, 1.0, 10.0, 40.0][i % 4]
            state = belief(mean, random_prior(rng, scale))
            agent = tuple(float(v) for v in rng.uniform(0, 100, 2))
            truth = mean[:2] + rng.normal(0, scale, 2)
            if h_rtt(truth, agent) < 1e-3:
                continue
            if i % 2 == 0:
                value = h_rtt(truth, agent) + rng.normal(0, 1.5) + rng.exponential(8.0) * (i % 3 == 0)
                z = Measurement(Modality.RTT, float(value), agent)
            else:
                value = wrap_angle(h_aoa(truth, agent) + rng.normal(0, 0.035)
                                   + rng.normal(0, 0.3) * (i % 3 == 0))
                z = Measurement(Modality.AOA, float(value), agent)
            saturated += assert_update_parity(state, z, cfg).saturated
        if kind != "ekf":
            assert saturated > 100

    def test_first_update_from_the_wide_initial_prior(self, kind):
        rng = np.random.default_rng(22)
        cfg = make_filter_config(kind, 1.5, math.radians(2.0))
        for _ in range(500):
            state = init_state(cfg, rng.uniform(0, 100, 2))
            agent = tuple(float(v) for v in rng.uniform(0, 100, 2))
            truth = rng.uniform(0, 100, 2)
            for z in (Measurement(Modality.RTT, h_rtt(truth, agent) + float(rng.normal(0, 1.5)), agent),
                      Measurement(Modality.AOA, h_aoa(truth, agent), agent)):
                assert_update_parity(state, z, cfg)

    def test_aoa_residual_near_pi(self, kind):
        # the raw residual sits just inside or outside +-pi, so the wrap
        # decides its sign; both versions must make the same decision
        cfg = make_filter_config(kind, 1.5, math.radians(2.0))
        rng = np.random.default_rng(23)
        for i in range(400):
            state = belief(np.array([50.0, 50.0, 0.0, float(rng.normal(0, 0.01))]),
                                   random_prior(rng, 2.0))
            agent = tuple(float(v) for v in rng.uniform(0, 100, 2))
            pred = h_aoa(mean_of(state)[:2], agent) + mean_of(state)[3]
            eps = float(rng.choice([-1e-9, 1e-12, 1e-6, -1e-3]))
            value = wrap_angle(pred + (math.pi if i % 2 else -math.pi) + eps)
            assert_update_parity(state, Measurement(Modality.AOA, value, agent), cfg)

    def test_skips(self, kind):
        cfg = make_filter_config(kind, 1.5, math.radians(2.0))
        state = init_state(cfg, (30.0, 40.0))
        # AoA from under the minimum range, and RTT from the estimate itself
        d = assert_update_parity(state, Measurement(Modality.AOA, 0.2, (30.5, 40.0)), cfg)
        assert d.skipped
        d = assert_update_parity(state, Measurement(Modality.RTT, 3.0, (30.0, 40.0)), cfg)
        assert d.skipped


def update_outcome(fn, state, z, cfg):
    """An update's posterior and diagnostics as plain values (the Jacobian
    as a float pair), or ``"diverged"``."""
    try:
        post, diag = fn(state, z, cfg)
    except FilterDivergenceError:
        return "diverged"
    jac = diag.jacobian_pos
    if isinstance(jac, np.ndarray):
        jac = tuple(jac.tolist())
    return mean_of(post).tolist(), cov_of(post).tolist(), diag._replace(jacobian_pos=jac)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(kind=st.sampled_from(FILTER_KINDS), rounds=st.integers(1, 10),
       a=st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16),
       log_sd=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       pos=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
       offsets=st.tuples(st.floats(-5.0, 5.0), st.floats(-0.2, 0.2)),
       agent=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
       measurement=st.one_of(
           st.tuples(st.just("rtt"), st.floats(0.0, 150.0)),
           st.tuples(st.just("aoa"), st.floats(-math.pi, math.pi)),
           # a raw residual just inside or outside +-pi, where the wrap picks its sign
           st.tuples(st.sampled_from(["aoa+pi", "aoa-pi"]),
                     st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-3]))))
def test_update_bit_identical_to_float_reference(kind, rounds, a, log_sd, pos, offsets,
                                                 agent, measurement):
    # every kind, ekf included, runs the drawn number of IRLS rounds
    cfg = make_filter_config(kind, 1.5, math.radians(2.0))
    cfg = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, irls_iterations=rounds))
    m = np.array(a).reshape(4, 4)
    sd = 10.0 ** np.array(log_sd)
    prior = (m @ m.T + 1e-3 * np.eye(4)) * np.outer(sd, sd)
    state = belief(np.array([*pos, *offsets]), 0.5 * (prior + prior.T))
    what, value = measurement
    if what == "rtt":
        z = Measurement(Modality.RTT, value, agent)
    else:
        if what != "aoa":
            try:
                pred = h_aoa(pos, agent) + offsets[1]
            except CoincidentPointsError:
                pred = 0.0
            value = wrap_angle(pred + (math.pi if what == "aoa+pi" else -math.pi) + value)
        z = Measurement(Modality.AOA, value, agent)
    assert update_outcome(update, state, z, cfg) == update_outcome(ref_float_update, state, z, cfg)


@pytest.mark.parametrize("kind", ["proposed", "huber", "ekf"])
def test_numpy_scalar_noise_scales_give_the_float_bits(kind):
    # a config built from numpy scalars holds plain floats, so the update
    # does float arithmetic, not numpy-scalar arithmetic, with the same bits
    rng = np.random.default_rng(24)
    from_float = make_filter_config(kind, 1.5, math.radians(2.0))
    from_numpy = make_filter_config(kind, np.float64(1.5), np.radians(2.0))
    for spec in (from_numpy.rtt_loss, from_numpy.aoa_loss):
        assert all(type(getattr(spec, f)) is float
                   for f in ("sigma", "lam", "k", "tau") if getattr(spec, f) is not None)
    assert from_numpy == from_float
    for i in range(200):
        mean = np.array([*rng.uniform(5, 95, 2), rng.normal(0, 2), rng.normal(0, 0.05)])
        state = belief(mean, random_prior(rng, [1.0, 10.0][i % 2]))
        agent = tuple(float(v) for v in rng.uniform(0, 100, 2))
        value = (h_rtt(mean_of(state)[:2], agent) + float(rng.normal(0, 5)) if i % 2 == 0
                 else wrap_angle(h_aoa(mean_of(state)[:2], agent) + float(rng.normal(0, 0.2))))
        z = Measurement(Modality.AOA if i % 2 else Modality.RTT, value, agent)
        got = update_outcome(update, state, z, from_numpy)
        assert got == update_outcome(update, state, z, from_float)
        diag = got[2]
        if not diag.skipped:
            assert type(diag.residual) is float and type(diag.weight) is float
            assert all(type(j) is float for j in diag.jacobian_pos)


# ---------------------------------------------------------------------------
# the one-call linearization against the functions it replaced in update
# ---------------------------------------------------------------------------

coordinate = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


def outcome(fn, *args):
    """A call's value as a list, or ``None`` where it is undefined: on
    coincident points, and where the bearing Jacobian's squared distance
    underflows to zero (the reference divides by it, ``linearize`` reports
    coincident points)."""
    try:
        out = fn(*args)
    except (CoincidentPointsError, ZeroDivisionError):
        return None
    return out.tolist() if isinstance(out, np.ndarray) else list(out)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(tx=coordinate, ty=coordinate, ax=coordinate, ay=coordinate)
def test_linearize_bit_identical_to_h_and_jacobian(tx, ty, ax, ay):
    target, agent = (tx, ty), (ax, ay)
    for modality, h in ((Modality.RTT, h_rtt), (Modality.AOA, h_aoa)):
        got = outcome(linearize, target, agent, modality is Modality.AOA)
        want_j = outcome(ref_jacobian, modality, target, agent)
        if want_j is None:
            assert got is None
        else:
            assert got == [h(target, agent), h_rtt(target, agent), *want_j]
