import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asymloc import sim_env
from asymloc.config import ConfigError, parse_config
from asymloc.filters import init_state, make_filter_config, update
from asymloc.geometry import CoincidentPointsError, Modality, linearize, wrap_angle
from asymloc.sim_env import (PRESETS, Scenario, channel_draws, observe_with_draw,
                             segment_intersects_rect)
from arrays import h_aoa, h_rtt


class TestRectAndSegments:
    RECT = (50.0, 50.0, 10.0, 10.0)

    def test_straight_through(self):
        assert segment_intersects_rect((0.0, 50.0), (100.0, 50.0), self.RECT)

    def test_disjoint(self):
        assert not segment_intersects_rect((0.0, 0.0), (10.0, 0.0), self.RECT)

    def test_endpoint_inside(self):
        assert segment_intersects_rect((45.0, 52.0), (200.0, 300.0), self.RECT)

    def test_touching_edge_counts(self):
        assert segment_intersects_rect((40.0, 0.0), (40.0, 100.0), self.RECT)

    def test_near_miss(self):
        assert not segment_intersects_rect((39.9, 0.0), (39.9, 100.0), self.RECT)

    def test_degenerate_segment(self):
        assert segment_intersects_rect((50.0, 50.0), (50.0, 50.0), self.RECT)
        assert not segment_intersects_rect((0.0, 0.0), (0.0, 0.0), self.RECT)

    def test_matches_dense_sampling_oracle(self):
        # walk many points along each segment; containment of any sample
        # implies intersection (one-sided check of the clipping result)
        rng = np.random.default_rng(3)
        rect = (40.0, 60.0, 12.0, 5.0)
        cx, cy, half_width, half_height = rect
        for _ in range(300):
            a = rng.uniform(0, 100, 2)
            b = rng.uniform(0, 100, 2)
            ts = np.linspace(0.0, 1.0, 400)
            pts = a[None, :] + ts[:, None] * (b - a)[None, :]
            sampled_hit = bool(np.any((np.abs(pts[:, 0] - cx) <= half_width)
                                      & (np.abs(pts[:, 1] - cy) <= half_height)))
            clipped_hit = segment_intersects_rect(a, b, rect)
            if sampled_hit:
                assert clipped_hit
            if not clipped_hit:
                assert not sampled_hit


class TestScenarioValidation:
    def test_presets_exist(self):
        assert set(PRESETS) == {"canonical_low", "canonical_medium", "canonical_high", "obstacle"}
        assert PRESETS["canonical_low"].sigma_r == 0.5
        assert PRESETS["canonical_high"].sigma_r == 2.5
        assert PRESETS["obstacle"].obstacle is not None

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            Scenario(p_nlos=1.5)
        with pytest.raises(ValueError):
            Scenario(sigma_r=-1.0)
        with pytest.raises(ValueError):
            Scenario(truth=(120.0, 50.0))
        with pytest.raises(ValueError, match="^seed: -1 must be >= 0"):
            Scenario(seed=-1)
        # a value of the wrong type is refused by name, as a ValueError
        for field in ("obstacle", "truth"):
            with pytest.raises(ValueError, match=f"^{field}: "):
                Scenario(**{field: 5})

    def test_obstacle_is_the_four_floats_of_its_knob(self):
        # the tuple its INI text parses to is the obstacle itself: it builds,
        # equals the preset's, and blocks exactly where the preset does
        sc = Scenario(sigma_r=1.5, obstacle=(50.0, 35.0, 25.0, 8.0), p_nlos_clear=0.1)
        preset = PRESETS["obstacle"]
        assert sc == preset
        assert parse_config("[experiment]\npreset = obstacle\n[scenario]\n"
                            "obstacle = 50,35,25,8\n").scenario == preset
        draws = (0.5, 0.5, 1.0, 0.0, 0.0, 0.0)  # nlos only where blocked
        blocked = 0
        for x in np.linspace(0.0, 100.0, 41):
            for y in np.linspace(0.0, 100.0, 41):
                agent = (float(x), float(y))
                if agent == sc.truth:
                    continue
                got = observe_with_draw(sc, agent, draws)[2]
                assert got == observe_with_draw(preset, agent, draws)[2]
                blocked += got.is_nlos
        assert 0 < blocked < 41 * 41 - 1

    def test_obstacle_tuple_with_a_negative_extent_refused(self):
        # a rectangle with no interior is refused, in Python and through INI
        for obstacle in ((50.0, 35.0, 0.0, 8.0), (50.0, 35.0, -25.0, 8.0),
                         (50.0, 35.0, 25.0, 0.0), (50.0, 35.0, 25.0, -8.0)):
            with pytest.raises(ValueError, match="obstacle: half extents must be > 0"):
                Scenario(obstacle=obstacle)
            text = ",".join(str(v) for v in obstacle)
            with pytest.raises(ConfigError, match=r"^scenario: obstacle: half extents must be > 0"):
                parse_config(f"[experiment]\npreset = obstacle\n[scenario]\nobstacle = {text}\n")

    def test_point_needs_exactly_two_values(self):
        with pytest.raises(ValueError, match="truth: expected 2 values, got 3"):
            Scenario(truth=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="start: expected 2 values, got 1"):
            Scenario(start=(1.0,))

    def test_angle_conversions(self):
        sc = Scenario(delta_theta_deg=-3.0, sigma_theta_deg=2.0)
        assert sc.delta_theta_rad == pytest.approx(math.radians(-3.0))
        assert sc.sigma_theta_rad == pytest.approx(math.radians(2.0))


class TestSampleChannel:
    def test_channel_draws_keep_the_scalar_call_order(self):
        # the raw stream is the six scalar generator calls of each step, in
        # this order, so a world drawn step by step matches the one drawn
        # inside the channel before the draws were split out of it
        n = 200
        rng = np.random.default_rng(17)
        got = [channel_draws(rng) for _ in range(n)]
        rng = np.random.default_rng(17)
        want = []
        for _ in range(n):
            u_shared = rng.random()
            u_aoa = rng.random()
            e_bias = rng.standard_exponential()
            z_btheta = rng.standard_normal()
            z_r = rng.standard_normal()
            z_theta = rng.standard_normal()
            want.append((u_shared, u_aoa, e_bias, z_btheta, z_r, z_theta))
        assert got == want
        assert all(type(v) is float for v in got[0])

    def test_los_only_when_p_zero(self):
        sc = Scenario(p_nlos=0.0)
        rng = np.random.default_rng(0)
        for _ in range(500):
            d = observe_with_draw(sc, sc.start, channel_draws(rng))[2]
            assert not d.is_nlos
            assert d.b_r == 0.0 and d.b_theta == 0.0

    def test_bias_mean_matches_configuration(self):
        sc = Scenario(p_nlos=0.9, mu_nlos=8.0)
        rng = np.random.default_rng(1)
        draws = [observe_with_draw(sc, sc.start, channel_draws(rng))[2] for _ in range(100_000)]
        nlos_b = [d.b_r for d in draws if d.is_nlos]
        assert np.mean(nlos_b) == pytest.approx(8.0, abs=0.1)

    def test_nlos_rate_within_one_percent(self):
        sc = Scenario(p_nlos=0.9)
        rng = np.random.default_rng(2)
        hits = sum(observe_with_draw(sc, sc.start, channel_draws(rng))[2].is_nlos
                   for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(0.9, abs=0.01)

    def test_bias_never_negative(self):
        sc = Scenario(p_nlos=0.9, mu_nlos=8.0)
        rng = np.random.default_rng(3)
        assert all(observe_with_draw(sc, sc.start, channel_draws(rng))[2].b_r >= 0.0
                   for _ in range(1_000_000))
        # a negative exponential draw is refused, not turned into a shorter range
        with pytest.raises(ValueError, match="non-negative"):
            observe_with_draw(sc, sc.start, (0.0, 0.0, -1.0, 0.0, 0.0, 0.0))

    def test_obstacle_forces_nlos(self):
        rect = (50.0, 50.0, 10.0, 10.0)
        sc = Scenario(truth=(80.0, 50.0), start=(10.0, 50.0), obstacle=rect, p_nlos_clear=0.0)
        rng = np.random.default_rng(4)
        for _ in range(200):
            assert observe_with_draw(sc, (10.0, 50.0), channel_draws(rng))[2].is_nlos

    def test_obstacle_shadow_is_spatially_coherent(self):
        # with the clear-sky rate at zero the NLOS indicator is exactly the
        # segment-blockage predicate, however the agent moves
        rect = (50.0, 35.0, 25.0, 8.0)
        sc = Scenario(obstacle=rect, p_nlos_clear=0.0)
        rng = np.random.default_rng(5)
        for x in np.linspace(0.0, 100.0, 101):
            agent = (float(x), 20.0)
            expected = segment_intersects_rect(agent, sc.truth, rect)
            assert observe_with_draw(sc, agent, channel_draws(rng))[2].is_nlos == expected

    def test_draws_paired_across_parameter_values(self):
        # same seed, different channel parameters: the thermal noise samples
        # are identical draw-for-draw (sweep pairing contract)
        base = Scenario(p_nlos=0.1)
        alt = dataclasses.replace(base, p_nlos=0.9, mu_nlos=15.0)
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(300):
            d1 = observe_with_draw(base, base.start, channel_draws(r1))[2]
            d2 = observe_with_draw(alt, alt.start, channel_draws(r2))[2]
            assert d1.eps_r == d2.eps_r
            assert d1.eps_theta == d2.eps_theta

    def test_independent_coins_when_not_shared(self):
        sc = Scenario(p_nlos=0.5, shared_nlos_flag=False)
        rng = np.random.default_rng(8)
        draws = [observe_with_draw(sc, sc.start, channel_draws(rng))[2] for _ in range(2000)]
        differing = sum(d.is_nlos != d.is_nlos_aoa for d in draws)
        assert differing > 200  # half-and-half coins disagree often


class TestObserve:
    def test_systematic_offsets_alone(self):
        sc = Scenario(p_nlos=0.0, sigma_r=1e-12, sigma_theta_deg=1e-12,
                      delta_r=1.5, delta_theta_deg=-3.0)
        rng = np.random.default_rng(0)
        agent = (10.0, 10.0)
        m_rtt, m_aoa = observe_with_draw(sc, agent, channel_draws(rng))[:2]
        assert m_rtt.value == pytest.approx(h_rtt(sc.truth, agent) + 1.5, abs=1e-6)
        assert m_aoa.value == pytest.approx(
            wrap_angle(h_aoa(sc.truth, agent) + math.radians(-3.0)), abs=1e-6)

    def test_range_never_negative(self):
        sc = Scenario(p_nlos=0.9, sigma_r=30.0, delta_r=-20.0)  # absurd noise
        rng = np.random.default_rng(1)
        clamped_any = False
        for _ in range(5000):
            m_rtt, _, _, clamped = observe_with_draw(sc, (49.0, 50.0), channel_draws(rng))
            assert m_rtt.value >= 0.0
            clamped_any = clamped_any or clamped
        assert clamped_any

    def test_deterministic_given_seed(self):
        sc = PRESETS["canonical_medium"]
        seq1 = []
        seq2 = []
        for seq, seed in ((seq1, 9), (seq2, 9)):
            rng = np.random.default_rng(seed)
            for t in range(100):
                m_rtt, m_aoa = observe_with_draw(sc, (10.0 + t, 10.0), channel_draws(rng))[:2]
                seq.append((m_rtt.value, m_aoa.value))
        assert seq1 == seq2

    def test_aoa_in_range(self):
        sc = Scenario(sigma_b_theta_deg=120.0)
        rng = np.random.default_rng(11)
        for _ in range(2000):
            _, m_aoa = observe_with_draw(sc, (90.0, 90.0), channel_draws(rng))[:2]
            assert -math.pi < m_aoa.value <= math.pi

    def test_world_imports_nothing_from_the_estimator(self):
        tree = ast.parse(inspect.getsource(sim_env))
        modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        modules += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names]
        assert not [m for m in modules if m and m.split(".")[-1] == "filters"]

    def test_next_to_the_target_raises_where_linearize_does(self):
        # d = 1e-170 is not 0, but the bearing Jacobian's d * d underflows,
        # so the world skips the step as the filter does for its estimate
        sc = Scenario(truth=(0.0, 0.0))
        with pytest.raises(CoincidentPointsError):
            observe_with_draw(sc, (1e-170, 0.0), (0.5, 0.5, 1.0, 0.0, 0.0, 0.0))

    def test_measurement_metadata(self):
        sc = PRESETS["canonical_medium"]
        rng = np.random.default_rng(12)
        m_rtt, m_aoa = observe_with_draw(sc, (20.0, 30.0), channel_draws(rng))[:2]
        assert m_rtt.modality is Modality.RTT
        assert m_aoa.modality is Modality.AOA
        assert m_rtt.agent == (20.0, 30.0)


coordinate = st.floats(0.0, 100.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(truth=st.tuples(coordinate, coordinate),
       agent=st.tuples(st.floats(-50.0, 150.0), st.floats(-50.0, 150.0)),
       shared=st.booleans(), kind=st.sampled_from(["proposed", "huber", "ekf"]))
# linearize's bearing here is -pi, which the world wraps to pi
@example(truth=(0.0, 0.0), agent=(1.0, 1e-300), shared=True, kind="proposed")
def test_world_measures_what_the_filter_predicts(truth, agent, shared, kind):
    # a clear line of sight with zero bias, noise and offsets: the world's
    # measurements are linearize's predictions (the bearing wrapped to
    # (-pi, pi]), and a filter at the truth sees zero residuals
    assume(math.hypot(truth[0] - agent[0], truth[1] - agent[1]) >= 1.0)
    sc = Scenario(truth=truth, delta_r=0.0, delta_theta_deg=0.0, shared_nlos_flag=shared)
    m_rtt, m_aoa, draw, clamped = observe_with_draw(sc, agent, (1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert not (draw.is_nlos or draw.is_nlos_aoa or clamped)
    assert m_rtt.value == linearize(truth, agent)[0]
    assert m_aoa.value == wrap_angle(linearize(truth, agent, True)[0])
    cfg = make_filter_config(kind, sc.sigma_r, sc.sigma_theta_rad)
    state = init_state(cfg, truth)
    for z in (m_rtt, m_aoa):
        _, diag = update(state, z, cfg)
        assert not diag.skipped
        assert diag.residual == 0.0
