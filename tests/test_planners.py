import dataclasses
import math
import time

import numpy as np
import pytest

from asymloc import planners
from asymloc.experiment import GridSpec, run_grid
from asymloc.geometry import Modality
from asymloc.observability import eig_sym
from asymloc.planners import (PLANNER_KINDS, FimPlanner, LawnmowerPlanner, PlannerConfig,
                              ReactiveCrossingPlanner, fim, fim_e_optimal, make_planner,
                              reactive_crossing)
from asymloc.sim_env import PRESETS

NOISE = {Modality.RTT: 1.5, Modality.AOA: 0.035}


class TestReactiveCrossing:
    def test_collinear_example(self):
        cfg = PlannerConfig(eta=5.0, ell=20.0, eps_stop=0.1, arena=100.0)
        nxt = reactive_crossing((0.0, 0.0), (10.0, 0.0), cfg)
        np.testing.assert_allclose(nxt, [5.0, 0.0], atol=1e-12)

    def test_stop_when_close(self):
        cfg = PlannerConfig(eps_stop=0.1)
        nxt = reactive_crossing((10.0, 10.0), (10.0, 10.01), cfg)
        np.testing.assert_array_equal(nxt, [10.0, 10.0])

    def test_stays_on_the_estimate_with_zero_stop_radius(self):
        # eps_stop = 0 is allowed: exactly on the estimate no direction is
        # defined, so the agent stays put instead of dividing by zero
        cfg = PlannerConfig(eps_stop=0.0)
        assert reactive_crossing((1.0, 1.0), (1.0, 1.0), cfg) == (1.0, 1.0)
        nxt = reactive_crossing((1.0, 1.0), (1.0, 1.0 + 1e-9), cfg)
        assert math.hypot(nxt[0] - 1.0, nxt[1] - 1.0) == pytest.approx(cfg.eta, rel=1e-12)

    def test_step_length_is_eta(self):
        rng = np.random.default_rng(3)
        cfg = PlannerConfig(eta=5.0, ell=20.0, eps_stop=0.1, arena=1e9)
        for _ in range(200):
            agent = rng.uniform(10, 90, 2)
            est = rng.uniform(10, 90, 2)
            if np.linalg.norm(est - agent) < cfg.eps_stop:
                continue
            nxt = reactive_crossing(agent, est, cfg)
            assert np.linalg.norm(nxt - agent) == pytest.approx(cfg.eta, rel=1e-12)

    def test_clamped_to_arena(self):
        cfg = PlannerConfig(eta=5.0, arena=100.0)
        nxt = reactive_crossing((99.0, 50.0), (150.0, 50.0), cfg)
        assert 0.0 <= nxt[0] <= 100.0

    def test_eventually_crosses_the_target_line(self):
        # noise-free pursuit of a pinned estimate: the along-track component
        # of (target - agent) must change sign within ceil((d0 + ell)/eta)
        cfg = PlannerConfig(eta=5.0, ell=20.0, eps_stop=0.1, arena=200.0)
        truth = np.array([50.0, 50.0])
        agent = np.array([10.0, 10.0])
        d0 = np.linalg.norm(truth - agent)
        u0 = (truth - agent) / d0
        bound = math.ceil((d0 + cfg.ell) / cfg.eta)
        crossed = False
        for _ in range(bound):
            agent = reactive_crossing(agent, truth, cfg)
            if (truth - agent) @ u0 < 0.0:
                crossed = True
                break
        assert crossed


class TestFim:
    def test_each_modality_informs_its_own_axis(self):
        # from (d, 0) the range row lies along x (radial) and the bearing
        # row along y (tangential)
        s_r, s_t = NOISE[Modality.RTT], NOISE[Modality.AOA]
        for d in (0.5, 10.0, 80.0):
            a, b, c = fim((d, 0.0), (0.0, 0.0), NOISE)
            assert a == pytest.approx(1.0 / s_r**2, rel=1e-15)
            assert b == 0.0
            assert c == pytest.approx(1.0 / (d * d * s_t**2), rel=1e-15)

    def test_both_modalities_rank_two(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            est = rng.uniform(0, 100, 2)
            cand = rng.uniform(0, 100, 2)
            if np.linalg.norm(est - cand) < 1e-6:
                continue
            a, b, c = fim(est, cand, NOISE)
            assert a * c - b * b > 0.0

    def test_aoa_information_quarters_with_doubled_distance(self):
        # the tangential (bearing) entry falls as 1/d^2; the radial (range)
        # entry does not depend on d
        near = fim((20.0, 0.0), (0.0, 0.0), NOISE)
        far = fim((40.0, 0.0), (0.0, 0.0), NOISE)
        assert far[2] == pytest.approx(near[2] / 4.0, rel=1e-12)
        assert far[0] == pytest.approx(near[0], rel=1e-15)

    def test_lambda_min_closed_form(self):
        # range information 1/sigma_r^2 lies along the radial direction and
        # bearing information 1/(d^2 sigma_theta^2) along the tangential one:
        # the basis of fim_e_optimal's standoff rule. From 1 m out, the
        # closed-form eigenvalue keeps 1e-12 relative accuracy (nearer, the
        # bearing term outgrows the range term and the subtraction in
        # eig_sym loses digits in proportion)
        rng = np.random.default_rng(8)
        s_r, s_t = NOISE[Modality.RTT], NOISE[Modality.AOA]
        checked = 0
        for _ in range(20_000):
            e, c = rng.uniform(0, 100, 2), rng.uniform(0, 100, 2)
            d2 = float((e[0] - c[0]) ** 2 + (e[1] - c[1]) ** 2)
            if d2 < 1.0:
                continue
            lmin, _ = eig_sym(*fim(e, c, NOISE))
            want = min(1.0 / s_r**2, 1.0 / (d2 * s_t**2))
            assert abs(lmin - want) <= 1e-12 * want
            checked += 1
        assert checked > 19_000

    @pytest.mark.parametrize("as_array", [False, True])
    def test_entries_are_floats(self, as_array):
        est, cand = (30.0, 40.0), (10.0, 5.0)
        if as_array:
            est, cand = np.array(est), np.array(cand)
        entries = fim(est, cand, NOISE)
        assert type(entries) is tuple and len(entries) == 3
        assert all(type(v) is float for v in entries), entries

    @pytest.mark.parametrize("modality", [Modality.RTT, Modality.AOA])
    def test_single_modality_map_raises_key_error(self, modality):
        # every run measures both modalities; a map that lacks one is refused
        # by name, before any candidate is scored
        noise = {modality: NOISE[modality]}
        missing = Modality.AOA if modality is Modality.RTT else Modality.RTT
        with pytest.raises(KeyError) as raised:
            fim((10.0, 0.0), (0.0, 0.0), noise)
        assert raised.value.args == (missing,)
        with pytest.raises(KeyError) as raised:
            fim_e_optimal((50.0, 50.0), (80.0, 50.0), PlannerConfig(), noise)
        assert raised.value.args == (missing,)
        with pytest.raises(KeyError) as raised:
            fim((5.0, 5.0), (5.0, 5.0), noise)  # also where no entry is defined
        assert raised.value.args == (missing,)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            fim((5.0, 5.0), (5.0, 5.0), NOISE)


class TestFimEOptimal:
    def test_standoff_ties_break_to_first_candidate(self):
        # 30 m from the estimate, inside d* = sigma_r / sigma_theta (about
        # 43 m), every candidate scores 1/sigma_r^2: the first one, heading 0,
        # wins
        cfg = PlannerConfig(eta=5.0, candidate_count=8, arena=100.0)
        assert NOISE[Modality.RTT] / NOISE[Modality.AOA] > 30.0 + cfg.eta
        nxt = fim_e_optimal((50.0, 50.0), (80.0, 50.0), cfg, NOISE)
        np.testing.assert_allclose(nxt, [55.0, 50.0], atol=1e-12)

    def test_far_estimate_pulls_closer(self):
        # beyond the range/bearing balance radius the bearing eigenvalue
        # dominates the decision, so the chosen pose strictly reduces the
        # distance to the estimate
        rng = np.random.default_rng(13)
        cfg = PlannerConfig(eta=5.0, candidate_count=16, arena=1000.0)
        ring = NOISE[Modality.RTT] / NOISE[Modality.AOA]
        checked = 0
        while checked < 100:
            agent = rng.uniform(200, 800, 2)
            direction = rng.uniform(-np.pi, np.pi)
            dist = rng.uniform(ring + cfg.eta + 1.0, 180.0 + ring)
            est = agent + dist * np.array([math.cos(direction), math.sin(direction)])
            if not ((0 <= est) & (est <= 1000)).all():
                continue
            nxt = fim_e_optimal(agent, est, cfg, NOISE)
            assert np.linalg.norm(est - nxt) < np.linalg.norm(est - agent)
            checked += 1

    def test_matches_exhaustive_independent_evaluation(self):
        rng = np.random.default_rng(17)
        cfg = PlannerConfig(eta=5.0, candidate_count=16, arena=100.0)
        for _ in range(100):
            agent = rng.uniform(10, 90, 2)
            est = rng.uniform(0, 100, 2)
            headings = 2 * np.pi * np.arange(cfg.candidate_count) / cfg.candidate_count
            cands = [agent + cfg.eta * np.array([math.cos(t), math.sin(t)]) for t in headings]
            cands.append(agent.copy())
            best_val, best = -np.inf, agent
            for c in cands:
                if not ((0 <= c) & (c <= cfg.arena)).all():
                    continue
                if np.linalg.norm(est - c) < 1e-12:
                    continue
                a, b, d = fim(est, c, NOISE)
                lam = np.linalg.eigvalsh(np.array([[a, b], [b, d]]))[0]
                if lam > best_val * (1 + 1e-9) + 1e-15:
                    best_val, best = lam, c
            nxt = fim_e_optimal(agent, est, cfg, NOISE)
            np.testing.assert_allclose(nxt, best, atol=1e-9)

    def test_agent_on_estimate_steps_out(self):
        cfg = PlannerConfig(eta=5.0, candidate_count=16, arena=100.0)
        nxt = fim_e_optimal((50.0, 50.0), (50.0, 50.0), cfg, NOISE)
        assert np.linalg.norm(nxt - np.array([50.0, 50.0])) == pytest.approx(5.0, rel=1e-12)

    def test_all_candidates_excluded_stays(self):
        cfg = PlannerConfig(eta=5.0, candidate_count=4, arena=2.0)
        nxt = fim_e_optimal((1.0, 1.0), (1.0, 1.0), cfg, NOISE)
        np.testing.assert_array_equal(nxt, [1.0, 1.0])


def standoff_choice(agent, estimate, cfg, noise):
    """``fim_e_optimal``'s decision from the closed form of its score,
    ``lambda_min = min(1/sigma_r^2, 1/(d^2 sigma_theta^2))``, over the same
    candidates, exclusions and tie rule."""
    ax, ay = float(agent[0]), float(agent[1])
    e = (float(estimate[0]), float(estimate[1]))
    range_info = 1.0 / noise[Modality.RTT] ** 2
    n = cfg.candidate_count
    candidates = [(ax + cfg.eta * math.cos(2.0 * math.pi * i / n),
                   ay + cfg.eta * math.sin(2.0 * math.pi * i / n)) for i in range(n)]
    candidates.append((ax, ay))
    scores = []
    for c in candidates:
        if not (0.0 <= c[0] <= cfg.arena and 0.0 <= c[1] <= cfg.arena) or c == e:
            scores.append(-math.inf)
        else:
            d2 = (e[0] - c[0]) ** 2 + (e[1] - c[1]) ** 2
            scores.append(min(range_info, 1.0 / (d2 * noise[Modality.AOA] ** 2)))
    best = max(scores)
    if not math.isfinite(best):
        return (ax, ay)
    tol = 1e-9 * max(1.0, abs(best))
    return candidates[next(i for i, s in enumerate(scores) if s >= best - tol)]


def test_standoff_rule_makes_every_grid_decision(monkeypatch):
    # the standoff rule in fim_e_optimal's docstring, checked against every
    # decision the fim planner takes in a seeded grid on each preset
    decisions = []

    def recording(agent, estimate, cfg, noise):
        pose = fim_e_optimal(agent, estimate, cfg, noise)
        decisions.append(((float(agent[0]), float(agent[1])), tuple(estimate), cfg, noise,
                          (float(pose[0]), float(pose[1]))))
        return pose

    monkeypatch.setattr(planners, "fim_e_optimal", recording)
    for preset in sorted(PRESETS):
        scenario = dataclasses.replace(PRESETS[preset], steps=300)
        run_grid(GridSpec(scenario=scenario, filters=("proposed", "huber"), planners=("fim",),
                          n_runs=4))
    assert len(decisions) == len(PRESETS) * 2 * 4 * 300
    differing = [d for d in decisions if standoff_choice(*d[:4]) != d[4]]
    assert not differing, f"{len(differing)} of {len(decisions)} decisions differ: {differing[:3]}"


class TestLawnmower:
    def test_deterministic_sweep_example(self):
        cfg = PlannerConfig(eta=5.0, lawnmower_spacing=10.0, arena=100.0)
        planner = LawnmowerPlanner(cfg)
        pose = np.array([10.0, 10.0])
        for _ in range(18):
            pose = planner.next_pose(pose)
        np.testing.assert_allclose(pose, [100.0, 10.0], atol=1e-12)
        pose = planner.next_pose(pose)
        np.testing.assert_allclose(pose, [100.0, 20.0], atol=1e-12)
        pose = planner.next_pose(pose)
        np.testing.assert_allclose(pose, [95.0, 20.0], atol=1e-12)  # reversed

    def test_each_track_visited_once_per_sweep(self):
        cfg = PlannerConfig(eta=5.0, lawnmower_spacing=10.0, arena=100.0)
        planner = LawnmowerPlanner(cfg)
        pose = np.array([10.0, 10.0])
        ys = [pose[1]]
        for _ in range(400):
            pose = planner.next_pose(pose)
            ys.append(pose[1])
        # contiguous blocks of constant y; block values strictly increase
        # until the top, then decrease (boustrophedon up, then back down)
        blocks = [ys[0]]
        for y in ys[1:]:
            if y != blocks[-1]:
                blocks.append(y)
        top = blocks.index(max(blocks))
        assert all(b2 > b1 for b1, b2 in zip(blocks[:top], blocks[1:top + 1]))
        assert all(b2 < b1 for b1, b2 in zip(blocks[top:-1], blocks[top + 1:]))
        assert len(set(blocks[:top + 1])) == top + 1

    def test_poses_stay_in_arena(self):
        cfg = PlannerConfig(eta=5.0, lawnmower_spacing=10.0, arena=100.0)
        planner = LawnmowerPlanner(cfg)
        pose = (10.0, 10.0)
        for _ in range(600):
            pose = planner.next_pose(pose)
            assert 0.0 <= pose[0] <= 100.0 and 0.0 <= pose[1] <= 100.0


@pytest.mark.parametrize("as_array", [False, True])
def test_every_planner_returns_a_float_pair(as_array):
    # agent/estimate pairs cover a move, the stop radius, the arena edge and
    # an agent on the estimate; next_pose returns reactive_crossing's and
    # fim_e_optimal's result as is
    cases = [((40.0, 40.0), (60.0, 55.0)), ((10.0, 10.0), (10.0, 10.01)),
             ((100.0, 0.0), (150.0, -20.0)), ((50.0, 50.0), (50.0, 50.0))]
    for kind in PLANNER_KINDS:
        planner = make_planner(kind, PlannerConfig(), NOISE)
        for agent, est in cases:
            if as_array:
                agent, est = np.array(agent), np.array(est)
            pose = planner.next_pose(agent, est)
            assert type(pose) is tuple and len(pose) == 2, (kind, pose)
            assert all(type(v) is float for v in pose), (kind, pose)


class TestRegistryAndCost:
    def test_make_planner(self):
        cfg = PlannerConfig()
        assert isinstance(make_planner("passive", cfg, NOISE), LawnmowerPlanner)
        assert isinstance(make_planner("reactive", cfg, NOISE), ReactiveCrossingPlanner)
        assert isinstance(make_planner("fim", cfg, NOISE), FimPlanner)
        with pytest.raises(ValueError):
            make_planner("rrt", cfg, NOISE)

    @staticmethod
    def _time_per_call(fn, reps=2000, rounds=3):
        best = math.inf
        for _ in range(rounds):
            tic = time.perf_counter()
            for _ in range(reps):
                fn()
            best = min(best, (time.perf_counter() - tic) / reps)
        return best

    def test_cost_scales_linearly_in_candidate_count(self):
        # the counts take turns, round after round, and each keeps its
        # fastest round: a load spike slows one round of every count, not
        # every round of one count
        agent = np.array([40.0, 40.0])
        est = np.array([60.0, 55.0])
        counts = [8, 16, 32, 64, 128]
        cfgs = [PlannerConfig(eta=5.0, candidate_count=n, arena=100.0) for n in counts]
        times = [math.inf] * len(counts)
        for _ in range(5):
            for i, cfg in enumerate(cfgs):
                t = self._time_per_call(lambda: fim_e_optimal(agent, est, cfg, NOISE), rounds=1)
                times[i] = min(times[i], t)
        x = np.array(counts, dtype=float)
        y = np.array(times)
        coef = np.polyfit(x, y, 1)
        resid = y - np.polyval(coef, x)
        r2 = 1.0 - (resid @ resid) / (((y - y.mean()) ** 2).sum())
        assert coef[0] > 0
        assert r2 > 0.9

    def test_cost_ordering_heuristics_beat_optimizer(self):
        agent = np.array([40.0, 40.0])
        est = np.array([60.0, 55.0])
        cfg = PlannerConfig(candidate_count=16, arena=100.0)
        mower = LawnmowerPlanner(cfg)
        t_mow = self._time_per_call(lambda: mower.next_pose(agent))
        t_rea = self._time_per_call(lambda: reactive_crossing(agent, est, cfg))
        t_fim = self._time_per_call(lambda: fim_e_optimal(agent, est, cfg, NOISE))
        assert t_fim > 3.0 * max(t_mow, t_rea)
