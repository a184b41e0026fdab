import concurrent.futures
import csv
import dataclasses
import inspect
import math
import multiprocessing
import re

import numpy as np
import pytest

from asymloc import experiment
from asymloc.config import parse_config
from asymloc.experiment import (CellResult, GridSpec, RunResult, World, aggregate,
                                format_table, run_grid, run_single, summary_fields, sweep,
                                write_cell_csv, write_summary_csv, write_sweep_csv)
from asymloc.filters import (FilterParams, UpdateDiagnostics, init_state, make_filter_config,
                             update)
from asymloc.geometry import Measurement, Modality, linearize, wrap_angle
from asymloc.knobs import config_fields, key
from asymloc.losses import LossFamily, LossSpec, irls_weight
from asymloc.observability import CurvatureSample, classify_residual
from asymloc.planners import LawnmowerPlanner, PlannerConfig
from asymloc.sim_env import PRESETS, ChannelDraw, Scenario, channel_draws, observe_with_draw
from arrays import cov_of, h_aoa, h_rtt


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every ``ProcessPoolExecutor`` built while the
    test runs."""
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return built


def quiet_scenario(**kw):
    """Essentially noise-free world for convergence/determinism checks."""
    fields = dict(p_nlos=0.0, sigma_r=1e-9, sigma_theta_deg=1e-9,
                  delta_r=0.0, delta_theta_deg=0.0, steps=60)
    fields.update(kw)
    return Scenario(**fields)


def make_run(errors):
    n = len(errors)
    z = np.zeros(n)
    return RunResult(errors=np.asarray(errors, dtype=float), bias_r=z.copy(),
                     bias_theta=z.copy(), lambda_min=z.copy(), planner_cost=z.copy(),
                     trajectory=np.zeros((n, 2)))


def nan_range_at(monkeypatch, k):
    """Make every run's range reading at step ``k`` NaN: the posterior turns
    non-finite there, so the run aborts at step ``k``."""
    observe = World.observe

    def nan_at_k(world, agent, step):
        m_rtt, m_aoa, draw, clamped = observe(world, agent, step)
        if step == k:
            m_rtt = m_rtt._replace(value=math.nan)
        return m_rtt, m_aoa, draw, clamped
    monkeypatch.setattr(World, "observe", nan_at_k)


class TestAggregate:
    def test_settle_simple(self):
        m = aggregate([make_run([3.0, 2.0, 1.0])], threshold=2.5)
        assert m.steps_to_threshold == 1

    def test_settle_requires_staying_below(self):
        m = aggregate([make_run([3.0, 2.4, 2.6, 2.0, 1.9])], threshold=2.5)
        assert m.steps_to_threshold == 3

    def test_never_settles(self):
        m = aggregate([make_run([3.0, 2.0, 2.6])], threshold=2.5)
        assert m.steps_to_threshold is None

    def test_always_below(self):
        m = aggregate([make_run([1.0, 1.0])], threshold=2.5)
        assert m.steps_to_threshold == 0

    def test_rmse_is_root_mean_square(self):
        a = make_run([3.0, 1.0])
        b = make_run([4.0, 2.0])
        m = aggregate([a, b], threshold=2.5)
        np.testing.assert_allclose(m.rmse_series,
                                   np.sqrt([(9 + 16) / 2, (1 + 4) / 2]))
        assert m.final_rmse == pytest.approx(m.rmse_series[-1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([], threshold=2.5)

    def test_live_runs_count_the_runs_each_step_averages(self):
        # a run aborted at step 1 is NaN from there on, so from step 1 the
        # RMSE is the survivor's alone; live_runs says how many runs each
        # step averages, while n_runs keeps counting both
        survivor = make_run([1.0, 3.0, 3.0])
        aborted = make_run([2.0, math.nan, math.nan])
        aborted.aborted_at = 1
        runs = [survivor, aborted]
        cell = CellResult("proposed", "passive", aggregate(runs, threshold=2.5), runs)
        assert cell.metrics.n_runs == 2
        assert cell.metrics.rmse_series[1] == 3.0
        assert cell.live_runs == [2, 1, 1]

    @staticmethod
    def aborted_at_step_4():
        """Two runs that abort at step 4, 9 m off, each planner decision
        before it having taken no time."""
        runs = []
        for _ in range(2):
            run = make_run([9.0] * 4 + [math.nan] * 6)
            for series in (run.bias_r, run.bias_theta, run.lambda_min, run.planner_cost):
                series[4:] = math.nan
            run.aborted_at = 4
            runs.append(run)
        return runs

    @pytest.mark.filterwarnings("error")
    def test_a_step_every_run_aborted_before_is_not_settled(self):
        # from the abort on every series is NaN (with no warning), and a NaN
        # RMSE is not at or below the threshold, so the cell never settles
        runs = self.aborted_at_step_4()
        m = aggregate(runs, threshold=2.5)
        assert math.isnan(m.final_rmse)
        assert m.steps_to_threshold is None
        assert summary_fields("proposed (passive)", m)[2] == "none"
        for series in (m.rmse_series, m.cost_series, m.bias_r_series, m.bias_theta_series,
                       m.ercm_lambda_min_series):
            assert np.isnan(series[4:]).all() and not np.isnan(series[:4]).any()
        assert m.mean_cost_per_step == 0.0

    @pytest.mark.filterwarnings("error")
    def test_untimed_metrics_hold_zero_cost(self, monkeypatch, tmp_path):
        # an untimed run records a cost of 0.0 at every step, also from its
        # abort on, so its cell reads zero cost where the timed cell's cost,
        # like every other series, is NaN at the steps every run aborted before
        nan_range_at(monkeypatch, 4)
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=10)
        cells = {timing: run_grid(GridSpec(scenario=sc, filters=("proposed",),
                                           planners=("reactive",), n_runs=1,
                                           timing=timing))[("proposed", "reactive")]
                 for timing in (False, True)}
        timed, untimed = cells[True], cells[False]
        assert timed.runs[0].aborted_at == untimed.runs[0].aborted_at == 4
        assert np.isnan(timed.runs[0].planner_cost[4:]).all()
        assert np.isnan(timed.metrics.cost_series[4:]).all()
        assert timed.metrics.mean_cost_per_step > 0.0
        m = untimed.metrics
        assert untimed.runs[0].planner_cost.tolist() == [0.0] * 10
        assert m.mean_cost_per_step == 0.0
        assert m.cost_series.tolist() == [0.0] * 10
        for name in ("rmse_series", "bias_r_series", "bias_theta_series",
                     "ercm_lambda_min_series"):
            np.testing.assert_array_equal(getattr(m, name), getattr(timed.metrics, name))
        assert summary_fields("proposed (reactive)", m)[3] == "0.0"
        path = tmp_path / "cell.csv"
        write_cell_csv(path, m, seed=0, preset="p")
        written = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[2:]]
        assert written == ["0.0"] * 10

    def test_live_runs_without_aborts(self):
        runs = [make_run([1.0, 2.0]), make_run([3.0, 4.0]), make_run([5.0, 6.0])]
        cell = CellResult("huber", "fim", aggregate(runs, threshold=2.5), runs)
        assert cell.live_runs == [3, 3]


class TestRunSingle:
    def test_noise_free_converges_fast(self):
        sc = quiet_scenario()
        fc = make_filter_config("ekf", sc.sigma_r, sc.sigma_theta_rad)
        res = run_single(World(sc, 0), fc, "reactive", PlannerConfig(arena=sc.arena))
        assert res.aborted_at is None
        assert res.errors[29] < 0.01
        assert (res.errors[30:] < 0.01).all()

    def test_deterministic_per_seed(self):
        sc = PRESETS["canonical_medium"]
        sc = dataclasses.replace(sc, steps=50)
        fc = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
        pcfg = PlannerConfig(arena=sc.arena)
        r1 = run_single(World(sc, 11), fc, "fim", pcfg)
        r2 = run_single(World(sc, 11), fc, "fim", pcfg)
        assert np.array_equal(r1.errors, r2.errors)
        assert np.array_equal(r1.trajectory, r2.trajectory)
        assert np.array_equal(r1.bias_r, r2.bias_r)

    def test_trajectory_stays_in_arena(self):
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=120)
        pcfg = PlannerConfig(arena=sc.arena)
        for planner in ("passive", "reactive", "fim"):
            fc = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
            res = run_single(World(sc, 5), fc, planner, pcfg)
            assert np.nanmin(res.trajectory) >= 0.0
            assert np.nanmax(res.trajectory) <= sc.arena

    def test_recorded_cost_isolates_planner_work(self):
        # filter and environment work is shared across planners; if it leaked
        # into planner_cost the cheap/expensive ratio would collapse toward 1
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=80)
        pcfg = PlannerConfig(arena=sc.arena, candidate_count=16)
        costs = {}
        for planner in ("passive", "fim"):
            fc = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
            res = run_single(World(sc, 1), fc, planner, pcfg)
            costs[planner] = float(np.nanmean(res.planner_cost))
        assert costs["fim"] > 3.0 * costs["passive"]

    def test_an_untimed_grid_reads_no_clock(self, monkeypatch):
        # a timed run reads the clock before and after each decision; the
        # runs of an untimed grid never, and record each decision's cost as 0.0
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=30)
        clock, reads = experiment.time.perf_counter, []

        def counted():
            reads.append(None)
            return clock()
        monkeypatch.setattr(experiment.time, "perf_counter", counted)
        runs = {}
        for timing in (False, True):
            grid = GridSpec(scenario=sc, filters=("proposed",), planners=("fim",), n_runs=1,
                            timing=timing)
            runs[timing] = run_grid(grid)[("proposed", "fim")].runs[0]
            assert len(reads) == (2 * sc.steps if timing else 0)
        assert (runs[False].planner_cost == 0.0).all()
        assert (runs[True].planner_cost > 0.0).any()
        assert np.array_equal(runs[True].errors, runs[False].errors)

    def test_lambda_min_series_recorded(self):
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=40)
        fc = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
        res = run_single(World(sc, 2), fc, "reactive", PlannerConfig(arena=sc.arena))
        assert res.lambda_min.shape == (40,)
        assert (res.lambda_min >= 0.0).all()
        assert res.lambda_min[10:].max() > 0.0

    def test_start_on_target_skips_the_first_observation(self):
        sc = quiet_scenario(truth=(30.0, 40.0), start=(30.0, 40.0), steps=20)
        fc = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
        res = run_single(World(sc, 3), fc, "passive", PlannerConfig(arena=sc.arena))
        assert res.aborted_at is None
        assert np.isfinite(res.errors).all()
        # no step-0 update: the belief still sits at the arena-centre guess
        assert res.errors[0] == pytest.approx(np.hypot(50.0 - 30.0, 50.0 - 40.0), abs=1e-9)

    def test_divergence_recorded_as_abort_at_its_step(self, monkeypatch):
        # a NaN range at step k leaves a non-finite posterior: the run stops
        # there and its series are NaN from k on
        k = 7
        nan_range_at(monkeypatch, k)
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=20)
        fc = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
        res = run_single(World(sc, 4), fc, "reactive", PlannerConfig(arena=sc.arena))
        assert res.aborted_at == k
        assert res.abort_reason.startswith("FilterDivergenceError")
        assert np.isfinite(res.errors[:k]).all()
        assert np.isnan(res.errors[k:]).all()

    @pytest.mark.parametrize("k", [0, 7])
    def test_abort_pads_every_series_with_nan_from_its_step(self, monkeypatch, k):
        # every per-step series, not only the errors, is finite up to the
        # abort step and NaN from it on; at k = 0 the NaN range also seeds
        # the belief, so nothing is recorded at all
        nan_range_at(monkeypatch, k)
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=20)
        fc = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
        res = run_single(World(sc, 4), fc, "reactive", PlannerConfig(arena=sc.arena))
        assert res.aborted_at == k
        series = {name: getattr(res, name) for name in
                  ("errors", "bias_r", "bias_theta", "lambda_min", "planner_cost")}
        for name, values in series.items():
            assert values.shape == (20,), name
            assert np.isfinite(values[:k]).all(), name
            assert np.isnan(values[k:]).all(), name
        assert res.trajectory.shape == (20, 2)
        assert np.isfinite(res.trajectory[:k]).all()
        assert np.isnan(res.trajectory[k:]).all()

    def test_planner_error_propagates(self, monkeypatch):
        # only a filter divergence is a recorded abort; a fault anywhere else
        # in the loop must not be turned into an aborted run
        def broken(self, agent, estimate=None):
            raise ValueError("planner fault")
        monkeypatch.setattr(LawnmowerPlanner, "next_pose", broken)
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=5)
        fc = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
        with pytest.raises(ValueError, match="planner fault"):
            run_single(World(sc, 0), fc, "passive", PlannerConfig(arena=sc.arena))


class TestWorld:
    @pytest.mark.parametrize("preset", ["canonical_medium", "obstacle"])
    def test_draws_the_whole_run_when_built(self, preset):
        sc = PRESETS[preset]
        rng = np.random.default_rng(7)
        assert World(sc, 7).draws == [channel_draws(rng) for _ in range(sc.steps)]

    def test_memo_hit_returns_the_stored_observation(self):
        sc = PRESETS["obstacle"]
        world = World(sc, 5)
        first = world.observe(np.array(sc.start), 0)
        second = world.observe((10.0, 10.0), 0)
        assert second is first
        world.observe((30.0, 12.0), 1)
        assert world.observe((30.0, 12.0), 1) is world.observe(np.array([30.0, 12.0]), 1)

    def test_two_poses_at_one_step_see_the_same_draws(self):
        # without an obstacle the channel does not depend on the pose, so
        # two poses observed at one step get the same channel realization
        sc = PRESETS["canonical_medium"]
        world = World(sc, 3)
        for t in range(4):
            a = world.observe((10.0 + t, 10.0), t)
            b = world.observe((80.0, 25.0 + t), t)
            assert a is not b
            assert a[2] == b[2]
            assert a[0].value != b[0].value

    def test_other_poses_are_observed_from_the_steps_draws(self):
        sc = PRESETS["obstacle"]
        world = World(sc, 9)
        world.observe(sc.start, 0)
        for pose in ((50.0, 10.0), (20.0, 70.0)):
            m_rtt, m_aoa, draw, _ = world.observe(pose, 0)
            want = observe_with_draw(sc, pose, world.draws[0])
            assert (m_rtt, m_aoa, draw) == want[:3]

    def test_step_records_are_immutable(self):
        # the memo hands one step's records to every cell of a run index, so
        # no cell may change them under the next
        sc = PRESETS["canonical_medium"]
        world = World(sc, 2)
        m_rtt, _, draw, _ = world.observe(sc.start, 0)
        cfg = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
        _, diag = update(init_state(cfg, (50.0, 50.0)), m_rtt, cfg)
        sample = classify_residual(diag.residual, cfg.rtt_loss, diag.jacobian_pos)
        for record in (m_rtt, draw, diag, sample):
            for name in inspect.signature(type(record)).parameters:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
        assert world.observe(sc.start, 0)[0] is m_rtt


def assert_same_record(got, want):
    """``got`` is a record of ``want``'s type equal to it field by field."""
    assert type(got) is type(want)
    assert got == want
    assert got._asdict() == want._asdict()


class TestPositionalRecords:
    """The step's records are built positionally; each must equal the record
    built with keywords from independently computed field values."""

    AGENT = (10.0, 20.0)

    def one_round_update(self, modality, value):
        cfg = make_filter_config("proposed", 1.5, math.radians(2.0),
                                 FilterParams(irls_iterations=1))
        st = init_state(cfg, (50.0, 45.0))
        m0, m1, m2, m3 = st.m
        is_aoa = modality is Modality.AOA
        pred, _, j0, j1 = linearize((m0, m1), self.AGENT, is_aoa)
        spec = cfg.aoa_loss if is_aoa else cfg.rtt_loss
        r = wrap_angle(value - pred - m3) if is_aoa else value - pred - m2
        _, diag = update(st, Measurement(modality, value, self.AGENT), cfg)
        return diag, spec, r, (j0, j1)

    def test_applied_range_update(self):
        value = h_rtt((50.0, 45.0), self.AGENT) + 30.0
        diag, spec, r, jac = self.one_round_update(Modality.RTT, value)
        w = irls_weight(r, spec)
        assert w < 1.0  # every field but skipped differs from its default
        assert_same_record(diag, UpdateDiagnostics(residual=r, weight=w, jacobian_pos=jac,
                                                   skipped=False))
        assert diag.saturated

    def test_applied_bearing_update(self):
        value = h_aoa((50.0, 45.0), self.AGENT) + 0.3
        diag, spec, r, jac = self.one_round_update(Modality.AOA, value)
        w = irls_weight(r, spec)
        assert_same_record(diag, UpdateDiagnostics(residual=r, weight=w, jacobian_pos=jac,
                                                   skipped=False))
        assert diag.saturated is (w < 1.0)

    @pytest.mark.parametrize("modality,estimate", [
        (Modality.RTT, (10.0, 20.0)),   # on the agent
        (Modality.AOA, (10.0, 20.0)),
        (Modality.AOA, (10.5, 20.0)),   # within MIN_AOA_RANGE
    ])
    def test_skipped_update(self, modality, estimate):
        cfg = make_filter_config("proposed", 1.5, math.radians(2.0))
        st = init_state(cfg, estimate)
        z = Measurement(modality, 1.0, self.AGENT)
        st2, diag = update(st, z, cfg)
        assert st2 is st
        assert_same_record(diag, UpdateDiagnostics(skipped=True))
        assert not diag.saturated

    def test_classify_residual(self):
        spec = LossSpec.one_sided(sigma=1.5, lam=1.0)
        saturated = classify_residual(2 * spec.tau, spec, (0.6, 0.8))
        assert_same_record(saturated, CurvatureSample(jacobian=(0.6, 0.8), weight=0.0))
        assert saturated.saturated
        trusted = classify_residual(-2 * spec.tau, spec, (0.6, 0.8))
        assert_same_record(trusted, CurvatureSample(jacobian=(0.6, 0.8), weight=1.0 / 1.5**2))
        assert not trusted.saturated

    @pytest.mark.parametrize("u_shared,u_aoa", [(0.2, 0.7), (0.7, 0.2)])
    def test_sample_channel_and_observe_with_draw(self, u_shared, u_aoa):
        sc = Scenario(p_nlos=0.5, shared_nlos_flag=False)
        draws = (u_shared, u_aoa, 1.25, -0.4, 0.3, -0.6)
        is_nlos, is_nlos_aoa = u_shared < 0.5, u_aoa < 0.5
        want = ChannelDraw(is_nlos=is_nlos, b_r=sc.mu_nlos * 1.25 if is_nlos else 0.0,
                           b_theta=sc.sigma_b_theta_rad * -0.4 if is_nlos_aoa else 0.0,
                           eps_r=sc.sigma_r * 0.3, eps_theta=sc.sigma_theta_rad * -0.6,
                           is_nlos_aoa=is_nlos_aoa)
        m_rtt, m_aoa, draw, clamped = observe_with_draw(sc, self.AGENT, draws)
        assert_same_record(draw, want)
        assert not clamped
        y_rtt = h_rtt(sc.truth, self.AGENT) + sc.delta_r + want.b_r + want.eps_r
        y_aoa = wrap_angle(h_aoa(sc.truth, self.AGENT) + sc.delta_theta_rad + want.b_theta
                           + want.eps_theta)
        assert_same_record(m_rtt, Measurement(modality=Modality.RTT, value=y_rtt,
                                              agent=self.AGENT))
        assert_same_record(m_aoa, Measurement(modality=Modality.AOA, value=y_aoa,
                                              agent=self.AGENT))


class TestGrid:
    @pytest.mark.parametrize("preset", ["canonical_medium", "obstacle"])
    def test_every_run_equals_the_run_made_alone(self, preset):
        # a shared world must give each run the observations it would make
        # by itself: every per-step series (bar the wall-clock cost) equal to
        # the bit, at one worker and at two
        sc = dataclasses.replace(PRESETS[preset], steps=60)
        grid = GridSpec(scenario=sc, filters=("proposed", "huber", "ekf"),
                        planners=("passive", "reactive", "fim"), n_runs=3)
        grids = [run_grid(grid), run_grid(dataclasses.replace(grid, n_jobs=2))]
        for (f, p), cell in grids[0].items():
            fc = make_filter_config(f, sc.sigma_r, sc.sigma_theta_rad, grid.filter_params)
            for i in range(grid.n_runs):
                alone = run_single(World(sc, sc.seed + i), fc, p, grid.planner_cfg)
                for shared in (g[(f, p)].runs[i] for g in grids):
                    for name in ("errors", "bias_r", "bias_theta", "lambda_min", "trajectory"):
                        assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes(), \
                            (f, p, i, name)
                    assert (shared.n_clamped, shared.aborted_at) == \
                        (alone.n_clamped, alone.aborted_at)

    def test_planner_arena_must_match_the_scenario(self):
        # a planner clamping into another arena than the world's would keep
        # the agent out of the target's part of the world
        sc = Scenario(arena=200.0, truth=(150.0, 150.0), steps=5)
        match = r"planner arena 100\.0 != scenario arena 200\.0"
        with pytest.raises(ValueError, match=match):
            GridSpec(scenario=sc, planner_cfg=PlannerConfig())
        fc = make_filter_config("proposed", sc.sigma_r, sc.sigma_theta_rad)
        with pytest.raises(ValueError, match=match):
            run_single(World(sc, 0), fc, "reactive", PlannerConfig())
        assert GridSpec(scenario=sc).planner_cfg.arena == 200.0
        assert GridSpec(scenario=sc, planner_cfg=PlannerConfig(arena=200.0)).n_runs == 50

    def test_repeated_cells_rejected(self):
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=5)
        with pytest.raises(ValueError, match="filters: repeated entries"):
            GridSpec(scenario=sc, filters=("proposed", "proposed"))
        with pytest.raises(ValueError, match="planners: repeated entries"):
            GridSpec(scenario=sc, planners=("passive", "fim", "passive"))

    def test_int_knob_refuses_a_fraction(self):
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=5)
        with pytest.raises(ValueError, match="n_runs: expected an integer, got 2.5"):
            GridSpec(scenario=sc, n_runs=2.5)
        assert GridSpec(scenario=sc, n_runs=np.int64(3)).n_runs == 3

    def test_prefix_consistency_in_run_count(self):
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=30)
        small = GridSpec(scenario=sc, filters=("proposed",), planners=("reactive",), n_runs=2)
        big = GridSpec(scenario=sc, filters=("proposed",), planners=("reactive",), n_runs=4)
        res_small = run_grid(small)[("proposed", "reactive")]
        res_big = run_grid(big)[("proposed", "reactive")]
        for i in range(2):
            assert np.array_equal(res_small.runs[i].errors, res_big.runs[i].errors)

    def test_parallel_equals_sequential(self):
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=30)
        g1 = GridSpec(scenario=sc, filters=("proposed", "ekf"), planners=("passive",),
                      n_runs=3, n_jobs=1)
        g2 = dataclasses.replace(g1, n_jobs=2)
        r1 = run_grid(g1)
        r2 = run_grid(g2)
        for key in r1:
            np.testing.assert_array_equal(r1[key].metrics.rmse_series,
                                          r2[key].metrics.rmse_series)

    @pytest.mark.parametrize("n_jobs, n_runs, chunksize", [(2, 37, 2), (3, 7, 1)])
    def test_pooled_chunks_with_a_remainder(self, monkeypatch, n_jobs, n_runs, chunksize):
        # 37 runs in chunks of 2 end in a chunk of 1, and 7 runs over 3
        # workers give one worker a run more: every cell's metrics must still
        # equal the one-worker grid's to the bit (untimed, so the cost too)
        chunks = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                chunks.append(kwargs["chunksize"])
                return super().map(fn, *iterables, **kwargs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        sc = dataclasses.replace(PRESETS["canonical_low"], steps=8)
        grid = GridSpec(scenario=sc, filters=("proposed", "ekf"), planners=("passive", "reactive"),
                        n_runs=n_runs, timing=False)
        serial = run_grid(grid)
        pooled = run_grid(dataclasses.replace(grid, n_jobs=n_jobs))
        assert chunks == [chunksize]
        assert list(pooled) == list(serial)
        for key, cell in serial.items():
            for f in dataclasses.fields(cell.metrics):
                a, b = getattr(cell.metrics, f.name), getattr(pooled[key].metrics, f.name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (key, f.name)

    def test_every_filter_knob_reaches_the_built_filter(self, monkeypatch):
        # each [filter] key away from its default, read through parse_config
        text = {"k_rtt": "2.0", "k_aoa": "1.1", "sigma_delta_r": "3.0",
                "sigma_delta_theta_deg": "7.0", "init_position_std": "25.0",
                "irls_iterations": "4", "process_noise": "0.0002", "em_enabled": "true",
                "em_window": "20"}
        assert set(text) == {key(f) for f in config_fields(FilterParams)}
        cfg = parse_config("[experiment]\npreset = canonical_low\nfilters = proposed,huber,ekf\n"
                           "planners = passive\nruns = 1\nsteps = 2\n[filter]\n"
                           + "".join(f"{k} = {v}\n" for k, v in text.items()))
        params = cfg.filter_params
        for f in config_fields(FilterParams):
            assert getattr(params, f.name) != f.default, f.name

        built = []

        class RecordingEkf(experiment.RobustEkf):
            def __init__(self, config, initial_guess):
                super().__init__(config, initial_guess)
                built.append((config, cov_of(self.state)))
        monkeypatch.setattr(experiment, "RobustEkf", RecordingEkf)
        run_grid(cfg)

        assert len(built) == 3
        for kind, (fc, cov) in zip(cfg.filters, built):
            assert fc.rtt_loss.sigma == cfg.scenario.sigma_r
            assert fc.aoa_loss.sigma == cfg.scenario.sigma_theta_rad
            if kind == "ekf":
                assert fc.rtt_loss.family is fc.aoa_loss.family is LossFamily.QUADRATIC
            else:
                assert (fc.rtt_loss.tau, fc.aoa_loss.tau) == (2.0 * cfg.scenario.sigma_r,
                                                              1.1 * cfg.scenario.sigma_theta_rad)
            assert cov[0, 0] == cov[1, 1] == 25.0**2
            assert cov[2, 2] == 3.0**2
            assert cov[3, 3] == math.radians(7.0) ** 2
            assert fc.params.irls_iterations == (1 if kind == "ekf" else 4)
            assert dataclasses.replace(fc.params, irls_iterations=4) == params


class TestSweep:
    BASE = GridSpec(scenario=dataclasses.replace(PRESETS["canonical_medium"], steps=25),
                    filters=("proposed",), planners=("passive", "reactive"), n_runs=2)

    def test_row_shape(self):
        rows = sweep("p_nlos", [0.1, 0.3, 0.5, 0.7, 0.9], self.BASE)
        assert len(rows) == 5 * 2
        assert {r.value for r in rows} == {0.1, 0.3, 0.5, 0.7, 0.9}

    def test_single_value_sweep_equals_base_run(self):
        rows = sweep("mu_nlos", [8.0], self.BASE)
        direct = {cell.combination: cell for cell in run_grid(self.BASE).values()}
        for row in rows:
            cell = direct[row.combination]
            np.testing.assert_array_equal(row.metrics.rmse_series, cell.metrics.rmse_series)

    def test_parameter_routing(self):
        for param in ("eta", "k_rtt", "sigma_r"):
            rows = sweep(param, [1.0, 2.0], self.BASE)
            assert len(rows) == 4

    def test_unknown_parameter(self, monkeypatch, pools):
        # refused before any run or pool starts: a knob outside
        # SWEEP_PARAMETERS would run with a float in an int knob or die
        # mid-run, and an out-of-bounds value would stop the sweep partway
        grids = []
        monkeypatch.setattr(experiment, "run_grid", grids.append)
        base = dataclasses.replace(self.BASE, n_jobs=2)
        for name in ("bogus", "candidate_count", "seed", "steps", "irls_iterations"):
            with pytest.raises(ValueError, match="unknown sweep parameter"):
                sweep(name, [4.0], base)
        with pytest.raises(ValueError, match="p_nlos"):
            sweep("p_nlos", [0.5, 1.5], base)
        assert grids == [] and pools == []

    def test_values_keep_the_knobs_type_rule(self, monkeypatch, pools):
        # each value is checked as given, before float() would coerce it: a
        # bool or a numeric string is refused before any run or pool starts,
        # as GridSpec refuses it, while ints and numpy floats run as floats
        grids = []
        monkeypatch.setattr(experiment, "run_grid", grids.append)
        base = dataclasses.replace(self.BASE, n_jobs=2)
        for bad in (True, "0.5"):
            with pytest.raises(ValueError, match=f"p_nlos: expected a number, got {bad!r}"):
                sweep("p_nlos", [0.2, bad], base)
        assert grids == [] and pools == []
        monkeypatch.setattr(experiment, "run_grid", run_grid)
        rows = sweep("p_nlos", [0, np.float64(0.5)], self.BASE)
        assert [type(r.value) for r in rows] == [float] * 4
        assert [r.value for r in rows] == [0.0, 0.0, 0.5, 0.5]
        for a, b in zip(rows, sweep("p_nlos", [0.0, 0.5], self.BASE)):
            assert a.metrics.rmse_series.tobytes() == b.metrics.rmse_series.tobytes()

    def test_one_pool_serves_every_value(self, pools):
        values = [0.2, 0.5, 0.8]
        pooled = sweep("p_nlos", values, dataclasses.replace(self.BASE, n_jobs=2))
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        serial = sweep("p_nlos", values, self.BASE)
        assert len(pools) == 1
        assert len(pooled) == len(serial) == 6
        for a, b in zip(pooled, serial):
            assert (a.value, a.combination) == (b.value, b.combination)
            for name in ("rmse_series", "bias_r_series", "bias_theta_series",
                         "ercm_lambda_min_series"):
                assert getattr(a.metrics, name).tobytes() == getattr(b.metrics, name).tobytes()
            assert (a.metrics.steps_to_threshold, a.metrics.n_runs) == \
                (b.metrics.steps_to_threshold, b.metrics.n_runs)

    def test_a_pool_has_no_more_workers_than_runs(self, pools):
        # fork starts every worker at the first submit, so a pool wider than
        # the run count would start workers that never get a run index
        wide = dataclasses.replace(self.BASE, n_jobs=4)
        run_grid(wide)
        sweep("p_nlos", [0.2, 0.8], wide)
        assert pools == [2, 2]
        one = dataclasses.replace(wide, n_runs=1)
        run_grid(one)
        sweep("p_nlos", [0.2, 0.8], one)
        assert pools == [2, 2]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched run_single")
    def test_no_worker_outlives_a_failed_sweep(self, monkeypatch, pools):
        run = experiment.run_single

        def failing(world, *args):
            if world.scenario.p_nlos == 0.5:
                raise RuntimeError("run fault")
            return run(world, *args)
        monkeypatch.setattr(experiment, "run_single", failing)
        base = dataclasses.replace(self.BASE, n_jobs=2)
        with pytest.raises(RuntimeError, match="run fault"):
            sweep("p_nlos", [0.2, 0.5, 0.8], base)
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        # the failed sweep's pool is not handed to a later grid
        assert len(run_grid(base)) == 2 and len(pools) == 2
        assert multiprocessing.active_children() == []


class TestCsvOutput:
    def _metrics(self, timing=True):
        sc = dataclasses.replace(PRESETS["canonical_medium"], steps=12)
        grid = GridSpec(scenario=sc, filters=("proposed",), planners=("reactive",), n_runs=2,
                        timing=timing)
        return run_grid(grid)[("proposed", "reactive")]

    def test_cell_csv_layout(self, tmp_path):
        cell = self._metrics()
        path = tmp_path / "cell.csv"
        write_cell_csv(path, cell.metrics, seed=7, preset="canonical_medium")
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=7 preset=canonical_medium"
        assert lines[1] == "step,rmse,bias_r,bias_theta,ercm_lambda_min,planner_cost_s"
        assert len(lines) == 2 + 12

    def test_timing_mask_zeroes_cost(self, tmp_path):
        cell = self._metrics(timing=False)
        path = tmp_path / "cell.csv"
        write_cell_csv(path, cell.metrics, seed=7, preset="p")
        for line in path.read_text().splitlines()[2:]:
            assert line.rsplit(",", 1)[1] == "0.0"

    def test_summary_csv_and_table(self, tmp_path):
        cell = self._metrics()
        path = tmp_path / "summary.csv"
        header, rows = write_summary_csv(path, [cell], seed=3, preset="canonical_medium")
        lines = path.read_text().splitlines()
        assert lines[1] == "combination,final_rmse_m,steps_to_2p5m,avg_cost_ms"
        assert lines[2].startswith("proposed (reactive),")
        # the writer returns exactly the rows it wrote, which the table shows
        assert list(csv.reader(lines[1:])) == [header, *rows]
        table = format_table(header, rows).splitlines()
        assert [re.split(r"\s{2,}", line.rstrip()) for line in table] == [header, *rows]

    def test_sweep_csv(self, tmp_path):
        base = GridSpec(scenario=dataclasses.replace(PRESETS["canonical_medium"], steps=10),
                        filters=("proposed",), planners=("reactive",), n_runs=1)
        rows = sweep("eta", [4.0, 5.0], base)
        path = tmp_path / "sweep.csv"
        header, written = write_sweep_csv(path, "eta", rows, seed=1, preset="canonical_medium")
        lines = path.read_text().splitlines()
        assert lines[1] == "parameter,value,combination,final_rmse_m,steps_to_2p5m,avg_cost_ms"
        assert len(lines) == 2 + 2
        assert list(csv.reader(lines[1:])) == [header, *written]
        table = format_table(header, written).splitlines()
        assert [re.split(r"\s{2,}", line.rstrip()) for line in table] == [header, *written]
