"""Monte Carlo orchestration: filter x planner grids, metrics, CSV output.

A *run* is one closed-loop simulation (observe, filter, plan, move) with
its own RNG substream (``scenario.seed + run_index``). A *cell* is one
filter/planner combination repeated over ``n_runs`` seeds; a *grid* is the
cross product of the requested filters and planners over a shared seed
base, so comparisons between combinations are paired draw-for-draw.

Per-run series are logged at every step; aggregation is a pure post-pass,
so results can be re-aggregated (different thresholds, run subsets)
without re-simulating. Planner cost is wall-clock time around the planner
call only -- filter and environment work is excluded by construction.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .filters import FILTER_KINDS, FilterConfig, RobustEkf, make_filter_config
from .geometry import CoincidentPointsError, Modality
from .knobs import check, config_fields, knob
from .observability import SlidingCurvatureTracker, classify_residual
from .planners import PLANNER_KINDS, PlannerConfig, make_planner
from .sim_env import Scenario, observe_with_draw

ERCM_WINDOW = 30


@dataclass(frozen=True)
class FilterParams:
    """Filter knobs that are not part of the scenario (the noise scales
    come from the scenario so filter and world stay matched)."""

    k_rtt: float = knob(1.5, "filter", gt=0.0)
    k_aoa: float = knob(1.345, "filter", gt=0.0)
    sigma_delta_r: float = knob(2.0, "filter", gt=0.0)
    sigma_delta_theta_deg: float = knob(5.0, "filter", gt=0.0)
    init_position_std: float = knob(40.0, "filter", gt=0.0)
    irls_iterations: int = knob(3, "filter", ge=1, le=10)
    process_noise: float = knob(1e-4, "filter", ge=0.0)
    em_enabled: bool = knob(False, "filter")
    em_window: int = knob(50, "filter", ge=1)

    def __post_init__(self):
        check(self)


def build_filter_config(kind: str, scenario: Scenario, params: FilterParams) -> FilterConfig:
    fields = dataclasses.asdict(params)
    fields["sigma_delta_theta"] = math.radians(fields.pop("sigma_delta_theta_deg"))
    return make_filter_config(kind, scenario.sigma_r, scenario.sigma_theta_rad, **fields)


@dataclass
class RunResult:
    """Per-step records of a single run. Series are NaN-padded past an
    abort point (aborts are recorded, not raised)."""

    errors: np.ndarray
    bias_r: np.ndarray
    bias_theta: np.ndarray
    lambda_min: np.ndarray
    planner_cost: np.ndarray
    trajectory: np.ndarray
    n_clamped: int = 0
    aborted_at: Optional[int] = None
    abort_reason: str = ""


@dataclass
class RunMetrics:
    """Ensemble metrics for one grid cell."""

    rmse_series: np.ndarray
    steps_to_threshold: Optional[int]
    final_rmse: float
    mean_cost_per_step: float
    cost_series: np.ndarray
    bias_r_series: np.ndarray
    bias_theta_series: np.ndarray
    ercm_lambda_min_series: np.ndarray
    threshold: float
    n_runs: int


@dataclass(frozen=True)
class GridSpec:
    """One experiment: scenario, combinations, ensemble size."""

    scenario: Scenario
    filters: tuple[str, ...] = knob(("proposed", "huber"), "experiment", kind="names",
                                    choices=FILTER_KINDS)
    planners: tuple[str, ...] = knob(("passive", "reactive", "fim"), "experiment", kind="names",
                                     choices=PLANNER_KINDS)
    n_runs: int = knob(50, "experiment", key="runs", ge=1)
    threshold: float = knob(2.5, "experiment", gt=0.0)
    filter_params: FilterParams = field(default_factory=FilterParams)
    planner_cfg: Optional[PlannerConfig] = None
    n_jobs: int = knob(1, "experiment", key="jobs", ge=1)

    def __post_init__(self):
        check(self)
        if self.planner_cfg is None:
            object.__setattr__(self, "planner_cfg", PlannerConfig(arena=self.scenario.arena))


def run_single(scenario: Scenario, filter_cfg: FilterConfig, planner_kind: str,
               planner_cfg: PlannerConfig, run_seed: int) -> RunResult:
    """Execute one closed-loop run, deterministic for a given seed.

    Step order: observe at the current pose, filter predict, range update,
    bearing update, then the (timed) planner decision and the move.
    """
    rng = np.random.default_rng(run_seed)
    steps = scenario.steps
    truth = np.asarray(scenario.truth, dtype=float)
    agent = np.asarray(scenario.start, dtype=float)
    # seed the belief by backprojecting the first range/bearing pair from the
    # start pose; the wide init_position_std keeps the prior weak, and the
    # same measurements then flow through the regular update path
    try:
        first_obs = observe_with_draw(scenario, agent, rng, 0)
        guess = np.clip(agent + first_obs[0].value * np.array([math.cos(first_obs[1].value),
                                                               math.sin(first_obs[1].value)]),
                        0.0, scenario.arena)
    except CoincidentPointsError:
        first_obs = None  # start pose exactly on the target
        guess = np.array([scenario.arena / 2.0, scenario.arena / 2.0])
    filt = RobustEkf(filter_cfg, guess)
    noise = {Modality.RTT: filter_cfg.rtt_loss.sigma, Modality.AOA: filter_cfg.aoa_loss.sigma}
    planner = make_planner(planner_kind, planner_cfg, noise)
    # scale-relative floor for the bilateral flag
    tracker = SlidingCurvatureTracker(window=ERCM_WINDOW,
                                      mu_threshold=1e-3 / filter_cfg.rtt_loss.sigma**2)

    errors = np.full(steps, np.nan)
    bias_r = np.full(steps, np.nan)
    bias_theta = np.full(steps, np.nan)
    lambda_min = np.full(steps, np.nan)
    planner_cost = np.full(steps, np.nan)
    trajectory = np.full((steps, 2), np.nan)
    n_clamped = 0
    aborted_at: Optional[int] = None
    abort_reason = ""

    for t in range(steps):
        try:
            filt.predict()
            try:
                if t == 0:
                    if first_obs is None:
                        raise CoincidentPointsError("start pose on target")
                    m_rtt, m_aoa, _, clamped = first_obs
                else:
                    m_rtt, m_aoa, _, clamped = observe_with_draw(scenario, agent, rng, t)
            except CoincidentPointsError:
                # agent exactly over the target: no usable observation this
                # step (skip measurements, keep predicting and moving)
                m_rtt = m_aoa = None
            if m_rtt is not None:
                n_clamped += int(clamped)
                d_rtt = filt.update(m_rtt)
                d_aoa = filt.update(m_aoa)
                for diag, spec in ((d_rtt, filt.config.rtt_loss), (d_aoa, filt.config.aoa_loss)):
                    if not diag.skipped:
                        tracker.add(classify_residual(diag.residual, spec, diag.jacobian_pos, t))
            est = filt.position_estimate
            errors[t] = float(np.hypot(est[0] - truth[0], est[1] - truth[1]))
            bias_r[t] = filt.learned_bias(Modality.RTT)
            bias_theta[t] = filt.learned_bias(Modality.AOA)
            lambda_min[t] = tracker.lambda_min()
            trajectory[t] = agent
            tic = time.perf_counter()
            agent = planner.next_pose(agent, est)
            planner_cost[t] = time.perf_counter() - tic
        except (CoincidentPointsError, ValueError, FloatingPointError,
                np.linalg.LinAlgError) as exc:
            aborted_at = t
            abort_reason = f"{type(exc).__name__}: {exc}"
            break

    return RunResult(errors=errors, bias_r=bias_r, bias_theta=bias_theta,
                     lambda_min=lambda_min, planner_cost=planner_cost,
                     trajectory=trajectory, n_clamped=n_clamped,
                     aborted_at=aborted_at, abort_reason=abort_reason)


def aggregate(runs: Sequence[RunResult], threshold: float = 2.5) -> RunMetrics:
    """Reduce an ensemble of runs to the cell metrics.

    ``rmse_series[t]`` is the root mean square of the per-run errors at t.
    ``steps_to_threshold`` uses settle semantics: the first step from which
    the RMSE stays at or below the threshold for the rest of the run
    (first-crossing would flatter methods that dip and bounce back).
    """
    if len(runs) == 0:
        raise ValueError("need at least one run")
    err = np.stack([r.errors for r in runs])
    rmse = np.sqrt(np.nanmean(err * err, axis=0))
    above = rmse > threshold
    if not above.any():
        settle: Optional[int] = 0
    elif above[-1]:
        settle = None
    else:
        settle = int(np.max(np.nonzero(above)[0])) + 1
    cost = np.stack([r.planner_cost for r in runs])
    return RunMetrics(
        rmse_series=rmse,
        steps_to_threshold=settle,
        final_rmse=float(rmse[-1]),
        mean_cost_per_step=float(np.nanmean(cost)),
        cost_series=np.nanmean(cost, axis=0),
        bias_r_series=np.nanmean(np.stack([r.bias_r for r in runs]), axis=0),
        bias_theta_series=np.nanmean(np.stack([r.bias_theta for r in runs]), axis=0),
        ercm_lambda_min_series=np.nanmean(np.stack([r.lambda_min for r in runs]), axis=0),
        threshold=threshold,
        n_runs=len(runs),
    )


@dataclass
class CellResult:
    filter_kind: str
    planner_kind: str
    metrics: RunMetrics
    runs: list[RunResult]

    @property
    def combination(self) -> str:
        return f"{self.filter_kind} ({self.planner_kind})"


def _run_job(args) -> RunResult:
    scenario, fcfg, planner_kind, pcfg, run_seed = args
    return run_single(scenario, fcfg, planner_kind, pcfg, run_seed)


def run_grid(grid: GridSpec) -> dict[tuple[str, str], CellResult]:
    """Run every filter x planner cell of the grid.

    Runs are independent; with ``n_jobs > 1`` they are fanned out to a
    process pool. Results are reduced in run-index order either way, so
    the output is identical whatever the worker count.
    """
    cells = [(f, p) for f in grid.filters for p in grid.planners]
    jobs = []
    for f, p in cells:
        fcfg = build_filter_config(f, grid.scenario, grid.filter_params)
        for i in range(grid.n_runs):
            jobs.append((grid.scenario, fcfg, p, grid.planner_cfg, grid.scenario.seed + i))

    if grid.n_jobs > 1:
        with ProcessPoolExecutor(max_workers=grid.n_jobs) as pool:
            results = list(pool.map(_run_job, jobs, chunksize=max(1, len(jobs) // (8 * grid.n_jobs))))
    else:
        results = [_run_job(j) for j in jobs]

    out: dict[tuple[str, str], CellResult] = {}
    for idx, (f, p) in enumerate(cells):
        cell_runs = results[idx * grid.n_runs:(idx + 1) * grid.n_runs]
        out[(f, p)] = CellResult(f, p, aggregate(cell_runs, grid.threshold), cell_runs)
    return out


SWEEP_PARAMETERS = ("p_nlos", "mu_nlos", "eta", "k_rtt", "sigma_r")


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    filter_kind: str
    planner_kind: str
    metrics: RunMetrics


def _apply_sweep_value(grid: GridSpec, parameter: str, value: float) -> GridSpec:
    for name in ("scenario", "planner_cfg", "filter_params"):
        part = getattr(grid, name)
        if parameter in {f.name for f in config_fields(part)}:
            return dataclasses.replace(grid, **{name: dataclasses.replace(part, **{parameter: value})})
    raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}")


def sweep(parameter: str, values: Sequence[float], base: GridSpec) -> list[SweepRow]:
    """Re-run the grid once per parameter value (same seed base across
    values, so rows are paired on the underlying noise draws)."""
    rows: list[SweepRow] = []
    for v in values:
        results = run_grid(_apply_sweep_value(base, parameter, float(v)))
        for f in base.filters:
            for p in base.planners:
                rows.append(SweepRow(parameter, float(v), f, p, results[(f, p)].metrics))
    return rows


# ---------------------------------------------------------------------------
# CSV / table output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return str(float(x))


def _steps_str(steps: Optional[int]) -> str:
    return "none" if steps is None else str(steps)


def _meta_line(seed: int, preset: str) -> str:
    return f"# seed={seed} preset={preset}"


def write_cell_csv(path, metrics: RunMetrics, *, seed: int, preset: str,
                   timing: bool = True) -> None:
    """Per-step ensemble series for one cell. ``timing=False`` zeroes the
    wall-clock column so repeated runs produce byte-identical files."""
    with open(path, "w", newline="") as fh:
        fh.write(_meta_line(seed, preset) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["step", "rmse", "bias_r", "bias_theta", "ercm_lambda_min", "planner_cost_s"])
        for t in range(len(metrics.rmse_series)):
            w.writerow([t, _fmt(metrics.rmse_series[t]), _fmt(metrics.bias_r_series[t]),
                        _fmt(metrics.bias_theta_series[t]),
                        _fmt(metrics.ercm_lambda_min_series[t]),
                        _fmt(metrics.cost_series[t]) if timing else _fmt(0.0)])


def summary_fields(combination: str, metrics: RunMetrics, timing: bool = True) -> list[str]:
    cost_ms = metrics.mean_cost_per_step * 1e3 if timing else 0.0
    return [combination, _fmt(metrics.final_rmse), _steps_str(metrics.steps_to_threshold), _fmt(cost_ms)]


def write_summary_csv(path, cells: Iterable[CellResult], *, seed: int, preset: str,
                      timing: bool = True) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_meta_line(seed, preset) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["combination", "final_rmse_m", "steps_to_2p5m", "avg_cost_ms"])
        for cell in cells:
            w.writerow(summary_fields(cell.combination, cell.metrics, timing))


def write_sweep_csv(path, rows: Sequence[SweepRow], *, seed: int, preset: str,
                    timing: bool = True) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_meta_line(seed, preset) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["parameter", "value", "combination", "final_rmse_m",
                    "steps_to_2p5m", "avg_cost_ms"])
        for r in rows:
            combo = f"{r.filter_kind} ({r.planner_kind})"
            w.writerow([r.parameter, _fmt(r.value)]
                       + summary_fields(combo, r.metrics, timing))


def format_summary_table(cells: Iterable[CellResult], timing: bool = True) -> str:
    header = ["combination", "final_rmse_m", "steps_to_2p5m", "avg_cost_ms"]
    rows = [summary_fields(c.combination, c.metrics, timing) for c in cells]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for r in rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(r)))
    return "\n".join(lines)
