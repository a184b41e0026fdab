"""Monte Carlo orchestration: filter x planner grids, metrics, CSV output.

A *run* is one closed-loop simulation (observe, filter, plan, move) with
its own RNG substream (``scenario.seed + run_index``). A *cell* is one
filter/planner combination repeated over ``n_runs`` seeds; a *grid* is the
cross product of the requested filters and planners over a shared seed
base, so comparisons between combinations are paired draw-for-draw, and
the unit of work is the run index, whose :class:`World` all cells share.

Per-run series are logged at every step; aggregation is a pure post-pass,
so results can be re-aggregated (different thresholds, run subsets)
without re-simulating. Planner cost is wall-clock time around the planner
call only -- filter and environment work is excluded by construction.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import math
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .filters import (FILTER_KINDS, FilterConfig, FilterDivergenceError, FilterParams, RobustEkf,
                      make_filter_config)
from .geometry import CoincidentPointsError, Modality
from .knobs import check, config_fields, knob, part
from .observability import SlidingCurvatureTracker, classify_residual
from .planners import PLANNER_KINDS, PlannerConfig, make_planner
from .sim_env import Scenario, channel_draws, observe_with_draw

ERCM_WINDOW = 30


@dataclass
class RunResult:
    """Per-step records of a single run. Series are NaN-padded from an
    abort point on (a ``FilterDivergenceError`` is recorded as an abort at
    its step; any other error propagates)."""

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
    """One experiment: scenario, combinations, ensemble size. An untimed
    grid's runs read no clock and record a planner cost of 0.0 at every
    step (:func:`run_single`), so its metrics hold zero planner cost."""

    scenario: Scenario = part(Scenario)
    filters: tuple[str, ...] = knob(("proposed", "huber"), "experiment", kind="names",
                                    choices=FILTER_KINDS)
    planners: tuple[str, ...] = knob(("passive", "reactive", "fim"), "experiment", kind="names",
                                     choices=PLANNER_KINDS)
    n_runs: int = knob(50, "experiment", key="runs", ge=1)
    threshold: float = knob(2.5, "experiment", gt=0.0)
    filter_params: FilterParams = part(FilterParams, default_factory=FilterParams)
    planner_cfg: Optional[PlannerConfig] = part(PlannerConfig, default=None)
    n_jobs: int = knob(1, "experiment", key="jobs", ge=1)
    timing: bool = knob(True, "experiment")

    def __post_init__(self):
        check(self)
        if self.planner_cfg is None:
            object.__setattr__(self, "planner_cfg", PlannerConfig(arena=self.scenario.arena))
        _check_arena(self.scenario, self.planner_cfg)


def _check_arena(scenario: Scenario, planner_cfg: PlannerConfig) -> None:
    if planner_cfg.arena != scenario.arena:
        raise ValueError(f"planner arena {planner_cfg.arena} != scenario arena {scenario.arena}")


class World:
    """One run index's :func:`channel_draws` per step, drawn when built from
    the run's ``default_rng(run_seed)``, and per step the first observation
    made, kept with its pose: a run at that step and pose reuses it (every
    passive run does, and every run at step 0)."""

    def __init__(self, scenario: Scenario, run_seed: int):
        self.scenario = scenario
        rng = np.random.default_rng(run_seed)
        self.draws = [channel_draws(rng) for _ in range(scenario.steps)]
        self.memo: dict[int, tuple] = {}

    def observe(self, agent, step: int):
        """The step's :func:`observe_with_draw` result at ``agent`` from the
        step's draws, or ``None`` with the agent exactly over the target: the
        run skips the step's measurements but keeps predicting and moving."""
        pose = (float(agent[0]), float(agent[1]))
        seen = self.memo.get(step)
        if seen is not None and seen[0] == pose:
            return seen[1]
        try:
            obs = observe_with_draw(self.scenario, pose, self.draws[step])
        except CoincidentPointsError:
            obs = None
        self.memo.setdefault(step, (pose, obs))
        return obs


def run_single(world: World, filter_cfg: FilterConfig, planner_kind: str,
               planner_cfg: PlannerConfig, timing: bool = True) -> RunResult:
    """Execute one closed-loop run of ``world.scenario``, observed through
    the world's seeded draws, so deterministic for a given run seed.

    Step order: observe at the current pose, filter predict, range update,
    bearing update, then the planner decision and the move. With ``timing``
    the decision is timed, and an aborted run's cost is NaN from its abort
    on, like every other series; without, no clock is read and the cost is
    0.0 at every step, the aborted ones included.
    ``planner_cfg.arena`` must equal the scenario's arena (``ValueError``).
    """
    scenario = world.scenario
    _check_arena(scenario, planner_cfg)
    steps = scenario.steps
    tx, ty = float(scenario.truth[0]), float(scenario.truth[1])
    agent = (float(scenario.start[0]), float(scenario.start[1]))
    # seed the belief by backprojecting the first range/bearing pair from the
    # start pose; the wide init_position_std keeps the prior weak, and the
    # same measurements then flow through the regular update path
    obs = world.observe(agent, 0)
    if obs is None:  # start pose exactly on the target
        guess = (scenario.arena / 2.0, scenario.arena / 2.0)
    else:
        r, theta = obs[0].value, obs[1].value
        guess = (min(max(agent[0] + r * math.cos(theta), 0.0), scenario.arena),
                 min(max(agent[1] + r * math.sin(theta), 0.0), scenario.arena))
    filt = RobustEkf(filter_cfg, guess)
    noise = {Modality.RTT: filter_cfg.rtt_loss.sigma, Modality.AOA: filter_cfg.aoa_loss.sigma}
    planner = make_planner(planner_kind, planner_cfg, noise)
    tracker = SlidingCurvatureTracker(ERCM_WINDOW)

    # one float row per step, (*mean, lambda_min, planner cost, *pose)
    rows = []
    n_clamped = 0
    abort_reason = ""

    # per-step calls looked up once per run, after any class-level wrapping
    predict, update = filt.predict, filt.update
    track, tracker_lambda_min, aoa_loss = tracker.add, tracker.lambda_min, filter_cfg.aoa_loss
    next_pose, observe = planner.next_pose, world.observe
    clock = time.perf_counter if timing else float  # float() is 0.0: no clock is read
    for t in range(steps):
        try:
            predict()
            obs = observe(agent, t)
            if obs is not None:
                m_rtt, m_aoa, _, clamped = obs
                n_clamped += int(clamped)
                d_rtt = update(m_rtt)
                d_aoa = update(m_aoa)
                # read after the update: an EM refresh replaces the range loss
                if not d_rtt.skipped:
                    track(classify_residual(d_rtt.residual, filt.config.rtt_loss,
                                            d_rtt.jacobian_pos))
                if not d_aoa.skipped:
                    track(classify_residual(d_aoa.residual, aoa_loss, d_aoa.jacobian_pos))
            ex, ey, br, bt = filt.state.m
            lmin = tracker_lambda_min()
            tic = clock()
            pose = next_pose(agent, (ex, ey))
            rows.append((ex, ey, br, bt, lmin, clock() - tic, *agent))
            agent = pose
        except FilterDivergenceError as exc:
            abort_reason = f"{type(exc).__name__}: {exc}"
            break

    # the rows from an abort on: NaN, except an untimed run's cost of 0.0
    pad = (math.nan,) * 5 + (math.nan if timing else 0.0,) + (math.nan,) * 2
    table = np.array(rows + [pad] * (steps - len(rows)))
    # one elementwise np.hypot gives the bits of the per-step scalar call
    # (math.hypot may differ in the last bit)
    errors = np.hypot(table[:, 0] - tx, table[:, 1] - ty)
    return RunResult(errors=errors, bias_r=table[:, 2], bias_theta=table[:, 3],
                     lambda_min=table[:, 4], planner_cost=table[:, 5], trajectory=table[:, 6:],
                     n_clamped=n_clamped, aborted_at=len(rows) if abort_reason else None,
                     abort_reason=abort_reason)


def _live_mean(x: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """``np.nanmean(x, axis)`` with its bits, but NaN with no warning where
    every value is NaN (a step every run aborted before)."""
    live = ~np.isnan(x)
    total = np.where(live, x, 0.0).sum(axis=axis)
    count = live.sum(axis=axis)
    return np.divide(total, count, out=np.full(np.shape(total), math.nan), where=count > 0)


def aggregate(runs: Sequence[RunResult], threshold: float) -> RunMetrics:
    """Reduce an ensemble of runs to the cell metrics.

    ``rmse_series[t]`` is the root mean square of the per-run errors at t.
    ``steps_to_threshold`` uses settle semantics: the first step from which
    the RMSE stays at or below the threshold for the rest of the run
    (first-crossing would flatter methods that dip and bounce back).
    The planner cost is reduced as the runs recorded it: untimed runs hold
    0.0 at every step (:func:`run_single`), so their ``mean_cost_per_step``
    and every step of their ``cost_series`` read 0.0, also at a step every
    run aborted before.
    """
    if len(runs) == 0:
        raise ValueError("need at least one run")
    err = np.stack([r.errors for r in runs])
    rmse = np.sqrt(_live_mean(err * err, axis=0))
    # a step every run aborted before has a NaN RMSE: not settled
    above = ~(rmse <= threshold)
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
        mean_cost_per_step=float(_live_mean(cost)),
        cost_series=_live_mean(cost, axis=0),
        bias_r_series=_live_mean(np.stack([r.bias_r for r in runs]), axis=0),
        bias_theta_series=_live_mean(np.stack([r.bias_theta for r in runs]), axis=0),
        ercm_lambda_min_series=_live_mean(np.stack([r.lambda_min for r in runs]), axis=0),
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

    @property
    def live_runs(self) -> list[int]:
        """Per step, the number of runs not yet aborted: the runs that each
        step of the metrics' series averages over (the mean skips the
        aborted ones)."""
        ends = [len(r.errors) if r.aborted_at is None else r.aborted_at for r in self.runs]
        return [sum(t < end for end in ends) for t in range(len(self.runs[0].errors))]


def _run_index(scenario: Scenario, configs, planner_cfg, timing: bool,
               run_seed: int) -> list[RunResult]:
    """One run index of every cell, in cell order, sharing one :class:`World`."""
    world = World(scenario, run_seed)
    return [run_single(world, fcfg, p, planner_cfg, timing) for fcfg, p in configs]


# the map an enclosing _run_map block opened on its pool, which every run_grid
# call inside the block shares; unset outside one, so no worker outlives its block
_open_map: ContextVar = ContextVar("asymloc_open_map", default=None)


@contextlib.contextmanager
def _run_map(grid: GridSpec):
    """The ``map`` a grid's run indices go through, for its ``n_jobs``
    workers capped at ``n_runs``: the builtin one at one worker, else the
    enclosing block's, else one on a new pool of that many processes,
    shut down (its workers joined) when this block ends or raises."""
    workers = min(grid.n_jobs, grid.n_runs)
    run_map = map if workers == 1 else _open_map.get()
    if run_map is not None:
        yield run_map
        return
    # imported here: multiprocessing adds about 2 MB to every
    # single-process run that never uses it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        run_map = functools.partial(pool.map, chunksize=max(1, grid.n_runs // (8 * workers)))
        token = _open_map.set(run_map)
        try:
            yield run_map
        finally:
            _open_map.reset(token)


def run_grid(grid: GridSpec) -> dict[tuple[str, str], CellResult]:
    """Run every filter x planner cell of the grid.

    Run index ``i`` (seed ``scenario.seed + i``) runs in every cell over one
    shared :class:`World`, and the indices go through the :func:`_run_map`
    of the grid: in this process at one worker, else on a process pool of
    at most ``n_runs`` workers, the one :func:`sweep` keeps open across its
    values or one opened and shut down within this call. Cells are
    reassembled in run-index order either way, so every run equals the run
    made alone, at any worker count.
    """
    cells = [(f, p) for f in grid.filters for p in grid.planners]
    sc = grid.scenario
    configs = [(make_filter_config(f, sc.sigma_r, sc.sigma_theta_rad, grid.filter_params), p)
               for f, p in cells]
    run_index = functools.partial(_run_index, sc, configs, grid.planner_cfg, grid.timing)
    with _run_map(grid) as run_map:
        results = list(run_map(run_index, range(sc.seed, sc.seed + grid.n_runs)))

    out: dict[tuple[str, str], CellResult] = {}
    for c, (f, p) in enumerate(cells):
        cell_runs = [runs[c] for runs in results]
        out[(f, p)] = CellResult(f, p, aggregate(cell_runs, grid.threshold), cell_runs)
    return out


SWEEP_PARAMETERS = ("p_nlos", "mu_nlos", "eta", "k_rtt", "sigma_r")


@dataclass(frozen=True)
class SweepRow:
    value: float
    combination: str
    metrics: RunMetrics


def _swept(grid: GridSpec, parameter: str, value: float) -> dict:
    """The grid's sub-config that owns ``parameter``, by field name, with the
    parameter set to ``value`` (``ValueError`` outside its knob's bounds)."""
    name = next(name for name in ("scenario", "planner_cfg", "filter_params")
                if parameter in {f.name for f in config_fields(getattr(grid, name))})
    return {name: dataclasses.replace(getattr(grid, name), **{parameter: value})}


def sweep(parameter: str, values: Sequence[float], base: GridSpec) -> list[SweepRow]:
    """Re-run the grid once per parameter value (same seed base across
    values, so rows are paired on the underlying noise draws).

    ``parameter`` must be one of ``SWEEP_PARAMETERS``, and every value, as
    given, must pass the knob's type rule and bounds (``ValueError`` before
    any run starts: a bool or a string is refused, not coerced). The
    values run inside one :func:`_run_map` block, so at more than one worker
    one process pool serves every value's :func:`run_grid` call and is shut
    down before this returns or raises.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}")
    for v in values:  # the knob's type rule, before float() takes a bool or a string
        _swept(base, parameter, v)
    values = [float(v) for v in values]
    grids = [dataclasses.replace(base, **_swept(base, parameter, v)) for v in values]
    with _run_map(base):
        return [SweepRow(v, cell.combination, cell.metrics)
                for v, grid in zip(values, grids) for cell in run_grid(grid).values()]


# ---------------------------------------------------------------------------
# CSV / table output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return str(float(x))


def _write_csv(path, header: list[str], rows: list[list], seed: int, preset: str) -> tuple:
    """Write the ``# seed=... preset=...`` comment, the header and the rows; return the last two."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={seed} preset={preset}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return header, rows


def write_cell_csv(path, metrics: RunMetrics, *, seed: int, preset: str) -> None:
    """Per-step ensemble series for one cell."""
    # the csv module writes a float as its repr, which is _fmt's text
    series = np.column_stack((metrics.rmse_series, metrics.bias_r_series, metrics.bias_theta_series,
                              metrics.ercm_lambda_min_series, metrics.cost_series)).tolist()
    _write_csv(path, ["step", "rmse", "bias_r", "bias_theta", "ercm_lambda_min", "planner_cost_s"],
               [[t, *values] for t, values in enumerate(series)], seed, preset)


def summary_header(threshold: float) -> list[str]:
    """The columns of :func:`summary_fields`. The settle column is named
    from the RMSE threshold: ``steps_to_2p5m`` at 2.5 m, ``steps_to_1m``
    at 1 m."""
    return ["combination", "final_rmse_m", f"steps_to_{threshold:g}m".replace(".", "p"),
            "avg_cost_ms"]


def summary_fields(combination: str, metrics: RunMetrics) -> list[str]:
    """One cell's summary row. A cell that never settles reads ``none``."""
    settle = "none" if metrics.steps_to_threshold is None else str(metrics.steps_to_threshold)
    return [combination, _fmt(metrics.final_rmse), settle, _fmt(metrics.mean_cost_per_step * 1e3)]


def write_summary_csv(path, cells: Iterable[CellResult], *, seed: int,
                      preset: str) -> tuple[list[str], list[list[str]]]:
    """``summary.csv``, one row per cell; returns the header and rows written."""
    cells = list(cells)
    return _write_csv(path, summary_header(cells[0].metrics.threshold),
                      [summary_fields(c.combination, c.metrics) for c in cells], seed, preset)


def write_sweep_csv(path, parameter: str, rows: Sequence[SweepRow], *, seed: int,
                    preset: str) -> tuple[list[str], list[list[str]]]:
    """The sweep CSV of ``parameter``: ``parameter,value`` and then the summary
    columns, one row per sweep row; returns the header and rows written."""
    return _write_csv(path, ["parameter", "value", *summary_header(rows[0].metrics.threshold)],
                      [[parameter, _fmt(r.value), *summary_fields(r.combination, r.metrics)]
                       for r in rows], seed, preset)


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """The header and rows as left-aligned columns two spaces apart."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths))
                     for row in [header, *rows])
