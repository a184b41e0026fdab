"""The benchmark's workloads and the output checks run on every pass.

A *pass* is one execution of a workload through asymloc's CLI entry
points (``cli.cmd_run`` / ``cli.cmd_sweep``) with ``--no-timing`` output:
resolve nothing (the config is already parsed), run the grid or sweep,
aggregate, write the CSVs and the resolved ``config.ini``.

Inputs come only from the benchmark seed: a workload's INI text gets
``experiment.seed = SEED_STRIDE * seed``, so different benchmark seeds use
disjoint run seeds (run ``i`` of a cell draws from ``seed + i``).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import numbers
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DEFAULT_SEED = 42
SEED_STRIDE = 1000
# comparison of every number against the recorded default-seed reference:
# loose enough for a change of floating-point evaluation order, far below
# any change of the simulated numbers
RTOL = 1e-7
ATOL = 1e-9
# RunMetrics fields that hold wall-clock data, which --no-timing zeroes
TIMING_FIELDS = ("mean_cost_per_step", "cost_series")


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # [experiment] keys besides seed, runs, steps, jobs, out, timing
    extra: str  # further INI sections
    runs: int  # runs per cell
    steps: int
    jobs: int

    def config_text(self, seed: int, out: str) -> str:
        return (f"[experiment]\n{self.experiment}seed = {SEED_STRIDE * seed}\n"
                f"runs = {self.runs}\nsteps = {self.steps}\njobs = {self.jobs}\n"
                f"out = {out}\ntiming = false\n"
                + self.extra)


WORKLOADS = {w.name: w for w in (
    # the paper's headline grid as a plain single-process baseline: 2 filters
    # x 3 planners; filters.update and planners.fim carry most of the time
    Workload("canonical_grid",
             "preset = canonical_medium\nfilters = proposed,huber\n"
             "planners = passive,reactive,fim\n",
             "", runs=4, steps=300, jobs=1),
    # planners do almost nothing; time goes to filters, the obstacle slab
    # test in sim_env and observability. ekf runs 1 IRLS round where the
    # others run 3, and EM re-estimation is only exercised here
    Workload("obstacle_passive",
             "preset = obstacle\nfilters = ekf,proposed,huber\nplanners = passive\n",
             "[filter]\nem_enabled = true\n", runs=8, steps=300, jobs=1),
    # the only pooled workload: 24 cells of short runs, so job pickling,
    # per-run set-up, aggregate and the sweep CSV take their largest share;
    # p_nlos moves saturation from none to heavy. 32 runs a cell make a pass
    # of a few seconds, so the pool's start-up does not dominate it
    Workload("sweep_pool",
             "preset = canonical_medium\nfilters = proposed,huber,ekf\n"
             "planners = passive,reactive\n",
             "[sweep]\nparameter = p_nlos\nvalues = 0,0.3,0.6,0.9\n",
             runs=32, steps=40, jobs=2),
)}


@dataclass
class PassResult:
    wall_s: float
    csv: dict[str, bytes]  # file name -> bytes, --no-timing CSVs only
    cells: dict[str, dict]  # "grid index:combination" -> non-timing RunMetrics fields
    runs: int
    aborted: int
    steps_completed: int

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.csv):
            h.update(name.encode() + b"\0" + self.csv[name] + b"\0")
        return h.hexdigest()


class GridCollector:
    """Keeps every ``CellResult`` that ``run_grid`` returns during a pass,
    so aborts are counted from each ``RunResult.aborted_at`` and never from
    the aggregated (NaN-skipping) metrics."""

    def __init__(self):
        self.grids: list[dict] = []

    def wrap(self, run_grid):
        def collecting_run_grid(grid):
            out = run_grid(grid)
            self.grids.append(out)
            return out
        return collecting_run_grid


def expected_runs(cfg) -> int:
    """Closed-loop runs one pass of a resolved ``ExperimentConfig`` makes."""
    values = len(cfg.sweep.values) if cfg.sweep is not None else 1
    return values * len(cfg.filters) * len(cfg.planners) * cfg.n_runs


def _cell_fields(metrics) -> dict:
    out = {}
    for f in dataclasses.fields(metrics):
        if f.name not in TIMING_FIELDS:
            v = getattr(metrics, f.name)
            if hasattr(v, "__len__"):
                v = [float(x) for x in v]
            elif isinstance(v, numbers.Integral):
                v = int(v)
            elif isinstance(v, numbers.Real):
                v = float(v)
            out[f.name] = v
    return out


def run_pass(cfg, cli, collector: GridCollector) -> PassResult:
    """One pass of an already-resolved ``ExperimentConfig`` through the
    CLI entry point, timed from the call to the last CSV written."""
    out = Path(cfg.out_dir)
    collector.grids.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        tic = time.perf_counter()
        (cli.cmd_sweep if cfg.sweep is not None else cli.cmd_run)(cfg)
        wall = time.perf_counter() - tic
    csv_bytes = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    cells, runs, aborted, steps = {}, 0, 0, 0
    for g, grid in enumerate(collector.grids):
        for cell in grid.values():
            cells[f"{g}:{cell.combination}"] = _cell_fields(cell.metrics)
            for r in cell.runs:
                runs += 1
                if r.aborted_at is None:
                    steps += len(r.errors)
                else:
                    aborted += 1
    return PassResult(wall, csv_bytes, cells, runs, aborted, steps)


def _close(a, b) -> bool:
    """Equal within the stated tolerance; NaN matches NaN, and values that
    are not numbers (``None``, text) must be equal."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= ATOL + RTOL * abs(b)
    return a == b


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return field


def _compare(what: str, got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, reference has {len(want)}"]
    for i, (a, b) in enumerate(zip(got, want)):
        if not _close(a, b):
            return [f"{what}[{i}]: {a!r} != reference {b!r}"]
    return []


def compare_to_reference(result: PassResult, ref: dict) -> list[str]:
    """Problems found comparing a default-seed pass with its reference:
    every field of every cell and every field of every CSV row must match
    within the tolerance."""
    problems = []
    if set(result.cells) != set(ref["cells"]):
        problems.append(f"cells differ from reference: "
                        f"{sorted(set(result.cells) ^ set(ref['cells']))}")
    for key in sorted(set(result.cells) & set(ref["cells"])):
        got, want = result.cells[key], ref["cells"][key]
        for name in sorted(set(got) | set(want)):
            if name not in got or name not in want:
                problems.append(f"{key}: field {name} missing on one side")
            else:
                g, w = got[name], want[name]
                problems += _compare(f"{key} {name}", g if isinstance(g, list) else [g],
                                     w if isinstance(w, list) else [w])
    if set(result.csv) != set(ref["csv"]):
        problems.append(f"CSV files differ from reference: "
                        f"{sorted(set(result.csv) ^ set(ref['csv']))}")
    for name in sorted(set(result.csv) & set(ref["csv"])):
        got = list(csv.reader(io.StringIO(result.csv[name].decode())))
        want = list(csv.reader(io.StringIO(ref["csv"][name])))
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} rows, reference has {len(want)}")
            continue
        for row, (a, b) in enumerate(zip(got, want)):
            problems += _compare(f"{name} row {row}", [_number(f) for f in a],
                                 [_number(f) for f in b])
    return problems


def reference_entry(result: PassResult) -> dict:
    return {"csv_sha256": result.digest,
            "csv": {name: data.decode() for name, data in result.csv.items()},
            "cells": result.cells}


def resolve(asymloc_config, workload: Workload, seed: int, out: str, jobs: Optional[int] = None):
    cfg = asymloc_config.parse_config(workload.config_text(seed, out))
    return cfg if jobs is None else dataclasses.replace(cfg, n_jobs=jobs)
