"""A tiny grid traced through the benchmark's own tracer (``perfbench/tracing.py``)
must still show every layer its per-layer metrics read: the run loop looks
its per-step calls up once per run, and those lookups must go through the
tracer's module- and class-level wrappers, not around them."""

import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from asymloc import experiment
from asymloc.experiment import GridSpec
from asymloc.filters import FilterParams
from asymloc.sim_env import get_preset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

RUNS, STEPS = 2, 40
FILTERS = ("proposed", "huber")
PLANNERS = ("passive", "reactive", "fim")


def tiny_grid() -> GridSpec:
    # EM on with a short window, so the range loss is refreshed mid-run
    return GridSpec(scenario=dataclasses.replace(get_preset("obstacle"), steps=STEPS),
                    filters=FILTERS, planners=PLANNERS, n_runs=RUNS,
                    filter_params=FilterParams(em_enabled=True, em_window=5))


def traced_grid():
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches)
    try:
        # through the module, whose binding the tracer wraps
        cells = experiment.run_grid(tiny_grid())
    finally:
        patches.undo()
    return tracer, cells


def test_every_layer_is_recorded():
    tracer, cells = traced_grid()
    spans = Counter(tracer.names[i] for i in tracer.name)
    counts = tracer.counts
    assert all(r.aborted_at is None for cell in cells.values() for r in cell.runs)
    n_runs = len(FILTERS) * len(PLANNERS) * RUNS
    n_steps = n_runs * STEPS

    assert spans["experiment.run_grid"] == 1
    assert spans["experiment.aggregate"] == len(FILTERS) * len(PLANNERS)
    assert spans["experiment.run_single"] == n_runs
    # one span per step for each per-step call of the loop
    assert spans["filters.predict"] == n_steps
    assert spans["observability.lambda_min"] == n_steps
    for kind in PLANNERS:
        assert spans[f"planners.{kind}"] == len(FILTERS) * RUNS * STEPS
    # the agent never lands on the target, so both updates run every step
    assert spans["filters.update.rtt"] == spans["filters.update.aoa"] == n_steps
    assert spans["sim_env.observe"] > 0
    applied = counts["filters.update.applied.rtt"] + counts["filters.update.applied.aoa"]
    assert applied + counts["filters.update.skipped"] == 2 * n_steps
    assert spans["observability.classify"] == spans["observability.tracker_add"] == applied
    assert 0 < counts["observability.active"] <= applied
    assert counts["filters.update.saturated.rtt"] > 0
    # leaf layers are counted: the IRLS weights, the EM refresh and the geometry
    assert counts["losses.irls_weight"] >= 2 * applied
    assert counts["losses.loss_curvature"] == applied
    assert counts["losses.em_update_lambda"] > 0
    assert sum(v for k, v in counts.items() if k.startswith("geometry.")) > 0


def test_traced_grid_gives_the_untraced_numbers():
    _, traced = traced_grid()
    plain = experiment.run_grid(tiny_grid())
    for key, cell in plain.items():
        for field in ("rmse_series", "bias_r_series", "bias_theta_series",
                      "ercm_lambda_min_series"):
            np.testing.assert_array_equal(getattr(traced[key].metrics, field),
                                          getattr(cell.metrics, field))
