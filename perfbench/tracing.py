"""Outside-in tracing of asymloc: spans and counters recorded by wrapping
module and class attributes from the benchmark's own code.

Nothing under ``src/`` knows about this module. ``install`` swaps the
public functions and methods a closed-loop run calls for thin wrappers
that record a span (name, start, end, parent, run id) or bump a counter,
and ``Patches.undo`` puts the originals back. Leaf layers (``geometry``,
``losses`` and the per-candidate ``planners.fim``) are called 10^5-10^6
times per pass, so they are counted, not timed.

Spans stay in memory in flat arrays and are written out once, at the end
of the benchmark (:meth:`Tracer.save`).
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Optional

import numpy as np


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        self.run_id = -1
        self._next_run = 0
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def new_run(self) -> None:
        self.run_id = self._next_run
        self._next_run += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened from benchmark code."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(),
                            counter_names=np.array(sorted(self.counts)),
                            counter_values=np.array([self.counts[k] for k in sorted(self.counts)],
                                                    dtype=np.int64))


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once, and child time
    outside the parent's interval is ignored)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def asymloc_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "asymloc" or name.startswith("asymloc."))]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def function(self, fn: Callable, make_wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``fn`` under every name any asymloc module binds it to, so
        calls through each module's globals go through the wrapper."""
        wrapper = make_wrapper(fn)
        for mod in asymloc_modules():
            for attr in [k for k, v in vars(mod).items() if v is fn]:
                self.set(mod, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _timed(tracer: Tracer, name: str, after: Optional[Callable] = None):
    nid = tracer.name_id(name)

    def make(fn):
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(out)
            return out
        return wrapper
    return make


def _counted(tracer: Tracer, key: str):
    counts = tracer.counts

    def make(fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    return make


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the layer boundaries of a closed-loop run. Must be undone
    (``patches.undo()``) before any untraced pass."""
    import asymloc
    from asymloc import experiment, filters, geometry, losses, observability, planners

    counts = tracer.counts

    # leaf layers: counts only
    for mod, layer in ((geometry, "geometry"), (losses, "losses")):
        for attr, obj in list(vars(mod).items()):
            if (callable(obj) and not attr.startswith("_") and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                patches.function(obj, _counted(tracer, f"{layer}.{attr}"))
    patches.function(planners.fim, _counted(tracer, "planners.fim.candidates"))

    # experiment / output layer
    patches.function(experiment.run_grid, _timed(tracer, "experiment.run_grid"))
    patches.function(experiment.sweep, _timed(tracer, "experiment.sweep"))
    patches.function(experiment.aggregate, _timed(tracer, "experiment.aggregate"))
    for writer in (experiment.write_cell_csv, experiment.write_summary_csv,
                   experiment.write_sweep_csv):
        patches.function(writer, _timed(tracer, "experiment.csv"))
    patches.function(asymloc.config.dump_config, _timed(tracer, "config.dump_config"))

    run_nid = tracer.name_id("experiment.run_single")

    def make_run_single(fn):
        def run_single(*args, **kwargs):
            prev = tracer.run_id
            tracer.new_run()
            idx = tracer.open(run_nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.run_id = prev
        return run_single
    patches.function(experiment.run_single, make_run_single)

    # world model
    def after_observe(out):
        counts["sim_env.clamped"] += bool(out[3])
    patches.function(experiment.observe_with_draw,
                     _timed(tracer, "sim_env.observe", after_observe))

    # filters
    ekf = filters.RobustEkf
    patches.set(ekf, "predict", _timed(tracer, "filters.predict")(ekf.predict))
    update_ids = {filters.Modality.RTT: tracer.name_id("filters.update.rtt"),
                  filters.Modality.AOA: tracer.name_id("filters.update.aoa")}
    orig_update = ekf.update

    def update(self, z):
        idx = tracer.open(update_ids[z.modality])
        try:
            diag = orig_update(self, z)
        finally:
            tracer.close(idx)
        mod = z.modality.value
        if diag.skipped:
            counts["filters.update.skipped"] += 1
        else:
            counts[f"filters.update.applied.{mod}"] += 1
            counts[f"filters.update.saturated.{mod}"] += bool(diag.saturated)
        return diag
    patches.set(ekf, "update", update)

    # observability
    def after_classify(sample):
        counts["observability.active"] += not sample.saturated
    patches.function(observability.classify_residual,
                     _timed(tracer, "observability.classify", after_classify))
    tracker = observability.SlidingCurvatureTracker
    patches.set(tracker, "add", _timed(tracer, "observability.tracker_add")(tracker.add))
    patches.set(tracker, "lambda_min",
                _timed(tracer, "observability.lambda_min")(tracker.lambda_min))

    # planners: one span per decision
    for cls, kind in ((planners.LawnmowerPlanner, "passive"),
                      (planners.ReactiveCrossingPlanner, "reactive"),
                      (planners.FimPlanner, "fim")):
        patches.set(cls, "next_pose", _timed(tracer, f"planners.{kind}")(cls.next_pose))
