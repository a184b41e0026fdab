#!/usr/bin/env python3
"""asymloc benchmark: seeded grid workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (asymloc is imported from ``src/``):

    python3 perfbench/run.py --workload canonical_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: repeated
passes of the workload for ``--seconds``, reported as medians. ``--trace 1``
alternates untraced and traced passes (all in-process, ``n_jobs=1``) for
``--seconds`` and reports the per-layer metrics. Both modes first run the
workload at the default seed and compare it with ``reference.json``, and
check that every pass of one seed writes byte-identical ``--no-timing``
CSVs (traced or not, and at 1 or 2 workers).

Stdout ends with one JSON line: ``correct``, ``attempted`` and ``failed``
count closed-loop runs (a run fails when it aborts, and every run fails
when an output check fails), ``metrics`` maps name to value and unit.
Scratch output, the full result with the machine record, and the traced
spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

OUT_DIR = ".perfbench_out"
MIN_PASSES = 3  # per timed series, even when --seconds is spent sooner
# traced run samples wanted, so that the p90 run time has ten samples beyond it
MIN_TRACED_RUNS = 100
SETUP_PROBES = 15
MICRO_REPS = 3000  # acceptance criterion 7: best of 3 x 3000 calls


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


def load_asymloc(root: Path):
    src = root / "src"
    if not (src / "asymloc" / "__init__.py").is_file():
        raise BenchError(f"no asymloc sources under {src}")
    sys.path.insert(0, str(src))
    import asymloc.cli
    if src.resolve() not in Path(asymloc.cli.__file__).resolve().parents:
        raise BenchError(f"asymloc imported from {asymloc.cli.__file__}, not from {src}")


def machine_record(loadavg) -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "loadavg_start": list(loadavg)}


def probe_setup(root: Path, text: str, n: int) -> list[dict]:
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(root)],
                              input=text, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def micro_planners() -> tuple[float, float]:
    """Acceptance criterion 7's isolated per-decision timing (best of 3)."""
    from asymloc import Modality, PlannerConfig, fim_e_optimal, reactive_crossing
    cfg = PlannerConfig(candidate_count=16, arena=100.0)
    noise = {Modality.RTT: 1.5, Modality.AOA: math.radians(2.0)}
    agent = np.array([40.0, 40.0])
    est = np.array([60.0, 55.0])

    def best_per_call(fn):
        best = math.inf
        for _ in range(3):
            tic = time.perf_counter()
            for _ in range(MICRO_REPS):
                fn()
            best = min(best, (time.perf_counter() - tic) / MICRO_REPS)
        return best
    t_rea = best_per_call(lambda: reactive_crossing(agent, est, cfg))
    t_fim = best_per_call(lambda: fim_e_optimal(agent, est, cfg, noise))
    return t_fim, t_rea


def layer_metrics(tracer: tracing.Tracer, n_traced: int, micro: tuple[float, float],
                  probes: list[dict], untraced_walls: list[float],
                  traced_walls: list[float], pool_wall: float) -> dict[str, float]:
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    ids = {n: i for i, n in enumerate(tracer.names)}

    def durations(*names) -> np.ndarray:
        mask = np.isin(a["name"], [ids[n] for n in names if n in ids])
        return dur[mask]

    def mean_us(*names) -> float:
        d = durations(*names)
        return float(1e6 * d.mean()) if d.size else 0.0

    def share(num: int, den: int) -> float:
        return num / den if den else 0.0

    c = tracer.counts
    steps = durations("filters.predict").size
    fim_decisions = durations("planners.fim").size
    updates = durations("filters.update.rtt", "filters.update.aoa")
    runs = a["name"] == ids["experiment.run_single"]
    run_ms = 1e3 * dur[runs]
    run_self = tracing.self_times(a["start"], a["end"], a["parent"])[runs]
    applied = {m: c[f"filters.update.applied.{m}"] for m in ("rtt", "aoa")}
    classified = durations("observability.classify").size
    t_fim, t_rea = micro
    return {
        "planners.fim.us_per_decision": mean_us("planners.fim"),
        "planners.fim.candidates_per_decision": share(c["planners.fim.candidates"], fim_decisions),
        "planners.reactive.us_per_decision": mean_us("planners.reactive"),
        "planners.passive.us_per_decision": mean_us("planners.passive"),
        "planners.fim.micro_us": 1e6 * t_fim,
        "planners.reactive.micro_us": 1e6 * t_rea,
        "planners.fim_over_reactive": t_fim / t_rea,
        "filters.update.us_per_call.rtt": mean_us("filters.update.rtt"),
        "filters.update.us_per_call.aoa": mean_us("filters.update.aoa"),
        "filters.update.us_per_irls_round": share(1e6 * float(updates.sum()),
                                                  c["losses.irls_weight"]),
        "filters.update.calls": updates.size / n_traced,
        "filters.update.skipped_share": share(c["filters.update.skipped"], updates.size),
        "filters.update.saturated_share.rtt": share(c["filters.update.saturated.rtt"],
                                                    applied["rtt"]),
        "filters.update.saturated_share.aoa": share(c["filters.update.saturated.aoa"],
                                                    applied["aoa"]),
        "filters.predict.us_per_call": mean_us("filters.predict"),
        "sim_env.observe.us_per_call": mean_us("sim_env.observe"),
        "sim_env.observe.calls": durations("sim_env.observe").size / n_traced,
        "sim_env.clamped_share": share(c["sim_env.clamped"], durations("sim_env.observe").size),
        "geometry.calls_per_step": share(sum(v for k, v in c.items()
                                             if k.startswith("geometry.")), steps),
        "losses.calls_per_step": share(sum(v for k, v in c.items()
                                           if k.startswith("losses.")), steps),
        "observability.classify.us_per_call": mean_us("observability.classify"),
        "observability.tracker_add.us_per_call": mean_us("observability.tracker_add"),
        "observability.lambda_min.us_per_call": mean_us("observability.lambda_min"),
        "observability.active_share": share(c["observability.active"], classified),
        "experiment.run_single.ms_p50": float(np.percentile(run_ms, 50)),
        "experiment.run_single.ms_p90": float(np.percentile(run_ms, 90)),
        "experiment.run_single.samples": int(run_ms.size),
        "experiment.run_single.self_us_per_step": share(1e6 * float(run_self.sum()), steps),
        "experiment.aggregate.ms_per_cell": mean_us("experiment.aggregate") / 1e3,
        "experiment.csv.ms": 1e3 * float(durations("experiment.csv").sum()) / n_traced,
        "experiment.pool.efficiency": statistics.median(untraced_walls) / (2.0 * pool_wall),
        "config.import_ms": statistics.median(p["import_ms"] for p in probes),
        "config.parse_config.ms": statistics.median(p["parse_config_ms"] for p in probes),
        "config.dump_config.ms": statistics.median(p["dump_config_ms"] for p in probes),
        "bench.trace_overhead_share": (statistics.median(traced_walls)
                                       / statistics.median(untraced_walls) - 1.0),
    }


class Session:
    """One benchmark invocation: passes, checks and run accounting."""

    def __init__(self, workload: wl.Workload, reference: dict | None):
        from asymloc import cli, config, experiment
        self.cli, self.config = cli, config
        self.workload = workload
        self.reference = reference
        self.out = f"{OUT_DIR}/{workload.name}"
        self.collector = wl.GridCollector()
        self.patches = tracing.Patches()
        self.patches.function(experiment.run_grid, self.collector.wrap)
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.attempted = 0
        self.aborted = 0

    def close(self) -> None:
        self.patches.undo()

    def run(self, seed: int, jobs: int | None = None) -> wl.PassResult:
        cfg = wl.resolve(self.config, self.workload, seed, self.out, jobs)
        res = wl.run_pass(cfg, self.cli, self.collector)
        self.attempted += res.runs
        self.aborted += res.aborted
        if res.runs != wl.expected_runs(cfg):
            self.problems.append(f"pass ran {res.runs} runs, expected {wl.expected_runs(cfg)}")
        return res

    def same_bytes(self, what: str, a: wl.PassResult, b: wl.PassResult) -> None:
        if a.csv != b.csv:
            self.problems.append(f"--no-timing CSVs differ: {what}")

    def check_reference(self) -> wl.PassResult:
        """Default-seed pass(es) against the recorded reference; a pooled
        workload also runs at one worker and must write the same bytes."""
        ref = self.reference
        jobs = self.workload.jobs
        first = self.run(wl.DEFAULT_SEED, jobs=1)
        checked = [first]
        if jobs > 1:
            pooled = self.run(wl.DEFAULT_SEED)
            self.same_bytes(f"n_jobs=1 vs n_jobs={jobs}", first, pooled)
            checked.append(pooled)
        if ref is None:
            self.notes.append("reference check skipped")
            return first
        for res in checked:
            self.problems.extend(wl.compare_to_reference(res, ref))
        if first.digest != ref["csv_sha256"]:
            # every number within tolerance but the bytes moved: floating-point
            # evaluation order changed; reported, not failed
            self.notes.append(f"default-seed CSV digest {first.digest[:12]} differs from "
                              f"reference {ref['csv_sha256'][:12]}")
        else:
            self.notes.append("default-seed CSV digest matches reference")
        return first

    @property
    def failed(self) -> int:
        return self.attempted if self.problems else self.aborted


def timed_series(seconds: float, step, min_calls: int = MIN_PASSES) -> None:
    """Call ``step()`` until ``seconds`` have passed and at least
    ``min_calls`` calls were made."""
    t_end = time.perf_counter() + seconds
    n = 0
    while n < min_calls or time.perf_counter() < t_end:
        step()
        n += 1


def bench(workload: wl.Workload, seed: int, seconds: float, trace: bool,
          root: Path, reference: dict | None, loadavg) -> dict:
    os.chdir(root)
    load_asymloc(root)
    machine = machine_record(loadavg)
    (root / OUT_DIR).mkdir(exist_ok=True)
    session = Session(workload, reference)
    try:
        ref_pass = session.check_reference()
        if trace:
            metrics, series = _traced(session, seed, seconds, root, ref_pass)
        else:
            metrics, series = _untraced(session, seed, seconds, ref_pass)
            metrics["setup_s"] = statistics.median(
                p["setup_s"] for p in probe_setup(root, workload.config_text(seed, session.out),
                                                  SETUP_PROBES))
    finally:
        session.close()
    if not trace:
        metrics["completed_run_share"] = 1.0 - session.failed / session.attempted
    return {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": machine, "correct": not session.problems,
            "attempted": session.attempted, "failed": session.failed,
            "failed_run_share": session.failed / session.attempted,
            "problems": session.problems, "notes": session.notes,
            "series": series, "metrics": metrics}


def _untraced(session: Session, seed: int, seconds: float, ref_pass):
    passes: list[wl.PassResult] = []
    timed_series(seconds, lambda: passes.append(session.run(seed)))
    for i, p in enumerate(passes[1:], 1):
        session.same_bytes(f"timed pass {i} vs pass 0", passes[0], p)
    if seed == wl.DEFAULT_SEED:
        session.same_bytes("timed pass vs default-seed check pass", ref_pass, passes[0])
    # the largest pool worker; taken before any set-up probe runs, so no
    # other child has ended yet
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pooled = session.workload.jobs > 1
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pooled else 0
    walls = [p.wall_s for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "run_steps_per_s": statistics.median(p.steps_completed / p.wall_s for p in passes),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
    }
    return metrics, {"wall_s": walls, "rss_self_kb": self_kb, "rss_children_kb": child_kb}


def _traced(session: Session, seed: int, seconds: float, root: Path, ref_pass):
    tracer = tracing.Tracer()
    untraced: list[wl.PassResult] = []
    traced: list[wl.PassResult] = []

    def pair():
        untraced.append(session.run(seed, jobs=1))
        patches = tracing.Patches()
        tracing.install(tracer, patches)
        try:
            with tracer.span("bench.pass"):
                traced.append(session.run(seed, jobs=1))
        finally:
            patches.undo()

    timed_series(seconds, pair, max(MIN_PASSES, math.ceil(MIN_TRACED_RUNS / ref_pass.runs)))
    pooled = session.run(seed, jobs=2)
    base = untraced[0]
    for i, p in enumerate(untraced[1:], 1):
        session.same_bytes(f"untraced pass {i} vs 0", base, p)
    for i, p in enumerate(traced):
        session.same_bytes(f"traced pass {i} vs untraced", base, p)
    session.same_bytes("n_jobs=2 pass vs n_jobs=1", base, pooled)
    if seed == wl.DEFAULT_SEED:
        session.same_bytes("pass vs default-seed check pass", ref_pass, base)

    micro = micro_planners()
    probes = probe_setup(root, session.workload.config_text(seed, session.out), SETUP_PROBES)
    metrics = layer_metrics(tracer, len(traced), micro, probes,
                            [p.wall_s for p in untraced], [p.wall_s for p in traced],
                            pooled.wall_s)
    tracer.save(root / OUT_DIR / f"spans_{session.workload.name}_seed{seed}.npz")
    return metrics, {"untraced_wall_s": [p.wall_s for p in untraced],
                     "traced_wall_s": [p.wall_s for p in traced],
                     "pool_wall_s": pooled.wall_s}


def metric_specs(trace: bool) -> list[dict]:
    """The metrics a mode reports, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report_lines(result: dict, specs: list[dict]) -> list[str]:
    lines = [f"# machine {json.dumps(result['machine'])}",
             f"# workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
             f"{result['attempted']} runs attempted, {result['failed']} failed"]
    lines += [f"# note: {n}" for n in result["notes"]]
    lines += [f"# PROBLEM: {p}" for p in result["problems"]]
    rows = [(m["name"], result["metrics"][m["name"]], m["unit"]) for m in specs]
    if not result["trace"]:
        rows.append(("failed_run_share", result["failed_run_share"], "ratio"))
    width = max(len(r[0]) for r in rows)
    lines += [f"{name:<{width}}  {value!r:>24}  {unit}" for name, value, unit in rows]
    return lines


def result_line(result: dict, specs: list[dict]) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in specs}})


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise BenchError("--seed must be non-negative")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        specs = metric_specs(bool(args.trace))
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        result = bench(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), ROOT, reference, loadavg)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (ROOT / OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(report_lines(result, specs)))
    print(result_line(result, specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
