"""Time asymloc's set-up in a fresh interpreter, so the import is not cached.

Usage: ``python3 perfbench/setup_probe.py <checkout root>`` with the
workload's INI text on stdin. Prints one JSON object: ``setup_s`` is the
import of ``asymloc.cli`` plus the first ``parse_config`` and the
``GridSpec`` built from it; ``parse_config_ms`` and ``dump_config_ms`` are
medians over repeated calls.
"""

import json
import statistics
import sys
import time


def main() -> int:
    sys.path.insert(0, f"{sys.argv[1]}/src")
    text = sys.stdin.read()
    t0 = time.perf_counter()
    import asymloc.cli
    from asymloc import GridSpec
    from asymloc.config import dump_config, parse_config
    t1 = time.perf_counter()
    cfg = parse_config(text)
    t2 = time.perf_counter()
    GridSpec(scenario=cfg.scenario, filters=cfg.filters, planners=cfg.planners,
             n_runs=cfg.n_runs, threshold=cfg.threshold, filter_params=cfg.filter_params,
             planner_cfg=cfg.planner_cfg, n_jobs=cfg.n_jobs)
    t3 = time.perf_counter()

    def median_ms(fn, reps=21):
        samples = []
        for _ in range(reps):
            tic = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - tic)
        return 1e3 * statistics.median(samples)

    print(json.dumps({
        "setup_s": t3 - t0,
        "import_ms": 1e3 * (t1 - t0),
        "parse_config_ms": median_ms(lambda: parse_config(text)),
        "dump_config_ms": median_ms(lambda: dump_config(cfg)),
        "module_file": asymloc.cli.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
