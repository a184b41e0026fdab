"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

Each pair runs the benchmark's command (``BENCHMARK.json``'s ``command``,
``--trace 0``) once in each checkout, the parent first in even pairs and the
change first in odd ones, and reads the last JSON line of each run. A run
whose line is not ``correct`` or counts a failed run is an error (exit code
2). Every pair's values are printed as they come, then one Markdown table
with a row per end-to-end metric: each side's median and quartiles, the
change's wins, whether a claimed gain would hold and whether the metric's
bound holds. Names, directions and bounds are read from the parent's
``BENCHMARK.json``.

A gain holds when the change wins at least nine tenths of the pairs (ties
count for neither side) and the medians differ, in the metric's better
direction, by more than the parent's interquartile range. The bound holds
when the change's median is worse than the parent's by at most ``bound``
times the parent's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple


class BenchPairsError(Exception):
    """A run failed, or its output is not a correct benchmark result."""


class Verdict(NamedTuple):
    parent: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int
    losses: int
    claim_holds: bool
    bound_holds: bool


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> Verdict:
    """Judge one metric's paired series; ``better`` is ``"higher"`` or
    ``"lower"``, and ``bound`` the relative worsening the metric allows."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    gap = sign * (qc[1] - qp[1])
    claim = wins >= 0.9 * len(parent) and gap > qp[2] - qp[0]
    return Verdict(qp, qc, wins, losses, claim, -gap <= bound * abs(qp[1]))


def run_once(root: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict[str, float]:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchPairsError(f"{root}: exit code {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] > 0:
        raise BenchPairsError(f"{root}: correct {result['correct']}, "
                              f"{result['failed']} failed runs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def table(specs: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = ["| metric | better | parent median [q1, q3] | change median [q1, q3] "
             "| change wins | gain holds | bound holds |",
             "|---|---|---|---|---|---|---|"]
    for m in specs:
        name = m["name"]
        v = verdict([r[name] for r in parent], [r[name] for r in change], m["better"],
                    m["bound"])
        lines.append(f"| {name} ({m['unit']}) | {m['better']} | {cell(v.parent)} "
                     f"| {cell(v.change)} | {v.wins}/{len(parent)} ({v.losses} lost) "
                     f"| {'yes' if v.claim_holds else 'no'} "
                     f"| {'yes' if v.bound_holds else 'no'} (bound {m['bound']:g}) |")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, so that quartiles exist")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    specs = spec["end_to_end"]
    parent: list[dict] = []
    change: list[dict] = []
    try:
        for i in range(args.pairs):
            sides = [(args.parent, parent), (args.change, change)]
            for root, results in sides if i % 2 == 0 else sides[::-1]:
                results.append(run_once(root, spec["command"], args.workload, args.seed,
                                        args.seconds))
            first = "parent" if i % 2 == 0 else "change"
            values = ", ".join(f"{m['name']} {parent[-1][m['name']]:.4g} -> "
                               f"{change[-1][m['name']]:.4g}" for m in specs)
            print(f"- pair {i + 1} ({first} first): {values}", flush=True)
    except BenchPairsError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    print()
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs:")
    print()
    print("\n".join(table(specs, parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
