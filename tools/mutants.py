"""Run one-line mutants of ``src/`` against tier-1 and report which survive.

    python3 tools/mutants.py [--files PATH ...]

Each entry of ``MUTANTS`` names a file, an exact text that occurs once in
it (a neighbouring line may come along to make it unique; only one line
changes), the replacement, and what the mutant breaks. The runner copies
the checkout (the files ``git ls-files`` lists, tracked or untracked but not
ignored) into a temporary directory once. Per mutant it writes the mutated
file there, runs tier-1 with ``-x`` under CI's warning flags, and restores
the file. A mutant is killed when the run fails or outlasts ``TIMEOUT``
seconds, and the first failing test is named; it survives when tier-1
passes.

``--files`` keeps only the mutants of the listed paths, relative to the
checkout root; listing no path runs none. The rows are printed as a
Markdown table as they come. The exit code is 1 when a mutant's text does
not occur exactly once in its file, and 0 otherwise: a survivor is
reported, not failed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]

# tier-1 as CI runs it, stopped at the first failure; the table's own check
# reads the unmutated texts, so it would kill every mutant and is left out
TIER1 = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-W", "error::RuntimeWarning", "-m", "pytest", "-q", "-x", "-rfE",
         "-p", "no:cacheprovider", "--ignore", "tests/test_mutants.py"]
TIMEOUT = 900.0  # tier-1 takes under a minute; a mutant that loops is killed


class Mutant(NamedTuple):
    path: str
    text: str
    replacement: str
    breaks: str


MUTANTS = [
    Mutant("src/asymloc/filters.py",
           "and min(n00, n11, n22, n33) > 0.0",
           "and min(n00, n11, n22) > 0.0",
           "the divergence check ignores the bearing-offset variance n33"),
    Mutant("src/asymloc/sim_env.py",
           "        if t0 > t1:",
           "        if t0 >= t1:",
           "a segment that grazes the obstacle (t0 == t1) reads as clear"),
    Mutant("src/asymloc/sim_env.py",
           "is_nlos if scenario.shared_nlos_flag else (u_aoa < p)",
           "is_nlos if scenario.shared_nlos_flag else (u_aoa < scenario.p_nlos)",
           "a separate bearing coin ignores the obstacle's blockage"),
    Mutant("src/asymloc/observability.py",
           "return CurvatureReport((a, b, c), max(lmin, 0.0), max(lmax, 0.0))",
           "return CurvatureReport((a, b, c), lmin, lmax)",
           "a report's eigenvalues keep negative fp dust"),
    Mutant("src/asymloc/filters.py",
           "(LossSpec.one_sided if kind == \"proposed\" else LossSpec.symmetric)",
           "(LossSpec.symmetric if kind == \"proposed\" else LossSpec.one_sided)",
           "proposed and huber swap their range loss families"),
    Mutant("src/asymloc/filters.py",
           "                            dataclasses.replace(params, irls_iterations=1))",
           "                            params)",
           "ekf runs the configured IRLS rounds instead of one"),
    Mutant("src/asymloc/filters.py",
           "LossSpec.quadratic(sigma_theta)",
           "LossSpec.symmetric(sigma_theta, k=params.k_aoa)",
           "ekf's bearing loss saturates"),
    Mutant("src/asymloc/cli.py",
           "return 2 if isinstance(exc, ConfigError) else 1",
           "return 2",
           "an OSError exits 2 like a config error"),
    Mutant("src/asymloc/cli.py",
           "return 2 if isinstance(exc, ConfigError) else 1",
           "return 1",
           "a config error exits 1"),
    Mutant("src/asymloc/planners.py",
           "        c += dx * dx / k_theta\n    except ZeroDivisionError:",
           "        c += dx * dx / k_theta\n    except OverflowError:",
           "fim() lets ZeroDivisionError out where a denominator is 0"),
    Mutant("src/asymloc/planners.py",
           "math.hypot(0.5 * (a - c), b))\n    except ZeroDivisionError:",
           "math.hypot(0.5 * (a - c), b))\n    except OverflowError:",
           "fim_e_optimal lets ZeroDivisionError out where a denominator is 0"),
    Mutant("src/asymloc/planners.py",
           "    candidates.append((ax, ay))",
           "    candidates.append((ax + 0.0, ay + 0.0))",
           "the stay-put candidate turns -0.0 into 0.0"),
    Mutant("src/asymloc/planners.py",
           " or (cx == ex and cy == ey):",
           ":",
           "fim_e_optimal no longer excludes the candidate at the estimate"),
    Mutant("src/asymloc/planners.py",
           "    tol = 1e-9 * max(1.0, abs(best))",
           "    tol = 1e-9 * abs(best)",
           "fim ties below a score of 1 become strict"),
    Mutant("src/asymloc/planners.py",
           "not (0.0 <= cx <= arena and 0.0 <= cy <= arena)",
           "not (0.0 <= cx < arena and 0.0 <= cy <= arena)",
           "a candidate on the arena's far x edge is excluded"),
    Mutant("src/asymloc/filters.py",
           "            if d < MIN_AOA_RANGE:",
           "            if d <= MIN_AOA_RANGE:",
           "a bearing from exactly MIN_AOA_RANGE is skipped"),
    Mutant("src/asymloc/filters.py",
           "            if not -math.pi < r <= math.pi:",
           "            if not -math.pi <= r <= math.pi:",
           "a raw bearing residual of -pi is not wrapped to pi"),
    Mutant("src/asymloc/filters.py",
           "        elif d == 0.0:",
           "        elif d < 0.0:",
           "a range update from the agent's own position is not skipped"),
    Mutant("src/asymloc/filters.py",
           "    n33 = p33 - t3 - t3 + s3 * k3",
           "    n33 = p33 - t3 + s3 * k3",
           "the Joseph form subtracts k3 * h3 from the bearing-offset variance once"),
    Mutant("src/asymloc/sim_env.py",
           "rng.standard_exponential(), *rng.standard_normal(3).tolist())",
           "*rng.standard_normal(3).tolist(), rng.standard_exponential())",
           "the channel draws its normals before the exponential"),
    Mutant("src/asymloc/planners.py",
           "k_r, k_theta = d2 * var_r, d2 * d2 * var_theta",
           "k_r, k_theta = d2 * var_r, d2 * d2 * var_r",
           "fim_e_optimal's bearing term reads var_r"),
    Mutant("src/asymloc/experiment.py",
           "(math.nan if timing else 0.0,)",
           "(math.nan,)",
           "run_single pads an untimed cost with NaN"),
    Mutant("src/asymloc/experiment.py",
           "        _swept(base, parameter, v)\n",
           "        pass\n",
           "sweep skips its type check"),
]


class MutantError(ValueError):
    """A mutant's text does not occur exactly once in its file."""


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's text replaced."""
    n = source.count(mutant.text)
    if n != 1:
        raise MutantError(f"{mutant.path}: {mutant.text!r} occurs {n} times, not once")
    return source.replace(mutant.text, mutant.replacement)


def first_failure(output: str) -> Optional[str]:
    """The id of the first failed or erroring test in pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def copy_checkout(root: Path, dest: Path) -> None:
    """Copy the files of ``root`` that git tracks or would track to ``dest``."""
    listed = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], check=True, capture_output=True, text=True)
    for name in filter(None, listed.stdout.split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_tier1(checkout: Path) -> tuple[str, str]:
    """``(result, killing test)`` of one tier-1 run in ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed", f"(timed out after {TIMEOUT:.0f} s)"
    if proc.returncode == 0:
        return "survived", ""
    return "killed", first_failure(proc.stdout) or f"(exit code {proc.returncode})"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--files", nargs="*", help="run only the mutants of these paths")
    args = parser.parse_args(argv[1:])
    mutants = MUTANTS
    if args.files is not None:
        keep = {os.path.normpath(f) for f in args.files}
        mutants = [m for m in MUTANTS if os.path.normpath(m.path) in keep]
    try:
        mutated = [mutate((ROOT / m.path).read_text(), m) for m in mutants]
    except MutantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("| # | file | breaks | result | killing test | s |")
    print("|---|---|---|---|---|---|")
    killed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        checkout = Path(tmp)
        copy_checkout(ROOT, checkout)
        for i, (m, text) in enumerate(zip(mutants, mutated), 1):
            target = checkout / m.path
            original = target.read_text()
            target.write_text(text)
            start = time.perf_counter()
            try:
                result, test = run_tier1(checkout)
            finally:
                target.write_text(original)
            killed += result == "killed"
            print(f"| {i} | `{m.path}` | {m.breaks} | {result} | {test} "
                  f"| {time.perf_counter() - start:.0f} |", flush=True)
    print(f"\n{killed} of {len(mutants)} mutants killed, {len(mutants) - killed} survived.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
