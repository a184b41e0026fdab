"""Each benchmark workload's default-seed pass against the committed
reference output (``perfbench/reference.json``), through the benchmark's
own check, so a change of any simulated number fails the test suite and
not only a benchmark invocation; and the output's independence of the BLAS
kernel."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asymloc import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_default_seed_pass_matches_reference(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the pass writes its CSVs under the working directory
    run.load_asymloc(run.ROOT)
    session = run.Session(wl.WORKLOADS[name], REFERENCE[name])
    try:
        session.check_reference()
    finally:
        session.close()
    assert not session.problems, session.problems
    assert session.aborted == 0


def _numpy_on_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its build config
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


def _csv_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.skipif(not _numpy_on_openblas(), reason="numpy is not built on OpenBLAS")
def test_output_independent_of_blas_kernel(tmp_path):
    # the closed-loop step does its arithmetic on Python floats, so the
    # --no-timing bytes cannot depend on which OpenBLAS kernel the CPU
    # selects; Prescott is OpenBLAS's kernel without FMA
    workload = wl.WORKLOADS["canonical_grid"]
    argv = {}
    for side in ("here", "prescott"):
        ini = tmp_path / f"{side}.ini"
        ini.write_text(workload.config_text(wl.DEFAULT_SEED, str(tmp_path / side)))
        argv[side] = ["run", "--config", str(ini)]
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(path))
    subprocess.run([sys.executable, "-m", "asymloc.cli", *argv["prescott"]], env=env,
                   check=True, capture_output=True, timeout=600)
    assert cli.main(argv["here"]) == 0
    here = _csv_bytes(tmp_path / "here")
    assert len(here) == 7  # six cells and the summary
    assert _csv_bytes(tmp_path / "prescott") == here
