"""Each benchmark workload's default-seed pass against the committed
reference output (``perfbench/reference.json``), through the benchmark's
own check, so a change of any simulated number fails the test suite and
not only a benchmark invocation; the exact bytes of that pass against a
pinned digest, so a change of floating-point evaluation order fails it too;
and the output's independence of the BLAS kernel."""

import json
import os
import platform
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

# sha256 of each workload's default-seed --no-timing CSVs (PassResult.digest).
# reference.json holds the digest of older bytes and is re-recorded only with
# the benchmark; these pins move with the code. A change that alters the
# floating-point order updates them and says so.
PINNED_DIGESTS = {
    "canonical_grid": "ab615ab3e83dd1273cc306b58aef9573c4103ad814297b8b36abd2876e750abd",
    "obstacle_passive": "baef9fa5a12545c45cef87f6be400f0f34f29110beb042a59e62037664b9eb63",
    "sweep_pool": "71fa214a9104f50c5cb4315595a810490aad92a7a3b61ae0a1f304881bfa83d8",
}


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def checked_pass(request, tmp_path_factory):
    """The workload's default-seed pass after the benchmark's reference
    check: ``(name, session, pass result)``."""
    name = request.param
    with pytest.MonkeyPatch.context() as mp:
        # the pass writes its CSVs under the working directory
        mp.chdir(tmp_path_factory.mktemp(name))
        run.load_asymloc(run.ROOT)
        session = run.Session(wl.WORKLOADS[name], REFERENCE[name])
        try:
            first = session.check_reference()
        finally:
            session.close()
    return name, session, first


def test_default_seed_pass_matches_reference(checked_pass):
    _, session, _ = checked_pass
    assert not session.problems, session.problems
    assert session.aborted == 0


@pytest.mark.skipif((platform.system(), platform.machine()) != ("Linux", "x86_64"),
                    reason="digests pinned on Linux x86_64; another libm may round "
                           "atan2/hypot/cos/sin differently in the last bit")
def test_default_seed_bytes_match_pinned_digest(checked_pass):
    name, _, first = checked_pass
    assert first.digest == PINNED_DIGESTS[name]


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
