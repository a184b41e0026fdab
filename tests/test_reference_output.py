"""Each benchmark workload's default-seed pass against the committed
reference output (``perfbench/reference.json``), through the benchmark's
own check, so a change of any simulated number fails the test suite and
not only a benchmark invocation."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
