"""``tools/mutants.py``: the mutant table applies to this checkout, and the
runner reads the killing test from pytest's summary. No tier-1 run here."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_changes_one_line_of_its_file(mutants):
    for m in mutants.MUTANTS:
        source = (ROOT / m.path).read_text()
        assert source.count(m.text) == 1, m
        before, after = source.splitlines(), mutants.mutate(source, m).splitlines()
        assert len(before) == len(after), m
        assert sum(a != b for a, b in zip(before, after)) == 1, m


def test_text_not_found_once_is_refused(mutants):
    m = mutants.Mutant("f.py", "x = 1", "x = 2", "")
    assert mutants.mutate("y = 0\nx = 1\n", m) == "y = 0\nx = 2\n"
    for source in ("y = 0\n", "x = 1\nx = 1\n"):
        with pytest.raises(mutants.MutantError):
            mutants.mutate(source, m)


def test_first_failure_reads_the_short_summary(mutants):
    out = ("..F\n=== short test summary info ===\n"
           "FAILED tests/test_a.py::TestB::test_c[1-2] - assert 1 == 2\n"
           "!!! stopping after 1 failures !!!\n1 failed, 2 passed in 0.1s\n")
    assert mutants.first_failure(out) == "tests/test_a.py::TestB::test_c[1-2]"
    assert mutants.first_failure("ERROR tests/test_d.py\n") == "tests/test_d.py"
    assert mutants.first_failure("3 passed in 0.1s\n") is None
