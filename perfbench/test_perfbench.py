"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench -q``
from the checkout root."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_times_on_synthetic_span_tree():
    # 0 root [0, 10]: children 1 [1, 4] and 2 [3, 6] overlap (cover [1, 6]),
    #   3 [8, 12] sticks out past the root (covers [8, 10])
    # 1 has one child 4 [2, 3]; 5 [20, 21] is a second root
    start = [0.0, 1.0, 3.0, 8.0, 2.0, 20.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0, 21.0]
    parent = [-1, 0, 0, 0, 1, -1]
    got = tracing.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1, 1])


def test_tracer_records_parent_and_run_ids():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        tracer.new_run()
        with tracer.span("inner"):
            pass
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == ["outer", "inner"]
    assert a["parent"].tolist() == [-1, 0]
    assert a["run"].tolist() == [-1, 0]
    assert (a["end"] >= a["start"]).all()


def _tiny(name):
    return dataclasses.replace(wl.WORKLOADS[name], runs=1, steps=6)


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "MICRO_REPS", 5)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.chdir(run.ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_metric_printed_with_its_unit(quick, capsys, name, trace):
    result = run.bench(_tiny(name), seed=1, seconds=0.01, trace=bool(trace),
                       root=run.ROOT, reference=None, loadavg=(0.0, 0.0, 0.0))
    assert result["correct"], result["problems"]
    specs = run.metric_specs(bool(trace))
    lines = run.report_lines(result, specs)
    for m in specs:
        assert any(ln.split()[0] == m["name"] and ln.split()[-1] == m["unit"] for ln in lines), m
    out = json.loads(run.result_line(result, specs))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                              for m in specs}
    assert out["attempted"] >= 1 and out["failed"] == 0


def _tiny_reference(tiny):
    run.load_asymloc(run.ROOT)
    session = run.Session(tiny, None)
    try:
        return wl.reference_entry(session.run(wl.DEFAULT_SEED))
    finally:
        session.close()


def _bench_against(tiny, ref):
    return run.bench(tiny, seed=1, seconds=0.01, trace=False, root=run.ROOT,
                     reference=ref, loadavg=(0.0, 0.0, 0.0))


def test_reference_match_passes(quick):
    tiny = _tiny("canonical_grid")
    result = _bench_against(tiny, _tiny_reference(tiny))
    assert result["correct"], result["problems"]
    assert "default-seed CSV digest matches reference" in result["notes"]


def _bump(v):
    return [x * (1 + 1e-6) + 1e-6 for x in v] if isinstance(v, list) else v + 1


@pytest.mark.parametrize("field", ["rmse_series", "bias_r_series", "bias_theta_series",
                                   "ercm_lambda_min_series", "final_rmse", "n_runs"])
def test_cell_field_mismatch_fails_every_run(quick, field):
    tiny = _tiny("canonical_grid")
    ref = _tiny_reference(tiny)
    key = next(iter(ref["cells"]))
    ref["cells"][key][field] = _bump(ref["cells"][key][field])
    result = _bench_against(tiny, ref)
    assert not result["correct"]
    assert any(field in p for p in result["problems"]), result["problems"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["completed_run_share"] == 0.0


def _bump_field(field):
    try:
        return repr(float(field) * (1 + 1e-6) + 1e-6)
    except ValueError:  # steps_to_2p5m reads "none"
        return "7"


# (file, row, column): a cell CSV's rmse, bias_r, bias_theta and
# ercm_lambda_min at step 1, and the summary's final_rmse_m and steps_to_2p5m
@pytest.mark.parametrize("csv_name,row,column", [("cell", 3, 1), ("cell", 3, 2), ("cell", 3, 3),
                                                 ("cell", 3, 4), ("summary.csv", 2, 1),
                                                 ("summary.csv", 2, 2)])
def test_csv_field_mismatch_fails(quick, csv_name, row, column):
    tiny = _tiny("canonical_grid")
    ref = _tiny_reference(tiny)
    name = csv_name if csv_name != "cell" else next(n for n in ref["csv"] if n != "summary.csv")
    lines = ref["csv"][name].split("\n")
    fields = lines[row].split(",")
    fields[column] = _bump_field(fields[column])
    lines[row] = ",".join(fields)
    ref["csv"][name] = "\n".join(lines)
    result = _bench_against(tiny, ref)
    assert not result["correct"]
    assert any(p.startswith(f"{name} row {row}") for p in result["problems"]), result["problems"]
