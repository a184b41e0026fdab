import configparser
import csv
import dataclasses
import hashlib
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymloc import knobs
from asymloc.cli import main
from asymloc.config import ConfigError, dump_config, parse_config
from asymloc.config import ExperimentConfig, SweepSpec
from asymloc.experiment import SWEEP_PARAMETERS, GridSpec
from asymloc.filters import FilterParams
from asymloc.planners import PlannerConfig
from asymloc.sim_env import PRESETS, Scenario


MINIMAL = "[experiment]\npreset = canonical_medium\n"


class TestParseConfig:
    def test_preset_resolves_canonical_values(self):
        cfg = parse_config(MINIMAL)
        sc = cfg.scenario
        assert sc.sigma_r == 1.5
        assert sc.p_nlos == 0.9
        assert sc.delta_r == 1.5
        assert sc.delta_theta_deg == -3.0
        assert cfg.planner_cfg.eta == 5.0
        assert cfg.planner_cfg.ell == 20.0
        assert cfg.filter_params.k_rtt == 1.5

    def test_empty_config_lists_required_keys(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("")
        msg = str(exc.value)
        assert "experiment.preset" in msg
        assert "canonical_medium" in msg

    def test_unknown_key_paths(self):
        with pytest.raises(ConfigError, match="experiment.frobnicate"):
            parse_config(MINIMAL + "frobnicate = 1\n")
        with pytest.raises(ConfigError, match="scenario.sigma"):
            parse_config(MINIMAL + "[scenario]\nsigma = 2\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "[plans]\neta = 2\n")
        assert str(exc.value) == ("unknown section [plans]; expected one of "
                                  "('experiment', 'scenario', 'filter', 'planner', 'sweep')")

    def test_out_of_range_values(self):
        with pytest.raises(ConfigError, match="scenario.p_nlos"):
            parse_config(MINIMAL + "[scenario]\np_nlos = 1.5\n")
        with pytest.raises(ConfigError, match="filter.irls_iterations"):
            parse_config(MINIMAL + "[filter]\nirls_iterations = 25\n")
        with pytest.raises(ConfigError, match="experiment.runs"):
            parse_config(MINIMAL + "runs = 0\n")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="experiment.preset"):
            parse_config("[experiment]\npreset = bogus\n")

    @pytest.mark.parametrize("text, path", [
        ("filters = proposed,huber,proposed\n", "experiment.filters"),
        ("planners = fim,fim\n", "experiment.planners"),
    ])
    def test_repeated_names_rejected(self, text, path):
        # a repeated cell would be simulated twice and written once
        with pytest.raises(ConfigError, match=f"{path}: repeated entries"):
            parse_config(MINIMAL + text)

    def test_overrides_apply(self):
        text = (MINIMAL + "seed = 9\nruns = 7\nsteps = 42\nfilters = proposed\n"
                "[scenario]\np_nlos = 0.4\nobstacle = 50,35,25,8\n"
                "[filter]\nk_rtt = 2.5\n[planner]\neta = 3.5\n")
        cfg = parse_config(text)
        assert cfg.scenario.seed == 9
        assert cfg.n_runs == 7
        assert cfg.scenario.steps == 42
        assert cfg.filters == ("proposed",)
        assert cfg.scenario.p_nlos == 0.4
        assert cfg.scenario.obstacle[3] == 8.0
        assert cfg.filter_params.k_rtt == 2.5
        assert cfg.planner_cfg.eta == 3.5

    def test_sweep_block(self):
        cfg = parse_config(MINIMAL + "[sweep]\nparameter = eta\nvalues = 3,4,5\n")
        assert cfg.sweep.parameter == "eta"
        assert cfg.sweep.values == (3.0, 4.0, 5.0)
        with pytest.raises(ConfigError, match="sweep.parameter"):
            parse_config(MINIMAL + "[sweep]\nparameter = nope\nvalues = 1\n")

    def test_sweep_values_checked_against_their_knob(self):
        with pytest.raises(ConfigError, match=r"sweep\.values: p_nlos: 1\.5 must be <= 1\.0"):
            parse_config(MINIMAL + "[sweep]\nparameter = p_nlos\nvalues = 0.5,1.5\n")
        with pytest.raises(ConfigError, match=r"sweep\.values: eta"):
            parse_config(MINIMAL + "[sweep]\nparameter = eta\nvalues = 3,0\n")

    # a config that is built only to be refused on replay breaks dump_config's round trip
    def test_unknown_preset_refused_when_built(self):
        with pytest.raises(ValueError, match="preset: unknown entry 'bogus'"):
            ExperimentConfig(preset="bogus", scenario=PRESETS["canonical_medium"])

    def test_sweep_values_checked_when_built(self):
        with pytest.raises(ValueError, match=r"sweep\.values: p_nlos: 2\.0 must be <= 1\.0"):
            ExperimentConfig(preset="canonical_medium", scenario=PRESETS["canonical_medium"],
                             sweep=SweepSpec("p_nlos", (0.5, 2.0)))

    # a value of another type than its knob's text parses to would run as
    # something else (a non-empty "false" turns EM on) or break the round trip
    @pytest.mark.parametrize("cls, field, value, expected", [
        (FilterParams, "em_enabled", "false", "expected a boolean, got 'false'"),
        (FilterParams, "em_enabled", 1, "expected a boolean, got 1"),
        (GridSpec, "timing", "false", "expected a boolean, got 'false'"),
        (Scenario, "shared_nlos_flag", None, "expected a boolean, got None"),
        (Scenario, "p_nlos", None, "expected a number, got None"),
        (GridSpec, "n_runs", None, "expected an integer, got None"),
        (Scenario, "steps", True, "expected an integer, got True"),
        (Scenario, "arena", True, "expected a number, got True"),
        (PlannerConfig, "eta", "5.0", "expected a number, got '5.0'"),
        (Scenario, "truth", [50.0, 50.0], "expected a tuple, got [50.0, 50.0]"),
        (Scenario, "obstacle", [50.0, 35.0, 25.0, 8.0], "expected a tuple, got [50.0, "),
        (Scenario, "start", (10.0, "10"), "expected a number, got '10'"),
        (GridSpec, "filters", ["proposed"], "expected a tuple, got ['proposed']"),
        (GridSpec, "planners", ("passive", 3), "expected a string, got 3"),
        (SweepSpec, "values", None, "expected a tuple, got None"),
    ])
    def test_value_of_another_type_refused_by_name(self, cls, field, value, expected):
        required = {GridSpec: {"scenario": PRESETS["canonical_medium"]},
                    SweepSpec: {"parameter": "p_nlos", "values": (0.5,)}}.get(cls, {})
        with pytest.raises(ValueError, match=f"^{field}: {re.escape(expected)}"):
            cls(**{**required, field: value})

    def test_round_trip(self):
        text = (MINIMAL + "seed = 3\nruns = 4\nsteps = 33\n"
                "[scenario]\np_nlos = 0.35\nobstacle = 50,35,25,8\n"
                "[filter]\nk_aoa = 2.0\n[planner]\nell = 15.0\n"
                "[sweep]\nparameter = k_rtt\nvalues = 0.5,1.0\n")
        cfg = parse_config(text)
        assert parse_config(dump_config(cfg)) == cfg

    # sha256 of the config.ini text each preset's minimal config dumps to, so
    # a change of a knob's value type cannot change the written bytes; adding
    # or moving a key changes these on purpose
    DUMP_DIGESTS = {
        "canonical_high": "61ed55c087b865e658f08ae56ab280bd92a63aa4884312a56042363192ae8a98",
        "canonical_low": "3b9d95d2a3b4c08700b55201088bb961c7dacc7bcb0d3ce89ea29b87f747cf7a",
        "canonical_medium": "5daa56dbce1058c1e85076aca247bb069367969b273d68c78ee233733c2ad5f5",
        "obstacle": "4a85c109695950e4058dd43ab98b984913c294932b7a70a6debcfd63af8251b3",
    }

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_dump_config_text_is_pinned(self, preset):
        text = dump_config(parse_config(f"[experiment]\npreset = {preset}\n"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DUMP_DIGESTS[preset]

    # sha256 of the sorted (section, key, value) triples of the same text: a
    # change that only reorders keys within a section leaves these as they are
    DUMP_CONTENT_DIGESTS = {
        "canonical_high": "ab4842da1d722cb9e7025967c906629f2f8417a39990ab968981c07fab8ec066",
        "canonical_low": "92edae975fccacc4c5199d94363da6bf3b2f660bee237ac7320b475fafda8719",
        "canonical_medium": "dc99657343d1751781b328ed4618826ab717e33a9eaf39cba8d18cd14659daae",
        "obstacle": "e06fe7047bfa90284ef061378af72e2ee7c288b805a86258f03277cfa2b0ab6a",
    }

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_dump_config_content_is_pinned(self, preset):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(dump_config(parse_config(f"[experiment]\npreset = {preset}\n")))
        triples = sorted((s, k, v) for s in cp.sections() for k, v in cp.items(s))
        digest = hashlib.sha256(repr(triples).encode()).hexdigest()
        assert digest == self.DUMP_CONTENT_DIGESTS[preset]


def run_cli(*argv):
    return main(list(argv))


class TestCliRun:
    def test_grid_cardinality_and_outputs(self, tmp_path, capsys):
        code = run_cli("run", "--preset", "canonical_medium", "--runs", "1",
                       "--steps", "5", "--out", str(tmp_path),
                       "--filters", "proposed,huber",
                       "--planners", "passive,reactive,fim")
        assert code == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 2 + 6  # comment + header + 6 combinations
        for f in ("proposed", "huber"):
            for p in ("passive", "reactive", "fim"):
                assert (tmp_path / f"{f}_{p}.csv").exists()
        assert (tmp_path / "config.ini").exists()
        out = capsys.readouterr().out
        assert "combination" in out and "proposed (fim)" in out

    def test_smoke_run_is_fast(self, tmp_path):
        tic = time.perf_counter()
        code = run_cli("run", "--preset", "canonical_medium", "--runs", "1",
                       "--steps", "10", "--out", str(tmp_path), "--filters", "proposed")
        assert code == 0
        assert time.perf_counter() - tic < 1.0

    def test_seed_determinism_without_timing(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            code = run_cli("run", "--preset", "canonical_medium", "--seed", "42",
                           "--runs", "2", "--steps", "30", "--out", str(d),
                           "--filters", "proposed", "--planners", "reactive",
                           "--no-timing")
            assert code == 0
            outs.append((d / "proposed_reactive.csv").read_bytes()
                        + (d / "summary.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_determinism_modulo_cost_column(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            run_cli("run", "--preset", "canonical_medium", "--seed", "42",
                    "--runs", "2", "--steps", "30", "--out", str(d),
                    "--filters", "proposed", "--planners", "reactive")
            lines = (d / "proposed_reactive.csv").read_text().splitlines()
            texts.append([ln.rsplit(",", 1)[0] for ln in lines])
        assert texts[0] == texts[1]

    def test_errors_reported_with_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "--preset", "canonical_medium",
                       "--filters", "kalmanator", "--out", str(tmp_path))
        assert code == 2
        assert "kalmanator" in capsys.readouterr().err

    def test_unknown_preset_flag_names_its_config_key(self, tmp_path, capsys):
        code = run_cli("run", "--preset", "bogus", "--out", str(tmp_path))
        assert code == 2
        assert "experiment.preset: unknown entry 'bogus'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [("run",), ("sweep", "--parameter", "p_nlos",
                                                 "--values", "0.2,0.7")])
    def test_written_config_replays_the_experiment_exactly(self, tmp_path, argv):
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert run_cli(*argv, "--preset", "canonical_low", "--seed", "5", "--runs", "2",
                       "--steps", "15", "--filters", "proposed,ekf",
                       "--planners", "passive,fim", "--no-timing", "--out", str(first)) == 0
        assert run_cli(argv[0], "--config", str(first / "config.ini"),
                       "--out", str(replay)) == 0
        written = sorted(p.name for p in first.glob("*.csv"))
        assert written and written == sorted(p.name for p in replay.glob("*.csv"))
        for name in written:
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(MINIMAL + "runs = 1\nsteps = 5\n[scenario]\np_nlos = 0.2\n")
        out = tmp_path / "res"
        code = run_cli("run", "--config", str(cfg_file), "--out", str(out),
                       "--filters", "ekf", "--planners", "passive")
        assert code == 0
        resolved = (out / "config.ini").read_text()
        assert "p_nlos = 0.2" in resolved
        assert "filters = ekf" in resolved


class TestCliSweep:
    def test_eta_sweep_shape(self, tmp_path, capsys):
        code = run_cli("sweep", "--preset", "canonical_medium", "--runs", "1",
                       "--steps", "5", "--out", str(tmp_path),
                       "--filters", "proposed", "--planners", "reactive,fim",
                       "--parameter", "eta", "--values", "3,4,5,6,7")
        assert code == 0
        lines = (tmp_path / "sweep_eta.csv").read_text().splitlines()
        assert len(lines) == 2 + 5 * 2  # comment + header + 5 values x 2 combos
        assert "eta" in capsys.readouterr().out

    def test_k_rtt_sweep_shape(self, tmp_path):
        code = run_cli("sweep", "--preset", "canonical_medium", "--runs", "1",
                       "--steps", "5", "--out", str(tmp_path),
                       "--filters", "proposed", "--planners", "passive",
                       "--parameter", "k_rtt", "--values", "0.5,1.0,1.5,2.5,4.0")
        assert code == 0
        lines = (tmp_path / "sweep_k_rtt.csv").read_text().splitlines()
        assert len(lines) == 2 + 5

    def test_out_of_bounds_value_stops_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli("sweep", "--preset", "canonical_medium", "--runs", "1", "--steps", "2",
                       "--parameter", "p_nlos", "--values", "0.5,1.5", "--out", str(out))
        assert code == 2
        assert "sweep.values" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_without_parameter_fails(self, tmp_path, capsys):
        code = run_cli("sweep", "--preset", "canonical_medium", "--out", str(tmp_path))
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_single_value_sweep_matches_run(self, tmp_path):
        run_cli("run", "--preset", "canonical_medium", "--seed", "4", "--runs", "2",
                "--steps", "20", "--out", str(tmp_path / "run"),
                "--filters", "proposed", "--planners", "reactive", "--no-timing")
        run_cli("sweep", "--preset", "canonical_medium", "--seed", "4", "--runs", "2",
                "--steps", "20", "--out", str(tmp_path / "sweep"),
                "--filters", "proposed", "--planners", "reactive",
                "--parameter", "mu_nlos", "--values", "8.0", "--no-timing")
        run_summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()[2]
        sweep_row = (tmp_path / "sweep" / "sweep_mu_nlos.csv").read_text().splitlines()[2]
        # combination,final,steps,cost must match between the two commands
        assert sweep_row.split(",", 2)[2] == run_summary


class TestSummaryOutput:
    """``run`` and ``sweep`` print the rows of their summary CSV."""

    COMMANDS = {"run": (("run",), "summary.csv"),
                "sweep": (("sweep", "--parameter", "eta", "--values", "3,5"), "sweep_eta.csv")}

    def _outputs(self, tmp_path, capsys, command, *extra):
        argv, csv_name = self.COMMANDS[command]
        code = run_cli(*argv, "--preset", "canonical_medium", "--runs", "1", "--steps", "8",
                       "--filters", "proposed,huber", "--planners", "passive,fim",
                       "--out", str(tmp_path), *extra)
        assert code == 0
        rows = list(csv.reader((tmp_path / csv_name).read_text().splitlines()[1:]))
        return rows, capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_stdout_rows_are_the_csv_rows(self, tmp_path, capsys, command):
        rows, table = self._outputs(tmp_path, capsys, command)
        assert len(table) == len(rows) == 1 + (2 if command == "sweep" else 1) * 4
        # columns are at least two spaces apart; a combination holds one space
        for line, row in zip(table, rows):
            assert re.split(r"\s{2,}", line.rstrip()) == row

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_settle_column_named_from_threshold(self, tmp_path, capsys, command):
        rows, table = self._outputs(tmp_path, capsys, command, "--threshold", "1")
        assert rows[0][-2] == "steps_to_1m"
        assert table[0].split()[-2] == "steps_to_1m"


class TestFlagsAsConfigKeys:
    @pytest.mark.parametrize("argv, path", [
        (("run", "--jobs", "0"), "experiment.jobs"),
        (("run", "--runs", "0"), "experiment.runs"),
        (("sweep", "--parameter", "eta", "--values", ","), "sweep.values"),
        (("sweep", "--parameter", "eta", "--values", "1,x"), "sweep.values"),
        (("sweep", "--parameter", "bogus", "--values", "1"), "sweep.parameter"),
        (("run", "--filters", "proposed,proposed"), "experiment.filters"),
        (("sweep", "--parameter", "eta", "--values", "3", "--planners", "passive,passive"),
         "experiment.planners"),
        (("run", "--seed", "-1"), "experiment.seed"),
    ])
    def test_flag_errors_name_their_config_key(self, tmp_path, capsys, argv, path):
        code = run_cli(*argv, "--preset", "canonical_medium", "--steps", "2",
                       "--out", str(tmp_path))
        assert code == 2
        assert path in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
        assert not (tmp_path / "config.ini").exists()

    @pytest.mark.parametrize("text, path", [
        ("threshold = nan\n", "experiment.threshold"),
        ("[filter]\nk_rtt = inf\n", "filter.k_rtt"),
        ("[scenario]\ntruth = 50,nan\n", "scenario.truth"),
        ("[sweep]\nparameter = eta\nvalues = 3,nan\n", "sweep.values"),
    ])
    def test_non_finite_numbers_rejected(self, text, path):
        with pytest.raises(ConfigError, match=path):
            parse_config(MINIMAL + text)

    def test_preset_flag_restarts_the_config_files_scenario(self, tmp_path):
        cfg_file = tmp_path / "exp.ini"
        cfg_file.write_text(MINIMAL + "seed = 7\nruns = 1\nsteps = 5\n"
                            "[scenario]\np_nlos = 0.2\n[filter]\nk_rtt = 2.5\n"
                            "[planner]\neta = 3.5\n")
        out = tmp_path / "res"
        code = run_cli("run", "--config", str(cfg_file), "--preset", "obstacle",
                       "--out", str(out), "--filters", "ekf", "--planners", "passive")
        assert code == 0
        cfg = parse_config((out / "config.ini").read_text())
        assert cfg.preset == "obstacle"
        # the flag's preset replaces the file's scenario, [scenario] overrides included
        assert cfg.scenario.obstacle == PRESETS["obstacle"].obstacle
        assert cfg.scenario.p_nlos == PRESETS["obstacle"].p_nlos
        # seed, steps and the [filter]/[planner] overrides come from the file
        assert (cfg.scenario.seed, cfg.scenario.steps, cfg.n_runs) == (7, 5, 1)
        assert cfg.filter_params.k_rtt == 2.5
        assert cfg.planner_cfg.eta == 3.5


def knob_strategy(f):
    """A strategy for an in-bounds value of one config knob, read from its
    metadata."""
    m = f.metadata
    kind = m["kind"]
    if kind in ("float", "floats"):
        lo = m.get("ge", m.get("gt"))
        number = st.floats(min_value=lo, max_value=m.get("le"), exclude_min="gt" in m,
                           allow_nan=False, allow_infinity=False)
        if kind == "float":
            return number
        return st.lists(number, min_size=m.get("n", 1), max_size=m.get("n", 6)).map(tuple)
    if kind == "int":
        return st.integers(min_value=m.get("ge"), max_value=m.get("le"))
    if kind == "bool":
        return st.booleans()
    if kind == "name":
        return st.sampled_from(m["choices"])
    if kind == "names":
        return st.lists(st.sampled_from(m["choices"]), min_size=1, max_size=4,
                        unique=True).map(tuple)
    return st.from_regex(r"[A-Za-z0-9_./-]{0,20}", fullmatch=True)


def knob_values(cls, **fixed):
    """A strategy for a dict with an in-bounds value for every config knob
    of ``cls``; ``fixed`` overrides some."""
    return st.fixed_dictionaries({f.name: fixed[f.name] if f.name in fixed else knob_strategy(f)
                                  for f in knobs.config_fields(cls)})


def sweep_specs(parameter):
    """A strategy for a sweep of ``parameter`` whose values fit the bounds
    of the knob it is routed to (parse_config rejects any other)."""
    target = next(f for cls in (Scenario, FilterParams, PlannerConfig)
                  for f in knobs.config_fields(cls) if f.name == parameter)
    return st.lists(knob_strategy(target), min_size=1, max_size=6).map(
        lambda values: SweepSpec(parameter, tuple(values)))


@st.composite
def experiment_configs(draw, preset):
    arena = draw(st.floats(min_value=1e-6, max_value=1e6))
    point = st.tuples(*[st.floats(min_value=0.0, max_value=arena)] * 2)
    rect = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
                     st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    scenario = dataclasses.replace(PRESETS[preset], **draw(knob_values(
        Scenario, arena=st.just(arena), truth=point, start=point,
        obstacle=st.none() | rect)))
    sweep = draw(st.none() | st.sampled_from(SWEEP_PARAMETERS).flatmap(sweep_specs))
    return ExperimentConfig(
        scenario=scenario, sweep=sweep,
        filter_params=FilterParams(**draw(knob_values(FilterParams))),
        planner_cfg=PlannerConfig(arena=arena, **draw(knob_values(PlannerConfig))),
        **draw(knob_values(ExperimentConfig)))


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_every_knob_round_trips(preset, data):
    cfg = data.draw(experiment_configs(preset))
    assert parse_config(dump_config(cfg)) == cfg
