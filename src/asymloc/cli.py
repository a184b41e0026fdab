"""Command-line entry point: run experiment grids and parameter sweeps.

``asymloc run --preset canonical_medium --out results/`` executes the
filter x planner grid and writes one per-step CSV per combination plus a
summary CSV mirrored to stdout. ``asymloc sweep --parameter eta --values
3,4,5,6,7 ...`` re-runs the grid per value and writes one CSV, also
mirrored to stdout.

Flags are the config's ``[experiment]`` and ``[sweep]`` keys: they
override the config file's keys and are validated like them. Every output
CSV starts with a comment line carrying the resolved seed and preset so
results can be replayed exactly; the fully resolved config itself is
written next to the CSVs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import knobs
from .config import SCHEMA, ConfigError, ExperimentConfig, dump_config, parse_config
from .experiment import (format_table, run_grid, sweep, write_cell_csv, write_summary_csv,
                         write_sweep_csv)


def _add_key_flags(p: argparse.ArgumentParser, section: str) -> None:
    """One flag per config key of the section, validated like the INI key."""
    for (sec, key), (_, f) in SCHEMA.items():
        if sec == section and key != "timing":
            p.add_argument(f"--{key}", dest=f"{sec}.{key}", help=knobs.describe(f))


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="INI config file (flags override its keys)")
    _add_key_flags(p, "experiment")
    p.add_argument("--no-timing", dest="experiment.timing", action="store_const", const="false",
                   help="write planner-cost columns as 0.0 so output bytes are fully reproducible")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymloc",
        description="Robust range/bearing target search simulator: asymmetric "
                    "one-sided filtering, observability diagnostics, active planners.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a filter x planner grid and write CSVs")
    _add_common_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="run the grid once per parameter value")
    _add_common_flags(sweep_p)
    _add_key_flags(sweep_p, "sweep")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict[str, dict[str, str]] = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = value
    text = Path(args.config).read_text() if args.config is not None else ""
    return parse_config(text, overrides)


def _output_dir(cfg: ExperimentConfig) -> Path:
    """The output directory, created, with the resolved config written to it."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(dump_config(cfg))
    return out


def cmd_run(cfg: ExperimentConfig) -> int:
    out = _output_dir(cfg)
    cells = list(run_grid(cfg).values())
    for cell in cells:
        path = out / f"{cell.filter_kind}_{cell.planner_kind}.csv"
        write_cell_csv(path, cell.metrics, seed=cfg.scenario.seed, preset=cfg.preset)
    print(format_table(*write_summary_csv(out / "summary.csv", cells, seed=cfg.scenario.seed,
                                          preset=cfg.preset)))
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep requires a [sweep] config section or --parameter/--values")
    out = _output_dir(cfg)
    rows = sweep(cfg.sweep.parameter, cfg.sweep.values, cfg)
    path = out / f"sweep_{cfg.sweep.parameter}.csv"
    print(format_table(*write_sweep_csv(path, cfg.sweep.parameter, rows,
                                        seed=cfg.scenario.seed, preset=cfg.preset)))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_sweep(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
