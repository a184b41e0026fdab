"""Experiment configuration: flat INI-style text with typed validation.

A config names a scenario preset (``[experiment] preset``) and optionally
overrides any knob in the ``[experiment]``, ``[scenario]``, ``[filter]``,
``[planner]`` or ``[sweep]`` sections. The keys are not listed here: each
is a dataclass field declared with :func:`asymloc.knobs.knob` on
:class:`ExperimentConfig` (and the :class:`GridSpec` it extends),
:class:`Scenario`, :class:`FilterParams`, :class:`PlannerConfig` or
:class:`SweepSpec`, whose metadata gives its section, key, text kind and
bounds. Every value is validated on parse with its full ``section.key``
path in the error message, and :func:`dump_config` writes back the fully
resolved state, so a dumped config replays the exact experiment. The CLI's
flags are the ``[experiment]`` and ``[sweep]`` keys, passed to
:func:`parse_config` as overrides.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
from dataclasses import dataclass
from typing import Mapping, Optional

from . import knobs
from .experiment import SWEEP_PARAMETERS, GridSpec, _swept
from .filters import FilterParams
from .planners import PlannerConfig
from .sim_env import PRESETS, Scenario


class ConfigError(ValueError):
    """Malformed or out-of-range experiment configuration."""


@dataclass(frozen=True)
class SweepSpec:
    parameter: str = knobs.knob(section="sweep", kind="name", choices=SWEEP_PARAMETERS)
    values: tuple[float, ...] = knobs.knob(section="sweep", kind="floats")

    def __post_init__(self):
        knobs.check(self)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(GridSpec):
    """Fully resolved experiment: the grid (its scenario carries seed and
    steps) plus the preset it started from and where its output goes. Every
    sweep value must fit the knob it sweeps (:class:`ConfigError`)."""

    preset: str = knobs.knob(section="experiment", kind="name", choices=tuple(sorted(PRESETS)))
    out_dir: str = knobs.knob("results", "experiment", key="out")
    sweep: Optional[SweepSpec] = None

    def __post_init__(self):
        super().__post_init__()
        # every sweep value must fit its target knob before the first one runs
        for v in self.sweep.values if self.sweep is not None else ():
            try:
                _swept(self, self.sweep.parameter, v)
            except ValueError as exc:
                raise ConfigError(f"sweep.values: {exc}") from None


# (section, key) -> (owning dataclass, field)
SCHEMA = {(f.metadata["section"], knobs.key(f)): (cls, f)
          for cls in (ExperimentConfig, Scenario, FilterParams, PlannerConfig, SweepSpec)
          for f in knobs.config_fields(cls)}
_SECTIONS = tuple(dict.fromkeys(s for s, _ in SCHEMA))


def parse_config(text: str,
                 overrides: Optional[Mapping[str, Mapping[str, str]]] = None) -> ExperimentConfig:
    """Parse and validate config text into a resolved :class:`ExperimentConfig`.

    The ``experiment.preset`` key is required; every other key falls back
    to the preset / library defaults. ``overrides`` maps section to raw
    key/value text that replaces the text's own keys and is validated the
    same way. An overriding preset that differs from the text's discards
    the text's ``[scenario]`` section, which was written against the old
    preset; its seed, steps and other sections are kept.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    overrides = overrides or {}
    preset = overrides.get("experiment", {}).get("preset")
    if preset is not None and preset != cp.get("experiment", "preset", fallback=preset):
        cp.remove_section("scenario")
    cp.read_dict(overrides)

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]; expected one of {_SECTIONS}")
    if not cp.has_option("experiment", "preset"):
        others = ",".join(k for s, k in SCHEMA if s == "experiment")
        raise ConfigError(
            f"missing required key experiment.preset (one of {sorted(PRESETS)}); other accepted "
            f"keys: experiment.{{{others}}} plus [scenario]/[filter]/[planner]/[sweep] overrides")

    given: dict[type, dict] = {cls: {} for cls, _ in SCHEMA.values()}
    for section in cp.sections():
        for key, raw in cp.items(section):
            if (section, key) not in SCHEMA:
                raise ConfigError(f"unknown key {section}.{key}")
            cls, f = SCHEMA[section, key]
            try:
                given[cls][f.name] = knobs.parse(f, raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from None

    try:
        scenario = dataclasses.replace(PRESETS[given[ExperimentConfig]["preset"]],
                                       **given[Scenario])
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None
    sweep = None
    if cp.has_section("sweep"):
        for f in dataclasses.fields(SweepSpec):
            if f.name not in given[SweepSpec]:
                raise ConfigError(f"missing required key sweep.{knobs.key(f)}")
        sweep = SweepSpec(**given[SweepSpec])
    return ExperimentConfig(scenario=scenario, filter_params=FilterParams(**given[FilterParams]),
                            planner_cfg=PlannerConfig(arena=scenario.arena, **given[PlannerConfig]),
                            sweep=sweep, **given[ExperimentConfig])


def dump_config(cfg: ExperimentConfig) -> str:
    """Render the fully resolved config back to INI text.

    Round-trips exactly: ``parse_config(dump_config(cfg)) == cfg``.
    """
    cp = configparser.ConfigParser(interpolation=None)
    for part in (cfg, cfg.scenario, cfg.filter_params, cfg.planner_cfg, cfg.sweep):
        for f in knobs.config_fields(part) if part is not None else ():
            section = f.metadata["section"]
            if not cp.has_section(section):
                cp.add_section(section)
            cp[section][knobs.key(f)] = knobs.dump(f, getattr(part, f.name))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
