"""Run configuration: a JSON document mapping onto the dataclass configs.

Schema (all sections optional except ``problem``):

    {
      "problem":  {"kind": "lasso", ...builder params...,
                   "forward_blocks": [1]        # optional partition override
                  },
      "engine":   { any EngineConfig field },
      "schedule": { any SchedulePolicy field },
      "errors":   {"sigma": 0.0, "mode": "none", "magnitude": 0.0, "seed": ...},
      "seed":     0
    }

Every section is a JSON object, and ``kind`` a string. Omitted fields take
the documented defaults. Seeds are integers >= 0. A
schedule's ``kind`` is "full" or "seeded-random" and its ``delay_kind``
"zero" or "seeded-random".
When ``schedule.seed`` or ``errors.seed`` are omitted they derive from the
top-level seed (seed and seed+1), so one number reproduces a whole run.
Unknown keys are rejected by name, and a field of the wrong type or out of
range is a ``ConfigError`` that names it, raised when its section is built.
``pi_zero_eps`` and ``quickstop_eps`` are constants of :class:`EngineConfig`,
not keys; the engine does not read ``quickstop_eps``, only the benchmark's
numpy baseline does. All run state lives in the file; there are no
environment overrides.
``projsplit run`` writes ``trace.csv`` and ``summary.json`` into its ``--out``
directory; no key names or moves them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .engine import EngineConfig
from .errors import ConfigError, checked_integer
from .operators import ErrorPolicy
from .scheduler import SchedulePolicy


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration.

    ``problem_params`` is kept as a read-only mapping over a copy of the
    given one. It takes part in equality but not in the hash, so a config
    hashes although its parameters (lists among them) do not.
    """

    problem_kind: str
    problem_params: Mapping = field(default_factory=dict, hash=False)
    engine: EngineConfig = field(default_factory=EngineConfig)
    schedule: SchedulePolicy = field(default_factory=SchedulePolicy)
    errors: ErrorPolicy = field(default_factory=ErrorPolicy)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "problem_params", MappingProxyType(dict(self.problem_params)))

    def with_overrides(self, seed: int | None = None,
                       max_iters: int | None = None) -> "RunConfig":
        """Command-line overrides; a new seed re-derives the section seeds."""
        cfg = self
        if seed is not None:
            seed = checked_integer("seed", seed, lo=0)
            cfg = dataclasses.replace(
                cfg, seed=seed,
                schedule=dataclasses.replace(cfg.schedule, seed=seed),
                errors=dataclasses.replace(cfg.errors, seed=seed + 1))
        if max_iters is not None:
            cfg = dataclasses.replace(cfg, engine=dataclasses.replace(cfg.engine,
                                                                      max_iters=max_iters))
        return cfg


_ENGINE_FIELDS = {f.name for f in dataclasses.fields(EngineConfig)}
_SCHEDULE_FIELDS = {f.name for f in dataclasses.fields(SchedulePolicy)}
_ERROR_FIELDS = {f.name for f in dataclasses.fields(ErrorPolicy)}
_TOP_KEYS = {"problem", "engine", "schedule", "errors", "seed"}


def _reject_unknown(section: Mapping, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _section(data: Mapping, name: str, allowed: set | None = None) -> dict:
    """A copy of the JSON object ``data[name]`` ({} when absent), with its keys checked."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {section!r}")
    if allowed is not None:
        _reject_unknown(section, allowed, f"'{name}'")
    return dict(section)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "configuration")

    problem = _section(data, "problem")
    if "kind" not in problem:
        raise ConfigError("configuration needs a 'problem' object with a 'kind'")
    kind = problem.pop("kind")
    if not isinstance(kind, str):
        raise ConfigError(f"problem 'kind' must be a string, got {kind!r}")

    seed = checked_integer("seed", data.get("seed", 0), lo=0)

    engine_section = _section(data, "engine", _ENGINE_FIELDS)
    schedule_section = _section(data, "schedule", _SCHEDULE_FIELDS)
    schedule_section.setdefault("seed", seed)
    errors_section = _section(data, "errors", _ERROR_FIELDS)
    errors_section.setdefault("seed", seed + 1)
    try:
        engine = EngineConfig(**engine_section)
        schedule = SchedulePolicy(**schedule_section)
        errors = ErrorPolicy(**errors_section)
    except TypeError as exc:  # e.g. a string where a number belongs
        raise ConfigError(f"bad value type in configuration: {exc}") from exc

    return RunConfig(problem_kind=kind, problem_params=problem, engine=engine,
                     schedule=schedule, errors=errors, seed=seed)

