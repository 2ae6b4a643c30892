"""Run configuration: a JSON document mapping onto the dataclass configs.

Schema (all sections optional except ``problem``):

    {
      "problem":  {"kind": "lasso", ...builder params...,
                   "forward_blocks": [1]        # optional partition override
                  },
      "engine":   { any EngineConfig field },
      "schedule": { any SchedulePolicy field },
      "errors":   {"sigma": 0.0, "mode": "none", "magnitude": 0.0, "seed": ...},
      "seed":     0,
      "output":   {"trace": "trace.csv", "summary": "summary.json"}
    }

Omitted fields take the documented defaults. Seeds are integers >= 0. A
schedule's ``kind`` is "full" or "seeded-random" and its ``delay_kind``
"zero" or "seeded-random".
When ``schedule.seed`` or ``errors.seed`` are omitted they derive from the
top-level seed (seed and seed+1), so one number reproduces a whole run.
Unknown keys are rejected by name, and a field of the wrong type or out of
range is a ``ConfigError`` that names it, raised when its section is built.
``quickstop_eps`` and ``pi_zero_eps`` are constants of :class:`EngineConfig`,
not keys. All run state lives in the file; there are no environment overrides.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Mapping

from .engine import EngineConfig
from .errors import ConfigError, checked_integer
from .operators import ErrorPolicy
from .scheduler import SchedulePolicy


@dataclass(frozen=True)
class RunConfig:
    problem_kind: str
    problem_params: Mapping = field(default_factory=dict)
    engine: EngineConfig = field(default_factory=EngineConfig)
    schedule: SchedulePolicy = field(default_factory=SchedulePolicy)
    errors: ErrorPolicy = field(default_factory=ErrorPolicy)
    seed: int = 0
    trace_filename: str = "trace.csv"
    summary_filename: str = "summary.json"

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
_TOP_KEYS = {"problem", "engine", "schedule", "errors", "seed", "output"}
_OUTPUT_KEYS = {"trace", "summary"}


def _reject_unknown(section: Mapping, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "configuration")

    problem = data.get("problem")
    if not isinstance(problem, dict) or "kind" not in problem:
        raise ConfigError("configuration needs a 'problem' object with a 'kind'")
    problem = dict(problem)
    kind = problem.pop("kind")

    seed = checked_integer("seed", data.get("seed", 0), lo=0)

    engine_section = dict(data.get("engine", {}))
    _reject_unknown(engine_section, _ENGINE_FIELDS, "'engine'")
    if isinstance(engine_section.get("rho_init"), list):
        engine_section["rho_init"] = tuple(engine_section["rho_init"])
    schedule_section = dict(data.get("schedule", {}))
    _reject_unknown(schedule_section, _SCHEDULE_FIELDS, "'schedule'")
    schedule_section.setdefault("seed", seed)
    errors_section = dict(data.get("errors", {}))
    _reject_unknown(errors_section, _ERROR_FIELDS, "'errors'")
    errors_section.setdefault("seed", seed + 1)
    try:
        engine = EngineConfig(**engine_section)
        schedule = SchedulePolicy(**schedule_section)
        errors = ErrorPolicy(**errors_section)
    except TypeError as exc:  # e.g. a string where a number belongs
        raise ConfigError(f"bad value type in configuration: {exc}") from exc

    output = dict(data.get("output", {}))
    _reject_unknown(output, _OUTPUT_KEYS, "'output'")

    return RunConfig(problem_kind=kind, problem_params=problem, engine=engine,
                     schedule=schedule, errors=errors, seed=seed,
                     trace_filename=output.get("trace", "trace.csv"),
                     summary_filename=output.get("summary", "summary.json"))

