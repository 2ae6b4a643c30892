"""Every valid configuration on the built-ins ends in a documented status.

Extreme stepsizes and metric weights may overflow, stall or converge; what
they must not do is escape ``run()`` or ``cli.main`` as a traceback. An
invalid problem parameter, or an invalid engine, schedule, error or seed
field, is a ``ConfigError`` that names it, and ``projsplit run`` exits 1
with ``error:``.
"""

import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projsplit import (ConfigError, EngineConfig, ErrorPolicy, SchedulePolicy, build, cli,
                       parse_config, run)

STATUS_EXIT = {"converged": 0, "exact-termination": 0, "budget": 2, "assumption-violation": 3}


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


PROBLEMS = st.one_of(
    st.builds(lambda seed, m, d: {"kind": "lasso", "seed": seed, "m": m, "d": d},
              st.integers(0, 9), st.integers(1, 6), st.integers(1, 8)),
    st.builds(lambda seed, dim: {"kind": "box_cubic", "seed": seed, "dim": dim},
              st.integers(0, 9), st.integers(1, 4)),
    st.builds(lambda dim, c: {"kind": "signed_sqrt", "dim": dim, "c": c},
              st.integers(1, 4), st.floats(-4.0, 4.0)),
    st.builds(lambda seed, dims: {"kind": "skew_composed", "seed": seed, "dims": list(dims)},
              st.integers(0, 5), st.tuples(*[st.integers(1, 4)] * 3)),
)
SCHEDULES = st.sampled_from([{}, {"kind": "seeded-random", "p_select": 0.5, "D": 2,
                                  "delay_kind": "seeded-random"}])
ERRORS = st.sampled_from([{}, {"sigma": 0.5, "mode": "seeded-random", "magnitude": 0.1}])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(problem=PROBLEMS, rho=log_uniform(-300, 300), gamma=log_uniform(-8, 8),
       max_iters=st.integers(0, 100), schedule=SCHEDULES, errors=ERRORS,
       seed=st.integers(0, 99))
def test_run_and_cli_end_in_a_documented_status(problem, rho, gamma, max_iters, schedule,
                                                errors, seed):
    doc = {"problem": problem, "engine": {"rho_init": rho, "gamma": gamma,
                                          "max_iters": max_iters},
           "schedule": schedule, "errors": errors, "seed": seed}
    cfg = parse_config(json.dumps(doc))
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", "--config", str(path), "--out", tmp])
        try:
            spec, _ = build(cfg.problem_kind, cfg.problem_params)
        except ConfigError:  # e.g. no well-posed skew instance at these dims
            assert code == 1
            return
        trace = run(spec, cfg.engine, cfg.schedule, cfg.errors)
    assert trace.status in STATUS_EXIT
    assert code == STATUS_EXIT[trace.status]


NAN, INF = float("nan"), float("inf")
# invalid values per parameter type
INVALID = {
    "size": [0, -1, 2.5, "x", None, True, NAN, INF, [3]],
    "seed": [-1, 2.5, "x", None, True, NAN],
    "positive": [0, -1.0, -INF, INF, NAN, "x", None, True],
    "real": [INF, -INF, NAN, "x", None, True],
}
PARAMETERS = {
    "lasso": {"seed": "seed", "m": "size", "d": "size", "lam_factor": "positive"},
    "box_cubic": {"seed": "seed", "dim": "size"},
    "signed_sqrt": {"dim": "size", "c": "real"},
    "skew_composed": {"seed": "seed", "dims": "size", "lam": "positive"},
}


@st.composite
def bad_problems(draw):
    """A drawn problem with one parameter replaced by an invalid value, and that name."""
    problem = dict(draw(PROBLEMS))
    types = PARAMETERS[problem["kind"]]
    name = draw(st.sampled_from(sorted(types)))
    value = draw(st.sampled_from(INVALID[types[name]]))
    if name == "dims":
        j = draw(st.integers(0, 2))
        problem["dims"] = [*problem["dims"][:j], value, *problem["dims"][j + 1:]]
        name = f"dims[{j}]"
    else:
        problem[name] = value
    return problem, name


@settings(max_examples=40, derandomize=True, deadline=None)
@given(drawn=bad_problems())
def test_invalid_problem_parameters_are_config_errors(drawn):
    problem, name = drawn
    params = {k: v for k, v in problem.items() if k != "kind"}
    with pytest.raises(ConfigError, match=re.escape(f"problem parameter '{name}'")):
        build(problem["kind"], params)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({"problem": problem}))
        code = cli.main(["run", "--config", str(path), "--out", tmp])
    assert code == 1
    assert err.getvalue().startswith(f"error: problem parameter '{name}'")


# invalid values per configuration field type; every field's default is valid
INVALID_FIELD = {
    "count": [-1, 2.5, "x", None, True, NAN, INF, [3]],  # integer >= 0
    "size": INVALID["size"],  # integer >= 1
    "window": [0, -1, 2.5, "x", True, NAN, INF, [3]],  # integer >= 1 or None
    "seed": INVALID["seed"],
    "positive": INVALID["positive"],
    "nonnegative": [-1.0, -INF, INF, NAN, "x", None, True],
    "real": INVALID["real"],
    "relaxation": [0, -0.5, 2, 2.5, INF, NAN, "x", None, True],  # (0, 2)
    "open_unit": [0, -0.5, 1.5, INF, NAN, "x", None, True],  # (0, 1)
    "half_open_unit": [-0.1, 1.0, INF, NAN, "x", None, True],  # [0, 1)
    "probability": [0, -0.5, 1.5, INF, NAN, "x", None, True],  # (0, 1]
}
# (section or None for the top level, field) -> type
FIELDS = {
    ("engine", "gamma"): "positive", ("engine", "beta"): "relaxation",
    ("engine", "nu"): "open_unit", ("engine", "delta"): "positive",
    ("engine", "max_backtracks"): "size", ("engine", "rho_init"): "positive",
    ("engine", "tol_primal"): "positive", ("engine", "tol_dual"): "positive",
    ("engine", "max_iters"): "count",
    ("schedule", "p_select"): "probability", ("schedule", "M"): "window",
    ("schedule", "D"): "count",
    ("schedule", "seed"): "seed",
    ("errors", "sigma"): "half_open_unit", ("errors", "magnitude"): "nonnegative",
    ("errors", "seed"): "seed",
    (None, "seed"): "seed",
}


@st.composite
def bad_configs(draw):
    """A valid drawn run configuration with one field replaced by an invalid value."""
    doc = {"problem": draw(PROBLEMS), "schedule": dict(draw(SCHEDULES)),
           "errors": dict(draw(ERRORS)), "engine": {"max_iters": 5}}
    section, name = draw(st.sampled_from(sorted(FIELDS, key=str)))
    value = draw(st.sampled_from(INVALID_FIELD[FIELDS[section, name]]))
    (doc if section is None else doc[section])[name] = value
    return doc, name


@settings(max_examples=60, derandomize=True, deadline=None)
@given(drawn=bad_configs())
def test_invalid_config_fields_are_config_errors(drawn):
    doc, name = drawn
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        parse_config(json.dumps(doc))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", "--config", str(path), "--out", tmp])
    assert code == 1
    assert err.getvalue().startswith("error: ")
    assert re.search(rf"\b{name}\b", err.getvalue())


# JSON values of every type, small enough that no draw allocates much: a
# size or count is at most 50, and a list or object at most 5 items
FLOAT_VALUES = [0.0, -1.0, 0.5, 2.0, 50.0, 1e308, -1e308, INF, -INF, NAN]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.sampled_from(FLOAT_VALUES)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner,
                                                               max_size=5),
    max_leaves=10)
SECTION_FIELDS = {"engine": EngineConfig, "schedule": SchedulePolicy, "errors": ErrorPolicy}


@st.composite
def configs_with_one_json_value(draw):
    """A valid configuration with one section, or one key of a section, set to a JSON value."""
    kind = draw(st.sampled_from(sorted(PARAMETERS)))
    doc = {"problem": {"kind": kind}, "engine": {"max_iters": 5},
           "schedule": dict(draw(SCHEDULES)), "errors": dict(draw(ERRORS)), "seed": 0}
    places = [(None, name) for name in doc]
    places += [("problem", key) for key in ("kind", "forward_blocks", *PARAMETERS[kind])]
    places += [(section, f.name) for section, cls in SECTION_FIELDS.items()
               for f in dataclasses.fields(cls)]
    section, key = draw(st.sampled_from(places))
    (doc if section is None else doc[section])[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=configs_with_one_json_value())
def test_any_json_value_anywhere_ends_in_an_exit_code(doc):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", "--config", str(path), "--out", tmp])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
