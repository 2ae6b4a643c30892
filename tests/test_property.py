"""Every valid configuration on the built-ins ends in a documented status.

Extreme stepsizes and metric weights may overflow, stall or converge; what
they must not do is escape ``run()`` or ``cli.main`` as a traceback.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from projsplit import ConfigError, build, cli, parse_config, run

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
