import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projsplit
from projsplit import cli, problems
from projsplit.checks import CheckResult
from test_engine import (cube_overflow_problem, doubled_forward_problem, doubled_prox_problem,
                         overflow_problem)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


LASSO_SMALL = {"problem": {"kind": "lasso", "m": 8, "d": 12, "seed": 3},
               "engine": {"max_iters": 3000}}


def test_run_writes_trace_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, LASSO_SMALL)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0

    trace_lines = (out / "trace.csv").read_text().splitlines()
    header, rows = trace_lines[0], trace_lines[1:]
    footer = [l for l in rows if l.startswith("#")]
    rows = [l for l in rows if not l.startswith("#")]
    assert header.startswith("iter,phi,pi,alpha,max_primal_residual,max_dual_residual,bt_1")
    assert len(rows) >= 1
    assert any("status,converged" in l for l in footer)
    assert any(f"iterations,{len(rows)}" in l for l in footer)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["iterations"] == len(rows)
    assert summary["max_primal_residual"] <= 1e-6
    assert len(summary["z"]) == 12
    assert summary["wall_time_s"] > 0


def test_run_budget_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"problem": {"kind": "lasso", "m": 8, "d": 12},
                                  "engine": {"max_iters": 0}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_run_capability_mismatch_is_usage_error(tmp_path, capsys):
    # the cubic drift has no resolvent: placing it among the backward blocks
    # must fail validation before any iteration runs
    cfg = write_config(tmp_path, {"problem": {"kind": "box_cubic", "forward_blocks": [2]}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert cli.main([]) == 1  # missing subcommand
    assert cli.main(["run"]) == 1  # missing --config
    assert cli.main(["run", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1
    unknown = write_config(tmp_path, {"problem": {"kind": "ridge"}}, "u.json")
    assert cli.main(["run", "--config", unknown, "--out", str(tmp_path)]) == 1


def test_trace_is_byte_deterministic(tmp_path):
    doc = {"problem": {"kind": "box_cubic"},
           "schedule": {"kind": "seeded-random", "p_select": 0.5, "M": 5, "D": 3,
                        "delay_kind": "seeded-random"},
           "engine": {"max_iters": 400},
           "seed": 13}
    cfg = write_config(tmp_path, doc)
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
           (tmp_path / "b" / "trace.csv").read_bytes()


# sha256 of trace.csv for each example config (x86_64, numpy 2.4, OpenBLAS).
# The trace records phi, pi, alpha, residuals and stepsizes at full
# precision, so a change of arithmetic changes the hash; a change that does
# so on purpose updates the value here and says why.
# Last update: the linesearch skips, unevaluated, the trials above
# 1/(delta + modulus), which must fail. Only the backtrack columns of the
# three configs whose forward operator has modulus 1 changed (lasso 317
# rows, lasso_inexact 814, signed_sqrt 1); every other column and
# box_cubic_async's whole trace kept their bytes.
CONFIG_TRACE_SHA256 = {
    "lasso": "b2af53a9278a447f8512633bcd838faf6fd0d35e1765a4cfebdbc7781e79dd44",
    "lasso_inexact": "2c80a951191d540b27769f7303fa12506178755dc8435b19a78f68a47ca650ca",
    "signed_sqrt": "70d8447b2997d264d0f72dbe7c30e10c896008310f859a6470e97e8b2754f74d",
    "box_cubic_async": "a2ddadf46d5d86d145be55a51443ef229b9ab5d0e2b115ff23a61659554789bd",
}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.bits
@pytest.mark.parametrize("name", sorted(CONFIG_TRACE_SHA256))
def test_example_config_traces_are_unchanged(tmp_path, name):
    assert cli.main(["run", "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == CONFIG_TRACE_SHA256[name]


def test_seed_override_changes_the_run(tmp_path):
    doc = {"problem": {"kind": "box_cubic"},
           "schedule": {"kind": "seeded-random", "p_select": 0.5, "M": 5},
           "engine": {"max_iters": 50}}
    cfg = write_config(tmp_path, doc)
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed-override", "99"])
    assert (tmp_path / "a" / "trace.csv").read_bytes() != \
           (tmp_path / "b" / "trace.csv").read_bytes()


def test_verify_passes_on_lasso(tmp_path, capsys):
    cfg = write_config(tmp_path, LASSO_SMALL)
    assert cli.main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    for name in ("separation", "fejer", "pi-identity", "update-identity",
                 "projection", "error-bounds", "stepsize-bound", "coverage", "staleness"):
        assert name in out
    assert "all checks passed" in out


def test_verify_passes_on_a_skew_instance_solved_at_the_origin(tmp_path, capsys):
    # seed 7 at these dims has z* = 0 under a G2 taller than z; it exited 1
    # once the next 7 seeds failed the oracle too
    cfg = write_config(tmp_path, {"problem": {"kind": "skew_composed", "seed": 7,
                                              "dims": [2, 2, 7]}})
    assert cli.main(["verify", "--config", cfg]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_verify_signed_sqrt_linesearch_stays_finite(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": {"kind": "signed_sqrt", "dim": 3},
                                  "engine": {"max_iters": 5000}})
    assert cli.main(["verify", "--config", cfg]) == 0


@pytest.mark.parametrize("make_spec", [overflow_problem, cube_overflow_problem],
                         ids=["diagonal", "cube"])
def test_overflow_exits_3_with_a_message(tmp_path, capsys, monkeypatch, make_spec):
    # a NaN/Inf met in a run is an assumption violation, not a traceback
    monkeypatch.setitem(problems.PROBLEMS, "overflow", (lambda params: (make_spec(), None), ""))
    cfg = write_config(tmp_path, {"problem": {"kind": "overflow"}, "engine": {"max_iters": 5}})
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    out, err = capsys.readouterr()
    assert "assumption-violation after 0 iterations" in out
    assert err.startswith("assumption-violation: iteration 1, block 0 (operator ")
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["status"] == "assumption-violation"
    # verify's checks pass on the iterations that completed; the run's status decides
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["verify", "--config", cfg]) == 3


@pytest.mark.parametrize("make_spec", [doubled_forward_problem, doubled_prox_problem],
                         ids=["forward", "prox"])
def test_wrong_shaped_operator_output_exits_3(tmp_path, capsys, monkeypatch, make_spec):
    # an operator returning concat(x, x) ends the run in a status, not a ShapeError traceback
    monkeypatch.setitem(problems.PROBLEMS, "doubled", (lambda params: (make_spec(), None), ""))
    cfg = write_config(tmp_path, {"problem": {"kind": "doubled"}, "engine": {"max_iters": 5}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    out, err = capsys.readouterr()
    assert "assumption-violation after 0 iterations" in out
    assert err == ("assumption-violation: iteration 1, block 0 (operator 'doubling'): "
                   "expected 2 entries, got array of shape (4,)\n")
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["status"] == "assumption-violation"
    assert cli.main(["verify", "--config", cfg]) == 3


@pytest.mark.parametrize("problem", [{"kind": "lasso", "d": 0}, {"kind": "box_cubic", "dim": 0},
                                     {"kind": "lasso", "m": "x"},
                                     {"kind": "signed_sqrt", "dim": -1}],
                         ids=["lasso-d", "box_cubic-dim", "lasso-m", "signed_sqrt-dim"])
def test_bad_problem_parameter_exits_1(tmp_path, capsys, problem):
    # unvalidated, these would escape cli.main as ValueError/ShapeError tracebacks
    cfg = write_config(tmp_path, {"problem": problem})
    for command in (["run", "--config", cfg, "--out", str(tmp_path / "o")],
                    ["verify", "--config", cfg]):
        assert cli.main(command) == 1
        assert capsys.readouterr().err.startswith("error: problem parameter ")


def test_a_problem_too_large_to_build_exits_1(tmp_path, capsys, monkeypatch):
    # these escaped cli.main as ValueError and MemoryError tracebacks
    def exhausted(params):
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.setitem(problems.PROBLEMS, "exhausted", (exhausted, ""))
    for problem in ({"kind": "lasso", "m": 2 ** 40, "d": 2 ** 40}, {"kind": "exhausted"}):
        cfg = write_config(tmp_path, {"problem": problem})
        for command in (["run", "--config", cfg, "--out", str(tmp_path / "o")],
                        ["verify", "--config", cfg]):
            assert cli.main(command) == 1
            assert capsys.readouterr().err.startswith(
                f"error: problem '{problem['kind']}' cannot be built from these parameters: ")


def test_a_lasso_oracle_that_stalls_exits_1(tmp_path, capsys):
    # the oracle ran 500,000 iterations (about 9 s) before this exit
    cfg = write_config(tmp_path, {"problem": {"kind": "lasso", "lam_factor": 1e-10}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: lasso oracle did not reach its gradient-map tolerance")


BOX_ASYNC = {"problem": {"kind": "box_cubic"}, "engine": {"max_iters": 50},
             "schedule": {"kind": "seeded-random", "delay_kind": "seeded-random", "D": 2}}
# (section or None for the top level, field, value); each escaped cli.main as a
# traceback, ran to a misleading status or was accepted before fields were validated
BAD_FIELDS = [
    ("schedule", "seed", -1), (None, "seed", -1), ("errors", "seed", -3),
    ("errors", "magnitude", float("inf")), ("errors", "magnitude", float("nan")),
    ("schedule", "M", True),
    ("errors", "mode", "none"), ("engine", "gamma", float("inf")),
    ("engine", "max_iters", True), ("engine", "max_backtracks", True),
    ("engine", "delta", float("inf")),
]


@pytest.mark.parametrize("section, name, value", BAD_FIELDS,
                         ids=[f"{s or 'top'}-{n}-{v}" for s, n, v in BAD_FIELDS])
def test_bad_config_field_exits_1_naming_it(tmp_path, capsys, section, name, value):
    doc = json.loads(json.dumps(BOX_ASYNC))
    doc["errors"] = {"mode": "seeded-random", "sigma": 0.5, "magnitude": 0.1}
    (doc if section is None else doc[section])[name] = value
    cfg = write_config(tmp_path, doc)
    for command in (["run", "--config", cfg, "--out", str(tmp_path / "o")],
                    ["verify", "--config", cfg]):
        assert cli.main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("field, value, allowed", [("kind", "round-robin", "full/seeded-random"),
                                                   ("delay_kind", "fixed", "zero/seeded-random")])
def test_unknown_schedule_kind_exits_1_naming_the_allowed_ones(tmp_path, capsys, field, value,
                                                                allowed):
    doc = json.loads(json.dumps(BOX_ASYNC))
    doc["schedule"][field] = value
    cfg = write_config(tmp_path, doc)
    for command in (["run", "--config", cfg, "--out", str(tmp_path / "o")],
                    ["verify", "--config", cfg]):
        assert cli.main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and allowed in err


def test_negative_seed_override_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BOX_ASYNC)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--seed-override", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed ")


def test_verify_reports_failures_with_exit_4(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, LASSO_SMALL)

    def fake_run_with_checks(*args, **kwargs):
        from projsplit.engine import RunTrace
        trace = RunTrace(status="converged", iterations=10, records=[], solution=None,
                         final_point=None)
        return trace, [CheckResult("fejer", False, worst=0.5, first_failure=7)]

    monkeypatch.setattr(cli, "run_with_checks", fake_run_with_checks)
    assert cli.main(["verify", "--config", cfg]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out and "7" in out


def test_list_problems(capsys):
    assert cli.main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for kind in ("lasso", "box_cubic", "signed_sqrt", "skew_composed"):
        assert kind in out


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, {"problem": {"kind": "box_cubic"},
                                  "engine": {"max_iters": 500}})
    # the child finds the package where this process imported it from
    src = str(Path(projsplit.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "projsplit", "run", "--config", cfg,
                           "--out", str(tmp_path / "o")], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "summary.json").exists()
