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
# Last update: the warm-started linesearch. On lasso, lasso_inexact and
# box_cubic_async only the bt_1 column changed (the iterates are bitwise the
# same); signed_sqrt follows a new trajectory (619 iterations, was 1458).
CONFIG_TRACE_SHA256 = {
    "lasso": "74de62c4c75f863b4d3a61179e2896cd69f5cc2a93c4e3b9dbd133a29ca6379b",
    "lasso_inexact": "e503383ac1e42aa463cb107db0f9db3678fe96a2e9326311d6f044e63b3a9595",
    "signed_sqrt": "b84ec6e7c9c51f16cbab6dc5cfab606186d1708d9abfd751e789327f5cdf7c32",
    "box_cubic_async": "79da505c73d0cc27d362d968c47a3a1632644b598dd10578b18cbc03d9728492",
}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
