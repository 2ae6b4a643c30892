import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from projsplit import cli
from projsplit.checks import CheckResult


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
CONFIG_TRACE_SHA256 = {
    "lasso": "d51bbe7602994a76d7ba2ce175b8ff6e71dda88e8e56952684c2fc9af0db9899",
    "lasso_inexact": "dd3e4024a341f958c27b6104bd5ccdaa46d5d98cb3ee621bcdafc2ad8a738372",
    "signed_sqrt": "c3341b56362015a898435f02bda6c59a053b9ecc64fef90d412f4bbf3705df7b",
    "box_cubic_async": "17ca0f8dc19cc7ebbdd5581c18ac4cb1f9d786c8dca762e572d863910afc1325",
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
                 "projection", "error-bounds", "coverage", "staleness"):
        assert name in out
    assert "all checks passed" in out


def test_verify_signed_sqrt_linesearch_stays_finite(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": {"kind": "signed_sqrt", "dim": 3},
                                  "engine": {"max_iters": 5000}})
    assert cli.main(["verify", "--config", cfg]) == 0


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
    proc = subprocess.run([sys.executable, "-m", "projsplit", "run", "--config", cfg,
                           "--out", str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "summary.json").exists()
