"""The benchmark's reduced-size smoke run, as a test of the solver's names.

``perfbench/tracing.py`` wraps solver functions it looks up by name (such
as ``projsplit.engine.separator_gradient``), so renaming one breaks the
traced benchmark; this test makes that a suite failure.

The benchmark also counts resolvent evaluations by wrapping the module
attribute ``projsplit.operators.prox_eval``, so every prox evaluation of a
run has to go through that name. The pinned counts below are those of two
of its workloads; a solver that bypassed the name would read 0 prox
evaluations here, as the benchmark would.
"""

import subprocess
import sys
from pathlib import Path

from projsplit import (EngineConfig, ErrorPolicy, SchedulePolicy, make_signed_sqrt,
                       make_skew_composed, operators, run, run_with_checks)

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]


def _counts(monkeypatch, solve):
    """(iterations, forward_evals, prox_evals) of ``solve()``'s trace, counted as perfbench does."""
    calls = [0]
    original = operators.prox_eval

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(operators, "prox_eval", counted)
    trace, spec = solve()
    assert trace.status == "converged"
    forward = sum(1 + rec.backtracks[i] for rec in trace.records
                  for i in rec.selected if i in spec.forward_blocks)
    return trace.iterations, forward, calls[0]


def test_nonlip_linesearch_counts(monkeypatch):
    spec, _ = make_signed_sqrt([0.0] * 4)
    counts = _counts(monkeypatch, lambda: (run(spec, EngineConfig(max_iters=20000)), spec))
    assert counts == (619, 1870, 619)


def test_async_inexact_verify_counts(monkeypatch):
    spec, ref = make_skew_composed(1234, (8, 6, 10))
    schedule = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                              delay_kind="seeded-random", seed=0)
    errors = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=1)

    def solve():
        trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=20000), schedule,
                                         errors)
        assert all(r.passed for r in results)
        return trace, spec

    assert _counts(monkeypatch, solve) == (2059, 2953, 16762)
