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

import pytest

from projsplit import (EngineConfig, ErrorPolicy, SchedulePolicy, engine, make_signed_sqrt,
                       make_skew_composed, operators, run, run_with_checks)

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
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


@pytest.mark.bits
def test_nonlip_linesearch_counts(monkeypatch):
    spec, _ = make_signed_sqrt([0.0] * 4)
    counts = _counts(monkeypatch, lambda: (run(spec, EngineConfig(max_iters=20000)), spec))
    # 1,870 forward evaluations when the first search tried rho = 1 > 1/(delta + 1)
    assert counts == (619, 1869, 619)


def _async_inexact_verify():
    """The async_inexact_verify instance solved at seed 0: (trace, spec)."""
    spec, ref = make_skew_composed(1234, (8, 6, 10))
    schedule = SchedulePolicy(kind="seeded-random", p_select=0.5, M=5, D=3,
                              delay_kind="seeded-random", seed=0)
    errors = ErrorPolicy(sigma=0.5, mode="seeded-random", magnitude=0.1, seed=1)
    trace, results = run_with_checks(spec, ref, EngineConfig(max_iters=20000), schedule, errors)
    assert all(r.passed for r in results)
    return trace, spec


@pytest.mark.bits
def test_async_inexact_verify_counts(monkeypatch):
    assert _counts(monkeypatch, _async_inexact_verify) == (2011, 2761, 2300)


def test_error_searches_test_each_scale_through_the_name_perfbench_wraps(monkeypatch):
    # perfbench times operators.error_gaps by wrapping the module attribute
    # projsplit.operators.error_inequality_gaps, so an error search must test
    # each resolvent evaluation through it; only the zero fallback's
    # evaluation is untested. The monitor's check binds the function at
    # import and is not counted here, as perfbench does not span it
    events, fallbacks = [], [0]
    prox, gaps, inject = operators.prox_eval, operators.error_inequality_gaps, engine.inject_error

    def counted_prox(*args):
        events.append("prox")
        return prox(*args)

    def counted_gaps(*args):
        events.append("gaps")
        return gaps(*args)

    def counted_inject(*args):
        e, result, k = inject(*args)
        fallbacks[0] += not e.any()  # a drawn direction is nonzero, so e = 0 is the fallback
        return e, result, k

    monkeypatch.setattr(operators, "prox_eval", counted_prox)
    monkeypatch.setattr(operators, "error_inequality_gaps", counted_gaps)
    monkeypatch.setattr(engine, "inject_error", counted_inject)
    trace, _ = _async_inexact_verify()
    assert trace.status == "converged"
    searched = events.count("prox") - fallbacks[0]
    assert events.count("gaps") == searched > 0
    # each test follows the evaluation it tests
    assert all(events[j - 1] == "prox" for j, ev in enumerate(events) if ev == "gaps")
