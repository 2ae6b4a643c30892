"""Metric catalogue and the per-layer figures computed from a traced run.

End-to-end metrics describe one pass over the workload's panel of
instances: ``setup_s`` is the median set-up time of one instance,
``solve_s`` the median wall time of a pass, and the counts are the pass's
totals, which repeat exactly for a given seed.

Per-layer metrics cover the traced solve calls, monitor included. A name
ending in ``_us``, ``_ms`` or ``_s`` is the mean duration of one call of
that span (``_self_us``: minus its children), except ``engine.pi_gap_us``,
which is per iteration (``separator_gradient`` plus ``gamma_norm`` inside
``engine.step``). ``_per_iter`` is a count per outer iteration and
``_per_..._update`` a count per block update. A layer that does no work on
a workload reports 0.
"""

from __future__ import annotations

import numpy as np

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("iterations", "count", "lower", 0.2),
    ("forward_evals", "count", "lower", 0.2),
    ("prox_evals", "count", "lower", 0.2),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

PER_LAYER = (
    ("engine.step_us", "us", "lower"),
    ("engine.step_self_us", "us", "lower"),
    ("engine.forward_update_us", "us", "lower"),
    ("engine.forward_update_self_us", "us", "lower"),
    ("engine.backward_update_us", "us", "lower"),
    ("engine.separator_us", "us", "lower"),
    ("engine.project_us", "us", "lower"),
    ("engine.pi_gap_us", "us", "lower"),
    ("engine.trials_per_forward_update", "count", "lower"),
    ("operators.forward_eval_us", "us", "lower"),
    ("operators.prox_eval_us", "us", "lower"),
    ("operators.inject_error_us", "us", "lower"),
    ("operators.error_gaps_us", "us", "lower"),
    ("operators.prox_evals_per_backward_update", "count", "lower"),
    ("linalg.vec_per_iter", "count", "lower"),
    ("linalg.map_apply_us", "us", "lower"),
    ("linalg.map_adjoint_us", "us", "lower"),
    ("linalg.map_calls_per_iter", "count", "lower"),
    ("linalg.map_bytes_per_iter", "B", "lower"),
    ("linalg.derived_wn_us", "us", "lower"),
    ("linalg.derived_wn_per_iter", "count", "lower"),
    ("scheduler.select_us", "us", "lower"),
    ("scheduler.delay_us", "us", "lower"),
    ("scheduler.history_us", "us", "lower"),
    ("scheduler.blocks_per_iter", "count", "higher"),
    ("scheduler.mean_staleness", "iter", "lower"),
    ("checks.monitor_us", "us", "lower"),
    ("checks.monitor_self_us", "us", "lower"),
    ("checks.audit_ms", "ms", "lower"),
    ("problems.build_s", "s", "lower"),
    ("problems.kkt_residual_s", "s", "lower"),
    ("baseline.numpy_iter_us", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# span name -> per-call metric
_PER_CALL_US = {
    "engine.step": "engine.step_us",
    "engine.forward_update": "engine.forward_update_us",
    "engine.backward_update": "engine.backward_update_us",
    "engine.separator": "engine.separator_us",
    "engine.project": "engine.project_us",
    "operators.forward_eval": "operators.forward_eval_us",
    "operators.prox_eval": "operators.prox_eval_us",
    "operators.inject_error": "operators.inject_error_us",
    "operators.error_gaps": "operators.error_gaps_us",
    "linalg.map_apply": "linalg.map_apply_us",
    "linalg.map_adjoint": "linalg.map_adjoint_us",
    "linalg.derived_wn": "linalg.derived_wn_us",
    "scheduler.select": "scheduler.select_us",
    "scheduler.delay": "scheduler.delay_us",
    "scheduler.history": "scheduler.history_us",
    "checks.monitor": "checks.monitor_us",
}
_PER_CALL_SELF_US = {
    "engine.step": "engine.step_self_us",
    "engine.forward_update": "engine.forward_update_self_us",
    "checks.monitor": "checks.monitor_self_us",
}


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(table, setup_runs, runs, solves, counts, *, baseline_iter_us,
                  overhead_frac) -> dict[str, float]:
    """Per-layer figures over the traced solves.

    ``table`` is a :class:`tracing.SpanTable`; ``setup_runs`` and ``runs``
    are the run ids of the traced set-up and of the traced solves, whose
    :class:`workloads.Solve` results are ``solves``. ``counts`` holds the
    call counters summed over those solves.
    """
    iters = sum(s.iterations for s in solves)
    fwd_evals = sum(s.forward_evals for s in solves)
    fwd_updates = sum(s.forward_updates for s in solves)
    bwd_updates = sum(s.backward_updates for s in solves)
    blocks = sum(s.blocks_selected for s in solves)
    staleness = sum(s.staleness for s in solves)

    def calls(span):
        return int(table.mask(span, runs).sum())

    def total_us(span):
        return float(table.dur[table.mask(span, runs)].sum()) / 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span, metric in _PER_CALL_US.items():
        out[metric] = _mean(table.dur[table.mask(span, runs)]) / 1e3
    for span, metric in _PER_CALL_SELF_US.items():
        out[metric] = _mean(table.self_time[table.mask(span, runs)]) / 1e3
    out["engine.pi_gap_us"] = ratio(total_us("engine.separator_gradient")
                                    + total_us("engine.gamma_norm"), iters)
    out["engine.trials_per_forward_update"] = ratio(fwd_evals - fwd_updates, fwd_updates)
    out["operators.prox_evals_per_backward_update"] = ratio(calls("operators.prox_eval"),
                                                            bwd_updates)
    out["linalg.vec_per_iter"] = ratio(counts.get("linalg.vec", 0), iters)
    out["linalg.map_calls_per_iter"] = ratio(calls("linalg.map_apply")
                                             + calls("linalg.map_adjoint"), iters)
    out["linalg.map_bytes_per_iter"] = ratio(counts.get("linalg.map_apply.bytes", 0)
                                             + counts.get("linalg.map_adjoint.bytes", 0), iters)
    out["linalg.derived_wn_per_iter"] = ratio(calls("linalg.derived_wn"), iters)
    out["scheduler.blocks_per_iter"] = ratio(blocks, iters)
    out["scheduler.mean_staleness"] = ratio(staleness, blocks)
    out["checks.audit_ms"] = _mean(table.dur[table.mask("checks.audit", runs)]) / 1e6
    out["problems.build_s"] = float(np.median(
        table.dur[table.mask("problems.build", setup_runs)])) / 1e9
    out["problems.kkt_residual_s"] = _mean(
        table.dur[table.mask("problems.kkt_residual", setup_runs)]) / 1e9
    out["baseline.numpy_iter_us"] = baseline_iter_us
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name, *_ in PER_LAYER}


def step_self_gap(table, runs) -> float:
    """|sum of self times inside engine.step - sum of step durations|, relative.

    Zero up to rounding when every child lies inside its parent.
    """
    steps = table.mask("engine.step", runs)
    total = float(table.dur[steps].sum())
    inside = table.within("engine.step") & np.isin(table.run, list(runs))
    return abs(float(table.self_time[inside].sum()) - total) / total if total else 0.0
