"""Measurement loops: end-to-end metrics untraced, per-layer metrics traced.

Imported by ``run.py`` once BLAS is pinned to one thread and ``src/`` is on
the import path. One call to :func:`run` measures one workload on one seed
and returns the result object the last output line carries.

End-to-end (``trace=False``): the workload's instances are built several
times (``setup_s`` is the median), then solved in passes over the panel
while another pass fits in ``seconds`` counted from the first build, and at
least once (``solve_s`` is the median pass). Resolvent evaluations are
counted by a counting-only wrapper; nothing is timed inside the solve.

Per-layer (``trace=True``): untraced and traced passes alternate for
``seconds``. The traced passes record spans around the solver's public
functions (see ``tracing.TARGETS``); their counts must equal the untraced
ones exactly, which shows the wrappers do not perturb the algorithm.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from projsplit import operators

import metrics
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_SETUP_SAMPLES = 5
# cheap set-ups are repeated for this long so their median settles
MIN_SETUP_SECONDS = 1.0
SETUP_RUN = 0
# sums of self times inside engine.step must reproduce the step durations
SELF_TIME_GAP_TOL = 1e-9


def environment() -> dict:
    """What a result depends on besides the code: versions, threads, cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "projsplit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def warm_up(name: str):
    """Load the code paths and first linalg calls with a reduced-size solve."""
    wl = workloads.WORKLOADS[name](smoke=True)
    inp = wl.inputs(0)[0]
    wl.solve(wl.build(inp), inp)


def build_panel(wl, inputs):
    """Build the panel until there are MIN_SETUP_SAMPLES set-up times and
    MIN_SETUP_SECONDS have passed; the instances of the last build are kept."""
    samples, instances = [], []
    deadline = time.perf_counter() + MIN_SETUP_SECONDS
    while len(samples) < MIN_SETUP_SAMPLES or time.perf_counter() < deadline:
        instances = []
        for inp in inputs:
            t0 = time.perf_counter()
            inst = wl.build(inp)
            wl.construct(inst, inp)
            samples.append(time.perf_counter() - t0)
            instances.append(inst)
    return samples, instances


def untraced_pass(wl, instances, inputs) -> list:
    out = []
    with tracing.counting(operators, "prox_eval") as prox:
        for inst, inp in zip(instances, inputs):
            before = prox[0]
            solve = wl.solve(inst, inp)
            solve.prox_evals = prox[0] - before
            out.append(solve)
    return out


def judge(passes, reference) -> list[str]:
    """Failures of every solve: its own gate, or counts unlike the reference pass."""
    failures = []
    for k, solves in enumerate(passes):
        for j, (solve, ref) in enumerate(zip(solves, reference)):
            if solve.failure:
                failures.append(f"pass {k} instance {j}: {solve.failure}")
            elif solve.counts() != ref.counts():
                failures.append(f"pass {k} instance {j}: counts {solve.counts()} "
                                f"differ from {ref.counts()}")
    return failures


def pass_seconds(passes) -> list[float]:
    return [sum(s.seconds for s in solves) for solves in passes]


def _room_for(duration: float, deadline: float) -> bool:
    """True while a step of ``duration`` would end less than half of it past the deadline."""
    return time.perf_counter() + 0.5 * duration < deadline


def measure_end_to_end(wl, inputs, seconds):
    deadline = time.perf_counter() + seconds
    setup, instances = build_panel(wl, inputs)
    passes = []
    while not passes or _room_for(pass_seconds(passes)[-1], deadline):
        passes.append(untraced_pass(wl, instances, inputs))
    first = passes[0]
    values = {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(pass_seconds(passes)),
        "iterations": sum(s.iterations for s in first),
        "forward_evals": sum(s.forward_evals for s in first),
        "prox_evals": sum(s.prox_evals for s in first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "solve_s": f"median of {len(passes)} passes over {len(first)} instance(s); "
                   f"quartiles {_quartiles(pass_seconds(passes))}",
    }
    samples = {"setup_s_quartiles": statistics.quantiles(setup, n=4),
               "solve_s": pass_seconds(passes),
               "per_instance": [[s.iterations, s.forward_evals, s.prox_evals, s.status]
                                for s in first]}
    attempted = sum(len(p) for p in passes)
    return values, notes, samples, attempted, judge(passes, first), []


def measure_traced(wl, inputs, seconds, spans_path):
    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer()
    instances = []
    with tracer.instrument():
        for inp in inputs:
            instances.append(tracer.call("problems.build", SETUP_RUN, wl.build, inp))
    tracer.take_counts()

    untraced, traced, runs, counts = [], [], [], {}
    round_seconds = 0.0
    while not traced or _room_for(round_seconds, deadline):
        started = time.perf_counter()
        untraced.append(untraced_pass(wl, instances, inputs))
        solves = []
        with tracer.instrument():
            for inst, inp in zip(instances, inputs):
                runs.append(len(runs) + 1)
                solves.append(tracer.call("solve", runs[-1], wl.solve, inst, inp))
                for key, n in tracer.take_counts().items():
                    counts[key] = counts.get(key, 0) + n
        traced.append(solves)
        round_seconds = time.perf_counter() - started

    table = tracing.SpanTable(tracer)
    prox_per_run = np.bincount(table.run[table.mask("operators.prox_eval")],
                               minlength=len(runs) + 1)
    all_traced = [s for solves in traced for s in solves]
    for run_id, solve in zip(runs, all_traced):
        solve.prox_evals = int(prox_per_run[run_id])

    reference = untraced[0]
    failures = judge(untraced + traced, reference)
    attempted = len(untraced) * len(reference) + len(all_traced)

    base_seconds = base_steps = 0
    for j, (inst, inp, solve) in enumerate(zip(instances, inputs, reference)):
        result = wl.baseline(inst, inp, solve)
        if result is None:
            continue
        attempted += 1
        base_seconds += result[0]
        base_steps += result[1]
        if not result[2]:
            failures.append(f"instance {j}: numpy baseline differs from the engine's "
                            f"final point")

    instrument_faults = []
    if not table.nested:
        instrument_faults.append("a child span lies outside its parent")
    gap = metrics.step_self_gap(table, runs)
    if gap > SELF_TIME_GAP_TOL:
        instrument_faults.append(f"self times inside engine.step miss the step time by {gap:.2e}")

    overhead = (statistics.median(pass_seconds(traced))
                / statistics.median(pass_seconds(untraced)) - 1.0)
    values = metrics.layer_metrics(
        table, {SETUP_RUN}, runs, all_traced, counts,
        baseline_iter_us=1e6 * base_seconds / base_steps if base_steps else 0.0,
        overhead_frac=overhead)
    notes = {
        "trace.overhead_frac": f"{len(traced)} traced vs {len(untraced)} untraced passes",
        "linalg.map_bytes_per_iter": "computed from matrix sizes, not measured",
        "baseline.numpy_iter_us": ("straight numpy loop, bitwise equal final point"
                                   if base_steps else "no baseline on this workload"),
    }
    samples = {"traced_s": pass_seconds(traced), "untraced_s": pass_seconds(untraced),
               "spans": len(table.dur), "spans_file": spans_path.name}
    tracer.write(spans_path)
    return values, notes, samples, attempted, failures, instrument_faults


def _quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g}..{q3:.4g}"


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; print every metric by name; return the result object."""
    wl = workloads.WORKLOADS[name](smoke=smoke)
    env = environment()
    warm_up(name)
    inputs = wl.inputs(seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    if trace:
        measured = measure_traced(wl, inputs, seconds, OUT_DIR / f"spans-{stem}.csv.gz")
    else:
        measured = measure_end_to_end(wl, inputs, seconds)
    values, notes, samples, attempted, failures, faults = measured

    print(f"workload {name}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"{len(inputs)} instance(s)  why: {wl.why}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    out_metrics = {}
    for metric, unit, *_ in catalogue:
        value = values[metric]
        out_metrics[metric] = {"value": value, "unit": unit}
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric} = {value!r} {unit}{note}")
    print(f"fail_frac = {len(failures)}/{attempted} = {len(failures) / attempted!r} ratio")
    for line in failures + faults:
        print(f"FAILED {line}")

    result = {"correct": not failures and not faults, "attempted": attempted,
              "failed": len(failures), "metrics": out_metrics}
    record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
              "smoke": smoke, "environment": env, "samples": samples,
              "failures": failures + faults, **result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result
