"""Command-line front end.

Subcommands:
  run            execute a configured run; writes trace.csv and summary.json
  verify         run under the invariant monitor and print a check table
  list-problems  show the registered problem kinds

Exit codes: 0 converged or exact termination, 1 usage/configuration error,
2 iteration budget exhausted, 3 assumption violation (linesearch budget,
NaN/Inf or a wrong-shaped value from an operator), 4 invariant check
failure (verify only; a verify whose checks all pass exits with its run's
code).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import problems
from .checks import run_with_checks
from .config import RunConfig, parse_config
from .engine import Engine, RunTrace
from .errors import ConfigError

_STATUS_EXIT = {"converged": 0, "exact-termination": 0, "budget": 2, "assumption-violation": 3}


def write_trace_csv(path: Path, trace: RunTrace, n: int):
    """One row per iteration; floats use shortest round-trip decimals.

    Footer lines are '#'-prefixed so column parsers can skip them. Wall
    time is deliberately kept out of the trace (it lives in the summary)
    so identical runs produce byte-identical files.
    """
    cols = (["iter", "phi", "pi", "alpha", "max_primal_residual", "max_dual_residual"]
            + [f"bt_{i + 1}" for i in range(n)] + [f"rho_{i + 1}" for i in range(n)])
    lines = [",".join(cols)]
    for r in trace.records:
        row = ([str(r.iteration), repr(r.phi), repr(r.pi), repr(r.alpha),
                repr(r.max_primal_residual), repr(r.max_dual_residual)]
               + [str(b) for b in r.backtracks] + [repr(s) for s in r.stepsizes])
        lines.append(",".join(row))
    lines.append(f"# status,{trace.status}")
    lines.append(f"# iterations,{trace.iterations}")
    path.write_text("\n".join(lines) + "\n")


def write_summary_json(path: Path, trace: RunTrace, cfg: RunConfig):
    point = trace.solution if trace.solution is not None else trace.final_point
    last = trace.records[-1] if trace.records else None
    doc = {
        "status": trace.status,
        "iterations": trace.iterations,
        "problem": cfg.problem_kind,
        "seed": cfg.seed,
        "wall_time_s": trace.wall_time,
        "max_primal_residual": last.max_primal_residual if last else None,
        "max_dual_residual": last.max_dual_residual if last else None,
        "final_phi": last.phi if last else None,
        "final_pi": last.pi if last else None,
        "z": list(point.z.entries),
        "w": [list(wi.entries) for wi in point.w],
        "message": trace.message,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _load(config_path: str, args) -> tuple[RunConfig, object, object]:
    cfg = parse_config(Path(config_path).read_text())
    cfg = cfg.with_overrides(seed=args.seed_override, max_iters=args.max_iters_override)
    spec, ref = problems.build(cfg.problem_kind, cfg.problem_params)
    return cfg, spec, ref


def _print_message(trace: RunTrace):
    if trace.message:
        print(f"{trace.status}: {trace.message}", file=sys.stderr)


def cmd_run(args) -> int:
    cfg, spec, _ = _load(args.config, args)
    engine = Engine(spec, cfg.engine, cfg.schedule, cfg.errors)
    trace = engine.run()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / "trace.csv", trace, spec.n)
    write_summary_json(out_dir / "summary.json", trace, cfg)
    print(f"{cfg.problem_kind}: {trace.status} after {trace.iterations} iterations "
          f"(primal {trace.max_primal_residual:.3e}, dual {trace.max_dual_residual:.3e})")
    _print_message(trace)
    return _STATUS_EXIT[trace.status]


def cmd_verify(args) -> int:
    cfg, spec, ref = _load(args.config, args)
    trace, results = run_with_checks(spec, ref, cfg.engine, cfg.schedule, cfg.errors)
    print(f"{cfg.problem_kind}: {trace.status} after {trace.iterations} iterations")
    _print_message(trace)
    for res in results:
        print(res.line())
    failures = [r for r in results if not r.passed]
    if failures:
        first = min((r.first_failure for r in failures if r.first_failure is not None),
                    default=None)
        print(f"{len(failures)} check(s) failed" +
              (f"; earliest failing iteration: {first}" if first is not None else ""))
        return 4
    print("all checks passed")
    return _STATUS_EXIT[trace.status]


def cmd_list_problems(_args) -> int:
    for kind, (_, doc) in sorted(problems.PROBLEMS.items()):
        print(f"{kind:<16} {doc}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which collides with the
    # budget-exhausted exit code; route through ConfigError -> exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="projsplit", description="block-iterative splitting solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("--config", required=True, help="path to a JSON run configuration")
    p_run.add_argument("--out", default=".", help="directory for trace.csv / summary.json")
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.add_argument("--max-iters-override", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run under the invariant checks")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--seed-override", type=int, default=None)
    p_ver.add_argument("--max-iters-override", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-problems", help="show registered problem kinds")
    p_list.set_defaults(func=cmd_list_problems)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
