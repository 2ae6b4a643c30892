"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lasso_large --seed 0 --seconds 30 --trace 0

Workloads: lasso_large, nonlip_linesearch, async_inexact_verify (see
``workloads.py``). ``--trace 0`` measures the end-to-end metrics with no
timing inside the solver; ``--trace 1`` is a separate traced run that gives
the per-layer metrics. Every metric is printed by name with its unit, and
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A JSON record of the run (environment, samples,
failures) and, for traced runs, the spans go to ``perfbench/out/``.

The solver is imported from ``src/`` beside this directory; without it the
run stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> bool:
    """Pin BLAS to one thread and put ``src/`` first on the import path.

    Must run before numpy is imported; False when there is no solver to run.
    """
    src = ROOT / "src"
    if not (src / "projsplit" / "__init__.py").is_file():
        print(f"error: no projsplit package under {src}", file=sys.stderr)
        return False
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lasso_large", "nonlip_linesearch", "async_inexact_verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        return 2
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
