"""The benchmark's reduced-size smoke run, as a test of the solver's names.

``perfbench/tracing.py`` wraps solver functions it looks up by name (such
as ``projsplit.engine.separator_gradient``), so renaming one breaks the
traced benchmark; this test makes that a suite failure.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
