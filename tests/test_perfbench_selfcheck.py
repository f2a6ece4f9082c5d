"""The benchmark harness self-check runs against the current source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
