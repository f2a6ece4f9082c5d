"""Smoke tests: each script in scripts/ runs end to end on a small input."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "script, args, output",
    [
        ("run_group_study.py", ["--subdiv", "2", "--subjects", "7", "--degree", "40"], "summary.json"),
        ("run_sphere_benchmark.py", ["--subdivs", "1"], "combined_report.json"),
    ],
)
def test_script_runs(tmp_path, script, args, output):
    proc = run_script(script, "--outdir", str(tmp_path / "out"), *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out" / output).read_text())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]  # nothing written elsewhere
