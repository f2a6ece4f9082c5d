"""Tests of scripts/: each runs end to end on a small input, and the sphere
sweep's eigen counts close eigenvalue clusters."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heatflow.mesh import assemble_lb_operator
from heatflow.solvers import eigen_reference
from heatflow.sphere import icosphere

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


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("subdiv", [1, 2, 3])
def test_sphere_benchmark_eigen_counts_close_clusters(subdiv):
    # a count inside a cluster of equal eigenvalues makes its row depend on
    # which basis of the cluster eigh returns
    script = load_script("run_sphere_benchmark.py")
    op = assemble_lb_operator(icosphere(subdiv))
    counts = script.eigen_counts(op.n_vertices)
    assert counts
    lam = eigen_reference(op, max(counts) + 1).eigenvalues
    for k in counts:
        assert lam[k] - lam[k - 1] > 1e-2 * lam[k], k
