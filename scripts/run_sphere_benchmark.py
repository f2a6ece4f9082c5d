#!/usr/bin/env python3
"""Sphere benchmark sweep: MSE and wall time vs fidelity parameter.

Runs the polynomial, FEM forward-Euler and (where feasible) dense
eigenfunction solvers against the analytic diffusion ground truth on
icospheres of increasing resolution, and writes one benchmark CSV per
subdivision plus a combined report JSON. This reproduces the
accuracy-vs-parameter and time-vs-size curves used to validate the fast
solver.
"""

import argparse
import json
from pathlib import Path

from heatflow.cli import main as cli_main

# Eigenfunction counts that close full bands of the icosphere spectrum, so no
# count splits a cluster of equal eigenvalues and each eigen row is the same
# whichever basis of a cluster the solver returns.
EIGEN_COUNTS = (16, 64, 121, 196)


def eigen_counts(n_vertices):
    """The EIGEN_COUNTS of at most half the vertices: past that the mesh no
    longer resolves the bands (validate-sphere caps the truth degree alike)
    and its own symmetry splits them into other clusters."""
    return [k for k in EIGEN_COUNTS if k <= n_vertices // 2]


def run(outdir, subdivs, sigma):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    combined = []
    for subdiv in subdivs:
        report = outdir / f"report_subdiv{subdiv}.json"
        bench = outdir / f"benchmark_subdiv{subdiv}.csv"
        n_vertices = 10 * 4**subdiv + 2
        methods = "chebyshev,jacobi,laguerre,fem"
        degrees = "15,25,35,45,60,90,120"
        iters = "30,60,120,240,405,810"
        eigs = eigen_counts(n_vertices)
        argv = [
            "validate-sphere",
            "--subdiv", str(subdiv),
            "--sigma", str(sigma),
            "--method", methods + (",eigen" if n_vertices <= 5000 else ""),
            "--degree", degrees,
            "--iters", iters,
            "--eigs", ",".join(str(k) for k in eigs),
            "--out-report", str(report),
            "--out-benchmark", str(bench),
        ]
        code = cli_main(argv)
        if code != 0:
            raise SystemExit(code)
        combined.extend(json.loads(report.read_text()))
    with open(outdir / "combined_report.json", "w") as fh:
        json.dump(combined, fh, indent=2, sort_keys=True)
    print(f"wrote {outdir}/combined_report.json with {len(combined)} runs")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="benchmark_out")
    ap.add_argument("--subdivs", default="3,4,5", help="comma list of icosphere subdivisions")
    ap.add_argument("--sigma", type=float, default=0.01)
    args = ap.parse_args()
    run(args.outdir, [int(s) for s in args.subdivs.split(",")], args.sigma)
