#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark's own code; takes a few seconds.

    python3 perfbench/selfcheck.py

Checks the tracer (wrapping a name in every namespace that binds it, parent
links, restoring the originals, self time), the per-layer arithmetic, the
oracles against heatflow on tiny inputs, the input writers against heatflow's
readers, and that the metric names the code prints are the ones
BENCHMARK.json declares. Exits non-zero on the first failure.
"""

import json
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times_ns, useful_degree  # noqa: E402

_passed = []


def check(ok, what):
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")
    _passed.append(what)


def _fake_layer():
    mod = types.ModuleType("fake.expansion")
    exec(
        "def inner(x):\n    return x + 1\n\n"
        "def outer(x):\n    return inner(x) * 2\n\n"
        "def _private(x):\n    return x\n",
        mod.__dict__,
    )
    user = types.ModuleType("fake.user")
    user.outer = mod.outer  # bound by name, as `from .expansion import outer` does
    return mod, user


def check_tracer():
    mod, user = _fake_layer()
    original = mod.outer
    tracer = Tracer([mod], [mod, user])
    check(tracer.names == ["expansion.inner", "expansion.outer"], "tracer wraps public functions only")
    check(user.outer(1) == 4 and not tracer.spans, "no spans outside an active job")
    with tracer.active("job-0"):
        check(user.outer is not original, "name bound in a second namespace is wrapped")
        check(user.outer(1) == 4, "wrapped function returns the same result")
    check(user.outer is original and mod.outer is original, "originals restored")
    names = [s[0] for s in tracer.spans]
    check(names == ["expansion.outer", "expansion.inner"], f"span order {names}")
    check(tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1, "child span points at its parent")
    check(all(s[4] == "job-0" for s in tracer.spans), "spans carry the job id")

    spans = [
        ["a", 0, 100, -1, "job-0", None],
        ["b", 10, 40, 0, "job-0", None],
        ["c", 50, 70, 0, "job-0", None],
        ["d", 55, 60, 2, "job-0", None],
    ]
    check(self_times_ns(spans) == [50, 30, 15, 5], "self time subtracts direct children only")
    check(useful_degree([1.0, 0.5, 1e-20, 0.0]) == 1, "useful degree from the coefficient tail")
    check(useful_degree([1.0, 0.5, 0.25]) == 2, "useful degree is the full degree without a tail")


def check_layer_metrics():
    ms = 1_000_000
    expansion = {"degree": 100, "n": 10, "cols": 1, "bytes_per_degree": 1000, "useful_degree": 20}
    spans = [
        ["mesh.load_mesh", 0, 3 * ms, -1, "setup-0", {"bytes": 500}],
        ["solvers.heat_smooth", 0, 10 * ms, -1, "job-2", None],
        ["expansion.heat_coefficients", 0, 1 * ms, 1, "job-2", None],
        ["expansion.apply_expansion", 1 * ms, 9 * ms, 1, "job-2", expansion],
        ["solvers.heat_smooth", 0, 12 * ms, -1, "job-3", None],
        ["expansion.apply_expansion", 0, 8 * ms, 4, "job-3", expansion],
    ]
    report = {
        "setup_seconds": [0.003],
        "jobs": [
            {"seconds": 0.010, "traced": False},
            {"seconds": 0.011, "traced": False},
            {"seconds": 0.012, "traced": True},
            {"seconds": 0.014, "traced": True},
        ],
    }
    m = {k: v for k, (v, _) in layers.layer_metrics(spans, report).items()}
    close = lambda a, b: abs(a - b) <= 1e-12 * max(1.0, abs(b))  # noqa: E731
    check(close(m["mesh.load_mesh_s"], 0.003) and m["mesh.bytes_read"] == 500, "set-up layer per set-up")
    check(close(m["expansion.apply_expansion_s"], 0.008), "inclusive time per traced job")
    check(m["expansion.matvecs"] == 100 and m["expansion.apply_expansion_calls"] == 1, "matvecs from degree")
    check(close(m["expansion.ns_per_vertex_degree"], 16e6 / 2000), "ns per vertex per degree")
    check(close(m["expansion.degree_useful_ratio"], 0.2), "useful degree ratio")
    check(close(m["solvers.heat_smooth_s"], 0.0025), "solver overhead is self time")
    check(close(m["expansion.coeff_to_recurrence_ratio"], 1 / 16), "coefficient to recurrence ratio")
    check(close(m["trace.overhead_s"], 0.0025), "overhead is traced minus untraced median")
    check(m["stats.hotelling_t2_map_s"] == 0.0, "a layer never called reads 0")


def check_oracles():
    from heatflow.mesh import assemble_lb_operator
    from heatflow.solvers import heat_smooth
    from heatflow.sphere import icosphere
    from heatflow.stats import bh_fdr, hotelling_t2_map
    from heatflow.wavelets import WaveletKernel, spline_kernel
    from scipy.sparse.linalg import expm_multiply
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    p = rng.uniform(size=300) ** 3
    check(np.array_equal(oracles.bh_linear_scan(p, 0.05), bh_fdr(p, 0.05)[1]), "BH linear scan matches heatflow")

    a = rng.standard_normal((8, 30, 3)) + 0.5
    b = rng.standard_normal((9, 30, 3))
    t2, tol, p_of = oracles.hotelling_per_vertex(a, b)
    ref = hotelling_t2_map(a, b)
    check(np.all(np.abs(ref.statistic - t2) <= tol * np.maximum(t2, 1.0)), "per-vertex Hotelling matches")
    check(np.allclose(p_of(ref.statistic), ref.p_values, rtol=1e-8, atol=0), "F tail matches heatflow p-values")

    x = np.linspace(0.0, 5.0, 101)
    check(np.allclose(oracles.spline_kernel(x), spline_kernel(WaveletKernel(), x), rtol=1e-14), "spline kernel")

    op = assemble_lb_operator(icosphere(2))
    f = inputs.cap_field(icosphere(2).vertices, np.random.default_rng(1), inputs.CAP_RADIUS)
    half = np.sqrt(op.A)
    sym = sp.diags(1.0 / half) @ op.C @ sp.diags(1.0 / half)
    err = np.max(np.abs(expm_multiply(-0.01 * sym, half * f) / half - heat_smooth(op, f, 0.01)))
    check(err <= oracles.HEAT_TOL, f"expm_multiply oracle agrees with heat_smooth ({err:.2g})")


def check_inputs():
    from heatflow.fields import read_field_csv, read_stack_csv

    rng = np.random.default_rng(2)
    values = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300, (7, 3))
    with tempfile.TemporaryDirectory() as tmp:
        stack, field = Path(tmp) / "s.csv", Path(tmp) / "f.csv"
        inputs._write_rows(stack, "a,b,c", values)
        inputs._write_rows(field, None, values[:, 0])
        check(np.array_equal(read_stack_csv(stack).values, values), "stack CSV round trip is exact")
        check(np.array_equal(read_field_csv(field), values[:, 0]), "field CSV round trip is exact")
    a1, _ = inputs.stats_arrays(5)
    a2, _ = inputs.stats_arrays(5)
    a3, _ = inputs.stats_arrays(6)
    check(np.array_equal(a1, a2) and not np.array_equal(a1, a3), "inputs depend on the seed only")


def check_declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(declared == run.END_TO_END_UNITS, "end-to-end metrics match BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed = {name: unit for name, (unit, _) in layers.METRICS.items()}
    check(declared == printed, "per-layer metrics match BENCHMARK.json")
    check({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS), "workloads match BENCHMARK.json")


def main():
    check_tracer()
    check_layer_metrics()
    check_oracles()
    check_inputs()
    check_declared_metrics()
    print(f"selfcheck: {len(_passed)} checks passed")


if __name__ == "__main__":
    main()
