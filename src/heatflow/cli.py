"""Command-line entry point.

Commands: smooth, wavelet, validate-sphere, benchmark, stats
{ttest|hotelling|corr}, lbo. `smooth --steps k` is the heat stack at sigma,
2 sigma, ..., k sigma from one recurrence. `stats corr` pairs the two groups'
subjects by file stem (column label of a stacked CSV); `validate-sphere` runs
one dense eigensolve at the largest `--eigs` count. Flags are checked before
any input is read. Every run writes a resolved-config JSON next to its
outputs; wall-clock timings go to a separate timing JSON so the data files
stay byte-identical across runs. Exit codes: 0 success, 1 runtime or domain
error, 2 usage error.
"""

import argparse
import concurrent.futures
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .expansion import PolynomialFamily, apply_expansion, estimate_lambda_max, spectral_bound
from .fields import (
    FieldStack, read_field_csv, read_stack_csv, write_field_csv, write_json, write_stack_csv,
)
from .mesh import assemble_lb_operator, export_operator, load_mesh
from .sphere import ground_truth_field, icosphere, two_cap_signal
from .solvers import (
    _DENSE_EIGEN_LIMIT, EigenSystem, _euler_min_steps, _heat_expansion, eigen_reference,
    eigen_smooth, fem_euler_smooth, heat_smooth, mse,
)
from .stats import correlation_map, hotelling_t2_map, two_sample_t_map, write_statmap
from .wavelets import WaveletKernel, _scale_kernels, wavelet_stack

# validate-sphere method -> the flag listing its fidelity parameters
_SPHERE_METHOD_FLAGS = {
    **dict.fromkeys(("chebyshev", "jacobi", "hermite", "laguerre"), "degree"),
    "fem": "iters",
    "eigen": "eigs",
}


def _require(ok, flag, rule, value):
    """Refuse a flag's value by name, before any input is read."""
    if not ok:
        raise ValueError(f"--{flag} must be {rule}, got {value}")


def _list_arg(args, flag, kind):
    """The comma list given to --flag as kind values."""
    try:
        return [kind(tok) for tok in getattr(args, flag).split(",") if tok]
    except ValueError:
        raise ValueError(f"--{flag} must be a comma list of {kind.__name__} values, "
                         f"got {getattr(args, flag)!r}") from None


def _echo_config(args, out_path, resolved=None):
    payload = {"command": args.command, "flags": {k: v for k, v in vars(args).items() if k != "func"}}
    if resolved is not None:
        payload["resolved"] = resolved
    write_json(str(out_path) + ".config.json", payload)


def _read_signal(path, mesh):
    f = read_field_csv(path)
    if f.size != mesh.n_vertices:
        raise ValueError(f"signal has {f.size} values for a {mesh.n_vertices}-vertex mesh")
    return f


def _family_from_args(args, kind):
    if kind == "jacobi":
        return PolynomialFamily.jacobi(args.alpha, args.beta)
    return PolynomialFamily(kind)


def _cmd_smooth(args):
    _require(math.isfinite(args.sigma) and args.sigma >= 0, "sigma", "a finite number >= 0", args.sigma)
    _require(args.steps >= 1, "steps", ">= 1", args.steps)
    _require(args.degree is None or args.degree >= 0, "degree", ">= 0", args.degree)
    family = _family_from_args(args, args.family)
    t0 = time.perf_counter()
    mesh = load_mesh(args.mesh)
    op = assemble_lb_operator(mesh)
    t_assembly = time.perf_counter() - t0

    f = _read_signal(args.signal, mesh)
    sigmas = tuple((i + 1) * args.sigma for i in range(args.steps))

    # e^{-k sigma Delta} f = (e^{-sigma Delta})^k f for k = 1..steps: one recurrence, a column each
    t1 = time.perf_counter()
    family, coeffs = _heat_expansion(op, sigmas, family, args.degree)
    t_coeffs = time.perf_counter() - t1

    t2 = time.perf_counter()
    values = apply_expansion(op, coeffs, f)
    t_recur = time.perf_counter() - t2

    if args.steps == 1:
        write_field_csv(args.out, values[:, 0])
    else:
        write_stack_csv(args.out, FieldStack(values, [repr(s) for s in sigmas], "scales"))
    _echo_config(args, args.out, {"b": family.b, "degree": coeffs.degree})
    write_json(str(args.out) + ".timing.json", {
        "assembly_seconds": t_assembly,
        "coefficients_seconds": t_coeffs,
        "recurrence_seconds": t_recur,
        "total_seconds": time.perf_counter() - t0,
    })
    print(f"smooth: N={mesh.n_vertices} sigma={args.sigma} steps={args.steps} degree={coeffs.degree} "
          f"assembly={t_assembly:.3f}s coefficients={t_coeffs:.6f}s recurrence={t_recur:.3f}s")
    return 0


def _cmd_wavelet(args):
    _require(args.degree >= 0, "degree", ">= 0", args.degree)
    scales = _list_arg(args, "scales", float)
    _scale_kernels(WaveletKernel(), scales)
    mesh = load_mesh(args.mesh)
    op = assemble_lb_operator(mesh)
    f = _read_signal(args.signal, mesh)
    write_stack_csv(args.out, wavelet_stack(op, f, WaveletKernel(), scales, m=args.degree))
    _echo_config(args, args.out)
    print(f"wavelet: N={mesh.n_vertices} scales={len(scales)} degree={args.degree}")
    return 0


def _run_sphere_method(op, signal, truth, sigma, method, param, es, args):
    """One report row; an eigen row uses the first param pairs of es."""
    t0 = time.perf_counter()
    if method == "fem":
        g = fem_euler_smooth(op, signal, sigma, param)
    elif method == "eigen":
        g = eigen_smooth(EigenSystem(es.eigenvalues[:param], es.eigenvectors[:, :param]),
                         op, signal, sigma)
    else:
        g = heat_smooth(op, signal, sigma, family=_family_from_args(args, method), m=param)
    seconds = time.perf_counter() - t0
    return {
        "mesh_vertices": op.n_vertices,
        "sigma": sigma,
        "method": method,
        "fidelity_param": param,
        "mse": mse(g, truth),
        "wall_seconds": seconds,
    }


def _cmd_validate_sphere(args):
    _require(math.isfinite(args.sigma) and args.sigma >= 0, "sigma", "a finite number >= 0", args.sigma)
    methods = [tok for tok in args.method.split(",") if tok]
    lists = {flag: _list_arg(args, flag, int) for flag in ("degree", "iters", "eigs")}
    for method in methods:
        if method not in _SPHERE_METHOD_FLAGS:
            raise ValueError(f"unknown method {method!r}")
        flag = _SPHERE_METHOD_FLAGS[method]
        if not lists[flag]:
            raise ValueError(f"method {method} needs --{flag}")
        low = 0 if flag == "degree" else 1
        _require(min(lists[flag]) >= low, f"{flag} counts", f">= {low}", min(lists[flag]))
    mesh = icosphere(args.subdiv)
    if "eigen" in methods and mesh.n_vertices > _DENSE_EIGEN_LIMIT:
        raise ValueError(f"--method eigen needs the dense eigensolver, limited to {_DENSE_EIGEN_LIMIT} "
                         f"vertices; --subdiv {args.subdiv} has {mesh.n_vertices}")
    if "eigen" in methods and max(lists["eigs"]) > mesh.n_vertices:
        raise ValueError(f"--eigs {max(lists['eigs'])} exceeds the {mesh.n_vertices} vertices "
                         f"of --subdiv {args.subdiv}")
    op = assemble_lb_operator(mesh)
    if "fem" in methods:
        low = _euler_min_steps(op, args.sigma)
        _require(min(lists["iters"]) >= low, "iters counts",
                 f">= {low} for a stable forward Euler step at --sigma {args.sigma}", min(lists["iters"]))
    signal = two_cap_signal(mesh, radius=args.cap_radius)
    cap = math.isqrt(mesh.n_vertices // 2) - 1
    if args.truth_degree > cap:
        print(f"validate-sphere: truth degree capped to {cap} for {mesh.n_vertices} vertices")
    truth = ground_truth_field(mesh, signal, min(args.truth_degree, cap), args.sigma)

    es = None
    if "eigen" in methods:
        t0 = time.perf_counter()
        k_max = max(lists["eigs"])  # one pair more, when there is one, shows the gap after k_max
        es = eigen_reference(op, k_max + 1 if k_max < mesh.n_vertices else k_max)
        es_seconds = time.perf_counter() - t0
        # a count k with (lam_{k+1} - lam_k) / lam_{k+1} < 1e-8 keeps part of a cluster of
        # equal eigenvalues, so its row depends on which basis of it the solver returns
        lam = es.eigenvalues
        closes = [k for k in range(1, lam.size) if lam[k] - lam[k - 1] >= 1e-8 * lam[k]]
        for k in sorted(set(lists["eigs"]) - set(closes) - {mesh.n_vertices}):  # N splits nothing
            below = max(j for j in closes if j < k)  # closes holds 1: lam_1 = 0 is simple
            print(f"validate-sphere: --eigs {k} splits the eigenvalue cluster at {lam[k - 1]:.6g}; "
                  f"the largest count below it that closes a cluster is {below}", file=sys.stderr)
    rows = []
    for method in methods:
        for param in lists[_SPHERE_METHOD_FLAGS[method]]:
            row = _run_sphere_method(op, signal, truth, args.sigma, method, param, es, args)
            if method == "eigen":  # each eigen row is charged the one solve it slices
                row["wall_seconds"] += es_seconds
            rows.append(row)
            print(f"validate-sphere: N={row['mesh_vertices']} method={method} "
                  f"param={param} mse={row['mse']:.3e} seconds={row['wall_seconds']:.3f}")
    write_json(args.out_report, rows)
    with open(args.out_benchmark, "w") as fh:
        fh.write("method,subdiv,N,sigma,param,mse,seconds\n")
        for row in rows:
            fh.write(
                f"{row['method']},{args.subdiv},{row['mesh_vertices']},"
                f"{row['sigma']:.16e},{row['fidelity_param']},"
                f"{row['mse']:.16e},{row['wall_seconds']:.6e}\n"
            )
    _echo_config(args, args.out_report)
    return 0


def _read_each(read, files):
    """Yield read(f) for each of files in file order, reading on one thread per CPU
    the process may run on. numpy's decoding loops release the GIL, so the threads
    overlap; at the first error the files not yet started are dropped."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    pool = concurrent.futures.ThreadPoolExecutor(min(cpus, len(files)))
    try:
        yield from pool.map(read, files)
    finally:
        pool.shutdown(cancel_futures=True)


def _field(path):
    return (), read_field_csv(path)


def _stack(path):
    stack = read_stack_csv(path)
    return stack.labels, stack.values


def _read_groups(paths, read, kind):
    """Each group's subject names and (n, ...) values. The sorted CSVs of both
    groups' directories are read on one pool by read(file) -> (labels, values)
    into one array, each checked against the first file's labels and shape; a
    group given as a file is one stacked CSV, a column per subject."""
    dirs = [sorted(Path(p).glob("*.csv")) if Path(p).is_dir() else None for p in paths]
    for path, files in zip(paths, dirs):
        if files == []:
            raise ValueError(f"{path}: no subject CSV files")
    files = sum(filter(None, dirs), [])
    # each file is copied into its slice as it arrives, so no more than a few are held
    for i, (labels, arr) in enumerate(_read_each(read, files) if files else ()):
        if i == 0:
            first = labels
            values = np.empty((len(files),) + arr.shape)
        if labels != first:
            raise ValueError(f"{files[i]}: scale labels {','.join(labels)} differ "
                             f"from {','.join(first)} in {files[0]}")
        if arr.shape != values.shape[1:]:
            raise ValueError(f"{files[i]}: {kind} shape {arr.shape} differs "
                             f"from {values.shape[1:]} in {files[0]}")
        values[i] = arr
    groups, start = [], 0
    for path, found in zip(paths, dirs):
        if found is None:
            stack = read_stack_csv(path, axis_meaning="subjects")
            groups.append((list(stack.labels), stack.values.T))
        else:
            groups.append(([f.stem for f in found], values[start:start + len(found)]))
            start += len(found)
    return groups


def _cmd_stats(args):
    _require(args.fdr is None or 0 < args.fdr < 1, "fdr", "in (0, 1)", args.fdr)
    paths = (args.group_a, args.group_b)
    if args.test == "hotelling":
        for path in paths:
            if not Path(path).is_dir():
                raise ValueError(f"{path}: hotelling needs a directory of per-subject stacks")
        (_, a), (_, b) = _read_groups(paths, _stack, "stack")
        out = hotelling_t2_map(a, b, fdr_q=args.fdr)
    else:
        (names_a, a), (names_b, b) = _read_groups(paths, _field, "field")
        if args.test == "corr":  # b's subjects in the order of a's, matched by name
            for path, names in zip(paths, (names_a, names_b)):
                if len(set(names)) < len(names):
                    raise ValueError(f"{path}: repeated subject names cannot be paired")
            unmatched = sorted(set(names_a).symmetric_difference(names_b))
            if unmatched:
                has, lacks = paths if unmatched[0] in names_a else paths[::-1]
                raise ValueError(f"{has}: subject {unmatched[0]} has no partner in {lacks}")
            b, names_b = b[[names_b.index(s) for s in names_a]], names_a
        # each vertex's subjects contiguous, as a stacked CSV reads them: numpy sums a
        # strided row in another order, which would move the last bits of the maps
        a, b = (FieldStack(np.ascontiguousarray(g.T), names, "subjects")
                for g, names in ((a, names_a), (b, names_b)))
        out = (two_sample_t_map if args.test == "ttest" else correlation_map)(a, b, fdr_q=args.fdr)
    write_statmap(out, args.out + ".csv", args.out + ".json")
    _echo_config(args, args.out)
    print(f"stats {args.test}: N={out.statistic.size} significant={int(out.significant.sum())}")
    return 0


def _cmd_lbo(args):
    mesh = load_mesh(args.mesh)
    op = assemble_lb_operator(mesh, area_scheme="barycentric" if args.barycentric else "mixed")
    export_operator(op, args.out_c, args.out_a)
    lam, b = estimate_lambda_max(op), spectral_bound(op)
    _echo_config(args, args.out_c)
    print(f"lbo: N={op.n_vertices} nnz={op.C.nnz} lambda_max~{lam:.6g} b={b:.6g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heatflow",
        description="Spectral heat diffusion, diffusion wavelets and vertex statistics on meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smooth", help="heat kernel smoothing of a vertex signal")
    p.add_argument("--mesh", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--family", default="chebyshev",
                   choices=["chebyshev", "jacobi", "hermite", "laguerre"])
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--degree", type=int, default=None,
                   help="expansion degree; default: chosen from the coefficient tail")
    p.add_argument("--steps", type=int, default=1, help="iterative convolution count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("wavelet", help="band-pass diffusion wavelet stack")
    p.add_argument("--mesh", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--scales", required=True, help="comma list of t values")
    p.add_argument("--degree", type=int, default=300)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wavelet)

    for name in ("validate-sphere", "benchmark"):
        p = sub.add_parser(name, help="sphere validation against the SPHARM ground truth")
        p.add_argument("--subdiv", type=int, required=True)
        p.add_argument("--sigma", type=float, required=True)
        p.add_argument("--method", required=True,
                       help="comma list from chebyshev,jacobi,hermite,laguerre,fem,eigen")
        p.add_argument("--degree", default="", help="comma list of expansion degrees")
        p.add_argument("--iters", default="", help="comma list of FEM iteration counts")
        p.add_argument("--eigs", default="", help="comma list of eigenfunction counts")
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--beta", type=float, default=0.0)
        p.add_argument("--truth-degree", type=int, default=25)
        p.add_argument("--cap-radius", type=float, default=0.3)
        p.add_argument("--out-report", required=True)
        p.add_argument("--out-benchmark", required=True)
        p.set_defaults(func=_cmd_validate_sphere)

    p = sub.add_parser("stats", help="vertex-wise group statistics")
    p.add_argument("test", choices=["ttest", "hotelling", "corr"])
    p.add_argument("--group-a", required=True)
    p.add_argument("--group-b", required=True)
    p.add_argument("--fdr", type=float, default=None)
    p.add_argument("--out", required=True, help="output base path (.csv and .json added)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("lbo", help="export the Laplace-Beltrami operator")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out-c", required=True)
    p.add_argument("--out-a", required=True)
    p.add_argument("--barycentric", action="store_true",
                   help="use one-third barycentric areas instead of mixed Voronoi")
    p.set_defaults(func=_cmd_lbo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001  (CLI boundary: report and exit 1)
        print(f"heatflow {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
