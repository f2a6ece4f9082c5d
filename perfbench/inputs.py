"""Seeded benchmark inputs, generated once per (workload, seed) and cached.

Everything heatflow receives in a run is made here from the seed: mesh files,
fields and per-subject CSV directories. Generation time is never measured.
The cache lives in ``.perfbench_cache/<workload>/seed-<n>-<digest>`` in the
checkout, where the digest is that of this file, so an edited generator never
reuses old inputs; ``params.json`` is written last and marks a complete entry.
Only the most recently used entries are kept, because one stats-10k entry is
about 100 MB.
"""

import argparse
import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

CACHE_DIR = ".perfbench_cache"
KEEP_SEEDS = 3

# smooth-40k
SMOOTH_SUBDIV = 6
SMOOTH_SIGMAS = (0.001, 0.01)
SMOOTH_FIELDS = 2
SMOOTH_SETUPS = 3
CAP_RADIUS = 0.3
TRUTH_SIGMA = 0.01
TRUTH_L = 25

# group-study-642 (scripts/run_group_study.py reduced to 10 subjects a group)
GROUP_SUBDIV = 3
GROUP_PER_GROUP = 10
GROUP_DEGREE = 120
GROUP_SHIFT = 1.0
GROUP_CAP_RADIUS = 1.0
GROUP_PASSES = 3
GROUP_SETUPS = 25
FDR_Q = 0.05

# stats-10k
STATS_VERTICES = 10242
STATS_SUBJECTS = 20
STATS_SCALES = 10
STATS_PLANTED = 512
STATS_SHIFT = 0.8

_FMT = "%.16e"  # 17 significant digits, the format heatflow itself writes


def prepare(root, workload, seed):
    """Directory holding the inputs of (workload, seed); generated on first use."""
    base = Path(root) / CACHE_DIR / workload
    digest = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    target = base / f"seed-{seed}-{digest}"
    if not (target / "params.json").exists():
        shutil.rmtree(target, ignore_errors=True)
        tmp = base / f".seed-{seed}.{os.getpid()}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        params = GENERATORS[workload](tmp, seed)
        params["seed"] = seed
        with open(tmp / "params.json", "w") as fh:
            json.dump(params, fh, indent=1)
        tmp.rename(target)
    os.utime(target)
    entries = sorted(base.glob("seed-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[KEEP_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)
    with open(target / "params.json") as fh:
        return target, json.load(fh)


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def cap_field(points, rng, radius):
    """+1 in one random geodesic cap, -1 in another, 0 elsewhere."""
    plus = _unit(rng)
    minus = _unit(rng)
    while np.arccos(np.clip(plus @ minus, -1.0, 1.0)) <= 2.0 * radius + 0.2:
        minus = _unit(rng)
    f = np.zeros(len(points))
    f[np.arccos(np.clip(points @ plus, -1.0, 1.0)) < radius] = 1.0
    f[np.arccos(np.clip(points @ minus, -1.0, 1.0)) < radius] = -1.0
    return f


def _write_off(path, verts, faces):
    with open(path, "w") as fh:
        fh.write(f"OFF\n{len(verts)} {len(faces)} 0\n")
        fh.write(((_FMT + " " + _FMT + " " + _FMT + "\n") * len(verts)) % tuple(verts.ravel()))
        fh.write(("3 %d %d %d\n" * len(faces)) % tuple(faces.ravel()))


def _write_rows(path, header, values):
    """values (N,) as one number a line, or (N, S) as comma rows after a header."""
    cols = 1 if values.ndim == 1 else values.shape[1]
    row = ",".join([_FMT] * cols) + "\n"
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.write((row * values.shape[0]) % tuple(values.ravel()))


def _smooth(d, seed):
    from heatflow.mesh import TriangleMesh
    from heatflow.sphere import ground_truth_field, icosphere

    rng = np.random.default_rng(seed)
    base = icosphere(SMOOTH_SUBDIV)
    verts = base.vertices @ _random_rotation(rng).T
    faces = np.asarray(base.faces)
    _write_off(d / "mesh.off", verts, faces)
    np.save(d / "verts.npy", verts)
    np.save(d / "faces.npy", faces)
    fields = np.array([cap_field(verts, rng, CAP_RADIUS) for _ in range(SMOOTH_FIELDS)])
    np.save(d / "fields.npy", fields)
    mesh = TriangleMesh(verts, faces)
    truth = np.array([ground_truth_field(mesh, f, TRUTH_L, TRUTH_SIGMA) for f in fields])
    np.save(d / "truth.npy", truth)
    return {
        "mesh": "mesh.off",
        "sigmas": list(SMOOTH_SIGMAS),
        "setups": SMOOTH_SETUPS,
        "truth_sigma": TRUTH_SIGMA,
        "truth_L": TRUTH_L,
    }


def _group(d, seed):
    from heatflow.sphere import icosphere

    rng = np.random.default_rng(seed)
    verts = icosphere(GROUP_SUBDIV).vertices
    cap = np.arccos(np.clip(verts[:, 2], -1.0, 1.0)) < GROUP_CAP_RADIUS
    n = 2 * GROUP_PER_GROUP
    subjects = rng.standard_normal((GROUP_PASSES, n, len(verts)))
    subjects[:, :GROUP_PER_GROUP] += GROUP_SHIFT * cap
    np.save(d / "subjects.npy", subjects)
    return {
        "subdiv": GROUP_SUBDIV,
        "per_group": GROUP_PER_GROUP,
        "degree": GROUP_DEGREE,
        "setups": GROUP_SETUPS,
        "fdr": FDR_Q,
    }


def stats_arrays(seed):
    """(a, b): per-subject (n, N, S) stacks; a carries a shift on planted vertices."""
    rng = np.random.default_rng(seed)
    shape = (STATS_SUBJECTS, STATS_VERTICES, STATS_SCALES)
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    planted = rng.choice(STATS_VERTICES, STATS_PLANTED, replace=False)
    a[:, planted, :] += STATS_SHIFT
    return a, b


def _stats(d, seed):
    header = ",".join(f"{(i + 2) / 1000:g}" for i in range(STATS_SCALES))
    for group, arr in zip("ab", stats_arrays(seed)):
        stacks = d / f"stacks_{group}"
        fields = d / f"fields_{group}"
        stacks.mkdir()
        fields.mkdir()
        for i, subject in enumerate(arr):
            _write_rows(stacks / f"s{i:02d}.csv", header, subject)
            _write_rows(fields / f"s{i:02d}.csv", None, subject[:, 0])
    return {"fdr": FDR_Q}


GENERATORS = {"smooth-40k": _smooth, "group-study-642": _group, "stats-10k": _stats}


def main():
    ap = argparse.ArgumentParser(description="Generate or reuse one seed's inputs; print their directory.")
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    target, _ = prepare(args.root, args.workload, args.seed)
    print(target)


if __name__ == "__main__":
    main()
