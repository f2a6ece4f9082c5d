"""Independent checks of every job's outputs, run in the parent process.

One checker per workload builds its references once per run and returns, for
each job, the reason its outputs are wrong or None; a job that raised in the
worker is failed before it gets here. References that depend only on a job's
inputs are computed once and compared with every job that used those inputs.

- smooth-40k: ``scipy.sparse.linalg.expm_multiply`` on A^-1/2 C A^-1/2
  (Al-Mohy & Higham, SISC 2011), mass conservation sum(A g) = sum(A f), and
  the sphere acceptance gate MSE <= 3e-5 against the analytic SPHARM truth.
- group-study-642: dense eigenpairs (``heatflow.solvers.eigen_reference``)
  for the heat and wavelet stacks, and the study's statistics as below.
- stats-10k (and the group study's statistics): ``scipy.stats.ttest_ind``, a
  per-vertex Hotelling solve, scipy's t and F tails for the p-values, and
  Benjamini-Hochberg by a linear scan.
"""

import numpy as np
import scipy.sparse as sp
import scipy.stats
from scipy.sparse.linalg import expm_multiply

# Agreement observed at the seed commit is quoted beside each tolerance.
HEAT_TOL = 1e-9  # expm_multiply and dense eigen agree to 2e-15 .. 5e-14
MASS_TOL = 1e-10  # relative to sum(A |f|); observed below 1e-15
TRUTH_GATE = 3e-5  # acceptance criterion 1 at 40962 vertices; observed 6.5e-9
WAVELET_TOL = 2e-4  # relative to max |reference|; observed 1.5e-5 at degree 120
STAT_TOL = 1e-8  # relative; statistic and p-value
COND_EPS = 1e-14  # statistic tolerance per unit of covariance condition number
P_FLOOR = 1e-300
# The rule heatflow.stats documents for singular pooled covariances: flag when
# the smallest eigenvalue is below SINGULAR_REL * trace/S, then add
# RIDGE_REL * trace/S to the diagonal. The group study's 10-step heat and
# wavelet features are collinear enough that every vertex is flagged.
SINGULAR_REL = 1e-12
RIDGE_REL = 1e-10


def spline_kernel(x):
    """The default cubic-spline band-pass kernel g(x), written out from its
    definition: x^2 below 1, the cubic on [1, 2], (2/x)^2 above 2."""
    x = np.asarray(x, dtype=float)
    cubic = -5.0 + 11.0 * x - 6.0 * x**2 + x**3
    with np.errstate(divide="ignore"):
        high = (2.0 / x) ** 2
    return np.where(x < 1.0, x**2, np.where(x > 2.0, high, cubic))


def bh_linear_scan(p, q):
    """Benjamini-Hochberg rejections by scanning k = N..1 for p_(k) <= k q / N."""
    order = sorted(p)
    n = len(order)
    for k in range(n, 0, -1):
        if order[k - 1] <= k * q / n:
            return np.asarray(p) <= order[k - 1]
    return np.zeros(n, dtype=bool)


def hotelling_per_vertex(a, b):
    """Reference for Hotelling's T^2 from (n, N, S) groups, one solve a vertex.

    Returns (T^2, tolerance, p_of): the tolerance grows with the condition
    number of each pooled covariance, and p_of maps T^2 to its F p-value.
    """
    n_a, n_vertices, s = a.shape
    n_b = b.shape[0]
    n = n_a + n_b
    t2 = np.empty(n_vertices)
    cond = np.empty(n_vertices)
    for i in range(n_vertices):
        xa, xb = a[:, i, :], b[:, i, :]
        pooled = ((n_a - 1) * np.cov(xa, rowvar=False) + (n_b - 1) * np.cov(xb, rowvar=False)) / (n - 2)
        scale = max(np.trace(pooled) / s, 1e-300)
        if np.linalg.eigvalsh(pooled)[0] <= SINGULAR_REL * scale:
            pooled += RIDGE_REL * scale * np.eye(s)
        d = xa.mean(axis=0) - xb.mean(axis=0)
        t2[i] = n_a * n_b / n * d @ np.linalg.solve(pooled, d)
        cond[i] = np.linalg.cond(pooled)

    def p_of(stat):
        return scipy.stats.f.sf(stat * (n - s - 1) / (s * (n - 2)), s, n - s - 1)

    return t2, STAT_TOL + COND_EPS * cond, p_of


def two_sample_t(a, b):
    """Reference two-sample T (pooled variance) over axis 0, as (T, tolerance, p_of)."""
    dof = a.shape[0] + b.shape[0] - 2

    def p_of(stat):
        return 2.0 * scipy.stats.t.sf(np.abs(stat), dof)

    return scipy.stats.ttest_ind(a, b, axis=0).statistic, STAT_TOL, p_of


def _compare_statmap(path, reference, q):
    """Reason the StatMap CSV at path disagrees with the reference, or None.

    The statistic is checked against the reference, the p-values against
    scipy's distribution at the reported statistic, and the BH decisions
    against a linear scan over the reported p-values.
    """
    stat, tol, p_of = reference
    got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if got.shape != (len(stat), 4):
        return f"{path.name}: shape {got.shape}"
    err_stat = np.abs(got[:, 1] - stat) / np.maximum(np.abs(stat), 1.0)
    if np.any(~(err_stat <= tol)):
        i = int(np.argmax(err_stat / tol))
        return f"{path.name}: statistic error {err_stat[i]:.3g} > {np.broadcast_to(tol, stat.shape)[i]:.3g} at vertex {i}"
    p = p_of(got[:, 1])
    err_p = np.max(np.abs(got[:, 2] - p) / np.maximum(p, P_FLOOR))
    if not err_p <= STAT_TOL:
        return f"{path.name}: p-value error {err_p:.3g}"
    mismatched = int(np.sum(got[:, 3].astype(bool) != bh_linear_scan(got[:, 2], q)))
    if mismatched:
        return f"{path.name}: {mismatched} BH decisions differ"
    return None


class SmoothCheck:
    def __init__(self, root, inputs, params):
        from heatflow.mesh import TriangleMesh, assemble_lb_operator

        mesh = TriangleMesh(np.load(inputs / "verts.npy"), np.load(inputs / "faces.npy"))
        self.op = assemble_lb_operator(mesh)
        self.fields = np.load(inputs / "fields.npy")
        self.truth = np.load(inputs / "truth.npy")
        self.truth_sigma = params["truth_sigma"]
        self.half = np.sqrt(self.op.A)
        self.sym = sp.diags(1.0 / self.half) @ self.op.C @ sp.diags(1.0 / self.half)
        self.refs = {}
        self.mses = []

    def job(self, rundir, job):
        A = self.op.A
        f = self.fields[job["field"]]
        key = (job["field"], job["sigma"])
        if key not in self.refs:
            self.refs[key] = expm_multiply(-job["sigma"] * self.sym, self.half * f) / self.half
        g = np.loadtxt(rundir / job["out"])
        if g.shape != f.shape:
            return f"output has shape {g.shape}"
        if job["sigma"] == self.truth_sigma:
            mse = float(np.mean((g - self.truth[job["field"]]) ** 2))
            self.mses.append(mse)
            if not mse <= TRUTH_GATE:
                return f"MSE {mse:.3g} against the SPHARM truth"
        err = np.max(np.abs(g - self.refs[key]))
        if not err <= HEAT_TOL:
            return f"max error {err:.3g} against expm_multiply"
        mass = abs(A @ g - A @ f) / (A @ np.abs(f))
        if not mass <= MASS_TOL:
            return f"mass changed by {mass:.3g} (relative)"
        return None

    def extras(self):
        return {"mse_vs_truth": float(np.median(self.mses)) if self.mses else None}


class GroupCheck:
    def __init__(self, root, inputs, params):
        from heatflow.mesh import assemble_lb_operator
        from heatflow.solvers import eigen_reference
        from heatflow.sphere import icosphere

        steps, sigma_step, scales = _study_constants(root)
        self.op = assemble_lb_operator(icosphere(params["subdiv"]))
        es = eigen_reference(self.op, self.op.n_vertices)
        self.psi = es.eigenvectors
        self.heat_w = np.exp(-np.outer(es.eigenvalues, sigma_step * np.arange(1, steps + 1)))
        self.wav_w = spline_kernel(np.outer(es.eigenvalues, scales))
        self.subjects = np.load(inputs / "subjects.npy")
        self.k, self.q = params["per_group"], params["fdr"]
        self.features = {}  # subject -> (heat, wavelet) of the current pass

    def job(self, rundir, job):
        if job["subject"] == 0:
            self.features = {}
        f = self.subjects[job["data"], job["subject"]]
        proj = self.psi.T @ (self.op.A * f)
        with np.load(rundir / job["out"]) as out:
            heat, wav = out["heat"], out["wav"]
        heat_ref = self.psi @ (self.heat_w * proj[:, None])
        wav_ref = self.psi @ (self.wav_w * proj[:, None])
        if heat.shape != heat_ref.shape or wav.shape != wav_ref.shape:
            return f"feature shapes {heat.shape} and {wav.shape}"
        self.features[job["subject"]] = (heat, wav)
        err_heat = np.max(np.abs(heat - heat_ref)) / np.max(np.abs(f))
        if not err_heat <= HEAT_TOL:
            return f"heat stack error {err_heat:.3g} against dense eigenpairs"
        err_wav = np.max(np.abs(wav - wav_ref)) / np.max(np.abs(wav_ref))
        if not err_wav <= WAVELET_TOL:
            return f"wavelet stack error {err_wav:.3g} against dense eigenpairs"
        if "statmaps" in job:
            return self._check_pass(rundir, job)
        return None

    def _check_pass(self, rundir, job):
        k = self.k
        if len(self.features) != 2 * k:
            return f"pass {job['pass']} lacks the features of a failed job"
        raw = self.subjects[job["data"]]
        heat = np.stack([self.features[i][0] for i in range(2 * k)])
        wav = np.stack([self.features[i][1] for i in range(2 * k)])
        refs = {
            "ttest": two_sample_t(raw[:k], raw[k:]),
            "hotelling_heat": hotelling_per_vertex(heat[:k], heat[k:]),
            "hotelling_wavelet": hotelling_per_vertex(wav[:k], wav[k:]),
        }
        for name, reference in refs.items():
            reason = _compare_statmap(rundir / job["statmaps"][name], reference, self.q)
            if reason:
                return reason
        return None

    def extras(self):
        return {}


def _study_constants(root):
    """SMOOTH_STEPS, SIGMA_STEP and WAVELET_SCALES of the group-study script."""
    import importlib.util

    path = root / "scripts" / "run_group_study.py"
    spec = importlib.util.spec_from_file_location("run_group_study_constants", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SMOOTH_STEPS, mod.SIGMA_STEP, np.asarray(mod.WAVELET_SCALES, dtype=float)


class StatsCheck:
    def __init__(self, root, inputs, params):
        from inputs import stats_arrays

        a, b = stats_arrays(params["seed"])
        self.q = params["fdr"]
        self.refs = {"ttest": two_sample_t(a[:, :, 0], b[:, :, 0]), "hotelling": hotelling_per_vertex(a, b)}

    def job(self, rundir, job):
        for test, reference in self.refs.items():
            reason = _compare_statmap(rundir / job[test], reference, self.q)
            if reason:
                return reason
        return None

    def extras(self):
        return {}


CHECKS = {"smooth-40k": SmoothCheck, "group-study-642": GroupCheck, "stats-10k": StatsCheck}


def check(workload, root, inputs, params, rundir, jobs):
    """({job_id: reason}, extras) for the jobs that completed in the worker.

    An output that cannot be read fails its job instead of ending the run.
    """
    checker = CHECKS[workload](root, inputs, params)
    failures = {}
    for job in jobs:
        if job["error"] is not None:
            continue
        try:
            reason = checker.job(rundir, job)
        except (OSError, ValueError, KeyError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            failures[job["id"]] = reason
    return failures, checker.extras()
