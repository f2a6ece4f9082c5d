"""Vertex-wise group statistics on fields and multiscale stacks.

Two-sample pooled-variance T maps, Hotelling's T^2 over per-vertex feature
vectors, Benjamini-Hochberg FDR, and per-vertex Pearson correlation maps.
Every p-value comes from the regularized incomplete beta function: the
two-sided Student-t tail of the T and correlation maps, the upper F tail of
Hotelling's. Sums that overflow are refused by vertex, never mapped.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .fields import FieldStack, _encode, write_json

_RIDGE_REL = 1e-10
_SINGULAR_REL = 1e-12


@dataclass(frozen=True)
class StatMap:
    """Per-vertex statistic, p-values, BH-FDR mask (all False without an FDR
    rate), degenerate-vertex flags and group sizes."""

    statistic: np.ndarray
    p_values: np.ndarray
    dof: tuple
    significant: np.ndarray
    flagged: np.ndarray
    n_a: int
    n_b: int
    fdr_q: float | None = None
    fdr_threshold: float | None = None
    min_rejected_stat: float | None = None

    def __post_init__(self):
        stat = np.asarray(self.statistic, dtype=float)
        p = np.asarray(self.p_values, dtype=float)
        if stat.shape != p.shape or stat.ndim != 1:
            raise ValueError("statistic and p_values must be matching vectors")
        if not np.all((p >= 0) & (p <= 1)):
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "statistic", stat)
        object.__setattr__(self, "p_values", p)


def _as_subject_matrix(stack):
    if not isinstance(stack, FieldStack):
        raise TypeError("expected a FieldStack of subjects")
    if stack.axis_meaning != "subjects":
        raise ValueError("stack axis must be 'subjects'")
    return stack.values


def student_t_p_value(t, dof):
    """Two-sided Student-t p-value via the incomplete beta function."""
    t = np.asarray(t, dtype=float)
    x = dof / (dof + t * t)
    return betainc(dof / 2.0, 0.5, x)


def f_p_value(f, d1, d2):
    """Upper-tail F(d1, d2) p-value via the incomplete beta function."""
    f = np.asarray(f, dtype=float)
    x = d2 / (d2 + d1 * np.maximum(f, 0.0))
    return betainc(d2 / 2.0, d1 / 2.0, x)


def bh_fdr(p_values, q):
    """Benjamini-Hochberg: largest k with p_(k) <= k q / N decides the cutoff.

    Returns (threshold, reject_mask); threshold is None when nothing is
    rejected. Ties at the threshold are all rejected.
    """
    p = np.asarray(p_values, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 < q < 1.0:
        raise ValueError(f"FDR rate must be in (0, 1), got {q}")
    n = p.size
    if n == 0:
        return None, np.zeros(0, dtype=bool)
    order = np.sort(p)
    ranks = np.arange(1, n + 1)
    ok = order <= ranks * q / n
    if not ok.any():
        return None, np.zeros(n, dtype=bool)
    threshold = float(order[np.nonzero(ok)[0].max()])
    return threshold, p <= threshold


def _finalize(stat, p, dof, flagged, fdr_q, n_a, n_b):
    if fdr_q is None:
        threshold, mask = None, np.zeros(stat.size, dtype=bool)
    else:
        threshold, mask = bh_fdr(p, fdr_q)
    min_stat = float(np.abs(stat[mask]).min()) if mask.any() else None
    return StatMap(
        stat, p, dof, mask, flagged, n_a, n_b,
        fdr_q=fdr_q, fdr_threshold=threshold, min_rejected_stat=min_stat,
    )


def two_sample_t_map(group_a, group_b, fdr_q=None):
    """Pooled-variance two-sample T map; sign is mean(A) - mean(B).

    Vertices with zero pooled variance get T = 0, p = 1 and a flag; a pooled
    variance that overflows, as it does wherever a group mean does, is refused.
    """
    a = _as_subject_matrix(group_a)
    b = _as_subject_matrix(group_b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"vertex counts differ: {a.shape[0]} vs {b.shape[0]}")
    n_a, n_b = a.shape[1], b.shape[1]
    if n_a < 2 or n_b < 2:
        raise ValueError("need at least two subjects per group")
    dof = n_a + n_b - 2
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a.mean(axis=1) - b.mean(axis=1)
        pooled = ((n_a - 1) * a.var(axis=1, ddof=1) + (n_b - 1) * b.var(axis=1, ddof=1)) / dof
    bad = np.flatnonzero(~np.isfinite(pooled))
    if bad.size:
        raise ValueError(f"pooled variance overflows at vertex {bad[0]}: its values are too large")
    scale = np.sqrt(pooled * (1.0 / n_a + 1.0 / n_b))
    flagged = scale == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(flagged, 0.0, diff / np.where(flagged, 1.0, scale))
    p = student_t_p_value(t, dof)
    p[flagged] = 1.0
    return _finalize(t, p, (dof,), flagged, fdr_q, n_a, n_b)


def _as_subject_scale_array(group):
    """The (n_subjects, N, S) float array of a group, not copied when it is one."""
    arr = np.asarray(group, dtype=float)
    if arr.ndim != 3:
        raise ValueError("expected (n_subjects, N, S) array")
    return arr


def hotelling_t2_map(group_a, group_b, fdr_q=None):
    """Two-sample Hotelling's T^2 over S-dimensional per-vertex features.

    group_a and group_b are (n_subjects, N, S) arrays of per-subject stacks.
    T^2 = (n_a n_b / n) d^T S_p^-1 d with pooled covariance S_p; p-values
    through F = T^2 (n - S - 1) / (S (n - 2)) on (S, n - S - 1) dof.
    Singular pooled covariances are ridge-regularized and flagged; a covariance
    or mean difference that overflows is refused with a ValueError naming its vertex.
    """
    a = _as_subject_scale_array(group_a)
    b = _as_subject_scale_array(group_b)
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"feature shapes differ: {a.shape[1:]} vs {b.shape[1:]}")
    n_a, n_vertices, s = a.shape
    n_b = b.shape[0]
    n = n_a + n_b
    if n - 2 <= s:
        raise ValueError(f"need n_a + n_b - 2 > S, got n={n} with S={s}")
    # (ca^T ca + cb^T cb) / (n - 2), each centred group freed once its product is in
    with np.errstate(over="ignore", invalid="ignore"):
        ma = a.mean(axis=0)
        mb = b.mean(axis=0)
        diff = ma - mb  # (N, S)
        ca = a - ma
        cov = np.einsum("ans,ant->nst", ca, ca)
        del ca
        cb = b - mb
        cov += np.einsum("ans,ant->nst", cb, cb)
        del cb
        cov /= n - 2
    bad = np.flatnonzero(~(np.isfinite(cov).all(axis=(1, 2)) & np.isfinite(diff).all(axis=1)))
    if bad.size:
        v = bad[0]
        if not (np.isfinite(a[:, v]).all() and np.isfinite(b[:, v]).all()):
            raise ValueError(f"features at vertex {v} are not finite")
        what = "mean difference" if np.isfinite(cov[v]).all() else "pooled covariance"
        raise ValueError(f"{what} overflows at vertex {v}: its features are too large")
    trace = np.trace(cov, axis1=1, axis2=2)
    eigmin = np.linalg.eigvalsh(cov)[:, 0]
    flagged = eigmin <= _SINGULAR_REL * np.maximum(trace / s, 1e-300)
    if flagged.any():
        ridge = _RIDGE_REL * np.maximum(trace / s, 1e-300)
        cov = cov + flagged[:, None, None] * ridge[:, None, None] * np.eye(s)
    sol = np.linalg.solve(cov, diff[:, :, None])[:, :, 0]
    t2 = (n_a * n_b / n) * np.einsum("ns,ns->n", diff, sol)
    t2 = np.maximum(t2, 0.0)
    d2 = n - s - 1
    f = t2 * d2 / (s * (n - 2.0))
    p = f_p_value(f, s, d2)
    return _finalize(t2, p, (s, d2), flagged, fdr_q, n_a, n_b)


def correlation_map(stack_a, stack_b, fdr_q=None):
    """Per-vertex Pearson correlation across subjects aligned column by column.

    p is the exact two-sided Student-t tail on n - 2 dof for independent
    bivariate-normal data, I_{(1 - r)(1 + r)}((n - 2) / 2, 1/2) in r, so |r| = 1
    gives p = 0. Zero-variance vertices are flagged with r = 0, p = 1; a
    variance product that overflows (it bounds the cross-product sum) is refused.
    """
    a = _as_subject_matrix(stack_a)
    b = _as_subject_matrix(stack_b)
    if a.shape != b.shape:
        raise ValueError(f"stack shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[1]
    if n < 3:
        raise ValueError("need at least 3 subjects for a correlation p-value")
    with np.errstate(over="ignore", invalid="ignore"):
        ca = a - a.mean(axis=1, keepdims=True)
        cb = b - b.mean(axis=1, keepdims=True)
        va = np.einsum("ns,ns->n", ca, ca)
        vb = np.einsum("ns,ns->n", cb, cb)
        bad = np.flatnonzero(~np.isfinite(va * vb))
    if bad.size:
        raise ValueError(f"variance product overflows at vertex {bad[0]}: its values are too large")
    flagged = (va == 0.0) | (vb == 0.0)
    denom = np.sqrt(np.where(flagged, 1.0, va * vb))
    r = np.where(flagged, 0.0, np.einsum("ns,ns->n", ca, cb) / denom)
    r = np.clip(r, -1.0, 1.0)
    p = betainc((n - 2) / 2.0, 0.5, (1.0 - r) * (1.0 + r))
    return _finalize(r, p, (n - 2,), flagged, fdr_q, n, n)


def write_statmap(statmap, csv_path, json_path):
    """StatMap CSV (vertex,stat,p,significant) plus the JSON sidecar."""
    rows = np.column_stack([np.arange(statmap.statistic.size), statmap.statistic,
                            statmap.p_values, statmap.significant])
    with open(csv_path, "w") as fh:
        fh.write("vertex,stat,p,significant\n")
        fh.writelines(_encode(rows, ints=(0, 3)))
    write_json(json_path, {
        "dof": list(statmap.dof),
        "fdr_q": statmap.fdr_q,
        "fdr_threshold": statmap.fdr_threshold,
        "n_a": statmap.n_a,
        "n_b": statmap.n_b,
        "min_rejected_stat": statmap.min_rejected_stat,
        "n_flagged": int(statmap.flagged.sum()),
    })
