"""Heat-diffusion solvers.

heat_smooth is the production path: truncated polynomial expansion of the
heat weight applied through sparse matvecs. It, heat_stack and
iterative_smooth take every heat expansion from _heat_expansion, through the
shared coefficient cache. fem_euler_smooth (explicit forward Euler) and
eigen_smooth (dense eigenfunction expansion) are the reference solvers used
for benchmarking and as oracles.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .expansion import (
    ExpansionCoefficients, _check_sigma_degree, _coefficient_stack, apply_expansion,
    estimate_lambda_max, heat_coefficients, resolve_family,
)
from .fields import FieldStack
from .mesh import _check_field, apply_lb

_DENSE_EIGEN_LIMIT = 5000
# Hermite/Laguerre terms grow before they decay once sigma*lambda_max is
# large; warn past this product.
_UNSCALED_CAUTION = 30.0


@dataclass(frozen=True)
class EigenSystem:
    """Generalized eigenpairs of C psi = lambda A psi, A-orthonormalized."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        psi = np.asarray(self.eigenvectors, dtype=float)
        if lam.ndim != 1 or psi.ndim != 2 or psi.shape[1] != lam.size:
            raise ValueError("eigenvalues must be (k,), eigenvectors (N, k)")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", psi)


def _heat_expansion(op, sigmas, family=None, m=None):
    """(family with b, (m+1, S) coefficients) of the heat weights at sigmas on op.

    Checks every sigma and m, and warns when an unscaled family's terms grow
    before they decay at the largest sigma. All sigmas 0 give the identity,
    degree 0 whatever m; otherwise the columns come from the coefficient cache.
    """
    sigmas = tuple(float(s) for s in sigmas)
    if not sigmas:
        raise ValueError("sigmas must be nonempty")
    for s in sigmas:
        _check_sigma_degree(s, m)
    family = resolve_family(op, family)
    top = max(sigmas)
    if not family.scaled and top > 0:  # sigma 0 starts no Lanczos solve
        product = estimate_lambda_max(op) * top
        if product > _UNSCALED_CAUTION:
            warnings.warn(f"{family.kind} expansion with sigma*lambda_max = {product:.3g} grows before "
                          "it decays; expect slow or failing convergence", RuntimeWarning, stacklevel=3)
    if top == 0.0:
        return family, ExpansionCoefficients(family, None, np.ones((1, len(sigmas))))
    return family, _coefficient_stack(heat_coefficients, family, sigmas, m)


def heat_smooth(op, f, sigma, family=None, m=None):
    """Heat kernel convolution of f at diffusion time sigma: the one-column heat stack.

    family defaults to Chebyshev with b auto-set to the certified
    spectral_bound of the operator. m=None picks the degree from the coefficient tail (see
    expansion.heat_coefficients): for Chebyshev, the smallest m whose tail
    sum_{n>m} |c_n| is at most 1e-16, a bound on the truncation error of the
    heat weight over [0, b]. Hermite and Laguerre fall back to degree 1000
    with no bound. An explicit m runs exactly m degrees; sigma = 0 returns f
    with no recurrence, whatever m. Repeated calls reuse cached coefficients.
    """
    _, coeffs = _heat_expansion(op, [sigma], family, m)
    return apply_expansion(op, coeffs, f)[:, 0]


def heat_stack(op, f, sigmas, m=None):
    """Heat kernel convolutions of f at several diffusion times, one column each.

    Every column is a polynomial in the same operator, so the whole stack
    runs as one recurrence of (m+1, S) coefficients. m=None picks each
    sigma's degree as heat_smooth does and zero-pads the smaller ones to the
    largest; an explicit m runs exactly m degrees. The expansion is in
    Chebyshev polynomials with b from the operator, as in wavelet_stack, and
    repeated stacks reuse cached coefficients. Returns a FieldStack with
    labels repr(sigma) and axis "scales".
    """
    sigmas = tuple(float(s) for s in sigmas)
    _, coeffs = _heat_expansion(op, sigmas, m=m)
    return FieldStack(apply_expansion(op, coeffs, f), [repr(s) for s in sigmas], "scales")


def iterative_smooth(op, f, sigma_step, k, family=None, m=None):
    """k repeated convolutions with step sigma_step (semigroup property).

    The expansion is heat_smooth's at sigma_step, coefficients and growth
    warning included, and is reused for every step. Returns the list of k
    fields after 1, 2, ..., k steps. heat_stack computes the same fields at
    sigmas k * sigma_step directly, as one recurrence.
    """
    if not (math.isfinite(sigma_step) and sigma_step > 0):
        raise ValueError(f"sigma_step must be a finite number > 0, got {sigma_step}")
    k = int(k)
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    _, coeffs = _heat_expansion(op, [sigma_step], family, m)
    out = []
    cur = f
    for _ in range(k):
        cur = apply_expansion(op, coeffs, cur)[:, 0]
        out.append(cur)
    return out


def _euler_min_steps(op, sigma):
    """Smallest n_iter with (sigma / n_iter) * lambda_max < 2: forward Euler's stability rule."""
    return math.floor(sigma * estimate_lambda_max(op) / 2.0) + 1


def fem_euler_smooth(op, f, sigma, n_iter):
    """Reference solver: explicit forward Euler g <- (I - delta Delta)^n f.

    delta = sigma / n_iter must satisfy delta < 2 / lambda_max
    (_euler_min_steps) or the scheme is unstable; violations raise before any
    iteration runs.
    """
    f = _check_field(op, f)
    _check_sigma_degree(sigma, None)
    n_iter = int(n_iter)
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    if sigma == 0.0:
        return f.copy()
    delta = sigma / n_iter
    low = _euler_min_steps(op, sigma)
    if n_iter < low:
        raise ValueError(
            f"forward Euler unstable: delta*lambda_max = {delta * estimate_lambda_max(op):.6g} >= 2 "
            f"(sigma={sigma}, n_iter={n_iter}; the smallest stable n_iter is {low})"
        )
    g = f.copy()
    for _ in range(n_iter):
        g -= delta * apply_lb(op, g)
    return g


def eigen_reference(op, k):
    """k smallest generalized eigenpairs of C psi = lambda A psi (dense path).

    Solved on the symmetrized A^-1/2 C A^-1/2 and mapped back, which makes
    the eigenvectors A-orthonormal. Guarded to meshes of at most 5000
    vertices; this path exists as oracle and baseline only.
    """
    n = op.n_vertices
    k = int(k)
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n > _DENSE_EIGEN_LIMIT:
        raise ValueError(
            f"dense eigensolver limited to {_DENSE_EIGEN_LIMIT} vertices, mesh has {n}"
        )
    d = 1.0 / np.sqrt(op.A)
    B = (d[:, None] * op.C.toarray()) * d[None, :]
    B = 0.5 * (B + B.T)
    lam, U = scipy.linalg.eigh(B, subset_by_index=[0, k - 1])
    return EigenSystem(lam, d[:, None] * U)


def eigen_smooth(es, op, f, sigma):
    """Spectral reference solution Psi diag(e^(-lambda sigma)) Psi^T A f."""
    f = _check_field(op, f)
    if es.eigenvectors.shape[0] != op.n_vertices:
        raise ValueError("eigen system does not match operator size")
    _check_sigma_degree(sigma, None)
    proj = es.eigenvectors.T @ (op.A * f)
    return es.eigenvectors @ (np.exp(-es.eigenvalues * sigma) * proj)


def mse(a, b):
    """Mean squared error between two fields."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(d @ d / a.size)
