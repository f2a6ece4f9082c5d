"""Band-pass diffusion wavelet transform by polynomial approximation.

The spectral weight is the cubic-spline band-pass kernel g(lambda * t) of
Hammond, Vandergheynst & Gribonval (ACHA 2011), with its knots fixed at 1
and 2: x^alpha below 1, the cubic -5 + 11x - 6x^2 + x^3 = 1 + (x-1)(x-2)(x-3)
on [1, 2], and (2/x)^beta above 2. The cubic equals 1 at both knots, so the
kernel is continuous for every alpha, beta > 0 and C^1 at the default
alpha = beta = 2; g(0) = 0 kills the DC mode. No closed-form expansion
exists for this weight, so coefficients come from Gauss-Chebyshev quadrature
per scale.
"""

from dataclasses import dataclass, replace

import numpy as np

from .expansion import _coefficient_stack, apply_expansion, numeric_coefficients, resolve_family
from .fields import FieldStack

_X1, _X2 = 1.0, 2.0  # the knots: the interior cubic and both power branches are 1 there


@dataclass(frozen=True)
class WaveletKernel:
    """Cubic-spline band-pass kernel parameters."""

    alpha: float = 2.0
    beta: float = 2.0
    t: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "t"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value}")

    def with_scale(self, t):
        return replace(self, t=float(t))


def spline_kernel(kernel, x):
    """Evaluate the band-pass kernel g at x >= 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("spline kernel defined for x >= 0")
    out = np.empty_like(x)
    low = x < _X1
    high = x > _X2
    mid = ~(low | high)
    out[low] = x[low] ** kernel.alpha  # (x / _X1)^alpha with _X1 = 1
    xm = x[mid]
    out[mid] = -5.0 + 11.0 * xm - 6.0 * xm * xm + xm * xm * xm
    with np.errstate(divide="ignore"):
        out[high] = (_X2 / x[high]) ** kernel.beta
    if out.ndim == 0:
        return float(out)
    return out


def kernel_coefficients(kernel, family, m):
    """Chebyshev/Jacobi coefficients of lambda -> g(lambda t) by one quadrature.

    One Gauss quadrature at K = 8(m+1) nodes, for Chebyshev one DCT-II. There
    aliasing folds each c_j with j >= 2K - m = 15m + 16 onto at most one kept
    degree, so sum_{n<=m} |c~_n - c_n| <= sum_{j>15m+15} |c_j|: below the
    truncation tail past m that the degree-m expansion already leaves.
    """
    weight = lambda lam: spline_kernel(kernel, lam * kernel.t)
    return numeric_coefficients(weight, family, m, nodes=8 * (m + 1))


def _kernel_column(family, kernel, m):
    # the argument order of _coefficient_stack; calls through the module global
    # so that a wrapper bound there sees every cache miss
    return kernel_coefficients(kernel, family, m)


def wavelet_transform(op, f, kernel, m=300):
    """Band-pass filter f with the kernel at its scale t.

    A one-scale wavelet_stack: b is the operator's spectral bound, and the
    coefficients (numeric; no closed form exists) are cached.
    """
    return wavelet_stack(op, f, kernel, [kernel.t], m).values[:, 0]


def _scale_kernels(kernel, scales):
    """The kernel at each scale t: scales must be nonempty and strictly increasing."""
    kernels = tuple(kernel.with_scale(t) for t in scales)
    if not kernels:
        raise ValueError("scales must be nonempty")
    if any(b.t <= a.t for a, b in zip(kernels, kernels[1:])):
        raise ValueError("scales must be strictly increasing")
    return kernels


def wavelet_stack(op, f, kernel, scales, m=300):
    """One wavelet transform per scale t, columns in input order.

    The S scales are the columns of one (m+1, S) coefficient matrix, so the
    whole stack runs one recurrence at m matvecs. The matrix is cached on
    (kernel at each scale, family, m): repeated stacks compute no
    coefficients, and kernels that differ only in t share one entry.
    """
    kernels = _scale_kernels(kernel, scales)
    coeffs = _coefficient_stack(_kernel_column, resolve_family(op), kernels, m)
    return FieldStack(apply_expansion(op, coeffs, f), [repr(k.t) for k in kernels], "scales")
