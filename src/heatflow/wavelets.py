"""Band-pass diffusion wavelet transform by polynomial approximation.

The spectral weight is the cubic-spline band-pass kernel g(lambda * t):
a rising power law below x1, the cubic -5 + 11x - 6x^2 + x^3 on [x1, x2],
and a decaying power law above x2. With the default parameters (alpha =
beta = 2, x1 = 1, x2 = 2) the kernel is C^1, g(0) = 0 kills the DC mode,
and g(x1) = g(x2) = 1. No closed-form expansion exists for this weight, so
coefficients come from Gauss-Chebyshev quadrature per scale.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .expansion import _coefficient_stack, apply_expansion, numeric_coefficients, resolve_family
from .fields import FieldStack

_DRIFT_TOL = 1e-10
_MAX_DOUBLINGS = 6


@dataclass(frozen=True)
class WaveletKernel:
    """Cubic-spline band-pass kernel parameters."""

    alpha: float = 2.0
    beta: float = 2.0
    x1: float = 1.0
    x2: float = 2.0
    t: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not 0 < self.x1 < self.x2:
            raise ValueError("need 0 < x1 < x2")
        if self.t <= 0:
            raise ValueError("scaling parameter t must be positive")
        # the power branches equal 1 at their knots by construction; the
        # interior cubic was derived for the default knots, so only check
        # (not enforce) continuity elsewhere
        for knot in (self.x1, self.x2):
            if abs(_cubic(knot) - 1.0) > 1e-9:
                warnings.warn(
                    f"wavelet kernel discontinuous at x = {knot}: "
                    f"cubic gives {_cubic(knot):.6g}, power branch gives 1",
                    RuntimeWarning,
                    stacklevel=3,
                )

    def with_scale(self, t):
        return replace(self, t=float(t))


def _cubic(x):
    return -5.0 + 11.0 * x - 6.0 * x * x + x * x * x


def spline_kernel(kernel, x):
    """Evaluate the band-pass kernel g at x >= 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("spline kernel defined for x >= 0")
    out = np.empty_like(x)
    low = x < kernel.x1
    high = x > kernel.x2
    mid = ~(low | high)
    out[low] = kernel.x1 ** (-kernel.alpha) * x[low] ** kernel.alpha
    out[mid] = _cubic(x[mid])
    with np.errstate(divide="ignore"):
        out[high] = (kernel.x2 / x[high]) ** kernel.beta
    if out.ndim == 0:
        return float(out)
    return out


def kernel_coefficients(kernel, family, m):
    """Chebyshev/Jacobi coefficients of lambda -> g(lambda t) by quadrature.

    The kernel is only C^1 at its knots, so node counts start at 4(m+1) and
    double until the coefficients stop drifting.
    """
    weight = lambda lam: spline_kernel(kernel, lam * kernel.t)
    nodes = 4 * (m + 1)
    coeffs = numeric_coefficients(weight, family, m, nodes=nodes)
    for _ in range(_MAX_DOUBLINGS):
        nodes *= 2
        refined = numeric_coefficients(weight, family, m, nodes=nodes)
        drift = np.abs(refined.coeffs - coeffs.coeffs).max()
        coeffs = refined
        if drift < _DRIFT_TOL:
            break
    else:
        warnings.warn(
            f"wavelet coefficients still drifting {drift:.2e} at {nodes} nodes",
            RuntimeWarning,
            stacklevel=2,
        )
    return coeffs


def _kernel_column(family, kernel, m):
    # the argument order of _coefficient_stack; calls through the module global
    # so that a wrapper bound there sees every cache miss
    return kernel_coefficients(kernel, family, m)


def wavelet_transform(op, f, kernel, m=300):
    """Band-pass filter f with the kernel at its scale t.

    A one-scale wavelet_stack: b is the operator's spectral bound, and the
    coefficients (numeric; no closed form exists) are cached.
    """
    coeffs = _coefficient_stack(_kernel_column, resolve_family(op), (kernel,), m)
    return apply_expansion(op, coeffs, f)[:, 0]


def wavelet_stack(op, f, kernel, scales, m=300):
    """One wavelet transform per scale t, columns in input order.

    The S scales are the columns of one (m+1, S) coefficient matrix, so the
    whole stack runs one recurrence at m matvecs. The matrix is cached on
    (kernel at each scale, family, m): repeated stacks compute no
    coefficients, and kernels that differ only in t share one entry.
    """
    scales = [float(t) for t in scales]
    if not scales:
        raise ValueError("scales must be nonempty")
    if any(t <= 0 for t in scales):
        raise ValueError("scales must be positive")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly increasing")
    kernels = tuple(kernel.with_scale(t) for t in scales)
    coeffs = _coefficient_stack(_kernel_column, resolve_family(op), kernels, m)
    return FieldStack(apply_expansion(op, coeffs, f), [repr(t) for t in scales], "scales")
