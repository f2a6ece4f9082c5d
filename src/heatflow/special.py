"""Scalar special functions used by the expansion coefficients and the stats p-values.

Only what the toolkit needs: the confluent hypergeometric function 1F1,
summed in log space for the Jacobi coefficients, and checked wrappers for
log-gamma and the regularized incomplete beta function. The Bessel factor of
the Chebyshev coefficients comes straight from scipy.special.ive. No general
special-function coverage.
"""

import math

import numpy as np
from scipy import special as _sp

# Series truncation rule: stop once a term's relative contribution stays
# below this for three consecutive terms.
_SERIES_EPS = 1e-16
_SERIES_RUN = 3
_MAX_TERMS = 200000


def _kummer_series(a, b, z):
    """Sum of the 1F1 series at z >= 0, returned as (sum, log_scale).

    The true series value is sum * exp(log_scale); the split keeps huge sums
    representable.
    """
    term = 1.0
    total = 1.0
    log_scale = 0.0
    small_run = 0
    for k in range(_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        if abs(term) < _SERIES_EPS * abs(total):
            small_run += 1
            if small_run >= _SERIES_RUN:
                return total, log_scale
        else:
            small_run = 0
        if abs(total) > 1e280:
            total *= 1e-280
            term *= 1e-280
            log_scale += 280.0 * math.log(10.0)
    raise RuntimeError(
        f"1F1 series did not converge (a={a}, b={b}, z={z}, "
        f"last term {term:.3e}, partial sum {total:.3e})"
    )


def kummer_1f1_log(a, b, z):
    """(sign, log|1F1(a; b; z)|) with the same domain rules as kummer_1f1."""
    if b <= 0 and float(b).is_integer():
        raise ValueError(f"b must not be a nonpositive integer, got b={b}")
    if z < 0:
        # Kummer transform: the direct series alternates at z < 0 and cancels
        # catastrophically, so evaluate e^z * 1F1(b-a; b; -z) instead.
        total, log_scale = _kummer_series(b - a, b, -z)
    else:
        total, log_scale = _kummer_series(a, b, z)
    if total == 0.0:
        return 0.0, -math.inf
    sign = math.copysign(1.0, total)
    logabs = math.log(abs(total)) + log_scale + min(z, 0.0)
    return sign, logabs


def kummer_1f1(a, b, z):
    """Confluent hypergeometric function 1F1(a; b; z).

    Negative arguments go through the Kummer transform to a positive-argument
    series. b must not be a nonpositive integer.
    """
    sign, logabs = kummer_1f1_log(a, b, z)
    if logabs == -math.inf:
        return 0.0
    if logabs > 709.0:
        raise RuntimeError(
            f"1F1(a={a}, b={b}, z={z}) overflows double precision "
            f"(log magnitude {logabs:.2f})"
        )
    return sign * math.exp(logabs)


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def regularized_incomplete_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b).

    Accepts scalars or arrays in x; a, b must be positive reals.
    """
    if not (np.all(np.asarray(a) > 0) and np.all(np.asarray(b) > 0)):
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("x must lie in [0, 1]")
    out = _sp.betainc(a, b, x_arr)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out
