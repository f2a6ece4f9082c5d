"""The confluent hypergeometric function 1F1, summed in log space.

The Jacobi heat coefficients need 1F1 at magnitudes past the double range,
where scipy.special.hyp1f1 overflows. Every other special function comes
from scipy.special or math directly.
"""

import math

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
    """(sign, log|1F1(a; b; z)|); b must not be a nonpositive integer.

    Negative arguments go through the Kummer transform to a positive-argument
    series. A zero sum gives (0.0, -inf).
    """
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
