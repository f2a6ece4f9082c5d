import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from heatflow.expansion import chebyshev_coefficients
from heatflow.special import kummer_1f1_log

mp.mp.dps = 40


def bessel_series_oracle(n, x):
    """Direct power series e^-x * sum_k (x/2)^(n+2k) / (k! (n+k)!) in mpmath."""
    x = mp.mpf(x)
    total = mp.mpf(0)
    for k in range(400):
        term = (x / 2) ** (n + 2 * k) / (mp.factorial(k) * mp.factorial(n + k))
        total += term
        if term < mp.mpf("1e-60") * total and k > 5:
            break
    return float(mp.exp(-x) * total)


def bessel_factor(n_max, x):
    """e^-x I_n(x) for n = 0..n_max, recovered from the Chebyshev heat coefficients.

    At b = 2 the coefficients are (2 - delta_n0)(-1)^n e^-sigma I_n(sigma), so
    sigma = x isolates the Bessel factor; the division by +-2 is exact.
    """
    c = chebyshev_coefficients(x, 2.0, n_max).coeffs
    out = c * np.where(np.arange(n_max + 1) % 2 == 0, 0.5, -0.5)
    out[0] = c[0]
    return out


class TestScaledBesselI:
    """The Bessel factor e^-x I_n(x) of the Chebyshev heat coefficients."""

    def test_x_zero(self):
        np.testing.assert_array_equal(bessel_factor(2, 0.0), [1.0, 0.0, 0.0])

    def test_order_zero_at_one(self):
        # e^-1 I_0(1), frozen from the mpmath series oracle
        got = bessel_factor(0, 1.0)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(0.4657596075936404, rel=1e-12)

    def test_large_argument_finite_and_asymptotic(self):
        vals = bessel_factor(50, 500.0)
        assert np.all(np.isfinite(vals))
        # entry 0 approaches (2 pi x)^(-1/2); oracle value e^-500 I_0(500)
        assert vals[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi * 500), rel=1e-2)
        assert vals[0] == pytest.approx(0.017845706500153167, rel=1e-10)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
    def test_against_series_oracle(self, x):
        vals = bessel_factor(30, x)
        for n in range(31):
            want = bessel_series_oracle(n, x)
            assert vals[n] == pytest.approx(want, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("x", [0.5, 3.0, 25.0, 120.0])
    def test_generating_function_sum(self, x):
        n_max = int(x) + 40
        vals = bessel_factor(n_max, x)
        total = vals[0] + 2.0 * vals[1:].sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_degree_1000_against_mpmath(self):
        x = 700.0
        vals = bessel_factor(1000, x)
        for n in range(1001):
            want = float(mp.besseli(n, x) * mp.exp(-x))
            assert vals[n] == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_nonnegative_nonincreasing(self):
        vals = bessel_factor(40, 7.5)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 1e-300)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_factor(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_factor(3, -0.5)


def kummer_1f1(a, b, z):
    """1F1(a; b; z) as sign * exp(logabs) from the log-space series."""
    sign, logabs = kummer_1f1_log(a, b, z)
    return sign * math.exp(logabs)


class TestKummer1F1:
    def test_value_at_zero(self):
        assert kummer_1f1(1.5, 3.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_a_equals_b_is_exp(self):
        assert kummer_1f1(1.0, 1.0, 2.0) == pytest.approx(math.e**2, rel=1e-12)

    def test_negative_argument_oracle(self):
        # frozen from mpmath.hyp1f1(0.5, 2, -10)
        assert kummer_1f1(0.5, 2.0, -10.0) == pytest.approx(
            0.34751307955387071, rel=1e-10
        )

    def test_theorem_parameter_ranges(self):
        # a = beta+n+1, b = alpha+beta+2n+2, z = -b*sigma as used by the
        # Jacobi coefficient formula
        for n in [0, 1, 5, 20]:
            for bs in [0.01, 1.0, 50.0, 1000.0]:
                a = -0.5 + n + 1
                b = -1.0 + 2 * n + 2
                want = float(mp.hyp1f1(a, b, -bs))
                assert kummer_1f1(a, b, -bs) == pytest.approx(want, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=0.25, max_value=20.0),
        b_extra=st.floats(min_value=0.25, max_value=20.0),
        z=st.floats(min_value=-200.0, max_value=50.0),
    )
    def test_kummer_transform_identity(self, a, b_extra, z):
        b = a + b_extra
        lhs = kummer_1f1(a, b, z)
        rhs = math.exp(min(z, 700.0)) * kummer_1f1(b - a, b, -z) if z <= 700 else None
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_domain_error_on_nonpositive_integer_b(self):
        with pytest.raises(ValueError):
            kummer_1f1_log(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kummer_1f1_log(1.0, -3.0, 1.0)


class TestLogGamma:
    """math.lgamma, which the expansion layer calls directly."""

    def test_known_values(self):
        assert math.lgamma(1.0) == 0.0
        assert math.lgamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-13)
        assert math.lgamma(11.0) == pytest.approx(15.104412573075516, rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(min_value=1e-3, max_value=1e6))
    def test_recurrence(self, x):
        assert math.lgamma(x + 1.0) == pytest.approx(
            math.lgamma(x) + math.log(x), abs=1e-11 * max(1.0, abs(math.lgamma(x)))
        )


class TestRegularizedIncompleteBeta:
    """scipy.special.betainc, which the stats p-values call directly."""

    def test_endpoints(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        assert betainc(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_monotone_in_x(self):
        xs = np.linspace(0, 1, 51)
        vals = betainc(2.5, 0.7, xs)
        assert np.all(np.diff(vals) >= 0)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=0.1, max_value=50.0),
        b=st.floats(min_value=0.1, max_value=50.0),
        # interior x only: for a < 1 the density is singular at the
        # endpoints and the single rounding of 1 - x already costs more
        # than 1e-10 there, for any double-precision implementation
        x=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_symmetry(self, a, b, x):
        lhs = betainc(a, b, x)
        rhs = betainc(b, a, 1.0 - x)
        assert lhs + rhs == pytest.approx(1.0, abs=1e-10)
