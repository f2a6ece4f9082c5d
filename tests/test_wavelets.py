import inspect
import warnings

import numpy as np
import pytest

import heatflow.wavelets as wavelets
from heatflow.expansion import (
    PolynomialFamily,
    _coefficient_stack,
    numeric_coefficients,
    resolve_family,
    spectral_bound,
)
from heatflow.mesh import assemble_lb_operator
from heatflow.solvers import eigen_reference
from heatflow.sphere import icosphere
from heatflow.wavelets import (
    WaveletKernel,
    kernel_coefficients,
    spline_kernel,
    wavelet_stack,
    wavelet_transform,
)
from heatflow.expansion import evaluate_expansion

from conftest import make_grid_mesh

DEFAULT_SCALES = [0.002 + 0.001 * i for i in range(10)]


class TestSplineKernel:
    def test_zero_kills_dc(self):
        assert spline_kernel(WaveletKernel(), 0.0) == 0.0

    def test_knot_values(self):
        k = WaveletKernel()
        assert spline_kernel(k, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert spline_kernel(k, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_interior_maximum(self):
        # stationary point of the cubic: root of 11 - 12x + 3x^2
        x_star = (12.0 - np.sqrt(12.0)) / 6.0
        k = WaveletKernel()
        assert x_star == pytest.approx(1.4226, abs=1e-4)
        assert spline_kernel(k, x_star) == pytest.approx(1.3849, abs=1e-3)
        grid = np.linspace(1.0, 2.0, 2001)
        assert spline_kernel(k, grid).max() <= spline_kernel(k, x_star) + 1e-12

    def test_band_pass_tails(self):
        k = WaveletKernel()
        xs = np.array([0.1, 0.5, 4.0, 20.0])
        vals = spline_kernel(k, xs)
        assert vals[0] == pytest.approx(0.01)
        assert vals[1] == pytest.approx(0.25)
        assert vals[2] == pytest.approx(0.25)  # (x2/x)^beta decays past x2
        assert vals[3] == pytest.approx(0.01)

    def test_c1_at_knots(self):
        k = WaveletKernel()
        h = 1e-7
        for knot in (1.0, 2.0):
            left = (spline_kernel(k, knot) - spline_kernel(k, knot - h)) / h
            right = (spline_kernel(k, knot + h) - spline_kernel(k, knot)) / h
            assert left == pytest.approx(right, abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            WaveletKernel(alpha=-1.0)
        with pytest.raises(ValueError):
            WaveletKernel(beta=float("nan"))
        with pytest.raises(ValueError):
            WaveletKernel(t=0.0)

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_scale_named(self, t):
        with pytest.raises(ValueError, match=f"t must be a finite number > 0, got {t}"):
            WaveletKernel(t=float(t))

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_exponent_named(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite number > 0, got {value}"):
            WaveletKernel(**{name: float(value)})

    def test_knots_are_not_settable(self):
        with pytest.raises(TypeError):
            WaveletKernel(x1=0.5)


class TestKernelCoefficients:
    def test_reconstruction_default_scales_smooth_regime(self):
        # knots at x1/t, x2/t sit outside [0, b] for every default scale when
        # b * t_max < x1, so the restricted kernel is analytic and m = 200
        # reconstructs it to 1e-6
        b = 80.0
        fam = PolynomialFamily.chebyshev(b=b)
        lam = np.linspace(0.0, b, 201)
        for t in DEFAULT_SCALES:
            kern = WaveletKernel(t=t)
            coeffs = kernel_coefficients(kern, fam, 200)
            err = np.abs(evaluate_expansion(coeffs, lam) - spline_kernel(kern, lam * t))
            assert err.max() <= 1e-6, f"t={t}"

    def test_reconstruction_across_all_branches(self):
        # with the knots inside the spectrum the kernel is only C^1 there;
        # degree 500 still reaches 1e-5 pointwise
        b = 350.0
        fam = PolynomialFamily.chebyshev(b=b)
        lam = np.linspace(0.0, b, 201)
        kern = WaveletKernel(t=0.011)
        coeffs = kernel_coefficients(kern, fam, 500)
        err = np.abs(evaluate_expansion(coeffs, lam) - spline_kernel(kern, lam * 0.011))
        assert err.max() <= 1e-5

    @pytest.mark.parametrize(
        "b, m",
        [(None, 120), (26733.0, 120), (26733.0, 300)],
        ids=["icosphere3-m120", "b26733-m120", "b26733-m300"],
    )
    def test_aliasing_bounded_by_tail_past_15m(self, b, m):
        # one quadrature at K = 8(m+1) nodes folds each c_j with j >= 2K - m =
        # 15m + 16 onto at most one kept degree, so its l1 error is at most that tail
        b = spectral_bound(assemble_lb_operator(icosphere(3))) if b is None else b
        fam = PolynomialFamily.chebyshev(b=b)
        for t in DEFAULT_SCALES:
            kern = WaveletKernel(t=t)
            weight = lambda lam: spline_kernel(kern, lam * t)
            ref = numeric_coefficients(weight, fam, 2**15 - 1, nodes=2**16).coeffs
            got = kernel_coefficients(kern, fam, m).coeffs
            alias = np.abs(got - ref[: m + 1]).sum()
            assert alias <= np.abs(ref[15 * m + 16 :]).sum() + 1e-15, f"t={t}"

    def test_one_quadrature_does_not_warn(self):
        # b of icosphere(6) at the widest study scale, where the coefficient
        # tail falls slowest
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = kernel_coefficients(
                WaveletKernel(t=0.011), PolynomialFamily.chebyshev(b=26733.0), 120
            )
        assert coeffs.coeffs.shape == (121,)


@pytest.fixture(scope="module")
def wav_op():
    return assemble_lb_operator(make_grid_mesh(10, 20, bump=0.2))


@pytest.fixture(scope="module")
def wav_field(wav_op):
    rng = np.random.default_rng(17)
    return rng.standard_normal(wav_op.n_vertices)


class TestWaveletTransform:
    def test_constant_field_rejected(self, wav_op):
        f = np.full(wav_op.n_vertices, 5.0)
        out = wavelet_transform(wav_op, f, WaveletKernel(t=0.01), m=300)
        assert np.abs(out).max() <= 1e-6 * 5.0

    def test_matches_dense_spectral_oracle(self, wav_op, wav_field):
        kern = WaveletKernel(t=0.01)
        es = eigen_reference(wav_op, wav_op.n_vertices)
        weights = spline_kernel(kern, np.maximum(es.eigenvalues, 0.0) * kern.t)
        want = es.eigenvectors @ (weights * (es.eigenvectors.T @ (wav_op.A * wav_field)))
        got = wavelet_transform(wav_op, wav_field, kern, m=300)
        assert np.abs(got - want).max() <= 1e-5

    def test_dc_rejection_weighted_mean(self, wav_op, wav_field):
        out = wavelet_transform(wav_op, wav_field, WaveletKernel(t=0.005), m=300)
        dc = abs(float(wav_op.A @ out))
        assert dc <= 1e-6 * np.abs(wav_field).max() * wav_op.A.sum()

    def test_linearity(self, wav_op, wav_field):
        kern = WaveletKernel(t=0.004)
        g = np.sin(np.arange(wav_op.n_vertices) * 0.1)
        lhs = wavelet_transform(wav_op, 2.0 * wav_field + g, kern, m=200)
        rhs = 2.0 * wavelet_transform(wav_op, wav_field, kern, m=200) + wavelet_transform(
            wav_op, g, kern, m=200
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))


class TestWaveletStack:
    @pytest.mark.parametrize("scales", [[0.01], DEFAULT_SCALES], ids=["one", "default"])
    def test_single_scale_matches_transform(self, wav_op, wav_field, scales):
        # the stack runs all scales in one recurrence; each column must be
        # the single-scale transform
        stack = wavelet_stack(wav_op, wav_field, WaveletKernel(), scales, m=200)
        assert stack.n_columns == len(scales)
        for j, t in enumerate(scales):
            direct = wavelet_transform(wav_op, wav_field, WaveletKernel(t=t), m=200)
            np.testing.assert_allclose(stack.values[:, j], direct, atol=1e-12)

    def test_ten_default_scales(self, wav_op, wav_field):
        stack = wavelet_stack(wav_op, wav_field, WaveletKernel(), DEFAULT_SCALES, m=150)
        assert stack.n_columns == 10
        assert stack.axis_meaning == "scales"
        assert [float(x) for x in stack.labels] == pytest.approx(DEFAULT_SCALES)

    def test_zero_field_gives_zero_stack(self, wav_op):
        stack = wavelet_stack(
            wav_op, np.zeros(wav_op.n_vertices), WaveletKernel(), [0.002, 0.003], m=100
        )
        np.testing.assert_array_equal(stack.values, 0.0)

    def test_scale_validation(self, wav_op, wav_field):
        with pytest.raises(ValueError):
            wavelet_stack(wav_op, wav_field, WaveletKernel(), [], m=100)
        with pytest.raises(ValueError):
            wavelet_stack(wav_op, wav_field, WaveletKernel(), [0.01, 0.005], m=100)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-0.001"])
    def test_bad_scale_named(self, wav_op, wav_field, bad):
        with pytest.raises(ValueError, match=f"t must be a finite number > 0, got {bad}"):
            wavelet_stack(wav_op, wav_field, WaveletKernel(), [0.002, float(bad)], m=100)


class TestStackCoefficientCache:
    @pytest.fixture
    def counted(self, monkeypatch):
        """The number of numeric_coefficients calls so far, on an empty cache."""
        _coefficient_stack.cache_clear()
        calls = []
        real = wavelets.numeric_coefficients
        monkeypatch.setattr(
            wavelets, "numeric_coefficients", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        yield lambda: len(calls)
        _coefficient_stack.cache_clear()

    def test_repeat_computes_no_coefficients(self, wav_op, wav_field, counted):
        first = wavelet_stack(wav_op, wav_field, WaveletKernel(), DEFAULT_SCALES, m=120)
        assert counted() == len(DEFAULT_SCALES)
        before = counted()
        again = wavelet_stack(wav_op, wav_field, WaveletKernel(), DEFAULT_SCALES, m=120)
        assert counted() == before
        np.testing.assert_array_equal(again.values, first.values)

    def test_other_degree_or_b_misses(self, wav_op, wav_field, counted):
        wavelet_stack(wav_op, wav_field, WaveletKernel(), DEFAULT_SCALES, m=120)
        before = counted()
        wavelet_stack(wav_op, wav_field, WaveletKernel(), DEFAULT_SCALES, m=121)
        assert counted() > before
        # a grid of half the spacing has a larger spectral bound b
        finer = assemble_lb_operator(make_grid_mesh(10, 20, spacing=0.5, bump=0.1))
        assert resolve_family(finer).b != resolve_family(wav_op).b
        before = counted()
        wavelet_stack(finer, wav_field, WaveletKernel(), DEFAULT_SCALES, m=120)
        assert counted() > before

    def test_kernel_scale_is_not_part_of_the_key(self, wav_op, wav_field, counted):
        # every column sets its own scale, so the kernel's t cannot change the matrix
        first = wavelet_stack(wav_op, wav_field, WaveletKernel(), DEFAULT_SCALES, m=120)
        before = counted()
        other_t = wavelet_stack(wav_op, wav_field, WaveletKernel(t=7.0), DEFAULT_SCALES, m=120)
        assert counted() == before
        assert _coefficient_stack.cache_info().currsize == 1
        np.testing.assert_array_equal(other_t.values, first.values)

    def test_repeated_transform_computes_no_coefficients(self, wav_op, wav_field, counted):
        first = wavelet_transform(wav_op, wav_field, WaveletKernel(t=0.004), m=120)
        before = counted()
        assert before == 1
        again = wavelet_transform(wav_op, wav_field, WaveletKernel(t=0.004), m=120)
        assert counted() == before
        np.testing.assert_array_equal(again, first)

    def test_cached_matrix_is_read_only(self, wav_op, counted):
        family = resolve_family(wav_op)
        kernels = (WaveletKernel(t=0.002), WaveletKernel(t=0.003))
        coeffs = _coefficient_stack(wavelets._kernel_column, family, kernels, 50)
        assert coeffs is _coefficient_stack(wavelets._kernel_column, family, kernels, 50)
        c = coeffs.coeffs
        assert c.shape == (51, 2)
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 1.0

    def test_kernel_coefficients_stays_a_plain_function(self):
        # the benchmark's tracer only wraps functions that inspect.isfunction accepts
        assert inspect.isfunction(wavelets.kernel_coefficients)
