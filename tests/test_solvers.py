import inspect
import math

import mpmath as mp
import numpy as np
import pytest

import heatflow.expansion as expansion
import heatflow.solvers as solvers
from heatflow.expansion import (
    PolynomialFamily,
    _check_sigma_degree,
    _coefficient_stack,
    estimate_lambda_max,
    heat_coefficients,
    resolve_family,
)
from heatflow.mesh import TriangleMesh, assemble_lb_operator
from heatflow.sphere import icosphere
from heatflow.solvers import (
    EigenSystem,
    _euler_min_steps,
    eigen_reference,
    eigen_smooth,
    fem_euler_smooth,
    heat_smooth,
    heat_stack,
    iterative_smooth,
    mse,
)

from conftest import make_grid_mesh

mp.mp.dps = 40


@pytest.fixture(scope="module")
def grid_op():
    return assemble_lb_operator(make_grid_mesh(10, 20, bump=0.2))


@pytest.fixture(scope="module")
def grid_field(grid_op):
    rng = np.random.default_rng(42)
    return rng.standard_normal(grid_op.n_vertices)


class TestHeatSmooth:
    def test_sigma_zero_is_identity(self, grid_op, grid_field):
        out = heat_smooth(grid_op, grid_field, 0.0)
        np.testing.assert_array_equal(out, grid_field)
        assert out is not grid_field

    def test_constant_field_invariant(self, grid_op):
        f = np.full(grid_op.n_vertices, -1.3)
        out = heat_smooth(grid_op, f, 0.5, m=150)
        np.testing.assert_allclose(out, -1.3, atol=1e-8)

    def test_matches_eigen_oracle(self, grid_op, grid_field):
        es = eigen_reference(grid_op, grid_op.n_vertices)
        for sigma in (0.01, 0.1):
            want = eigen_smooth(es, grid_op, grid_field, sigma)
            got = heat_smooth(grid_op, grid_field, sigma, m=200)
            assert np.abs(got - want).max() <= 1e-6

    def test_mass_conservation(self, grid_op, grid_field):
        g = heat_smooth(grid_op, grid_field, 0.3, m=200)
        before = float(grid_op.A @ grid_field)
        after = float(grid_op.A @ g)
        assert after == pytest.approx(before, rel=1e-8)

    def test_maximum_principle(self, grid_op, grid_field):
        g = heat_smooth(grid_op, grid_field, 0.2, m=200)
        rng_span = grid_field.max() - grid_field.min()
        assert g.min() >= grid_field.min() - 1e-6 * rng_span
        assert g.max() <= grid_field.max() + 1e-6 * rng_span

    def test_monotone_energy_decay(self, grid_op, grid_field):
        mean_field = np.full_like(grid_field, grid_op.A @ grid_field / grid_op.A.sum())
        errs = [
            mse(heat_smooth(grid_op, grid_field, s, m=200), mean_field)
            for s in (0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_unscaled_family_caution(self, grid_op, grid_field):
        sigma = 40.0 / estimate_lambda_max(grid_op)
        with pytest.warns(RuntimeWarning, match="grows before"):
            heat_smooth(grid_op, grid_field, sigma, family=PolynomialFamily.laguerre(), m=60)
        with pytest.warns(RuntimeWarning, match="grows before"):
            iterative_smooth(grid_op, grid_field, sigma, 2, family=PolynomialFamily.laguerre(), m=60)

    def test_repeat_computes_coefficients_once(self, grid_op, grid_field, monkeypatch):
        _coefficient_stack.cache_clear()
        calls = []
        real = solvers.heat_coefficients
        monkeypatch.setattr(
            solvers, "heat_coefficients", lambda *a: calls.append(1) or real(*a)
        )
        first = heat_smooth(grid_op, grid_field, 0.01)
        again = heat_smooth(grid_op, grid_field, 0.01)
        assert len(calls) == 1
        np.testing.assert_array_equal(again, first)
        _coefficient_stack.cache_clear()

    @pytest.mark.parametrize("sigma", [0.001, 0.05])
    def test_one_column_heat_stack(self, grid_op, grid_field, sigma):
        want = heat_stack(grid_op, grid_field, [sigma], m=120).values[:, 0]
        np.testing.assert_array_equal(heat_smooth(grid_op, grid_field, sigma, m=120), want)
        np.testing.assert_array_equal(iterative_smooth(grid_op, grid_field, sigma, 1, m=120)[0], want)

    @pytest.mark.parametrize("family", [
        None, PolynomialFamily.jacobi(0.5, -0.3), PolynomialFamily.hermite(),
        PolynomialFamily.laguerre(),
    ], ids=lambda f: "chebyshev" if f is None else f.kind)
    @pytest.mark.parametrize("m", [None, 1000])
    def test_sigma_zero_runs_no_recurrence(self, family, m, monkeypatch):
        # a degree-1000 Hermite recurrence diverges on this grid (degree 128 at
        # sigma 1); at sigma 0 the expansion is the identity, so none runs
        op = assemble_lb_operator(make_grid_mesh(8, 8, spacing=0.12))
        f = np.random.default_rng(6).standard_normal(op.n_vertices)
        calls = []
        monkeypatch.setattr(solvers, "heat_coefficients", lambda *a: calls.append(a))
        np.testing.assert_array_equal(heat_smooth(op, f, 0.0, family=family, m=m), f)
        assert calls == []

    def test_degree_checked_at_sigma_zero(self, grid_op, grid_field):
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            heat_smooth(grid_op, grid_field, 0.0, m=-1)

    def test_divergence_names_degree(self):
        op = assemble_lb_operator(make_grid_mesh(8, 8, spacing=0.12))
        f = np.linspace(-1, 1, op.n_vertices)
        with pytest.warns(RuntimeWarning, match="grows before"):
            with pytest.raises(RuntimeError, match=r"diverged at degree 128 \(family=hermite, degree=400\)"):
                heat_smooth(op, f, 1.0, family=PolynomialFamily.hermite(), m=400)

    def test_degree_30_truncation_ordering_at_sigma_1_5(self):
        # chebyshev converges fastest, hermite slowest; visible in the
        # truncation MSE before the convergence knee
        op = assemble_lb_operator(make_grid_mesh(8, 8))
        es = eigen_reference(op, op.n_vertices)
        rng = np.random.default_rng(21)
        f = rng.standard_normal(op.n_vertices)
        want = eigen_smooth(es, op, f, 1.5)
        errs = {
            kind: mse(heat_smooth(op, f, 1.5, family=PolynomialFamily(kind), m=30), want)
            for kind in ("chebyshev", "laguerre", "hermite")
        }
        assert errs["chebyshev"] <= errs["laguerre"] <= errs["hermite"]

    def test_negative_sigma_rejected(self, grid_op, grid_field):
        with pytest.raises(ValueError, match="sigma"):
            heat_smooth(grid_op, grid_field, -0.1)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_rejected(self, grid_op, grid_field, sigma):
        with pytest.raises(ValueError, match="sigma must be a finite number"):
            heat_smooth(grid_op, grid_field, sigma)

    @pytest.mark.parametrize("half_bsigma", [1e-3, 1.0, 1e3, 1e5])
    def test_mass_balance_at_default_degree(self, half_bsigma):
        # 1^T C = 0, so sum A*g = p(0) * sum A*f with p(0) = 1 up to the
        # truncation error; a fixed degree 1000 loses 0.16% at b*sigma/2 = 1e5
        op = assemble_lb_operator(make_grid_mesh(8, 8))
        f = np.random.default_rng(5).standard_normal(op.n_vertices)
        sigma = 2.0 * half_bsigma / estimate_lambda_max(op)
        g = heat_smooth(op, f, sigma)
        assert abs(op.A @ g - op.A @ f) <= 1e-12 * (op.A @ np.abs(f))

    def test_uniform_rescaling(self, grid_field):
        # scaling the mesh by s keeps the cotangents C and multiplies the areas
        # A by s^2, so Delta becomes Delta / s^2 and sigma * s^2 undoes it
        mesh = make_grid_mesh(10, 20, bump=0.2)
        s = 3.0
        op = assemble_lb_operator(mesh)
        op_s = assemble_lb_operator(TriangleMesh(s * mesh.vertices, mesh.faces))
        np.testing.assert_allclose(op_s.C.toarray(), op.C.toarray(), rtol=0, atol=1e-12)
        np.testing.assert_allclose(op_s.A, s**2 * op.A, rtol=1e-12)
        sigma = 0.1
        degree = heat_coefficients(resolve_family(op), sigma).degree
        assert heat_coefficients(resolve_family(op_s), sigma * s**2).degree == degree
        got = heat_smooth(op_s, grid_field, sigma * s**2)
        want = heat_smooth(op, grid_field, sigma)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(grid_field).max()

    def test_disjoint_components(self):
        # no cotangent couples the components, so heat stays on each one
        first = make_grid_mesh(6, 7, bump=0.2)
        second = make_grid_mesh(5, 8, spacing=0.5)
        n = first.n_vertices
        mesh = TriangleMesh(
            np.vstack([first.vertices, second.vertices + 10.0]),
            np.vstack([first.faces, second.faces + n]),
        )
        op = assemble_lb_operator(mesh)
        f = np.random.default_rng(8).standard_normal(mesh.n_vertices)
        g = heat_smooth(op, f, 0.3)
        for part in (slice(0, n), slice(n, None)):
            mass = op.A[part] @ np.abs(f[part])
            assert abs(op.A[part] @ g[part] - op.A[part] @ f[part]) <= 1e-12 * mass
        f[n:] = 0.0
        g = heat_smooth(op, f, 0.3)
        assert np.abs(g[:n]).max() > 0.0
        np.testing.assert_array_equal(g[n:], 0.0)


class TestIterativeSmooth:
    def test_single_step_equals_heat_smooth(self, grid_op, grid_field):
        got = iterative_smooth(grid_op, grid_field, 0.25, 1, m=200)
        want = heat_smooth(grid_op, grid_field, 0.25, m=200)
        assert len(got) == 1
        np.testing.assert_allclose(got[0], want, atol=1e-12)

    def test_semigroup_two_quarters_vs_half(self, grid_op, grid_field):
        twice = iterative_smooth(grid_op, grid_field, 0.25, 2, m=200)[-1]
        direct = heat_smooth(grid_op, grid_field, 0.5, m=200)
        assert np.abs(twice - direct).max() <= 1e-6

    def test_multiscale_stack_shape(self, grid_op, grid_field):
        fields = iterative_smooth(grid_op, grid_field, 0.0005, 10, m=80)
        assert len(fields) == 10
        for g in fields:
            assert np.all(np.isfinite(g))

    def test_bad_args(self, grid_op, grid_field):
        with pytest.raises(ValueError):
            iterative_smooth(grid_op, grid_field, -0.1, 2)
        with pytest.raises(ValueError):
            iterative_smooth(grid_op, grid_field, 0.1, 0)
        with pytest.raises(ValueError, match="sigma_step must be a finite number"):
            iterative_smooth(grid_op, grid_field, math.inf, 2)


class TestHeatStack:
    SIGMAS = [0.05 * k for k in range(1, 11)]

    def test_matches_iterated_semigroup(self, grid_op, grid_field):
        # e^(-k sigma Delta) = (e^(-sigma Delta))^k
        stack = heat_stack(grid_op, grid_field, self.SIGMAS, m=200)
        steps = iterative_smooth(grid_op, grid_field, 0.05, 10, m=200)
        assert stack.values.shape == (grid_op.n_vertices, 10)
        assert stack.labels == tuple(repr(s) for s in self.SIGMAS)
        assert stack.axis_meaning == "scales"
        err = np.abs(stack.values - np.column_stack(steps)).max()
        assert err <= 1e-12 * np.abs(grid_field).max()

    def test_matches_eigen_oracle(self):
        # the group study's sigmas on its 642-vertex icosphere; 1e-9 of
        # max|f| is the benchmark's heat oracle tolerance
        op = assemble_lb_operator(icosphere(3))
        f = np.random.default_rng(3).standard_normal(op.n_vertices)
        es = eigen_reference(op, op.n_vertices)
        sigmas = [0.0005 * k for k in range(1, 11)]
        got = heat_stack(op, f, sigmas).values
        want = np.column_stack([eigen_smooth(es, op, f, s) for s in sigmas])
        assert np.abs(got - want).max() <= 1e-9 * np.abs(f).max()

    def test_one_recurrence_of_zero_padded_columns(self, grid_op, grid_field, monkeypatch):
        calls = []
        real = solvers.apply_expansion
        monkeypatch.setattr(
            solvers, "apply_expansion", lambda op, c, f: calls.append(c) or real(op, c, f)
        )
        sigmas = [0.001, 0.1, 0.01]
        heat_stack(grid_op, grid_field, sigmas)
        assert len(calls) == 1
        c = calls[0].coeffs
        family = resolve_family(grid_op)
        columns = [heat_coefficients(family, s).coeffs for s in sigmas]
        assert c.shape == (max(len(col) for col in columns), 3)
        assert len(columns[0]) < len(columns[2]) < len(columns[1])
        for j, col in enumerate(columns):
            np.testing.assert_array_equal(c[: len(col), j], col)
            assert not c[len(col):, j].any()

    def test_repeat_computes_no_coefficients(self, grid_op, grid_field, monkeypatch):
        _coefficient_stack.cache_clear()
        calls = []
        real = solvers.heat_coefficients
        monkeypatch.setattr(
            solvers, "heat_coefficients", lambda *a: calls.append(1) or real(*a)
        )
        first = heat_stack(grid_op, grid_field, self.SIGMAS, m=120)
        assert len(calls) == len(self.SIGMAS)
        again = heat_stack(grid_op, grid_field, self.SIGMAS, m=120)
        assert len(calls) == len(self.SIGMAS)
        np.testing.assert_array_equal(again.values, first.values)
        _coefficient_stack.cache_clear()

    def test_cached_coefficients_are_read_only(self, grid_op):
        family = resolve_family(grid_op)
        coeffs = _coefficient_stack(heat_coefficients, family, (0.001, 0.01), None)
        assert coeffs is _coefficient_stack(heat_coefficients, family, (0.001, 0.01), None)
        assert not coeffs.coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs.coeffs[0, 0] = 1.0

    def test_heat_coefficients_stays_a_plain_function(self):
        # the benchmark's tracer only wraps functions that inspect.isfunction accepts
        assert inspect.isfunction(expansion.heat_coefficients)

    @pytest.mark.parametrize("bad", [math.nan, -0.01, math.inf])
    def test_bad_sigma_rejected(self, grid_op, grid_field, bad):
        with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
            heat_stack(grid_op, grid_field, [0.01, bad])

    def test_empty_sigmas_rejected(self, grid_op, grid_field):
        with pytest.raises(ValueError, match="nonempty"):
            heat_stack(grid_op, grid_field, [])


class TestFemEuler:
    def test_constant_exact(self, grid_op):
        f = np.full(grid_op.n_vertices, 4.2)
        out = fem_euler_smooth(grid_op, f, 0.05, 25)
        np.testing.assert_array_equal(out, f)

    def test_stability_error_names_product(self, grid_op):
        lam = estimate_lambda_max(grid_op)
        sigma = 2.5 / lam  # delta * lambda_max = 2.5 with one step
        with pytest.raises(ValueError, match="2.5"):
            fem_euler_smooth(grid_op, np.ones(grid_op.n_vertices), sigma, 1)

    @pytest.mark.parametrize("product, low", [(0.5, 1), (2.5, 2), (3.9, 2), (7.9, 4)])
    def test_smallest_stable_count(self, grid_op, product, low):
        # delta * lambda_max < 2 needs n_iter > sigma * lambda_max / 2
        sigma = product / estimate_lambda_max(grid_op)
        assert _euler_min_steps(grid_op, sigma) == low
        f = np.ones(grid_op.n_vertices)
        fem_euler_smooth(grid_op, f, sigma, low)
        if low > 1:
            with pytest.raises(ValueError, match=f"the smallest stable n_iter is {low}"):
                fem_euler_smooth(grid_op, f, sigma, low - 1)

    def test_converges_to_heat_solution(self, grid_op, grid_field):
        want = heat_smooth(grid_op, grid_field, 0.01, m=200)
        got = fem_euler_smooth(grid_op, grid_field, 0.01, 400)
        assert mse(got, want) <= 1e-10

    def test_sigma_zero(self, grid_op, grid_field):
        np.testing.assert_array_equal(
            fem_euler_smooth(grid_op, grid_field, 0.0, 10), grid_field
        )

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_rejected(self, grid_op, grid_field, sigma):
        with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
            fem_euler_smooth(grid_op, grid_field, sigma, 10)


class TestEigenReference:
    def test_constant_mode_and_residual(self, grid_op):
        es = eigen_reference(grid_op, 16)
        assert es.eigenvalues[0] <= 1e-8
        psi0 = es.eigenvectors[:, 0]
        assert np.abs(psi0 - psi0.mean()).max() <= 1e-8 * max(1.0, abs(psi0.mean()))
        resid = grid_op.C.dot(es.eigenvectors) - (grid_op.A[:, None] * es.eigenvectors) * es.eigenvalues
        assert np.abs(resid).max() <= 1e-8 * np.abs(grid_op.C.data).max()

    def test_a_orthonormal(self, grid_op):
        es = eigen_reference(grid_op, 12)
        gram = es.eigenvectors.T @ (grid_op.A[:, None] * es.eigenvectors)
        assert np.abs(gram - np.eye(12)).max() <= 1e-8

    def test_size_guard(self, grid_op):
        with pytest.raises(ValueError):
            eigen_reference(grid_op, 0)
        with pytest.raises(ValueError):
            eigen_reference(grid_op, grid_op.n_vertices + 1)

    def test_eigenvalues_nonnegative(self, grid_op):
        es = eigen_reference(grid_op, grid_op.n_vertices)
        assert es.eigenvalues.min() >= -1e-10 * max(1.0, es.eigenvalues.max())


class TestEigenSmooth:
    def test_completeness_at_sigma_zero(self, grid_op, grid_field):
        es = eigen_reference(grid_op, grid_op.n_vertices)
        out = eigen_smooth(es, grid_op, grid_field, 0.0)
        np.testing.assert_allclose(out, grid_field, atol=1e-8)

    def test_large_sigma_gives_weighted_mean(self, grid_op, grid_field):
        es = eigen_reference(grid_op, grid_op.n_vertices)
        out = eigen_smooth(es, grid_op, grid_field, 1e6)
        want = grid_op.A @ grid_field / grid_op.A.sum()
        np.testing.assert_allclose(out, want, atol=1e-8)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_rejected(self, sigma):
        op = assemble_lb_operator(icosphere(1))
        es = eigen_reference(op, op.n_vertices)
        f = np.random.default_rng(0).standard_normal(op.n_vertices)
        with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
            eigen_smooth(es, op, f, sigma)

    def test_dimension_mismatch(self, grid_op):
        es = EigenSystem(np.array([0.0]), np.ones((3, 1)))
        with pytest.raises(ValueError):
            eigen_smooth(es, grid_op, np.ones(grid_op.n_vertices), 0.1)


def cosine_diffusion_1d(samples, sigma, k_max):
    """1D heat diffusion on [0, 1] by the weighted cosine series: a test-only oracle.

    samples live on the uniform inclusive grid; coefficients use trapezoid
    quadrature against psi_0 = 1, psi_j = sqrt(2) cos(j pi p), and each mode
    decays by e^(-j^2 pi^2 sigma).
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("need at least 2 samples on the unit interval")
    _check_sigma_degree(sigma, None)
    k_max = int(k_max)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    n = f.size
    p = np.linspace(0.0, 1.0, n)
    w = np.full(n, 1.0 / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    j = np.arange(k_max + 1)
    psi = np.sqrt(2.0) * np.cos(np.outer(j, np.pi * p))
    psi[0] = 1.0
    coeffs = psi @ (w * f)
    decay = np.exp(-(j.astype(float) ** 2) * np.pi**2 * sigma)
    return psi.T @ (decay * coeffs)


class TestCosineDiffusion1D:
    def test_constant_preserved(self):
        out = cosine_diffusion_1d(np.ones(64), 0.37, 10)
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_single_mode_decay(self):
        p = np.linspace(0.0, 1.0, 501)
        f = math.sqrt(2.0) * np.cos(np.pi * p)
        sigma = 1.0 / math.pi**2
        out = cosine_diffusion_1d(f, sigma, 8)
        want = math.sqrt(2.0) * math.exp(-1.0) * np.cos(np.pi * p)
        assert np.abs(out - want).max() <= 1e-6

    def test_matches_high_precision_mode_sum(self):
        rng = np.random.default_rng(9)
        n, k_max, sigma = 41, 12, 0.01
        f = rng.standard_normal(n)
        out = cosine_diffusion_1d(f, sigma, k_max)
        # same trapezoid mode sum evaluated in 40-digit arithmetic
        p = [mp.mpf(i) / (n - 1) for i in range(n)]
        w = [mp.mpf(1) / (n - 1)] * n
        w[0] /= 2
        w[-1] /= 2
        want = [mp.mpf(0)] * n
        for j in range(k_max + 1):
            psi = [
                mp.mpf(1) if j == 0 else mp.sqrt(2) * mp.cos(j * mp.pi * pi_)
                for pi_ in p
            ]
            cj = mp.fsum(w[i] * mp.mpf(float(f[i])) * psi[i] for i in range(n))
            decay = mp.e ** (-(j**2) * mp.pi**2 * sigma)
            for i in range(n):
                want[i] += decay * cj * psi[i]
        np.testing.assert_allclose(out, [float(v) for v in want], atol=1e-13)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cosine_diffusion_1d(np.array([1.0]), 0.1, 3)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
            cosine_diffusion_1d(np.ones(8), sigma, 3)


class TestMse:
    def test_identical(self):
        f = np.arange(5.0)
        assert mse(f, f) == 0.0

    def test_unit_offset(self):
        assert mse(np.zeros(2), np.ones(2)) == 1.0

    def test_arithmetic(self):
        assert mse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 5.0])) == pytest.approx(4.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))
