import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy import special as sp

import heatflow.expansion as ex
from heatflow.expansion import (
    ExpansionCoefficients,
    PolynomialFamily,
    apply_expansion,
    chebyshev_coefficients,
    estimate_lambda_max,
    evaluate_expansion,
    heat_coefficients,
    hermite_coefficients,
    jacobi_coefficients,
    laguerre_coefficients,
    numeric_coefficients,
    recurrence_params,
    resolve_family,
    spectral_bound,
)
from heatflow.mesh import LBOperator, TriangleMesh, assemble_lb_operator
from heatflow.sphere import icosphere
from heatflow.solvers import heat_smooth

from conftest import make_grid_mesh

mp.mp.dps = 40


def dense_eigensystem(op):
    """Dense generalized eigendecomposition oracle: C psi = lam A psi."""
    d = 1.0 / np.sqrt(op.A)
    B = (d[:, None] * op.C.toarray()) * d[None, :]
    B = 0.5 * (B + B.T)
    lam, U = np.linalg.eigh(B)
    return lam, d[:, None] * U


def spectral_filter_oracle(op, f, weight_values, lam, psi):
    return psi @ (weight_values * (psi.T @ (op.A * f)))


class TestRecurrenceParams:
    def test_chebyshev_n0(self):
        assert recurrence_params(PolynomialFamily.chebyshev(b=1.0), 0) == (1.0, 0.0, -1.0)

    def test_chebyshev_n3(self):
        assert recurrence_params(PolynomialFamily.chebyshev(b=1.0), 3) == (2.0, 0.0, -1.0)

    def test_hermite_n3(self):
        assert recurrence_params(PolynomialFamily.hermite(), 3) == (2.0, 0.0, -6.0)

    def test_laguerre_n1(self):
        A, B, C = recurrence_params(PolynomialFamily.laguerre(), 1)
        assert (A, B, C) == (-0.5, 1.5, -0.5)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, -0.5), (1.0, 0.3), (2.5, -0.9)])
    def test_jacobi_matches_scipy(self, alpha, beta, monkeypatch):
        # blocks of 5 degrees, so rows are carried across blocks
        monkeypatch.setattr(ex, "_BLOCK_BYTES", 5 * 8 * 31)
        fam = PolynomialFamily.jacobi(alpha, beta, b=2.0)
        x = np.linspace(-1.0, 1.0, 31)
        blocks = ex._blocks(fam, sparse.diags(2.0 * x, format="csr"), np.ones_like(x), 12)
        table = np.concatenate([P.copy() for _, P in blocks])
        assert table.shape == (13, 31)
        for n in range(13):
            np.testing.assert_allclose(
                table[n], sp.eval_jacobi(n, alpha, beta, x), rtol=1e-10, atol=1e-12
            )

    def test_family_validation(self):
        with pytest.raises(ValueError):
            PolynomialFamily("fourier")
        with pytest.raises(ValueError):
            PolynomialFamily.jacobi(-1.5, 0.0)
        with pytest.raises(ValueError):
            PolynomialFamily.chebyshev(b=-2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_jacobi_exponent_named(self, value):
        with pytest.raises(ValueError, match=f"jacobi alpha must be a finite number > -1, got {value}"):
            PolynomialFamily.jacobi(value, 0.0)
        with pytest.raises(ValueError, match=f"jacobi beta must be a finite number > -1, got {value}"):
            PolynomialFamily.jacobi(0.0, value)

    @pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
    def test_non_finite_b_rejected(self, b):
        for make in (
            lambda: PolynomialFamily.chebyshev(b=b),
            lambda: PolynomialFamily.jacobi(0.0, 0.0, b=b),
            lambda: chebyshev_coefficients(0.01, b, 10),
            lambda: jacobi_coefficients(0.01, b, 1.0, 0.5, 10),
        ):
            with pytest.raises(ValueError, match="domain scale b must be a finite number"):
                make()


class TestChebyshevCoefficients:
    def test_sigma_zero_identity(self):
        c = chebyshev_coefficients(0.0, 5.0, 3)
        np.testing.assert_array_equal(c.coeffs, [1.0, 0.0, 0.0, 0.0])

    def test_matches_bessel_closed_form(self):
        sigma, b = 0.3, 12.0
        x = 0.5 * b * sigma
        c = chebyshev_coefficients(sigma, b, 6)
        for n in range(7):
            want = float((2.0 if n else 1.0) * (-1) ** n * mp.exp(-x) * mp.besseli(n, x))
            assert c.coeffs[n] == pytest.approx(want, rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("sigma,b", [(0.01, 10.0), (0.1, 100.0), (1.0, 50.0)])
    def test_generating_function_sums(self, sigma, b):
        m = int(b * sigma / 2) + 40
        c = chebyshev_coefficients(sigma, b, m).coeffs
        assert c.sum() == pytest.approx(math.exp(-b * sigma), abs=1e-10)
        assert (c * (-1.0) ** np.arange(m + 1)).sum() == pytest.approx(1.0, abs=1e-10)


class TestJacobiCoefficients:
    def test_sigma_zero(self):
        c = jacobi_coefficients(0.0, 4.0, 0.7, -0.2, 2)
        np.testing.assert_array_equal(c.coeffs, [1.0, 0.0, 0.0])

    def test_chebyshev_jacobi_cross_family(self):
        # T_n = 4^n (n!)^2 / (2n)! P_n^(-1/2,-1/2); both expansions must
        # rebuild the same exponential weight pointwise
        sigma, b, m = 0.1, 10.0, 40
        cheb = chebyshev_coefficients(sigma, b, m)
        jac = jacobi_coefficients(sigma, b, -0.5, -0.5, m)
        lam = np.linspace(0.0, b, 101)
        np.testing.assert_allclose(
            evaluate_expansion(cheb, lam), evaluate_expansion(jac, lam), atol=1e-9
        )

    def test_legendre_weight_reconstruction(self):
        sigma, b, m = 0.05, 100.0, 60
        c = jacobi_coefficients(sigma, b, 0.0, 0.0, m)
        lam = np.linspace(0.0, b, 101)
        err = np.abs(evaluate_expansion(c, lam) - np.exp(-lam * sigma))
        assert err.max() <= 1e-8

    def test_coefficient_magnitudes_survive_large_bsigma(self):
        c = jacobi_coefficients(1.0, 2000.0, 0.0, 0.0, 120)
        assert np.all(np.isfinite(c.coeffs))


class TestHermiteCoefficients:
    def test_sigma_zero(self):
        np.testing.assert_array_equal(hermite_coefficients(0.0, 3).coeffs, [1, 0, 0, 0])

    def test_sigma_two_degree_one(self):
        c = hermite_coefficients(2.0, 1).coeffs
        assert c[0] == pytest.approx(math.e, rel=1e-13)
        assert c[1] == pytest.approx(-math.e, rel=1e-13)

    def test_weight_reconstruction(self):
        c = hermite_coefficients(1.0, 40)
        lam = np.linspace(0.0, 5.0, 101)
        err = np.abs(evaluate_expansion(c, lam) - np.exp(-lam))
        assert err.max() <= 1e-8


class TestLaguerreCoefficients:
    def test_sigma_zero(self):
        np.testing.assert_array_equal(laguerre_coefficients(0.0, 3).coeffs, [1, 0, 0, 0])

    def test_sigma_one_geometric(self):
        np.testing.assert_allclose(
            laguerre_coefficients(1.0, 3).coeffs, [0.5, 0.25, 0.125, 0.0625], rtol=1e-14
        )

    def test_weight_reconstruction(self):
        c = laguerre_coefficients(0.5, 60)
        lam = np.linspace(0.0, 20.0, 101)
        err = np.abs(evaluate_expansion(c, lam) - np.exp(-lam * 0.5))
        assert err.max() <= 1e-8


class TestNumericCoefficients:
    def test_constant_weight_is_p0(self):
        fam = PolynomialFamily.chebyshev(b=7.0)
        c = numeric_coefficients(lambda lam: np.ones_like(lam), fam, 10)
        assert c.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(c.coeffs[1:]).max() <= 1e-12

    def test_matches_chebyshev_closed_form(self):
        sigma, b, m = 0.01, 100.0, 60
        closed = chebyshev_coefficients(sigma, b, m).coeffs
        num = numeric_coefficients(
            lambda lam: np.exp(-lam * sigma), PolynomialFamily.chebyshev(b=b), m
        ).coeffs
        assert np.abs(closed - num).max() <= 1e-8 * np.abs(closed).max()

    def test_matches_jacobi_closed_form(self):
        sigma, b, m = 0.1, 10.0, 40
        closed = jacobi_coefficients(sigma, b, 0.4, -0.3, m).coeffs
        num = numeric_coefficients(
            lambda lam: np.exp(-lam * sigma), PolynomialFamily.jacobi(0.4, -0.3, b=b), m
        ).coeffs
        assert np.abs(closed - num).max() <= 1e-8 * np.abs(closed).max()

    def test_chebyshev_matches_explicit_cosine_sum(self):
        # pins the DCT normalization and the node order: the weight is not
        # symmetric about b/2, so reversed nodes would change every c_n
        b, m, K = 6.0, 7, 20
        weight = lambda lam: np.exp(-0.3 * lam) * (1.0 + np.sin(lam))
        theta = (2.0 * np.arange(1, K + 1) - 1.0) * math.pi / (2.0 * K)
        W = weight(0.5 * b * (np.cos(theta) + 1.0))
        want = np.array([(2.0 / K) * np.sum(W * np.cos(n * theta)) for n in range(m + 1)])
        want[0] *= 0.5
        got = numeric_coefficients(weight, PolynomialFamily.chebyshev(b=b), m, nodes=K).coeffs
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_hermite_rejected(self):
        with pytest.raises(ValueError, match="chebyshev/jacobi"):
            numeric_coefficients(lambda lam: lam, PolynomialFamily.hermite(), 5)

    @pytest.mark.parametrize(
        "family", [PolynomialFamily.chebyshev(b=2.0), PolynomialFamily.jacobi(0.5, 0.5, b=2.0)]
    )
    def test_weight_must_be_vectorized(self, family):
        # a scalar-only weight gives one value for the whole node array
        with pytest.raises(ValueError, match=r"weight must map \(128,\) nodes .* got \(\)"):
            numeric_coefficients(lambda lam: 1.0, family, 5)


class TestEstimateLambdaMax:
    def test_bracket_against_dense_oracle(self):
        for bump in (0.0, 0.5):
            mesh = make_grid_mesh(9, 8, bump=bump)
            op = assemble_lb_operator(mesh)
            lam, _ = dense_eigensystem(op)
            got = estimate_lambda_max(op)
            assert lam.max() <= got <= 1.2 * lam.max()

    def test_cached_on_operator(self):
        op = assemble_lb_operator(make_grid_mesh(5, 5))
        got = estimate_lambda_max(op)
        assert op.lambda_max_hint == got
        assert estimate_lambda_max(op) == got

    def test_resolution_increases_bound(self):
        coarse = assemble_lb_operator(make_grid_mesh(6, 6, spacing=1.0))
        fine = assemble_lb_operator(make_grid_mesh(11, 11, spacing=0.5))
        assert estimate_lambda_max(fine) > estimate_lambda_max(coarse)

    def test_lanczos_matches_dense_top_eigenvalue(self):
        for mesh in (make_grid_mesh(20, 20, bump=0.5), make_grid_mesh(9, 8, bump=0.5), icosphere(1)):
            op = assemble_lb_operator(mesh)
            lam, _ = dense_eigensystem(op)
            got = estimate_lambda_max(op)
            assert abs(got / 1.01 - lam.max()) <= 1e-6 * lam.max(), op.n_vertices


def _compact(verts, faces):
    """Drop vertices no face references and renumber the faces."""
    used = np.unique(faces)
    index = np.full(len(verts), -1)
    index[used] = np.arange(used.size)
    return TriangleMesh(verts[used], index[faces])


def _sheared_grid():
    """Grid sheared until its triangles are obtuse and C has positive off-diagonals."""
    mesh = make_grid_mesh(8, 7, bump=0.3)
    verts = mesh.vertices.copy()
    verts[:, 0] += 2.5 * verts[:, 1]
    return TriangleMesh(verts, mesh.faces)


def _holed_sphere():
    """Perturbed icosphere with a polar cap cut out, so it has a boundary loop."""
    mesh = icosphere(2)
    rng = np.random.default_rng(4)
    verts = mesh.vertices * (1.0 + 0.05 * rng.standard_normal(mesh.n_vertices))[:, None]
    keep = np.all(mesh.vertices[mesh.faces, 2] < 0.6, axis=1)
    return _compact(verts, mesh.faces[keep])


def _two_components():
    """A holed sphere and a smaller whole sphere: eigenvalue 0 twice."""
    a = _holed_sphere()
    b = icosphere(1)
    verts = np.vstack([a.vertices, 0.4 * b.vertices + 5.0])
    faces = np.vstack([a.faces, b.faces + a.n_vertices])
    return TriangleMesh(verts, faces)


class TestSpectralBound:
    MESHES = {
        "bumpy grid": lambda: make_grid_mesh(9, 8, bump=0.5),
        "obtuse": _sheared_grid,
        "boundary": _holed_sphere,
        "two components": _two_components,
    }

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_bounds_dense_spectrum(self, name):
        op = assemble_lb_operator(self.MESHES[name]())
        lam, _ = dense_eigensystem(op)
        assert lam.max() <= spectral_bound(op)

    def test_obtuse_mesh_has_positive_off_diagonals(self):
        C = assemble_lb_operator(_sheared_grid()).C.tocoo()
        assert (C.data[C.row != C.col] > 0).any()

    @pytest.mark.parametrize("name", ["boundary", "two components"])
    def test_at_most_twice_lambda_max_without_positive_off_diagonals(self, name):
        op = assemble_lb_operator(self.MESHES[name]())
        C = op.C.tocoo()
        assert (C.data[C.row != C.col] <= 0).all()
        lam, _ = dense_eigensystem(op)
        top_diag = (op.C.diagonal() / op.A).max()
        assert spectral_bound(op) <= 2.0 * top_diag * (1.0 + 1e-12)
        assert top_diag <= lam.max() * (1.0 + 1e-12)

    def test_zero_operator(self):
        op = LBOperator(sparse.csr_matrix((3, 3)), np.ones(3))
        assert spectral_bound(op) == 0.0
        assert resolve_family(op).b == 1.0

    def test_cached_on_operator_and_sets_b(self):
        op = assemble_lb_operator(make_grid_mesh(5, 5))
        got = spectral_bound(op)
        assert op.gershgorin_bound == got
        assert spectral_bound(op) == got
        assert resolve_family(op).b == got
        assert resolve_family(op, PolynomialFamily.jacobi(1.0, 0.5)).b == got


@st.composite
def obtuse_meshes(draw):
    """A grid patch sheared, squashed and jittered until most of its faces are obtuse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mesh = make_grid_mesh(
        draw(st.integers(3, 8)), draw(st.integers(3, 8)), bump=draw(st.floats(0.0, 1.0))
    )
    verts = mesh.vertices.copy()
    verts[:, 0] += draw(st.floats(1.0, 4.0)) * verts[:, 1]
    verts[:, 1] *= draw(st.floats(0.2, 1.0))
    verts += 0.03 * rng.standard_normal(verts.shape)
    return TriangleMesh(verts, mesh.faces)


class TestObtuseProperties:
    @settings(max_examples=25, deadline=None)
    @given(mesh=obtuse_meshes())
    def test_spectral_bound_covers_dense_spectrum(self, mesh):
        assert mesh._obtuse.any(axis=1).mean() >= 0.5
        op = assemble_lb_operator(mesh)
        lam, _ = dense_eigensystem(op)
        assert lam.max() <= spectral_bound(op)

    @settings(max_examples=25, deadline=None)
    @given(mesh=obtuse_meshes(), sigma=st.floats(1e-3, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_heat_smooth_conserves_mass(self, mesh, sigma, seed):
        assert mesh._obtuse.any(axis=1).mean() >= 0.5
        op = assemble_lb_operator(mesh)
        f = np.random.default_rng(seed).standard_normal(op.n_vertices)
        g = heat_smooth(op, f, sigma)
        assert abs(op.A @ g - op.A @ f) <= 1e-12 * (op.A @ np.abs(f))


class TestBlockEngine:
    """The recurrence in blocks of 4 degrees against a plain dense recurrence."""

    BLOCK = 4
    FAMILIES = [
        PolynomialFamily.chebyshev(),
        PolynomialFamily.jacobi(0.7, -0.4),
        PolynomialFamily.hermite(),
        PolynomialFamily.laguerre(),
    ]

    @pytest.mark.parametrize("S", [1, 3])
    @pytest.mark.parametrize("m", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 130])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    def test_matches_dense_recurrence(self, family, m, S, monkeypatch):
        op = assemble_lb_operator(make_grid_mesh(6, 7, spacing=2.0, bump=0.3))
        monkeypatch.setattr(ex, "_BLOCK_BYTES", self.BLOCK * 8 * op.n_vertices)
        family = resolve_family(op, family)
        rng = np.random.default_rng(m)
        f = rng.standard_normal(op.n_vertices)
        # decaying like the expansion of a smooth weight: two recurrences that
        # round differently drift apart by O(n^2 eps) at degree n, which
        # undamped O(1) coefficients would carry into the sum (2.7e-14 of scale
        # at degree 130 for the per-degree engine as well)
        n = np.arange(m + 1)
        decay = 1.0 / sp.factorial(n) if family.kind == "hermite" else 0.8**n
        c = rng.standard_normal((m + 1, S)) * decay[:, None]
        coeffs = ExpansionCoefficients(family, c[:, 0] if S == 1 else c)
        got = apply_expansion(op, coeffs, f)

        X = op.C.toarray() / op.A[:, None]
        if family.scaled:
            X = (2.0 / family.b) * X - np.eye(op.n_vertices)
        prev, cur = np.zeros_like(f), f
        want = np.outer(cur, c[0])
        for n in range(m):
            A, B, C = recurrence_params(family, n)
            prev, cur = cur, A * (X @ cur) + B * cur + (C * prev if n else 0.0)
            want += np.outer(cur, c[n + 1])
        want = want[:, 0] if S == 1 else want
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_block_size_from_byte_budget(self):
        rows = [len(P) for _, P in ex._blocks(
            PolynomialFamily.chebyshev(b=1.0), sparse.eye(40962, format="csr"), np.ones(40962), 40
        )]
        assert rows == [16, 16, 9]


class TestCsrMatvecContract:
    def test_adds_product_into_nonzero_output(self):
        # the recurrence relies on scipy's private kernel adding X @ x into y
        op = assemble_lb_operator(make_grid_mesh(6, 5, bump=0.4))
        X2 = ex._recurrence_matrix(op, spectral_bound(op))
        N = op.n_vertices
        x = np.random.default_rng(1).standard_normal(N)
        y = np.random.default_rng(2).standard_normal(N)
        want = y + X2 @ x
        ex.csr_matvec(N, N, X2.indptr, X2.indices, X2.data, x, y)
        np.testing.assert_allclose(y, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())

    def test_cached_matrix_is_twice_the_recurrence_variable(self):
        op = assemble_lb_operator(make_grid_mesh(6, 5, bump=0.4))
        b = spectral_bound(op)
        X = (2.0 / b) * op.C.toarray() / op.A[:, None] - np.eye(op.n_vertices)
        np.testing.assert_allclose(ex._recurrence_matrix(op, b).toarray(), 2.0 * X, atol=1e-15)
        np.testing.assert_allclose(
            ex._recurrence_matrix(op, None).toarray(), 2.0 * op.C.toarray() / op.A[:, None]
        )


class TestApplyExpansion:
    def test_identity_filter(self):
        op = assemble_lb_operator(make_grid_mesh(6, 6, bump=0.3))
        rng = np.random.default_rng(3)
        f = rng.standard_normal(op.n_vertices)
        coeffs = ExpansionCoefficients(PolynomialFamily.chebyshev(b=10.0), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(apply_expansion(op, coeffs, f), f, atol=1e-14)

    def test_constant_field_preserved_by_heat_weights(self):
        op = assemble_lb_operator(make_grid_mesh(7, 7, bump=0.4))
        b = estimate_lambda_max(op)
        coeffs = chebyshev_coefficients(0.2, b, 80)
        f = np.full(op.n_vertices, 2.5)
        got = apply_expansion(op, coeffs, f)
        np.testing.assert_allclose(got, 2.5, atol=1e-8)

    def test_matches_dense_spectral_oracle(self):
        mesh = make_grid_mesh(10, 20)  # 200 vertices
        op = assemble_lb_operator(mesh)
        lam, psi = dense_eigensystem(op)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(op.n_vertices)
        sigma = 0.1
        b = estimate_lambda_max(op)
        coeffs = chebyshev_coefficients(sigma, b, 100)
        got = apply_expansion(op, coeffs, f)
        want = spectral_filter_oracle(op, f, np.exp(-lam * sigma), lam, psi)
        assert np.abs(got - want).max() <= 1e-6

    def test_linearity(self):
        op = assemble_lb_operator(make_grid_mesh(6, 7, bump=0.2))
        b = estimate_lambda_max(op)
        coeffs = chebyshev_coefficients(0.05, b, 50)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(op.n_vertices)
        g = rng.standard_normal(op.n_vertices)
        lhs = apply_expansion(op, coeffs, 2.5 * f + g)
        rhs = 2.5 * apply_expansion(op, coeffs, f) + apply_expansion(op, coeffs, g)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.abs(rhs).max())

    def test_exactly_m_matvecs(self, monkeypatch):
        calls = []
        real = ex.csr_matvec
        monkeypatch.setattr(ex, "csr_matvec", lambda *a: calls.append(a[0]) or real(*a))
        op = assemble_lb_operator(make_grid_mesh(5, 5))
        coeffs = chebyshev_coefficients(0.1, 10.0, 37)
        apply_expansion(op, coeffs, np.ones(op.n_vertices))
        assert len(calls) == 37
        # three coefficient columns share one recurrence: 37 matvecs, not 111
        other = chebyshev_coefficients(0.2, 10.0, 37).coeffs
        columns = ExpansionCoefficients(
            coeffs.family, np.column_stack([coeffs.coeffs, other, coeffs.coeffs])
        )
        got = apply_expansion(op, columns, np.ones(op.n_vertices))
        assert got.shape == (op.n_vertices, 3)
        assert len(calls) == 74

    def test_coefficient_columns_match_separate_applies_and_numpy_sum(self):
        # the (N, S) rank-1 accumulation against S one-column applies and a
        # plain dense sum_n P_n f c_n^T
        op = assemble_lb_operator(make_grid_mesh(9, 11, bump=0.3))
        b = spectral_bound(op)
        m = 60
        c = np.column_stack([chebyshev_coefficients(s, b, m).coeffs for s in (0.01, 0.1, 0.5)])
        c = np.column_stack([c, np.random.default_rng(8).standard_normal((m + 1, 2)) / 10.0])
        f = np.random.default_rng(9).standard_normal(op.n_vertices)
        family = PolynomialFamily.chebyshev(b=b)
        got = apply_expansion(op, ExpansionCoefficients(family, c), f)
        assert got.shape == (op.n_vertices, 5)
        separate = np.column_stack(
            [apply_expansion(op, ExpansionCoefficients(family, col), f) for col in c.T]
        )
        X = (2.0 / b) * op.C.toarray() / op.A[:, None] - np.eye(op.n_vertices)
        prev, cur = f, X @ f
        want = np.outer(prev, c[0]) + np.outer(cur, c[1])
        for n in range(2, m + 1):
            prev, cur = cur, 2.0 * (X @ cur) - prev
            want += np.outer(cur, c[n])
        scale = np.abs(want).max()
        assert np.abs(got - separate).max() <= 1e-14 * scale
        assert np.abs(got - want).max() <= 1e-14 * scale

    def test_nan_guard_names_degree(self):
        # Hermite on an operator with large spectrum overflows the raw
        # H_n(Delta) f values; the guard, every 64 degrees, must fail fast
        # with the degree
        op = assemble_lb_operator(make_grid_mesh(8, 8, spacing=0.12))
        coeffs = hermite_coefficients(1.0, 400)
        with pytest.raises(RuntimeError, match="diverged at degree 128 "):
            apply_expansion(op, coeffs, np.linspace(-1, 1, op.n_vertices))

    def test_nan_guard_at_first_check(self):
        op = assemble_lb_operator(make_grid_mesh(8, 8, spacing=0.01))
        coeffs = hermite_coefficients(1.0, 400)
        with pytest.raises(RuntimeError, match="diverged at degree 64 "):
            apply_expansion(op, coeffs, np.linspace(-1, 1, op.n_vertices))

    def test_length_mismatch(self):
        op = assemble_lb_operator(make_grid_mesh(5, 5))
        coeffs = chebyshev_coefficients(0.1, 10.0, 5)
        with pytest.raises(ValueError, match="length"):
            apply_expansion(op, coeffs, np.ones(7))


class TestJsonRoundTrip:
    def test_heat_coefficients_dispatch(self):
        fam = PolynomialFamily.laguerre()
        c = heat_coefficients(fam, 0.5, 8)
        np.testing.assert_allclose(c.coeffs, laguerre_coefficients(0.5, 8).coeffs)
        with pytest.raises(ValueError, match="domain scale"):
            heat_coefficients(PolynomialFamily.chebyshev(), 0.5, 8)


def _weighted_tail(c, weight):
    """(tail, total): tail[j] = sum_{n>j} |c_n| M_n and total = sum_n |c_n| M_n."""
    t = np.abs(c) * weight
    tail = np.append(np.cumsum(t[:0:-1])[::-1], 0.0)
    return tail, t.sum()


class TestTailDegree:
    FAMILIES = [
        PolynomialFamily.chebyshev(),
        PolynomialFamily.jacobi(0.0, 0.0),
        PolynomialFamily.jacobi(-0.7, 0.5),
        PolynomialFamily.jacobi(2.0, 1.0),
    ]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.kind}-{f.alpha}-{f.beta}")
    def test_default_degree_matches_degree_1000(self, family):
        op = assemble_lb_operator(make_grid_mesh(10, 20, bump=0.2))
        f = np.random.default_rng(3).standard_normal(op.n_vertices)
        for sigma in (0.01, 0.3):
            got = heat_smooth(op, f, sigma, family=family)
            want = heat_smooth(op, f, sigma, family=family, m=1000)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(f).max()

    @pytest.mark.parametrize(
        "family,x",
        # at x = 14623.624212405126 the geometric bound on the rest alone
        # would pick one degree too many
        [
            (PolynomialFamily.chebyshev(), x)
            for x in (1e-3, 1.0, 30.0, 1e3, 14623.624212405126, 1e5)
        ]
        # the Kummer series of the Jacobi coefficients is slow at large b*sigma
        + [
            (fam, x)
            for fam in FAMILIES[1:] + [PolynomialFamily.jacobi(-0.9, -0.8)]
            for x in (1e-3, 1.0, 30.0, 200.0)
        ]
        # weighted terms still rising at the end of the first block
        + [(PolynomialFamily.jacobi(2.0, 1.0), 500.0)],
        ids=lambda v: f"{v.kind}-{v.alpha}-{v.beta}" if isinstance(v, PolynomialFamily) else None,
    )
    def test_chosen_degree_is_minimal(self, family, x):
        fam = family.with_b(4.0)
        sigma = 2.0 * x / fam.b
        chosen = heat_coefficients(fam, sigma)
        m = chosen.degree
        full = heat_coefficients(fam, sigma, 2 * m + 64).coeffs
        np.testing.assert_array_equal(chosen.coeffs, full[: m + 1])
        n = np.arange(full.size)
        weight = ex._jacobi_max_abs(fam.alpha, fam.beta, n) if fam.kind == "jacobi" else 1.0
        tail, total = _weighted_tail(full, weight)
        assert tail[m] <= ex._TAIL_REL * total
        assert m >= 1 and tail[m - 1] > ex._TAIL_REL * total

    def test_chebyshev_degrees_and_unit_sum(self):
        for x, m in [(1e-3, 4), (1.0, 14), (1e3, 263), (1e5, 2626)]:
            c = chebyshev_coefficients(2.0 * x, 1.0).coeffs
            assert c.size == m + 1
            assert np.abs(c).sum() == pytest.approx(1.0, abs=1e-13)

    def test_kummer_evaluations_grow_by_half(self, monkeypatch):
        # blocks of 32, 48, 72 terms decide m = 67; doubling would evaluate 128
        real = ex.kummer_1f1_log
        calls = []
        monkeypatch.setattr(ex, "kummer_1f1_log", lambda a, b, z: calls.append(1) or real(a, b, z))
        c = jacobi_coefficients(25.0, 4.0, 2.0, 1.0)
        assert c.degree == 67
        assert len(calls) == 72

    def test_sigma_zero_gives_degree_zero(self):
        for fam in (PolynomialFamily.chebyshev(b=3.0), PolynomialFamily.jacobi(0.5, 0.5, b=3.0)):
            np.testing.assert_array_equal(heat_coefficients(fam, 0.0).coeffs, [1.0])

    @pytest.mark.parametrize("m", [0, 3, 500])
    def test_explicit_degree_is_exact(self, m):
        for fam in (
            PolynomialFamily.chebyshev(b=10.0),
            PolynomialFamily.jacobi(0.4, -0.3, b=10.0),
            PolynomialFamily.hermite(),
            PolynomialFamily.laguerre(),
        ):
            for sigma in (0.01, 5.0):
                assert heat_coefficients(fam, sigma, m).coeffs.size == m + 1

    def test_unscaled_families_default_to_degree_1000(self):
        for fam in (PolynomialFamily.hermite(), PolynomialFamily.laguerre()):
            assert heat_coefficients(fam, 0.5).coeffs.size == 1001

    @pytest.mark.parametrize(
        "alpha,beta", [(0.0, 0.0), (-0.7, 0.5), (2.0, 1.0), (1.5, -0.99), (-0.7, -0.8)]
    )
    def test_jacobi_weight_is_the_dense_maximum(self, alpha, beta):
        # attained at an end point when max(alpha, beta) >= -1/2, an upper
        # bound otherwise (Szego, Thm 7.32.1)
        x = np.cos(np.linspace(0.0, math.pi, 20001))
        n = np.array([0, 1, 2, 3, 5, 8, 13, 40, 120])
        M = ex._jacobi_max_abs(alpha, beta, n)
        dense = np.array([np.abs(sp.eval_jacobi(k, alpha, beta, x)).max() for k in n])
        if max(alpha, beta) >= -0.5:
            np.testing.assert_allclose(dense, M, rtol=1e-10)
        else:
            assert np.all(dense <= M * (1.0 + 1e-12))

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -1.0])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
            heat_coefficients(PolynomialFamily.chebyshev(b=4.0), sigma)
