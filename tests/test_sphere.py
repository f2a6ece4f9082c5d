import math

import mpmath as mp
import numpy as np
import pytest

from heatflow.mesh import TriangleMesh, assemble_lb_operator, vertex_areas
from heatflow.solvers import eigen_reference, heat_smooth
from heatflow.sphere import (
    SphericalHarmonicCoeffs,
    ground_truth_field,
    icosphere,
    real_sph_harm,
    sph_index,
    spharm_diffuse,
    spharm_evaluate,
    spharm_fit,
    two_cap_signal,
)

mp.mp.dps = 30


def rotate_to_pole(mesh, vertex=0):
    """Rotate the mesh so the given vertex lands on (0, 0, 1)."""
    v0 = mesh.vertices[vertex]
    z = np.array([0.0, 0.0, 1.0])
    axis = np.cross(v0, z)
    s = np.linalg.norm(axis)
    if s < 1e-12:
        return mesh
    c = float(v0 @ z)
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    R = np.eye(3) + K + K @ K * ((1 - c) / s**2)
    verts = mesh.vertices @ R.T
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return TriangleMesh(verts, mesh.faces)


class TestIcosphere:
    @pytest.mark.parametrize("subdiv,nv", [(0, 12), (1, 42), (2, 162), (4, 2562)])
    def test_counts(self, subdiv, nv):
        mesh = icosphere(subdiv)
        assert mesh.n_vertices == nv == 10 * 4**subdiv + 2
        assert mesh.n_faces == 20 * 4**subdiv

    def test_unit_norms(self):
        mesh = icosphere(3)
        norms = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-14

    def test_outward_orientation(self):
        mesh = icosphere(2)
        p0 = mesh.vertices[mesh.faces[:, 0]]
        p1 = mesh.vertices[mesh.faces[:, 1]]
        p2 = mesh.vertices[mesh.faces[:, 2]]
        triple = np.einsum("ij,ij->i", np.cross(p1 - p0, p2 - p0), p0 + p1 + p2)
        assert np.all(triple > 0)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            icosphere(9)


class TestRealSphHarm:
    def test_constant_mode(self):
        val = real_sph_harm(0, 0, np.array([0.3, -0.5, math.sqrt(1 - 0.34)]))
        assert val == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-14)

    def test_y10_north_pole(self):
        val = real_sph_harm(1, 0, np.array([0.0, 0.0, 1.0]))
        assert val == pytest.approx(math.sqrt(3.0 / (4 * math.pi)), rel=1e-14)

    def test_matches_mpmath(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        theta = np.arccos(pts[:, 2])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        for l in range(7):
            for m in range(-l, l + 1):
                got = real_sph_harm(l, m, pts)
                for i in range(len(pts)):
                    zc = mp.spherharm(l, abs(m), mp.mpf(theta[i]), mp.mpf(phi[i]))
                    if m == 0:
                        want = float(zc.real)
                    elif m > 0:
                        want = math.sqrt(2.0) * float(zc.real)
                    else:
                        want = math.sqrt(2.0) * float(zc.imag)
                    assert got[i] == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_orthonormal_under_product_quadrature(self):
        # Gauss-Legendre in cos(theta) x uniform phi integrates the real
        # harmonics exactly; Gram must be the identity
        L = 5
        xs, ws = np.polynomial.legendre.leggauss(2 * L + 2)
        nphi = 4 * L + 4
        phis = 2 * np.pi * np.arange(nphi) / nphi
        th = np.arccos(xs)
        pts = []
        wts = []
        for x, w, t in zip(xs, ws, th):
            for p in phis:
                pts.append([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), x])
                wts.append(w * 2 * np.pi / nphi)
        pts = np.asarray(pts)
        wts = np.asarray(wts)
        from heatflow.sphere import _sph_basis

        B = _sph_basis(L, pts)
        gram = B.T @ (wts[:, None] * B)
        assert np.abs(gram - np.eye((L + 1) ** 2)).max() <= 1e-12

    def test_mesh_weighted_near_orthonormal(self):
        mesh = icosphere(4)
        A = vertex_areas(mesh)
        from heatflow.sphere import _sph_basis

        B = _sph_basis(10, mesh.vertices)
        gram = B.T @ (A[:, None] * B)
        assert np.abs(gram - np.eye(121)).max() <= 5e-3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            real_sph_harm(2, 3, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="unit"):
            real_sph_harm(1, 0, np.array([0.0, 0.0, 2.0]))


class TestSpharmFit:
    def test_pure_mode_roundtrip(self):
        mesh = icosphere(3)
        f = real_sph_harm(3, 2, mesh.vertices)
        coeffs = spharm_fit(mesh, f, 5)
        assert coeffs.coefficient(3, 2) == pytest.approx(1.0, abs=1e-6)
        others = np.delete(coeffs.values.copy(), sph_index(3, 2))
        assert np.abs(others).max() <= 1e-6

    def test_constant_field(self):
        mesh = icosphere(2)
        coeffs = spharm_fit(mesh, np.full(mesh.n_vertices, 2.5), 4)
        assert coeffs.coefficient(0, 0) == pytest.approx(2.5 * math.sqrt(4 * math.pi), rel=1e-10)
        assert np.abs(coeffs.values[1:]).max() <= 1e-9

    def test_residual_decreases_with_degree(self):
        mesh = icosphere(3)
        f = two_cap_signal(mesh)
        resids = [spharm_fit(mesh, f, L).residual for L in (2, 4, 6, 8, 10)]
        assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(resids, resids[1:]))

    def test_degree_guard(self):
        mesh = icosphere(0)
        with pytest.raises(ValueError, match="exceeds"):
            spharm_fit(mesh, np.zeros(12), 4)

    def test_negative_degree_refused(self):
        with pytest.raises(ValueError, match="SPHARM degree L must be >= 0, got -1"):
            spharm_fit(icosphere(0), np.zeros(12), -1)


class TestSpharmDiffuse:
    def test_sigma_zero_identity(self):
        c = SphericalHarmonicCoeffs(2, np.arange(9.0))
        out = spharm_diffuse(c, 0.0)
        np.testing.assert_array_equal(out.values, c.values)

    def test_constant_mode_unchanged(self):
        c = SphericalHarmonicCoeffs(1, np.array([3.0, 1.0, 1.0, 1.0]))
        out = spharm_diffuse(c, 5.0)
        assert out.coefficient(0, 0) == 3.0

    def test_l10_attenuation(self):
        vals = np.zeros(121)
        vals[sph_index(10, 4)] = 1.0
        out = spharm_diffuse(SphericalHarmonicCoeffs(10, vals), 0.01)
        assert out.coefficient(10, 4) == pytest.approx(math.exp(-1.1), rel=1e-14)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -1.0])
    def test_bad_sigma_named(self, sigma):
        c = SphericalHarmonicCoeffs(2, np.arange(9.0))
        with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
            spharm_diffuse(c, sigma)
        with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
            ground_truth_field(icosphere(1), np.ones(42), 2, sigma)


class TestTwoCapSignal:
    def test_cap_membership(self):
        mesh = icosphere(3)
        f = two_cap_signal(mesh, (0, 0, 1), (1, 0, 0), 0.3)
        north = np.argmax(mesh.vertices[:, 2])
        east = np.argmax(mesh.vertices[:, 0])
        antipode = np.argmin(mesh.vertices @ np.array([1, 0, 1]) / math.sqrt(2))
        assert f[north] == 1.0
        assert f[east] == -1.0
        assert f[antipode] == 0.0
        assert set(np.unique(f)) <= {-1.0, 0.0, 1.0}

    def test_balanced_weighted_integral(self):
        mesh = icosphere(4)
        A = vertex_areas(mesh)
        f = two_cap_signal(mesh, (0, 0, 1), (0, 0, -1), 0.4)
        cap_mass = A[f > 0].sum()
        assert abs(float(A @ f)) <= 0.02 * cap_mass

    def test_overlap_rejected(self):
        mesh = icosphere(2)
        with pytest.raises(ValueError, match="overlap"):
            two_cap_signal(mesh, (0, 0, 1), (0.1, 0, 1), 0.5)

    @pytest.mark.parametrize("radius", ["nan", "inf", "0.0"])
    def test_bad_radius_named(self, radius):
        with pytest.raises(ValueError, match=f"radius must be a finite number > 0, got {radius}"):
            two_cap_signal(icosphere(2), radius=float(radius))


class TestGroundTruth:
    def test_sigma_zero_is_bandlimited_projection(self):
        mesh = icosphere(3)
        f = two_cap_signal(mesh)
        truth0 = ground_truth_field(mesh, f, 8, 0.0)
        coeffs = spharm_fit(mesh, f, 8)
        np.testing.assert_allclose(truth0, spharm_evaluate(coeffs, mesh.vertices), atol=1e-12)

    def test_smooth_bipolar_structure(self):
        mesh = icosphere(3)
        f = two_cap_signal(mesh)
        truth = ground_truth_field(mesh, f, 10, 0.01)
        north = np.argmax(mesh.vertices[:, 2])
        east = np.argmax(mesh.vertices[:, 0])
        assert truth[north] > 0.3
        assert truth[east] < -0.3
        assert truth.max() <= 1.1
        assert truth.min() >= -1.1


class TestSphereSpectrum:
    def test_eigenvalues_l_l_plus_1(self):
        op = assemble_lb_operator(icosphere(3))
        es = eigen_reference(op, 16)
        targets = [0.0] + [2.0] * 3 + [6.0] * 5 + [12.0] * 7
        assert abs(es.eigenvalues[0]) <= 1e-8
        for got, want in zip(es.eigenvalues[1:], targets[1:]):
            assert abs(got - want) <= 0.05 * want

    def test_spectrum_converges_with_resolution(self):
        # first nine nonzero eigenvalues approach {2,2,2,6,...,6,12}
        targets = np.array([2.0] * 3 + [6.0] * 5 + [12.0])
        errs = []
        for subdiv in (2, 3, 4):
            es = eigen_reference(assemble_lb_operator(icosphere(subdiv)), 10)
            errs.append(np.abs(es.eigenvalues[1:] - targets))
        for coarse, fine in zip(errs, errs[1:]):
            assert np.all(fine <= coarse + 1e-9)
        assert np.all(errs[-1] <= 0.05 * targets)

    def test_axisymmetry_of_diffused_cap(self):
        # cap centered on a 5-fold symmetry axis: vertices sharing a latitude
        # are symmetry orbits, so the diffused field must be constant there
        mesh = rotate_to_pole(icosphere(4), vertex=0)
        op = assemble_lb_operator(mesh)
        pole = np.array([0.0, 0.0, 1.0])
        f = (np.arccos(np.clip(mesh.vertices @ pole, -1, 1)) < 0.3).astype(float)
        g = heat_smooth(op, f, 0.01, m=60)
        zs = np.round(mesh.vertices[:, 2], 9)
        spread = 0.0
        for zv in np.unique(zs):
            idx = zs == zv
            if idx.sum() > 1:
                spread = max(spread, float(g[idx].max() - g[idx].min()))
        assert spread <= 1e-3 * (g.max() - g.min())
