"""Analytic ground truth on the unit sphere.

Spherical harmonics are the Laplace-Beltrami eigenfunctions on S^2 with
eigenvalues l(l+1), so diffusion has the exact closed form
f_lm -> e^(-l(l+1) sigma) f_lm. Icospheres provide the meshes, an
area-weighted least-squares fit provides the band-limited coefficients, and
the two-cap indicator provides the test signal.
"""

from dataclasses import dataclass

import numpy as np

from .expansion import _check_sigma_degree
from .mesh import TriangleMesh, vertex_areas

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

_ICOSA_VERTS = np.array(
    [
        [-1, 0, _GOLDEN], [1, 0, _GOLDEN], [-1, 0, -_GOLDEN], [1, 0, -_GOLDEN],
        [0, _GOLDEN, 1], [0, _GOLDEN, -1], [0, -_GOLDEN, 1], [0, -_GOLDEN, -1],
        [_GOLDEN, 1, 0], [_GOLDEN, -1, 0], [-_GOLDEN, 1, 0], [-_GOLDEN, -1, 0],
    ],
    dtype=float,
)

_ICOSA_FACES = np.array(
    [
        [0, 4, 1], [0, 1, 6], [1, 4, 8], [1, 8, 9], [1, 9, 6],
        [0, 6, 11], [0, 11, 10], [0, 10, 4], [4, 10, 5], [4, 5, 8],
        [3, 8, 5], [3, 5, 2], [3, 2, 7], [3, 7, 9], [3, 9, 8],
        [2, 5, 10], [2, 10, 11], [2, 11, 7], [7, 11, 6], [7, 6, 9],
    ],
    dtype=np.int64,
)

_MAX_SUBDIV = 8


def icosphere(subdiv):
    """Icosahedron subdivided `subdiv` times, projected to the unit sphere.

    Vertex count is 10 * 4^subdiv + 2. Faces are oriented outward.
    """
    subdiv = int(subdiv)
    if subdiv < 0:
        raise ValueError("subdiv must be >= 0")
    if subdiv > _MAX_SUBDIV:
        raise ValueError(f"subdiv {subdiv} exceeds guard {_MAX_SUBDIV}")
    verts = _ICOSA_VERTS / np.linalg.norm(_ICOSA_VERTS, axis=1, keepdims=True)
    faces = _ICOSA_FACES.copy()
    for _ in range(subdiv):
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
        mids = verts[uniq[:, 0]] + verts[uniq[:, 1]]
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        mid_idx = len(verts) + inverse.reshape(-1, 3)  # columns: edges 01, 12, 20
        verts = np.vstack([verts, mids])
        a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
        ab, bc, ca = mid_idx[:, 0], mid_idx[:, 1], mid_idx[:, 2]
        faces = np.concatenate(
            [
                np.column_stack([a, ab, ca]),
                np.column_stack([ab, b, bc]),
                np.column_stack([ca, bc, c]),
                np.column_stack([ab, bc, ca]),
            ]
        )
    # outward orientation: flip faces whose normal points inward
    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    inward = np.einsum("ij,ij->i", np.cross(p1 - p0, p2 - p0), p0 + p1 + p2) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return TriangleMesh(verts, faces)


def sph_index(l, m):
    """Column of the (l, m) harmonic in the packed coefficient vector."""
    return l * l + l + m


def _check_unit(points, tol=1e-9):
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != 3:
        raise ValueError("points must be 3-vectors")
    norms = np.linalg.norm(pts, axis=1)
    if np.abs(norms - 1.0).max() > tol:
        raise ValueError("points must lie on the unit sphere")
    return pts, single


def _normalized_legendre_diag(m, s, prev):
    """S_m^m from S_(m-1)^(m-1); s = sin(theta)."""
    return -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * prev


def _sph_basis(L, points):
    """Design matrix of the real orthonormal harmonics, columns by sph_index.

    Fully normalized so the integral of Y_lm^2 over the sphere is 1.
    Evaluated by the stable normalized associated-Legendre recurrences in
    cos(theta), with cos/sin(m phi) factors for the real basis.
    """
    pts, _ = _check_unit(points)
    n = len(pts)
    x = np.clip(pts[:, 2], -1.0, 1.0)  # cos(theta)
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))  # sin(theta)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    B = np.empty((n, (L + 1) * (L + 1)))

    diag = np.full(n, 1.0 / np.sqrt(4.0 * np.pi))  # S_m^m, starting at m = 0
    for m in range(L + 1):
        if m > 0:
            diag = _normalized_legendre_diag(m, s, diag)
        if m == 0:
            cos_m = None
            sin_m = None
        else:
            cos_m = np.sqrt(2.0) * np.cos(m * phi)
            sin_m = np.sqrt(2.0) * np.sin(m * phi)
        prev2 = np.zeros(n)
        prev1 = diag
        for l in range(m, L + 1):
            if l == m:
                cur = diag
            else:
                a_l = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                if l == m + 1:
                    cur = a_l * x * prev1
                else:
                    lm1 = l - 1.0
                    a_lm1 = np.sqrt((4.0 * lm1 * lm1 - 1.0) / (lm1 * lm1 - m * m))
                    cur = a_l * (x * prev1 - prev2 / a_lm1)
                prev2, prev1 = prev1, cur
            if m == 0:
                B[:, sph_index(l, 0)] = cur
            else:
                B[:, sph_index(l, m)] = cur * cos_m
                B[:, sph_index(l, -m)] = cur * sin_m
    return B


def real_sph_harm(l, m, points):
    """Real fully normalized spherical harmonic Y_lm at unit points."""
    l = int(l)
    m = int(m)
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid degree/order (l={l}, m={m})")
    pts, single = _check_unit(points)
    vals = _sph_basis(l, pts)[:, sph_index(l, m)]
    return float(vals[0]) if single else vals


@dataclass(frozen=True)
class SphericalHarmonicCoeffs:
    """Packed real SPHARM coefficients f_lm for 0 <= l <= max_degree."""

    max_degree: int
    values: np.ndarray
    residual: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        want = (self.max_degree + 1) ** 2
        if vals.shape != (want,):
            raise ValueError(f"expected {want} coefficients, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def spharm_fit(mesh, f, L):
    """Area-weighted least-squares SPHARM coefficients of a vertex field.

    Minimizes sum_i A_i (f_i - sum_lm c_lm Y_lm(p_i))^2. The weighted rms
    residual is reported on the returned object.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.n_vertices,):
        raise ValueError("field length does not match mesh")
    L = int(L)
    if L < 0:
        raise ValueError(f"SPHARM degree L must be >= 0, got {L}")
    n_cols = (L + 1) * (L + 1)
    if n_cols > mesh.n_vertices:
        raise ValueError(
            f"(L+1)^2 = {n_cols} exceeds vertex count {mesh.n_vertices}"
        )
    areas = vertex_areas(mesh)
    w = np.sqrt(areas)
    B = _sph_basis(L, mesh.vertices)
    coeffs, _, rank, _ = np.linalg.lstsq(w[:, None] * B, w * f, rcond=None)
    if rank < n_cols:
        raise RuntimeError(
            f"rank-deficient SPHARM fit: rank {rank} < {n_cols} columns"
        )
    resid = float(np.sqrt(np.sum(areas * (f - B @ coeffs) ** 2)))
    return SphericalHarmonicCoeffs(L, coeffs, residual=resid)


def spharm_evaluate(coeffs, points):
    """Evaluate the harmonic series at unit points."""
    pts, single = _check_unit(points)
    vals = _sph_basis(coeffs.max_degree, pts) @ coeffs.values
    return float(vals[0]) if single else vals


def spharm_diffuse(coeffs, sigma):
    """Exact heat diffusion in coefficient space: f_lm *= e^(-l(l+1) sigma)."""
    _check_sigma_degree(sigma, None)
    ls = np.repeat(np.arange(coeffs.max_degree + 1), 2 * np.arange(coeffs.max_degree + 1) + 1)
    decay = np.exp(-ls * (ls + 1.0) * sigma)
    return SphericalHarmonicCoeffs(coeffs.max_degree, coeffs.values * decay)


def two_cap_signal(mesh, center_plus=(0.0, 0.0, 1.0), center_minus=(1.0, 0.0, 0.0), radius=0.3):
    """+1 inside one geodesic cap, -1 inside the other, 0 elsewhere."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"cap radius must be a finite number > 0, got {radius}")
    cp = np.asarray(center_plus, dtype=float)
    cm = np.asarray(center_minus, dtype=float)
    cp = cp / np.linalg.norm(cp)
    cm = cm / np.linalg.norm(cm)
    separation = float(np.arccos(np.clip(cp @ cm, -1.0, 1.0)))
    if separation <= 2.0 * radius:
        raise ValueError(
            f"caps overlap: center separation {separation:.4f} <= 2*radius {2 * radius:.4f}"
        )
    pts, _ = _check_unit(mesh.vertices)
    f = np.zeros(mesh.n_vertices)
    f[np.arccos(np.clip(pts @ cp, -1.0, 1.0)) < radius] = 1.0
    f[np.arccos(np.clip(pts @ cm, -1.0, 1.0)) < radius] = -1.0
    return f


def ground_truth_field(mesh, signal, L, sigma):
    """Band-limit the signal by SPHARM fit, diffuse exactly, sample back."""
    coeffs = spharm_fit(mesh, signal, L)
    return spharm_evaluate(spharm_diffuse(coeffs, sigma), mesh.vertices)
