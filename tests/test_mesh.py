import math
import warnings

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from heatflow.mesh import (
    LBOperator,
    TriangleMesh,
    apply_lb,
    assemble_lb_operator,
    cotan_matrix,
    export_operator,
    load_mesh,
    save_off,
    vertex_areas,
)
from heatflow.solvers import heat_smooth
from heatflow.sphere import icosphere

from conftest import ICOSAHEDRON_OFF, make_grid_mesh

# finite edge values of the writers' byte tests: signed zeros, the smallest
# subnormal and the largest magnitudes
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.0 / 3.0, -2.5e-300,
               1.0, 2.0, -3.0, 0.5]
RIGHT_TRIANGLE = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def cotan_assembly_oracle(mesh):
    """Independent dense assembly: loop faces, accumulate cot contributions."""
    n = mesh.n_vertices
    C = np.zeros((n, n))
    for i, j, k in mesh.faces:
        for a, b, opp in [(i, j, k), (j, k, i), (k, i, j)]:
            u = mesh.vertices[a] - mesh.vertices[opp]
            v = mesh.vertices[b] - mesh.vertices[opp]
            cot = np.dot(u, v) / np.linalg.norm(np.cross(u, v))
            C[a, b] -= cot / 2.0
            C[b, a] -= cot / 2.0
    np.fill_diagonal(C, 0.0)
    np.fill_diagonal(C, -C.sum(axis=1))
    return C


class TestLoadMesh:
    def test_off_single_triangle(self, tmp_path):
        p = tmp_path / "tri.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0.5 0.8660254 0\n3 0 1 2\n")
        mesh = load_mesh(p)
        assert mesh.n_vertices == 3
        assert mesh.n_faces == 1

    def test_off_icosahedron(self, tmp_path):
        p = tmp_path / "ico.off"
        p.write_text(ICOSAHEDRON_OFF)
        mesh = load_mesh(p)
        assert mesh.n_vertices == 12
        assert mesh.n_faces == 20

    def test_ply_roundtrip(self, tmp_path):
        p = tmp_path / "tri.ply"
        p.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 0 0\n0.5 0.8660254 0\n3 0 1 2\n"
        )
        mesh = load_mesh(p)
        assert mesh.n_vertices == 3
        assert mesh.n_faces == 1

    def test_ply_face_index_out_of_range(self, tmp_path):
        verts = "\n".join(f"{i} 0 0" for i in range(10))
        p = tmp_path / "bad.ply"
        p.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 10\nproperty float x\nproperty float y\nproperty float z\n"
            "element face 9\nproperty list uchar int vertex_indices\nend_header\n"
            + verts
            + "\n"
            + "\n".join(f"3 {i} {i+1} 99" if i == 0 else f"3 {i} {i+1} 0" for i in range(9))
            + "\n"
        )
        with pytest.raises(ValueError, match="out of range"):
            load_mesh(p)

    def test_off_comments_and_blank_lines_inside_blocks(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text(
            "# made by hand\nOFF\n\n3 1 0 # counts\n0 0 0\n# second vertex\n\n1 0 0 # v1\n"
            "0 1 0\n\n# faces\n3 0 1 2 # f0\n\n"
        )
        mesh = load_mesh(p)
        np.testing.assert_array_equal(mesh.vertices, RIGHT_TRIANGLE)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_off_counts_on_header_line(self, tmp_path):
        p = tmp_path / "h.off"
        p.write_text("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(p)
        np.testing.assert_array_equal(mesh.vertices, RIGHT_TRIANGLE)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_off_extra_colour_columns_ignored(self, tmp_path):
        p = tmp_path / "rgb.off"
        p.write_text("OFF\n3 1 0\n0 0 0 255 0 0\n1 0 0 0 255 0 1\n0 1 0 0 0 255\n3 0 1 2 9 9 9\n")
        mesh = load_mesh(p)
        np.testing.assert_array_equal(mesh.vertices, RIGHT_TRIANGLE)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_ply_property_order_and_skipped_element(self, tmp_path):
        p = tmp_path / "order.ply"
        p.write_text(
            "ply\nformat ascii 1.0\ncomment normals first\nelement vertex 3\n"
            "property float nx\nproperty float ny\nproperty float nz\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "element edge 2\nproperty int vertex1\nproperty int vertex2\nend_header\n"
            "9 9 9 0 0 0\ncomment inside the body\n8 8 8 1 0 0\n\n7 7 7 0 1 0\n3 0 1 2\n0 1\n1 2\n"
        )
        mesh = load_mesh(p)
        np.testing.assert_array_equal(mesh.vertices, RIGHT_TRIANGLE)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("quad.off", "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n\n4 1 3 2 0\n", 9),
            (
                "quad.ply",
                "ply\nformat ascii 1.0\nelement vertex 4\nproperty float x\nproperty float y\n"
                "property float z\nelement face 2\nproperty list uchar int vertex_indices\n"
                "end_header\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n4 1 3 2 0\n",
                15,
            ),
        ],
    )
    def test_quad_face_rejected_naming_line(self, tmp_path, name, text, line):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ValueError, match=rf"{name}:{line}: only triangular faces supported"):
            load_mesh(p)

    def test_truncated_ply_body_names_line(self, tmp_path):
        p = tmp_path / "short.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
            "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n"
        )
        with pytest.raises(ValueError, match=r"short\.ply: truncated .*line 11$"):
            load_mesh(p)

    @pytest.mark.parametrize("element", ["element vertex", "element vertex x"])
    def test_malformed_ply_element_line_named(self, tmp_path, element):
        p = tmp_path / "elem.ply"
        p.write_text(f"ply\nformat ascii 1.0\n{element}\nproperty float x\nend_header\n")
        with pytest.raises(ValueError, match=r"elem\.ply:3: malformed element line$"):
            load_mesh(p)

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 zebra\n0.5 0.8 0\n3 0 1 2\n")
        with pytest.raises(ValueError, match=":4"):
            load_mesh(p)

    @pytest.mark.parametrize(
        "text, expected, last_line",
        [
            ("OFF\n# counts lost\n", "a vertex/face count line", 1),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n", "3 vertices, found 2", 4),
            ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n\n", "2 faces, found 1", 6),
        ],
    )
    def test_truncated_off_names_count_and_line(self, tmp_path, text, expected, last_line):
        p = tmp_path / "short.off"
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            load_mesh(p)
        msg = str(err.value)
        assert str(p) in msg
        assert f"expected {expected}" in msg
        assert msg.endswith(f"last line read was line {last_line}")

    def test_isolated_vertex_rejected(self, tmp_path):
        p = tmp_path / "iso.off"
        p.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n5 5 5\n3 0 1 2\n")
        with pytest.raises(ValueError, match="isolated"):
            load_mesh(p)

    def test_degenerate_face_warns(self, tmp_path):
        p = tmp_path / "deg.off"
        p.write_text(
            "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n2 0 0\n3 0 1 2\n3 0 1 3\n"
        )
        with pytest.warns(RuntimeWarning, match="degenerate"):
            mesh = load_mesh(p)
        assert mesh.degenerate_faces.tolist() == [1]

    def test_save_off_bytes_match_per_row_format(self, tmp_path):
        verts = np.array(EDGE_VALUES).reshape(-1, 3)
        faces = np.array([[0, 1, 2], [2, 1, 3]])
        mesh = TriangleMesh(verts, faces)
        p = tmp_path / "edge.off"
        save_off(mesh, p)
        want = "OFF\n4 2 0\n" + "".join(f"{x:.16e} {y:.16e} {z:.16e}\n" for x, y, z in verts)
        want += "".join(f"3 {a} {b} {c}\n" for a, b, c in faces)
        assert p.read_text() == want

    def test_save_off_roundtrip(self, tmp_path, equilateral_mesh):
        p = tmp_path / "out.off"
        save_off(equilateral_mesh, p)
        again = load_mesh(p)
        np.testing.assert_array_equal(again.vertices, equilateral_mesh.vertices)
        np.testing.assert_array_equal(again.faces, equilateral_mesh.faces)


class TestCotanMatrix:
    def test_equilateral_entries(self, equilateral_mesh):
        C = cotan_matrix(equilateral_mesh).toarray()
        expect = -1.0 / (2.0 * math.sqrt(3.0))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert C[i, j] == pytest.approx(expect, rel=1e-14)

    def test_symmetry_exact(self):
        mesh = make_grid_mesh(6, 5, bump=0.4)
        C = cotan_matrix(mesh)
        assert (C != C.T).nnz == 0

    def test_row_sums_zero(self):
        mesh = make_grid_mesh(7, 6, bump=0.3)
        C = cotan_matrix(mesh)
        rows = np.asarray(C.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) <= 1e-12 * np.max(np.abs(C.data))

    def test_matches_per_face_oracle(self):
        mesh = make_grid_mesh(6, 6, bump=0.5)
        C = cotan_matrix(mesh).toarray()
        want = cotan_assembly_oracle(mesh)
        np.testing.assert_allclose(C, want, atol=1e-12 * np.abs(want).max())

    def test_non_manifold_edge_rejected(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]], dtype=float
        )
        faces = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        mesh = TriangleMesh(verts, faces)
        with pytest.raises(ValueError, match="non-manifold"):
            cotan_matrix(mesh)

    def test_first_non_manifold_edge_in_sorted_order_named(self):
        # edge (2, 3) comes first in face order, (1, 9) first in (lo, hi) order
        verts = np.random.default_rng(2).standard_normal((10, 3))
        faces = np.array([
            [2, 3, 5], [3, 2, 6], [2, 3, 7],
            [9, 1, 0], [1, 9, 4], [9, 1, 8], [1, 9, 3],
        ])
        mesh = TriangleMesh(verts, faces)
        with pytest.raises(ValueError, match=r"non-manifold edge \(1, 9\) shared by 4 faces"):
            cotan_matrix(mesh)

    def test_degenerate_face_is_hard_error(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float)
        faces = np.array([[0, 1, 2], [0, 1, 3]])
        mesh = TriangleMesh(verts, faces)
        with pytest.raises(ValueError, match="degenerate"):
            cotan_matrix(mesh)


    def test_overflowing_geometry_is_refused(self):
        # squared edges overflow: the areas are NaN, which no threshold test
        # catches; the faces are recorded without numpy warnings
        base = icosphere(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = TriangleMesh(base.vertices * 1e300, base.faces)
        assert mesh.degenerate_faces.tolist() == list(range(mesh.n_faces))
        with pytest.raises(ValueError, match="degenerate or non-finite faces"):
            assemble_lb_operator(mesh)


class TestVertexAreas:
    def test_equilateral_split(self, equilateral_mesh):
        A = vertex_areas(equilateral_mesh)
        each = (math.sqrt(3.0) / 4.0) / 3.0
        np.testing.assert_allclose(A, each, rtol=1e-12)

    def test_right_isoceles_voronoi(self):
        # right angle at vertex 0, legs of length 1; V(T) there is
        # (1^2 cot45 + 1^2 cot45)/8 = 0.25 by hand
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        A = vertex_areas(mesh)
        assert A[0] == pytest.approx(0.25, rel=1e-14)
        assert A.sum() == pytest.approx(0.5, rel=1e-12)

    def test_partition_with_obtuse_faces(self):
        verts = np.array(
            [[0, 0, 0], [4, 0, 0], [2, 0.3, 0], [2, -2.5, 0]], dtype=float
        )
        faces = np.array([[0, 1, 2], [1, 0, 3]])
        mesh = TriangleMesh(verts, faces)
        A = vertex_areas(mesh)
        assert np.all(A > 0)
        assert A.sum() == pytest.approx(mesh.face_areas().sum(), rel=1e-10)

    def test_partition_on_curved_grid(self):
        mesh = make_grid_mesh(9, 7, bump=0.8)
        A = vertex_areas(mesh)
        assert np.all(A > 0)
        assert A.sum() == pytest.approx(mesh.face_areas().sum(), rel=1e-10)

    def test_barycentric_scheme(self, equilateral_mesh):
        A = vertex_areas(equilateral_mesh, scheme="barycentric")
        np.testing.assert_allclose(A, (math.sqrt(3.0) / 4.0) / 3.0, rtol=1e-12)


class TestOperator:
    def test_constant_field_annihilated(self):
        mesh = make_grid_mesh(6, 6, bump=0.3)
        op = assemble_lb_operator(mesh)
        f = np.full(mesh.n_vertices, 3.7)
        g = apply_lb(op, f)
        scale = np.abs(op.C.data).max() / op.A.min()
        assert np.max(np.abs(g)) <= 1e-12 * 3.7 * scale

    def test_linear_field_harmonic_on_interior(self):
        mesh = make_grid_mesh(8, 8)
        op = assemble_lb_operator(mesh)
        f = mesh.vertices[:, 0].copy()
        g = apply_lb(op, f)
        interior = []
        for i in range(8):
            for j in range(8):
                if 0 < i < 7 and 0 < j < 7:
                    interior.append(i * 8 + j)
        assert np.max(np.abs(g[interior])) <= 1e-8

    def test_matches_dense_matvec(self):
        rng = np.random.default_rng(7)
        mesh = make_grid_mesh(10, 10, bump=0.5)
        op = assemble_lb_operator(mesh)
        f = rng.standard_normal(mesh.n_vertices)
        dense = np.diag(1.0 / op.A) @ op.C.toarray()
        np.testing.assert_allclose(apply_lb(op, f), dense @ f, atol=1e-12 * np.abs(dense @ f).max() + 1e-15)

    def test_zero_field(self, equilateral_mesh):
        op = assemble_lb_operator(equilateral_mesh)
        np.testing.assert_array_equal(apply_lb(op, np.zeros(3)), np.zeros(3))

    def test_length_mismatch(self, equilateral_mesh):
        op = assemble_lb_operator(equilateral_mesh)
        with pytest.raises(ValueError, match="length"):
            apply_lb(op, np.zeros(5))

    def test_positive_semidefinite(self):
        mesh = make_grid_mesh(7, 7, bump=0.6)
        op = assemble_lb_operator(mesh)
        evals = np.linalg.eigvalsh(op.C.toarray())
        assert evals.min() >= -1e-10 * max(1.0, evals.max())

    def test_operator_validation(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError, match="positive"):
            LBOperator(sp.eye(3).tocsr(), np.array([1.0, 0.0, 1.0]))


class TestExportOperator:
    def test_header_and_roundtrip(self, tmp_path, equilateral_mesh):
        op = assemble_lb_operator(equilateral_mesh)
        pc = tmp_path / "C.mtx"
        pa = tmp_path / "A.csv"
        export_operator(op, pc, pa)
        header = pc.read_text().splitlines()[0]
        assert header == "%%MatrixMarket matrix coordinate real symmetric"
        C_back = scipy.io.mmread(pc).toarray()
        np.testing.assert_array_equal(C_back, op.C.toarray())
        A_back = np.array([float(line) for line in pa.read_text().split()])
        np.testing.assert_array_equal(A_back, op.A)

    def test_bytes_match_per_row_format(self, tmp_path):
        C = sparse.csr_matrix(np.array([[1.797e308, -5e-324], [-5e-324, -0.0]]))
        # icosphere(4) has 10242 entries in its lower triangle: 30726 values, four encoder blocks
        for op in (LBOperator(C, np.array([5e-324, 1.797e308])), assemble_lb_operator(icosphere(4))):
            pc, pa = tmp_path / "C.mtx", tmp_path / "A.csv"
            export_operator(op, pc, pa)
            coo = sparse.tril(op.C).tocoo()
            rows = "".join(f"{i + 1} {j + 1} {v:.16e}\n" for i, j, v in zip(coo.row, coo.col, coo.data))
            n = op.n_vertices
            header = f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {coo.nnz}\n"
            assert pc.read_text() == header + rows
            assert pa.read_text() == "".join(f"{v:.16e}\n" for v in op.A)

    def test_io_error(self, tmp_path, equilateral_mesh):
        op = assemble_lb_operator(equilateral_mesh)
        with pytest.raises(OSError):
            export_operator(op, tmp_path / "nodir" / "C.mtx", tmp_path / "A.csv")


@st.composite
def irregular_meshes(draw):
    """(vertices, faces): a bumpy grid patch, or a jittered icosphere with holes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mesh = make_grid_mesh(
            draw(st.integers(3, 7)), draw(st.integers(3, 7)),
            spacing=draw(st.floats(0.2, 2.0)), bump=draw(st.floats(0.0, 1.0)),
        )
        return mesh.vertices, mesh.faces
    base = icosphere(2)
    # every vertex of icosphere(2) has at least 5 faces, so dropping 3 isolates none
    holes = draw(st.sets(st.integers(0, base.n_faces - 1), min_size=1, max_size=3))
    faces = np.delete(base.faces, sorted(holes), axis=0)
    return base.vertices + 0.03 * rng.standard_normal(base.vertices.shape), faces


def _assembled(verts, faces):
    op = assemble_lb_operator(TriangleMesh(verts, faces))
    return op.C.toarray(), op.A


def _assert_same_operator(got, want):
    (C, A), (C0, A0) = got, want
    np.testing.assert_allclose(C, C0, rtol=1e-14, atol=1e-14 * np.abs(C0).max())
    np.testing.assert_allclose(A, A0, rtol=1e-14)


class TestGeometryProperties:
    """The one-pass per-face geometry, through the assembled C and A."""

    @settings(max_examples=25, deadline=None)
    @given(mesh=irregular_meshes(), seed=st.integers(0, 2**32 - 1))
    def test_vertex_permutation_permutes_operator(self, mesh, seed):
        verts, faces = mesh
        perm = np.random.default_rng(seed).permutation(len(verts))
        inverse = np.argsort(perm)  # new index of each old vertex
        C0, A0 = _assembled(verts, faces)
        _assert_same_operator(_assembled(verts[perm], inverse[faces]), (C0[perm][:, perm], A0[perm]))

    @settings(max_examples=25, deadline=None)
    @given(mesh=irregular_meshes(), seed=st.integers(0, 2**32 - 1))
    def test_face_order_and_corner_rotation_leave_operator(self, mesh, seed):
        verts, faces = mesh
        rng = np.random.default_rng(seed)
        shuffled = faces[rng.permutation(len(faces))]
        rotate = rng.random(len(faces)) < 0.5
        shuffled[rotate] = shuffled[rotate][:, [1, 2, 0]]
        _assert_same_operator(_assembled(verts, shuffled), _assembled(verts, faces))

    @settings(max_examples=25, deadline=None)
    @given(mesh=irregular_meshes(), sigma=st.floats(1e-3, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_heat_smooth_conserves_mass(self, mesh, sigma, seed):
        op = assemble_lb_operator(TriangleMesh(*mesh))
        f = np.random.default_rng(seed).standard_normal(op.n_vertices)
        g = heat_smooth(op, f, sigma)
        assert abs(op.A @ g - op.A @ f) <= 1e-12 * (op.A @ np.abs(f))

    def test_zero_length_edges_recorded_without_warnings(self):
        base = make_grid_mesh(5, 5, bump=0.3)
        verts = base.vertices.copy()
        verts[6] = verts[7]  # grid neighbours: the faces holding both get a zero-length edge
        face = base.faces[-1]
        verts[face[1:]] = verts[face[0]]  # one face whose three corners coincide
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = TriangleMesh(verts, base.faces)
        collapsed = np.isin(base.faces, [6, 7]).sum(axis=1) == 2
        collapsed[-1] = True
        assert set(np.flatnonzero(collapsed)) <= set(mesh.degenerate_faces.tolist())
        assert mesh.n_faces - 1 in mesh.degenerate_faces
