"""Triangle meshes and the discrete Laplace-Beltrami operator.

The operator is assembled in the cotan formulation: a symmetric stiffness
matrix C with off-diagonal entries -(cot(theta_ij) + cot(phi_ij))/2 over the
angles opposite each edge, diagonal C_ii = -sum_j C_ij, together with a
positive vertex-area vector A (mixed Voronoi areas by default). The operator
acts as (Delta f)_i = (C f)_i / A_i.
"""

import warnings

import numpy as np
from scipy import sparse

from .fields import _encode, data_line, read_rows, write_field_csv

# An angle counts as obtuse only when its cosine is clearly negative; the
# tolerance band around 90 degrees is treated as nonobtuse.
_OBTUSE_COS = -1e-12
_COT_CLAMP = 1e8
_DEGENERATE_REL_AREA = 1e-14


class TriangleMesh:
    """Immutable triangle mesh: vertex coordinates plus face connectivity.

    Parameters
    ----------
    vertices : (N, 3) array_like
        Vertex coordinates.
    faces : (M, 3) array_like
        Vertex-index triples. Every index must be in range, no face may
        repeat a vertex, and every vertex must be referenced by a face.

    Faces whose area is at most 1e-14 times their squared longest edge, which
    includes faces whose corners coincide, and faces whose geometry overflows
    to inf or NaN are recorded in ``degenerate_faces``; operator assembly
    refuses such meshes. The per-face geometry that assembly reads is
    computed once, at construction.
    """

    def __init__(self, vertices, faces):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (N, 3) array")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be an (M, 3) array")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertex coordinates must be finite")
        n = len(self.vertices)
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= n:
                bad = int(np.argmax((self.faces < 0) | (self.faces >= n)).item())
                raise ValueError(
                    f"face index out of range [0, {n}) in face {bad // 3}"
                )
        repeated = (
            (self.faces[:, 0] == self.faces[:, 1])
            | (self.faces[:, 1] == self.faces[:, 2])
            | (self.faces[:, 0] == self.faces[:, 2])
        )
        if repeated.any():
            raise ValueError(
                f"faces repeat a vertex: {np.nonzero(repeated)[0].tolist()}"
            )
        referenced = np.zeros(n, dtype=bool)
        referenced[self.faces.ravel()] = True
        if not referenced.all():
            isolated = np.nonzero(~referenced)[0]
            raise ValueError(f"isolated vertices not allowed: {isolated.tolist()}")
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)
        # geometry that overflows to inf or NaN fails the area test below
        with np.errstate(over="ignore", invalid="ignore"):
            self._geometry()
            self.degenerate_faces = np.nonzero(
                ~(self._areas > _DEGENERATE_REL_AREA * self._edges.max(axis=1) ** 2)
            )[0]

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    def _geometry(self):
        """Per-face geometry, column c for corner c: everything assembly reads.

        _edges: length of the edge opposite the corner; _areas: Heron's formula
        on those lengths; _cots: cot of the corner angle, clamped to
        +-_COT_CLAMP (NaN at a zero-length edge counts as the clamp);
        _obtuse: the corner angle's cosine is below _OBTUSE_COS.
        """
        v, f = self.vertices, self.faces
        d = [v[f[:, (k + 2) % 3]] - v[f[:, (k + 1) % 3]] for k in range(3)]  # edge opposite k
        el = np.column_stack([np.linalg.norm(e, axis=1) for e in d])
        a, b, c = el[:, 0], el[:, 1], el[:, 2]
        s = 0.5 * (a + b + c)
        areas = np.sqrt(np.maximum(s * (s - a) * (s - b) * (s - c), 0.0))
        cos, cot = np.empty_like(el), np.empty_like(el)
        for k in range(3):
            # corner k sits between the edge vectors p_{k+1} - p_k and p_{k+2} - p_k
            nxt, prv = (k + 1) % 3, (k + 2) % 3
            u, w = d[prv], -d[nxt]
            dot = np.einsum("ij,ij->i", u, w)
            with np.errstate(divide="ignore"):
                cos[:, k] = dot / (el[:, prv] * el[:, nxt])
                cot[:, k] = dot / np.linalg.norm(np.cross(u, w), axis=1)
        self._edges, self._areas, self._obtuse = el, areas, cos < _OBTUSE_COS
        self._cots = np.clip(np.nan_to_num(cot, nan=_COT_CLAMP), -_COT_CLAMP, _COT_CLAMP)
        for arr in (self._edges, self._areas, self._obtuse, self._cots):
            arr.setflags(write=False)

    def face_areas(self):
        """Heron's formula from the three edge lengths of each face."""
        return self._areas


class LBOperator:
    """Discrete Laplace-Beltrami operator: stiffness C and vertex areas A.

    C is symmetric sparse (CSR) with zero row sums; A is strictly positive.
    Instances are immutable apart from three caches the expansion layer fills
    on first use: the Lanczos estimate of the largest eigenvalue
    (lambda_max_hint), the Gershgorin bound (gershgorin_bound) and the pair
    (b, 2X) of expansion._recurrence_matrix (recurrence_matrix).
    """

    def __init__(self, C, A):
        self.C = C.tocsr()
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 1 or self.C.shape != (len(self.A), len(self.A)):
            raise ValueError("C must be square and match the length of A")
        if not np.all(self.A > 0):
            raise ValueError("vertex areas must be strictly positive")
        self.A.setflags(write=False)
        self.lambda_max_hint = None
        self.gershgorin_bound = None
        self.recurrence_matrix = None

    @property
    def n_vertices(self):
        return len(self.A)


def _require_clean(mesh):
    if len(mesh.degenerate_faces):
        raise ValueError(
            f"degenerate or non-finite faces (area < {_DEGENERATE_REL_AREA} * max edge^2): "
            f"{mesh.degenerate_faces.tolist()}"
        )


def cotan_matrix(mesh):
    """Symmetric cotan stiffness matrix C of a (boundary-allowed) manifold mesh.

    Off-diagonal: -(sum of the cotangents opposite edge ij)/2, one term per
    incident triangle. Diagonal: negative sum of the row's off-diagonals.
    """
    _require_clean(mesh)
    f = mesh.faces
    n = mesh.n_vertices
    # edge opposite corner c, stored with sorted endpoints so each undirected
    # edge accumulates both triangle contributions in one matrix entry
    rows = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    cols = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    # the key lo * n + hi sorts like the pair (lo, hi), so a 1-D unique names
    # the first non-manifold edge in that order
    keys, counts = np.unique(lo * n + hi, return_counts=True)
    bad = counts > 2
    if bad.any():
        k = np.argmax(bad)
        raise ValueError(f"non-manifold edge {divmod(int(keys[k]), n)} shared by {counts[k]} faces")
    vals = 0.5 * mesh._cots.T.ravel()
    upper = sparse.coo_matrix((vals, (lo, hi)), shape=(n, n)).tocsr()
    upper.sum_duplicates()
    off = -(upper + upper.T)
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sparse.diags(diag)).tocsr()


def vertex_areas(mesh, scheme="mixed"):
    """Per-vertex areas A_i.

    scheme="mixed" (default): Voronoi area inside nonobtuse triangles,
    half/quarter of the triangle area at the obtuse/nonobtuse corners of
    obtuse triangles. scheme="barycentric": one third of each incident
    triangle's area.
    """
    _require_clean(mesh)
    if scheme not in ("mixed", "barycentric"):
        raise ValueError(f"unknown area scheme {scheme!r}")
    f = mesh.faces
    areas = mesh.face_areas()
    n = mesh.n_vertices
    out = np.zeros(n)
    if scheme == "barycentric":
        np.add.at(out, f.ravel(), np.repeat(areas / 3.0, 3))
        return out

    el, cots, obtuse = mesh._edges, mesh._cots, mesh._obtuse
    any_obtuse = obtuse.any(axis=1)

    # Voronoi share of a nonobtuse triangle at corner c: for each of the two
    # edges meeting at c, (edge length)^2 times the cotangent at the vertex
    # opposite that edge, all over 8. Column d of el/cots belongs to the edge
    # opposite corner d, so the share sums the d != c columns.
    for c in range(3):
        nxt, prv = (c + 1) % 3, (c + 2) % 3
        voronoi = (el[:, nxt] ** 2 * cots[:, nxt] + el[:, prv] ** 2 * cots[:, prv]) / 8.0
        share = np.where(
            any_obtuse,
            np.where(obtuse[:, c], areas / 2.0, areas / 4.0),
            voronoi,
        )
        np.add.at(out, f[:, c], share)
    return out


def assemble_lb_operator(mesh, area_scheme="mixed"):
    """Bundle the cotan stiffness matrix with vertex areas."""
    return LBOperator(cotan_matrix(mesh), vertex_areas(mesh, scheme=area_scheme))


def _check_field(op, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n_vertices,):
        raise ValueError(
            f"field length {f.shape} does not match operator size {op.n_vertices}"
        )
    return f


def apply_lb(op, f):
    """Apply the operator: A^-1 (C f)."""
    return op.C.dot(_check_field(op, f)) / op.A


def export_operator(op, path_c, path_a):
    """Write C in Matrix Market coordinate (real symmetric) form and A as CSV.

    Entries carry 17 significant digits so a read-back reproduces the floats
    exactly; the field writers' encoder writes both files.
    """
    coo = sparse.tril(op.C).tocoo()
    with open(path_c, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{op.C.shape[0]} {op.C.shape[1]} {coo.nnz}\n")
        fh.writelines(_encode(np.column_stack([coo.row + 1, coo.col + 1, coo.data]), " ", ints=(0, 1)))
    write_field_csv(path_a, op.A)


def _header_tokens(fh, path, lineno, comments, expected):
    """(line number, tokens) of the next line of fh after line `lineno` that holds any."""
    for n, line in enumerate(fh, start=lineno + 1):
        tokens = line.split(comments, 1)[0].split()
        if tokens:
            return n, tokens
    raise ValueError(f"{path}: truncated file: expected {expected}; last line read was line {lineno}")


def _parse_off(fh, path):
    lineno, tok = _header_tokens(fh, path, 0, "#", "an OFF header")
    if tok[0].upper() != "OFF":
        raise ValueError(f"{path}:{lineno}: expected OFF header, got {tok[0]!r}")
    counts = tok[1:]
    if len(counts) < 3:
        lineno, counts = _header_tokens(fh, path, lineno, "#", "a vertex/face count line")
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError):
        nv = nf = -1
    if nv < 0 or nf < 0:
        raise ValueError(f"{path}:{lineno}: malformed OFF count line")
    return _read_body(fh, path, lineno, [("vertex", nv, ["x", "y", "z"]), ("face", nf, [])], "#")


def _parse_ply(fh, path):
    lineno, tok = _header_tokens(fh, path, 0, "comment", "the 'ply' magic line")
    if tok != ["ply"]:
        raise ValueError(f"{path}:{lineno}: missing 'ply' magic line")
    lineno, tok = _header_tokens(fh, path, lineno, "comment", "a format line")
    if tok[:2] != ["format", "ascii"]:
        raise ValueError(f"{path}:{lineno}: only ascii PLY supported, got {' '.join(tok)!r}")
    elements = []  # (name, count, [property names]) in declaration order
    while tok != ["end_header"]:
        lineno, tok = _header_tokens(fh, path, lineno, "comment", "end_header")
        if tok[0] == "element":
            try:
                count = int(tok[2])
            except (ValueError, IndexError):
                count = -1
            if count < 0:
                raise ValueError(f"{path}:{lineno}: malformed element line")
            elements.append((tok[1], count, []))
        elif tok[0] == "property":
            if not elements:
                raise ValueError(f"{path}:{lineno}: property before element")
            elements[-1][2].append(tok[-1])
    return _read_body(fh, path, lineno, elements, "comment")


def _read_body(fh, path, start, elements, comments):
    """Vertices and triangles from the element blocks that follow line `start`.

    elements lists (name, count, property names) in file order; each block
    is one read_rows call. Only "vertex" (by its x, y, z properties) and
    "face" (a vertex count of 3, then the indices) are kept.
    """
    verts = faces = None
    skip = 0  # data rows of the blocks before this one
    for name, count, props in elements:
        if name == "vertex":
            try:
                xyz = tuple(props.index(axis) for axis in "xyz")
            except ValueError:
                raise ValueError(f"{path}: vertex element lacks x/y/z") from None
            verts = read_rows(fh, path, "vertices", start, count, skip=skip, usecols=xyz,
                              comments=comments)
        elif name == "face":
            faces = read_rows(fh, path, "faces", start, count, skip=skip, usecols=(0, 1, 2, 3),
                              dtype=int, comments=comments)
            bad = np.flatnonzero(faces[:, 0] != 3)
            if bad.size:
                line = data_line(path, start, skip + bad[0], comments)
                raise ValueError(f"{path}:{line}: only triangular faces supported")
        else:
            read_rows(fh, path, f"{name} elements", start, count, skip=skip, usecols=(0,),
                      dtype=str, comments=comments)
        skip += count
    if verts is None or faces is None:
        raise ValueError(f"{path}: PLY file lacks vertex or face element")
    return verts, faces[:, 1:]


def load_mesh(path):
    """Load an OFF or ascii-PLY triangle mesh, by file extension.

    Vertex and face order are preserved. Degenerate faces produce a warning;
    isolated vertices are rejected.
    """
    lower = str(path).lower()
    if lower.endswith(".off"):
        parse = _parse_off
    elif lower.endswith(".ply"):
        parse = _parse_ply
    else:
        raise ValueError(f"cannot infer mesh format from {path!r}")
    with open(path) as fh:
        verts, faces = parse(fh, path)
    mesh = TriangleMesh(verts, faces)
    if len(mesh.degenerate_faces):
        warnings.warn(
            f"{path}: degenerate faces {mesh.degenerate_faces.tolist()}",
            RuntimeWarning,
            stacklevel=2,
        )
    return mesh


def save_off(mesh, path):
    """Write a mesh as OFF (17 significant digits, order preserved)."""
    with open(path, "w") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n")
        fh.writelines(_encode(mesh.vertices, " "))
        fh.write("3 %d %d %d\n" * mesh.n_faces % tuple(mesh.faces.ravel().tolist()))
