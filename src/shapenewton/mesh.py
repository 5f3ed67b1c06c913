"""Conforming triangle meshes of the unit square with a tracked interface polyline.

The mesh splits (0,1)^2 into two subdomains separated by a polyline running
from (0.5, 0) to (0.5, 1).  Subdomain 1 lies left of the directed interface,
subdomain 2 right.  All construction, refinement and deformation operations
preserve that structure and re-validate it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .errors import InvertedElementError, LinearSolverError, MeshInvariantError, PointLocationError

# Barycentric slack used when deciding containment; corresponds to a geometric
# tolerance well below 1e-10 on the meshes handled here.
_BARY_TOL = 1e-9
# Smallest barycentric coordinate for a nearest-star hit to be final: far
# enough inside that no neighbouring triangle can be admissible as well.
_STAR_MARGIN = 1e-6

# Largest relative residual ||K_ff x_f - b_f|| / ||b_f|| of a Dirichlet solve.
_RESIDUAL_TOL = 1e-10

_INTERFACE_START = (0.5, 0.0)
_INTERFACE_END = (0.5, 1.0)


@dataclass(frozen=True)
class TriMesh:
    """Triangulation with subdomain labels and an ordered interface polyline.

    vertices : (nv, 2) float64 coordinates
    triangles : (nt, 3) vertex indices, counter-clockwise
    subdomain : (nt,) labels in {1, 2}
    outer_boundary_nodes : sorted indices of nodes on the unit-square boundary
    interface_nodes : node indices ordered from (0.5, 0) to (0.5, 1)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    subdomain: np.ndarray
    outer_boundary_nodes: np.ndarray
    interface_nodes: np.ndarray

    def __post_init__(self):
        for name in ("vertices", "triangles", "subdomain", "outer_boundary_nodes",
                     "interface_nodes"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def interface_edges(self) -> np.ndarray:
        """Ordered (m-1, 2) list of node pairs along the interface."""
        return np.column_stack([self.interface_nodes[:-1], self.interface_nodes[1:]])

    @property
    def interface_points(self) -> np.ndarray:
        """Coordinates of the interface polyline, ordered bottom to top."""
        return self.vertices[self.interface_nodes]


def p1_gradients(mesh: TriMesh):
    """Per-triangle shape-function gradient coefficients and areas.

    Returns (b, c, area) with grad(phi_i) = (b_i, c_i) / (2 area).
    """
    p = mesh.vertices[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def signed_areas(mesh: TriMesh) -> np.ndarray:
    """Signed triangle areas; positive for counter-clockwise orientation."""
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _edge_key(pairs: np.ndarray, n_vertices: int) -> np.ndarray:
    lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    return lo * n_vertices + hi


def _unique_edges(mesh: TriMesh):
    """All undirected edges with incidence counts and incident triangles.

    Returns (keys sorted ascending, counts, tri_of_first, tri_of_second);
    tri_of_second is -1 for boundary edges.
    """
    t = mesh.triangles
    nt = t.shape[0]
    pairs = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = _edge_key(pairs, mesh.n_vertices)
    tris = np.tile(np.arange(nt), 3)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    tris_sorted = tris[order]
    uniq, start, counts = np.unique(keys_sorted, return_index=True, return_counts=True)
    first = tris_sorted[start]
    second = np.full(uniq.shape[0], -1, dtype=np.int64)
    has_two = counts >= 2
    second[has_two] = tris_sorted[start[has_two] + 1]
    return uniq, counts, first, second


def validate(mesh: TriMesh) -> None:
    """Check all structural invariants; raise MeshInvariantError on violation."""
    areas = signed_areas(mesh)
    if areas.size and areas.min() <= 0.0:
        bad = int(np.argmin(areas))
        raise InvertedElementError(bad, float(areas[bad]))

    if not np.isin(mesh.subdomain, (1, 2)).all():
        raise MeshInvariantError("subdomain labels must be 1 or 2")

    inodes = mesh.interface_nodes
    if inodes.size < 2:
        raise MeshInvariantError("interface polyline needs at least two nodes")
    pts = mesh.vertices[inodes]
    if tuple(pts[0]) != _INTERFACE_START or tuple(pts[-1]) != _INTERFACE_END:
        raise MeshInvariantError(
            f"interface endpoints {pts[0]}, {pts[-1]} are not pinned at "
            f"{_INTERFACE_START}, {_INTERFACE_END}")
    interior_x = pts[1:-1, 0]
    if interior_x.size and (interior_x.min() <= 0.0 or interior_x.max() >= 1.0):
        raise MeshInvariantError("interface leaves the open strip 0 < x < 1")
    _check_simple_polyline(pts)

    uniq, counts, first, second = _unique_edges(mesh)
    ekeys = _edge_key(mesh.interface_edges, mesh.n_vertices)
    pos = np.searchsorted(uniq, ekeys)
    missing = (pos >= uniq.shape[0]) | (uniq[np.clip(pos, 0, uniq.shape[0] - 1)] != ekeys)
    if missing.any():
        raise MeshInvariantError(
            f"interface segment {int(np.argmax(missing))} is not a mesh edge")
    if (counts[pos] != 2).any():
        bad = int(np.argmax(counts[pos] != 2))
        raise MeshInvariantError(f"interface edge {bad} is not shared by two triangles")

    # Each directed interface edge must see subdomain 1 on its left and 2 on
    # its right.
    for k in range(ekeys.shape[0]):
        a, b = mesh.interface_edges[k]
        labels = set()
        for tri in (first[pos[k]], second[pos[k]]):
            tv = mesh.triangles[tri]
            c = tv[~np.isin(tv, (a, b))][0]
            e = mesh.vertices[b] - mesh.vertices[a]
            d = mesh.vertices[c] - mesh.vertices[a]
            left = e[0] * d[1] - e[1] * d[0] > 0.0
            expected = 1 if left else 2
            if mesh.subdomain[tri] != expected:
                raise MeshInvariantError(
                    f"triangle {int(tri)} on the {'left' if left else 'right'} of "
                    f"interface edge {k} has label {int(mesh.subdomain[tri])}")
            labels.add(int(mesh.subdomain[tri]))
        if labels != {1, 2}:
            raise MeshInvariantError(f"interface edge {k} does not separate both subdomains")

    _check_region_labels(mesh, uniq, counts, first, second, ekeys)


def _check_simple_polyline(pts: np.ndarray) -> None:
    y = pts[:, 1]
    if np.all(np.diff(y) > 0.0):
        return  # monotone in y, cannot self-intersect
    m = pts.shape[0] - 1
    for i in range(m):
        for j in range(i + 2, m):
            if _segments_cross(pts[i], pts[i + 1], pts[j], pts[j + 1]):
                raise MeshInvariantError(f"interface segments {i} and {j} intersect")


def _segments_cross(a, b, c, d) -> bool:
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0.0) and (o3 * o4 < 0.0)


def _check_region_labels(mesh, uniq, counts, first, second, interface_keys) -> None:
    """Subdomain labels must be constant on each side of the interface."""
    interior = (counts == 2) & ~np.isin(uniq, interface_keys)
    rows = first[interior]
    cols = second[interior]
    nt = mesh.n_triangles
    graph = sp.coo_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(nt, nt))
    n_comp, comp = sp.csgraph.connected_components(graph, directed=False)
    if n_comp != 2:
        raise MeshInvariantError(
            f"interface does not split the mesh into two regions (found {n_comp})")
    for c in range(2):
        labels = np.unique(mesh.subdomain[comp == c])
        if labels.size != 1:
            raise MeshInvariantError(f"region {c} carries mixed subdomain labels {labels}")
    centroids_x = mesh.vertices[mesh.triangles, 0].mean(axis=1)
    leftmost = int(np.argmin(centroids_x))
    if mesh.subdomain[leftmost] != 1:
        raise MeshInvariantError("leftmost region is not labelled subdomain 1")


def build_template(n: int) -> TriMesh:
    """Structured crossed-diagonal triangulation of the unit square.

    n is the number of cells per side and must be even so that the straight
    interface x = 0.5 coincides with a grid line.  Each cell is split into two
    triangles along alternating diagonals; the result has (n+1)^2 vertices and
    2 n^2 triangles.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")

    jj, ii = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    vertices = np.column_stack([(ii / n).ravel(), (jj / n).ravel()]).astype(np.float64)

    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ci = ci.ravel(order="F")  # cell column (x), row-major in j for determinism
    cj = cj.ravel(order="F")
    v00 = cj * (n + 1) + ci
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1

    main = (ci + cj) % 2 == 0
    tris = np.empty((n * n, 2, 3), dtype=np.int64)
    tris[main, 0] = np.column_stack([v00, v10, v11])[main]
    tris[main, 1] = np.column_stack([v00, v11, v01])[main]
    tris[~main, 0] = np.column_stack([v00, v10, v01])[~main]
    tris[~main, 1] = np.column_stack([v10, v11, v01])[~main]
    triangles = tris.reshape(-1, 3)

    cell_label = np.where(ci < n // 2, 1, 2).astype(np.int64)
    subdomain = np.repeat(cell_label, 2)

    on_boundary = (ii == 0) | (ii == n) | (jj == 0) | (jj == n)
    outer = np.flatnonzero(on_boundary.ravel()).astype(np.int64)

    interface = (np.arange(n + 1) * (n + 1) + n // 2).astype(np.int64)

    mesh = TriMesh(vertices, triangles, subdomain, outer, interface)
    validate(mesh)
    return mesh


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Red refinement: every triangle is split into four via edge midpoints."""
    t = mesh.triangles
    nt = t.shape[0]
    nv = mesh.n_vertices
    pairs = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = _edge_key(pairs, nv)
    uniq, inverse = np.unique(keys, return_inverse=True)
    lo = (uniq // nv).astype(np.int64)
    hi = (uniq % nv).astype(np.int64)
    mid_coords = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
    vertices = np.vstack([mesh.vertices, mid_coords])

    m01 = nv + inverse[:nt]
    m12 = nv + inverse[nt:2 * nt]
    m20 = nv + inverse[2 * nt:]
    a, b, c = t[:, 0], t[:, 1], t[:, 2]
    children = np.empty((nt, 4, 3), dtype=np.int64)
    children[:, 0] = np.column_stack([a, m01, m20])
    children[:, 1] = np.column_stack([m01, b, m12])
    children[:, 2] = np.column_stack([m20, m12, c])
    children[:, 3] = np.column_stack([m01, m12, m20])
    triangles = children.reshape(-1, 3)
    subdomain = np.repeat(mesh.subdomain, 4)

    edge_counts = np.bincount(inverse, minlength=uniq.shape[0])
    bnd_edge = edge_counts == 1
    outer = np.unique(np.concatenate([
        mesh.outer_boundary_nodes,
        nv + np.flatnonzero(bnd_edge),
    ])).astype(np.int64)

    iedges = mesh.interface_edges
    ikeys = _edge_key(iedges, nv)
    imid = nv + np.searchsorted(uniq, ikeys)
    interface = np.empty(2 * mesh.interface_nodes.shape[0] - 1, dtype=np.int64)
    interface[0::2] = mesh.interface_nodes
    interface[1::2] = imid

    refined = TriMesh(vertices, triangles, subdomain, outer, interface)
    validate(refined)
    return refined


@dataclass(frozen=True)
class DeformationField:
    """Vertex displacement field tied to the mesh it was computed on."""

    mesh: TriMesh
    displacement: np.ndarray  # (nv, 2)

    def __post_init__(self):
        self.displacement.flags.writeable = False


def scatter(dofs: np.ndarray, element_matrices: np.ndarray, size: int) -> sp.csr_matrix:
    """Sum element matrices (ne, k, k) into a size x size sparse matrix; row
    e of dofs (ne, k) holds the global indices of element e's local dofs."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return sp.coo_matrix((element_matrices.ravel(), (rows, cols)),
                         shape=(size, size)).tocsr()


class DirichletSystem:
    """A symmetric positive definite matrix with Dirichlet data on the
    constrained dofs, its free block factored once.

    SuperLU runs in symmetric mode: minimum-degree ordering on A^T + A and
    diagonal pivots keep the factor's symmetric structure, with less fill and
    faster solves than the default column ordering.  Minimum degree without
    symmetric mode is much slower to factor.
    """

    def __init__(self, matrix: sp.csr_matrix, constrained: np.ndarray):
        self.matrix = matrix
        mask = np.zeros(matrix.shape[0], dtype=bool)
        mask[constrained] = True
        self.free = np.flatnonzero(~mask)
        self.fixed = np.flatnonzero(mask)
        self._kff = matrix[self.free][:, self.free].tocsc()
        self._lu = spla.splu(self._kff, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def solve(self, rhs: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
        """Full solution for the full-length rhs, whose constrained entries
        are ignored; the constrained dofs take the matching entries of the
        full-length values, or zero when values is None."""
        out = np.zeros(self.matrix.shape[0])
        bf = rhs[self.free]
        if values is not None:
            out[self.fixed] = values[self.fixed]
            bf = bf - self.matrix[self.free][:, self.fixed] @ out[self.fixed]
        xf = self._lu.solve(bf)
        if not np.all(np.isfinite(xf)):
            raise LinearSolverError("sparse solve produced non-finite values")
        resid = np.linalg.norm(self._kff @ xf - bf)
        scale = max(np.linalg.norm(bf), 1e-300)
        if resid > _RESIDUAL_TOL * scale:
            raise LinearSolverError(
                f"relative residual {resid/scale:.3e} exceeds {_RESIDUAL_TOL:.1e}")
        out[self.free] = xf
        return out


def solve_elastic_deformation(mesh: TriMesh,
                              interface_displacement: np.ndarray) -> DeformationField:
    """Extend an interface displacement to the volume by linear elasticity.

    Dirichlet data: the given displacement on interface nodes, zero on the
    outer boundary.  Lame parameters lambda = 0, mu = 1.  Dof 2 v + c is
    component c of vertex v.
    """
    g = np.asarray(interface_displacement, dtype=np.float64)
    if g.shape != (mesh.interface_nodes.shape[0], 2):
        raise ValueError(f"interface displacement has shape {g.shape}, "
                         f"expected {(mesh.interface_nodes.shape[0], 2)}")
    if np.any(g[0] != 0.0) or np.any(g[-1] != 0.0):
        raise ValueError("displacement at the pinned interface endpoints must be zero")

    nodes = np.concatenate([mesh.outer_boundary_nodes, mesh.interface_nodes])
    system = DirichletSystem(_assemble_elasticity(mesh),
                             np.concatenate([2 * nodes, 2 * nodes + 1]))
    values = np.zeros((mesh.n_vertices, 2))
    values[mesh.interface_nodes] = g
    out = system.solve(np.zeros(values.size), values.ravel())
    return DeformationField(mesh=mesh, displacement=out.reshape(-1, 2))


def _assemble_elasticity(mesh: TriMesh) -> sp.csr_matrix:
    """Elasticity matrix for lambda = 0, mu = 1: the element form is
    2 eps(u) : eps(v) over the element dofs (ux0, ux1, ux2, uy0, uy1, uy2)."""
    b, c, area = p1_gradients(mesh)
    bb = b[:, :, None] * b[:, None, :]
    cc = c[:, :, None] * c[:, None, :]
    cb = c[:, :, None] * b[:, None, :]
    Ke = np.empty((mesh.n_triangles, 6, 6))
    Ke[:, :3, :3] = 2.0 * bb + cc
    Ke[:, :3, 3:] = cb
    Ke[:, 3:, :3] = cb.transpose(0, 2, 1)
    Ke[:, 3:, 3:] = bb + 2.0 * cc
    Ke /= (4.0 * area)[:, None, None]
    t = mesh.triangles
    return scatter(np.hstack([2 * t, 2 * t + 1]), Ke, 2 * mesh.n_vertices)


def apply_deformation(mesh: TriMesh, deformation: DeformationField) -> TriMesh:
    """Move vertices by the displacement field and re-validate the mesh,
    which shares the source's read-only connectivity arrays."""
    if deformation.mesh is not mesh:
        raise ValueError("deformation was computed on a different mesh")
    moved = TriMesh(mesh.vertices + deformation.displacement, mesh.triangles,
                    mesh.subdomain, mesh.outer_boundary_nodes, mesh.interface_nodes)
    validate(moved)
    return moved


class Locator:
    """KD-tree point-location accelerator over one mesh; build it once."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.tree = cKDTree(mesh.vertices)
        tflat = mesh.triangles.ravel()
        order = np.argsort(tflat, kind="stable")
        self.inc_tris = np.repeat(np.arange(mesh.n_triangles), 3)[order]
        self.indptr = np.searchsorted(tflat[order], np.arange(mesh.n_vertices + 1))
        self.max_degree = int(np.max(np.diff(self.indptr)))

    def _candidates(self, points: np.ndarray, k: int) -> np.ndarray:
        k = min(k, self.mesh.n_vertices)
        _, vids = self.tree.query(points, k=k)
        if k == 1:
            vids = vids[:, None]
        start = self.indptr[vids]
        deg = self.indptr[vids + 1] - start
        slot = np.arange(self.max_degree)
        idx = start[..., None] + slot
        ok = slot < deg[..., None]
        cands = np.where(ok, self.inc_tris[np.clip(idx, 0, self.inc_tris.shape[0] - 1)], -1)
        return cands.reshape(points.shape[0], -1)

    def _barycentric(self, points: np.ndarray, tris: np.ndarray):
        """Barycentric coordinates of points[i] in each triangle tris[i, j]."""
        verts = self.mesh.vertices
        tv = self.mesh.triangles[np.clip(tris, 0, self.mesh.n_triangles - 1)]
        p0 = verts[tv[..., 0]]
        d1 = verts[tv[..., 1]] - p0
        d2 = verts[tv[..., 2]] - p0
        det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        r = points[:, None, :] - p0
        b1 = (r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]) / det
        b2 = (d1[..., 0] * r[..., 1] - d1[..., 1] * r[..., 0]) / det
        b0 = 1.0 - b1 - b2
        return np.stack([b0, b1, b2], axis=-1)

    def locate(self, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        npts = points.shape[0]
        tri_out = np.full(npts, -1, dtype=np.int64)
        bary_out = np.zeros((npts, 3))
        for block in np.array_split(np.arange(npts), max(1, npts // 8192)):
            pending = block
            # Most points lie strictly inside a triangle of their nearest
            # vertex's star.  A point on or near an edge can also lie in a
            # triangle outside that star, so it goes on to the wider passes,
            # where the lowest admissible index wins.
            for k, lower in ((1, _STAR_MARGIN), (8, -_BARY_TOL), (64, -_BARY_TOL)):
                if pending.size == 0:
                    break
                cands = self._candidates(points[pending], k)
                pending = self._resolve(points, pending, cands, tri_out, bary_out,
                                        lower)
            if pending.size:
                all_tris = np.arange(self.mesh.n_triangles)
                for chunk in np.array_split(pending, max(1, -(-pending.size // 4))):
                    cands = np.broadcast_to(all_tris, (chunk.size, all_tris.size))
                    left = self._resolve(points, chunk, cands, tri_out, bary_out)
                    if left.size:
                        raise PointLocationError(
                            f"point {points[left[0]]} lies outside the mesh")
        return tri_out, bary_out

    def _resolve(self, points, pending, cands, tri_out, bary_out, lower=-_BARY_TOL):
        bary = self._barycentric(points[pending], cands)
        minb = bary.min(axis=-1)
        ok = (minb >= lower) & (cands >= 0)
        # lowest triangle index wins among admissible candidates
        ranked = np.where(ok, cands, np.iinfo(np.int64).max)
        pick = np.argmin(ranked, axis=1)
        found = ok[np.arange(pending.size), pick]
        rows = np.flatnonzero(found)
        sel = pending[rows]
        tri_out[sel] = cands[rows, pick[rows]]
        b = bary[rows, pick[rows]]
        b = np.clip(b, 0.0, None)
        b /= b.sum(axis=1, keepdims=True)
        snap = b.max(axis=1) >= 1.0 - 1e-12
        if snap.any():
            hot = np.argmax(b[snap], axis=1)
            b[snap] = 0.0
            b[np.flatnonzero(snap), hot] = 1.0
        bary_out[sel] = b
        return pending[~found]


def locate_points(locator: Locator, points: np.ndarray):
    """Vectorized point location in the locator's mesh; returns (triangle
    indices, barycentrics).

    Points on shared edges resolve to the lowest incident triangle index.
    """
    return locator.locate(points)
