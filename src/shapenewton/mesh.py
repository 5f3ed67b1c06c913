"""Conforming triangle meshes of the unit square with a tracked interface polyline.

The mesh splits (0,1)^2 into two subdomains separated by a polyline running
from (0.5, 0) to (0.5, 1).  Subdomain 1 lies left of the directed interface,
subdomain 2 right.  Construction and refinement preserve that structure and
validate it in full; deformation keeps the connectivity and re-checks only
the invariants that moving vertices can break.

The module also holds the solver's linear-algebra building blocks: the
element scatter, the one factored Dirichlet system (DirichletSystem, whose
Poisson case is fem.DirichletSolver), the one conjugate-gradient loop (pcg),
which both halves of the elastic extension here and the Newton system in qp
run, and a level's lattice (Lattice), whose grid cells the one point locator
locate_points searches, and which holds the level's CSR pattern and
preconditions solve_lattice_poisson, which runs pcg too and factors nothing:
it solves the data oracle and every line-search trial's state.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvertedElementError, LinearSolverError, MeshInvariantError, PointLocationError

# Barycentric slack used when deciding containment, and how far, in cell
# widths, Lattice lets a vertex sit off the grid lattice.  A point admissible
# in a grid triangle of leg h (all barycentrics >= -_BARY_TOL) lies within
# 2 _BARY_TOL h of its cell on either axis, and an off-lattice vertex adds at
# most _BARY_TOL h more, so the cells within _CELL_SLACK cell widths of a
# point hold every triangle admissible for it, with room left for rounding.
_BARY_TOL = 1e-9
_CELL_SLACK = 4 * _BARY_TOL

# Largest relative residual ||K_ff x_f - b_f|| / ||b_f|| of a Dirichlet solve.
_RESIDUAL_TOL = 1e-10
# The conjugate gradients of the elastic extension and of the lattice Poisson
# solve stop at this relative residual and fail after _PCG_MAX_ITERS
# iterations; each half of the extension takes about 15 on every mesh, the
# lattice solve 2 on the lattice itself and at most 34 on the default study's
# working meshes.
_PCG_TOL = 1e-12
_PCG_MAX_ITERS = 100

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


def triangle_corners(vertices: np.ndarray, triangles: np.ndarray):
    """The x and y coordinates of the corners of triangles, an (..., 3)
    array of indices into vertices (nv, 2), each shaped like triangles.

    np.take gathers whole rows several times faster than numpy's fancy row
    gather vertices[triangles] does, and returns the same values.
    """
    p = np.take(vertices, triangles, axis=0)
    return p[..., 0], p[..., 1]


def p1_gradients(mesh: TriMesh):
    """Per-triangle shape-function gradient coefficients and areas.

    Returns (b, c, area) with grad(phi_i) = (b_i, c_i) / (2 area).
    """
    x, y = triangle_corners(mesh.vertices, mesh.triangles)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def signed_areas(mesh: TriMesh) -> np.ndarray:
    """Signed triangle areas; positive for counter-clockwise orientation."""
    x, y = triangle_corners(mesh.vertices, mesh.triangles)
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


def _edge_key(pairs: np.ndarray, n_vertices: int) -> np.ndarray:
    lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    return lo * n_vertices + hi


def _unique_edges(mesh: TriMesh):
    """All undirected edges with incidence counts and incident triangles.

    Returns (keys, counts, tri_of_first, tri_of_second, inverse): np.unique's
    sorted keys, counts and inverse over the triangle edges, taken in the
    order edges (0, 1), then (1, 2), then (2, 0) of every triangle, and each
    key's lowest and highest incident triangle; a boundary edge has
    tri_of_second -1.
    """
    t = mesh.triangles
    nt = t.shape[0]
    pairs = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    keys = _edge_key(pairs, mesh.n_vertices)
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    tris = np.tile(np.arange(nt), 3)
    first = np.full(uniq.shape[0], nt, dtype=np.int64)
    second = np.full(uniq.shape[0], -1, dtype=np.int64)
    np.minimum.at(first, inverse, tris)
    np.maximum.at(second, inverse, tris)
    second[counts == 1] = -1
    return uniq, counts, first, second, inverse


def validate(mesh: TriMesh) -> None:
    """Check all structural invariants; raise MeshInvariantError on violation.

    The geometric half (_check_geometry) runs first.  Once every triangle is
    positively oriented, the rest reads only the connectivity and the labels,
    which moving the vertices never changes.
    """
    if not np.isin(mesh.subdomain, (1, 2)).all():
        raise MeshInvariantError("subdomain labels must be 1 or 2")
    if mesh.interface_nodes.size < 2:
        raise MeshInvariantError("interface polyline needs at least two nodes")
    _check_geometry(mesh)

    uniq, counts, first, second, _ = _unique_edges(mesh)
    ekeys = _edge_key(mesh.interface_edges, mesh.n_vertices)
    pos = np.searchsorted(uniq, ekeys)
    missing = (pos >= uniq.shape[0]) | (uniq[np.clip(pos, 0, uniq.shape[0] - 1)] != ekeys)
    if missing.any():
        raise MeshInvariantError(
            f"interface segment {int(np.argmax(missing))} is not a mesh edge")
    if (counts[pos] != 2).any():
        bad = int(np.argmax(counts[pos] != 2))
        raise MeshInvariantError(f"interface edge {bad} is not shared by two triangles")

    # Each directed interface edge (a, b) must see subdomain 1 on its left
    # and 2 on its right.  A positively oriented triangle has its third
    # vertex left of a -> b exactly when b follows a in its cyclic order.
    tris = np.column_stack([first[pos], second[pos]])
    tv = mesh.triangles[tris]
    a = mesh.interface_nodes[:-1, None, None]
    b = mesh.interface_nodes[1:, None, None]
    left = ((tv == a) & (np.roll(tv, -1, axis=2) == b)).any(axis=2)
    if (left[:, 0] == left[:, 1]).any():
        bad = int(np.argmax(left[:, 0] == left[:, 1]))
        raise MeshInvariantError(f"interface edge {bad} does not separate both subdomains")
    wrong = mesh.subdomain[tris] != np.where(left, 1, 2)
    if wrong.any():
        k, j = np.argwhere(wrong)[0]
        tri = int(tris[k, j])
        raise MeshInvariantError(
            f"triangle {tri} on the {'left' if left[k, j] else 'right'} of "
            f"interface edge {int(k)} has label {int(mesh.subdomain[tri])}")

    _check_region_labels(mesh, uniq, counts, first, second, ekeys)


def _check_geometry(mesh: TriMesh) -> None:
    """The invariants that read vertex coordinates: positive orientation,
    pinned interface endpoints, an interface inside the open strip that does
    not cross itself, and subdomain 1 at the leftmost triangle, all at
    finite vertices."""
    finite = np.isfinite(mesh.vertices).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise MeshInvariantError(f"vertex {bad} at {mesh.vertices[bad]} is not finite")
    areas = signed_areas(mesh)
    if areas.size and areas.min() <= 0.0:
        bad = int(np.argmin(areas))
        raise InvertedElementError(bad, float(areas[bad]))

    pts = mesh.vertices[mesh.interface_nodes]
    if tuple(pts[0]) != _INTERFACE_START or tuple(pts[-1]) != _INTERFACE_END:
        raise MeshInvariantError(
            f"interface endpoints {pts[0]}, {pts[-1]} are not pinned at "
            f"{_INTERFACE_START}, {_INTERFACE_END}")
    interior_x = pts[1:-1, 0]
    if interior_x.size and (interior_x.min() <= 0.0 or interior_x.max() >= 1.0):
        raise MeshInvariantError("interface leaves the open strip 0 < x < 1")
    _check_simple_polyline(pts)

    centroids_x = triangle_corners(mesh.vertices, mesh.triangles)[0].mean(axis=1)
    leftmost = int(np.argmin(centroids_x))
    if mesh.subdomain[leftmost] != 1:
        raise MeshInvariantError("leftmost region is not labelled subdomain 1")


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
    uniq, counts, _, _, inverse = _unique_edges(mesh)
    lo = (uniq // nv).astype(np.int64)
    hi = (uniq % nv).astype(np.int64)
    mid_coords = 0.5 * (np.take(mesh.vertices, lo, axis=0) + np.take(mesh.vertices, hi, axis=0))
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

    outer = np.unique(np.concatenate([
        mesh.outer_boundary_nodes,
        nv + np.flatnonzero(counts == 1),
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


def stiffness_elements(b: np.ndarray, c: np.ndarray, area: np.ndarray) -> np.ndarray:
    """P1 stiffness element matrices (nt, 3, 3) from p1_gradients."""
    return (np.einsum("ti,tj->tij", b, b) + np.einsum("ti,tj->tij", c, c)) \
        / (4.0 * area)[:, None, None]


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """Global P1 stiffness matrix (no boundary conditions applied)."""
    return scatter(mesh.triangles, stiffness_elements(*p1_gradients(mesh)),
                   mesh.n_vertices)


class DirichletSystem:
    """A symmetric positive definite matrix with Dirichlet data on the
    constrained dofs, its free block factored once.

    SuperLU runs in symmetric mode: minimum-degree ordering on A^T + A and
    diagonal pivots keep the factor's symmetric structure, with less fill and
    faster solves than the default column ordering.  Minimum degree without
    symmetric mode is much slower to factor.

    scipy frees a SuperLU factor only on the thread that made it, so a
    system is a context manager: leaving its with block, on an error too,
    releases the factor on the thread that built it, whatever still holds
    the system (a traceback, a Future), and the system then refuses to solve.
    """

    def __init__(self, matrix: sp.csr_matrix, constrained: np.ndarray):
        self.matrix = matrix
        mask = np.zeros(matrix.shape[0], dtype=bool)
        mask[constrained] = True
        self.free = np.flatnonzero(~mask)
        self.kff = matrix[self.free][:, self.free].tocsc()
        self._lu = spla.splu(self.kff, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def __enter__(self) -> DirichletSystem:
        return self

    def __exit__(self, *exc_info) -> None:
        self._lu = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Full solution for the full-length rhs, whose constrained entries
        are ignored; the constrained dofs are zero."""
        out = np.zeros(self.matrix.shape[0])
        bf = rhs[self.free]
        xf = self.solve_free(bf)
        if not np.all(np.isfinite(xf)):
            raise LinearSolverError("sparse solve produced non-finite values")
        check_residual(np.linalg.norm(self.kff @ xf - bf), np.linalg.norm(bf),
                       "factored solve")
        out[self.free] = xf
        return out

    def solve_free(self, bf: np.ndarray) -> np.ndarray:
        """The factor applied, unchecked, to right-hand sides on the free
        dofs, of shape (n_free,) or (n_free, k)."""
        if self._lu is None:
            raise ValueError("the system's factor was released when its with block ended")
        return self._lu.solve(bf)


def solve_elastic_deformation(mesh: TriMesh, interface_displacement,
                              stiffness: sp.csr_matrix) -> DeformationField:
    """Extend an interface displacement to the volume by linear elasticity.

    Dirichlet data: the given displacement on interface nodes, zero on the
    outer boundary.  Lame parameters lambda = 0, mu = 1.  Dof 2 v + c is
    component c of vertex v; stiffness is the mesh's P1 stiffness matrix
    (assemble_stiffness).  interface_displacement is a function returning
    an (m, 2) array, which each half calls once, after it has factored its
    Laplacian: a worker can factor while its caller still computes the step.

    No elasticity matrix is assembled.  For test functions that vanish on
    the outer boundary and the interface, integration by parts on each
    subdomain turns grad u : grad v^T into div u div v, so the free rows of
    the elasticity matrix are K (x) I + D^T D, with K the P1 stiffness and
    D the per-element divergence scaled by sqrt(area).

    No free vertex touches both subdomains (_free_halves checks this before
    anything factors), so the free rows split into two independent systems,
    one per subdomain.  Each is solved by pcg in the Euclidean inner
    product, preconditioned by the scalar P1 Laplacian of its subdomain on
    each component (Blaheta's displacement decomposition).  For such
    displacements a(u, u) = |grad u|^2 + |div u|^2 <= 3 |grad u|^2, so the
    preconditioned condition number is at most 3 on each half and the
    iteration count does not grow with the mesh.  Each half factors its own
    Laplacian, which serves both components: each application is one solve
    on an (n_half, 2) block.  The right half runs on a helper thread, which
    has ended when this call returns or raises, and the left half on this
    one; each holds its factor as a DirichletSystem.  Raises
    LinearSolverError when a CG does not reach _PCG_TOL within
    _PCG_MAX_ITERS iterations, or its answer misses _RESIDUAL_TOL on the
    true residual.
    """
    left, right = _free_halves(mesh)
    # Row t of D holds (b_i, c_i) / (2 sqrt(area_t)) on the dofs 2 v_i and
    # 2 v_i + 1 of its vertices: six entries, so the pattern is known.
    b, c, area = p1_gradients(mesh)
    scale = 0.5 / np.sqrt(area)[:, None]
    div = sp.csr_matrix((np.stack([b * scale, c * scale], axis=2).ravel(),
                         (2 * mesh.triangles[:, :, None] + np.arange(2)).ravel(),
                         np.arange(0, 6 * mesh.n_triangles + 1, 6)),
                        shape=(mesh.n_triangles, 2 * mesh.n_vertices))
    with ThreadPoolExecutor(max_workers=1) as helper:
        right_half = helper.submit(_extend_half, mesh, stiffness,
                                   div[mesh.subdomain == 2], right, interface_displacement)
        u = _extend_half(mesh, stiffness, div[mesh.subdomain == 1], left,
                         interface_displacement)
        u[right] = np.take(right_half.result(), right, axis=0)
    return DeformationField(mesh=mesh, displacement=u)


def _free_halves(mesh: TriMesh):
    """The extension's free vertices, off the outer boundary and the
    interface, split by subdomain: (left, right), each ascending.  Raises
    MeshInvariantError naming a free vertex that lies in both subdomains or
    in neither, so that the halves are disjoint and cover every free
    vertex."""
    fixed = np.zeros(mesh.n_vertices, dtype=bool)
    fixed[mesh.outer_boundary_nodes] = True
    fixed[mesh.interface_nodes] = True
    touches = np.zeros((2, mesh.n_vertices), dtype=bool)
    for half, label in enumerate((1, 2)):
        touches[half, mesh.triangles[mesh.subdomain == label]] = True
    for bad, where in ((touches.all(axis=0), "in both subdomains"),
                       (~touches.any(axis=0), "in no subdomain")):
        bad &= ~fixed
        if bad.any():
            raise MeshInvariantError(f"free vertex {int(np.argmax(bad))} lies {where}")
    return np.flatnonzero(touches[0] & ~fixed), np.flatnonzero(touches[1] & ~fixed)


def _extend_half(mesh: TriMesh, stiffness: sp.csr_matrix, div: sp.csr_matrix,
                 free: np.ndarray, interface_displacement) -> np.ndarray:
    """The interface displacement lifted to the vertices and extended to one
    subdomain's free vertices, (n_vertices, 2); zero on the other half's.
    div holds the subdomain's rows of D.  interface_displacement, a function
    returning the (m, 2) displacement, is called once the subdomain's
    Laplacian is factored."""
    constrained = np.setdiff1d(np.arange(stiffness.shape[0]), free)
    with DirichletSystem(stiffness, constrained) as laplacian:
        dff = div[:, (2 * free[:, None] + np.arange(2)).ravel()]
        g = np.asarray(interface_displacement(), dtype=np.float64)
        if g.shape != (mesh.interface_nodes.shape[0], 2):
            raise ValueError(f"interface displacement has shape {g.shape}, "
                             f"expected {(mesh.interface_nodes.shape[0], 2)}")
        if np.any(g[0] != 0.0) or np.any(g[-1] != 0.0):
            raise ValueError("displacement at the pinned interface endpoints must be zero")
        u = np.zeros((mesh.n_vertices, 2))
        u[mesh.interface_nodes] = g
        # The right-hand side -(K (x) I + D^T D) u of the lift, on the free
        # dofs; only this subdomain's triangles touch them.
        rhs = -(np.take(stiffness @ u, free, axis=0).ravel() + dff.T @ (div @ u.ravel()))

        def operator(x):
            """Free rows of the elasticity matrix, on free dofs in node-major
            order, so x reshaped to (n_free, 2) holds one component per column."""
            return (laplacian.kff @ x.reshape(-1, 2)).ravel() + dff.T @ (dff @ x)

        u[free] = _checked_pcg(operator, rhs, lambda r: laplacian.solve_free(
            r.reshape(-1, 2)).ravel()).reshape(-1, 2)
    return u


def _checked_pcg(operator, rhs: np.ndarray, precondition) -> np.ndarray:
    """pcg in the Euclidean inner product to _PCG_TOL; raises
    LinearSolverError when it stops unconverged or its answer misses
    _RESIDUAL_TOL on the true residual."""
    x, norms, _, converged = pcg(operator, rhs, precondition, np.dot, _PCG_TOL,
                                 _PCG_MAX_ITERS)
    if not converged:
        raise LinearSolverError(
            f"conjugate gradients stopped after {len(norms) - 1} iterations at "
            f"relative residual {norms[-1] / norms[0]:.3e}, above {_PCG_TOL:.0e}")
    check_residual(np.linalg.norm(operator(x) - rhs), norms[0], "conjugate gradients")
    return x


def check_residual(resid: float, scale: float, what: str) -> None:
    """The residual bound of every linear solve: raise LinearSolverError,
    naming what was solved, unless the residual norm resid is at most
    _RESIDUAL_TOL times scale, the right-hand side's norm; NaN fails too."""
    scale = max(scale, 1e-300)
    if not resid <= _RESIDUAL_TOL * scale:
        raise LinearSolverError(
            f"{what}: relative residual {resid / scale:.3e} exceeds {_RESIDUAL_TOL:.1e}")


class Lattice:
    """The N x N lattice of a uniformly refined template, a grid of N x N
    square cells with two triangles each (N read from the 2 N^2 triangles).

    Retraction moves vertices but keeps their indices and the connectivity,
    so the lattice read once from a level's straight mesh serves every mesh
    moved from it: it scatters their element matrices into its CSR pattern
    and preconditions their Poisson solves by the exact inverse of its
    5-point Laplacian, while locate_points finds points in its own mesh by
    its grid cells.
    Holds the mesh, N, cells: the two triangles of cell i + N j in ascending
    order, (N^2, 2), and free: the vertices at the interior lattice points
    (i, j), j-major, so that an array on them reshapes to the (N-1) x (N-1)
    grid.  Built from any other mesh, a moved one included, it raises
    ValueError.
    """

    def __init__(self, mesh: TriMesh):
        n = math.isqrt(mesh.n_triangles // 2)
        scaled = mesh.vertices * n
        ij = np.rint(scaled).astype(np.int64)
        # A triangle is filed under the lower-left corner of its bounding box.
        lo = ij[mesh.triangles.T].min(axis=0)
        cell = lo[:, 0] + n * lo[:, 1]
        point = ij[:, 0] + (n + 1) * ij[:, 1]
        if (2 * n * n != mesh.n_triangles or mesh.n_vertices != (n + 1) ** 2
                or not np.abs(scaled - ij).max() <= _BARY_TOL
                or not (np.bincount(cell, minlength=n * n) == 2).all()
                or not (np.bincount(point, minlength=(n + 1) ** 2) == 1).all()):
            raise ValueError(f"mesh is not a uniform {n} x {n} grid of cells with "
                             "two triangles each and vertices on the lattice")
        vertex = np.empty((n + 1) ** 2, dtype=np.int64)
        vertex[point] = np.arange(mesh.n_vertices)
        self.mesh, self.n = mesh, n
        self.cells = np.argsort(cell, kind="stable").reshape(n * n, 2)
        self.free = vertex.reshape(n + 1, n + 1)[1:-1, 1:-1].ravel()
        self._inverse = _lattice_laplacian_inverse(n)

    @cached_property
    def pattern(self):
        """(indptr, indices, slots): the CSR pattern of the P1 matrices on
        the mesh's connectivity and the slot in it of each element-matrix
        entry, read on the first scatter, so the data oracle's lattice,
        which never scatters, never builds it."""
        t, n = self.mesh.triangles, self.mesh.n_vertices
        keys = (np.repeat(t, 3, axis=1) * n + np.tile(t, (1, 3))).ravel()
        entries, slots = np.unique(keys, return_inverse=True)
        indptr = np.searchsorted(entries, np.arange(n + 1) * n).astype(np.int32)
        return indptr, (entries % n).astype(np.int32), slots

    def scatter(self, mesh: TriMesh, element_matrices: np.ndarray) -> sp.csr_matrix:
        """Sum element matrices (nt, 3, 3) of a mesh moved from the lattice's
        by np.bincount into the fixed pattern, where the module's scatter()
        sorts and sums a COO matrix anew.  Summed in another order, the
        entries may differ from scatter()'s in the last bit.  A mesh of other
        connectivity raises ValueError."""
        if mesh.triangles is not self.mesh.triangles and not np.array_equal(
                mesh.triangles, self.mesh.triangles):
            raise ValueError("mesh connectivity differs from the lattice's")
        indptr, indices, slots = self.pattern
        data = np.bincount(slots, element_matrices.ravel(), minlength=indices.shape[0])
        n = self.mesh.n_vertices
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The 5-point Laplacian's inverse applied to r on the free vertices."""
        return self._inverse(r.reshape(self.n - 1, self.n - 1)).ravel()

    def _barycentric(self, points: np.ndarray, tris: np.ndarray):
        """Barycentric coordinates of points[i] in each triangle tris[i, j],
        stacked on the first axis."""
        x, y = triangle_corners(self.mesh.vertices,
                                np.take(self.mesh.triangles, tris, axis=0))
        d1x, d1y = x[..., 1] - x[..., 0], y[..., 1] - y[..., 0]
        d2x, d2y = x[..., 2] - x[..., 0], y[..., 2] - y[..., 0]
        det = d1x * d2y - d1y * d2x
        rx, ry = points[:, None, 0] - x[..., 0], points[:, None, 1] - y[..., 0]
        b1 = (rx * d2y - ry * d2x) / det
        b2 = (d1x * ry - d1y * rx) / det
        b0 = 1.0 - b1 - b2
        return np.stack([b0, b1, b2])


def _lattice_laplacian_inverse(n: int):
    """The inverse of the 5-point Laplacian on the (n-1) x (n-1) interior
    lattice, applied to an (n-1, n-1) array by a 2-D DST-I: with the
    orthogonal S = sqrt(2/n) sin(pi j k / n) and the eigenvalues
    l_k = 2 - 2 cos(pi k / n) of tridiag(-1, 2, -1), X = S ((S B S) / (l_j + l_k)) S."""
    k = np.arange(1, n)
    s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / n)
    denominator = lam[:, None] + lam[None, :]
    return lambda b: s @ ((s @ b @ s) / denominator) @ s


def solve_lattice_poisson(lattice: Lattice, stiffness: sp.csr_matrix,
                          load: np.ndarray) -> np.ndarray:
    """Solve stiffness x = load, x = 0 on the outer boundary, for the P1
    stiffness of the lattice's mesh or of a mesh moved from it, without a
    factorization.  On the lattice the P1 stiffness is the 5-point Laplacian
    (the cell diagonals face right angles, so their cotangent weights
    vanish), and pcg preconditioned by its exact inverse takes about 2
    iterations; a moved mesh's stiffness is spectrally equivalent to it, and
    the default study's working meshes take 19 to 34.  _checked_pcg tests
    the answer against the stiffness, so a wrong preconditioner cannot
    return a wrong field."""
    free = lattice.free
    kff = stiffness[free][:, free]
    x = np.zeros(stiffness.shape[0])
    x[free] = _checked_pcg(lambda v: kff @ v, load[free], lattice.precondition)
    return x


def pcg(operator, b: np.ndarray, precondition, inner, tol: float, max_iters: int):
    """Solve operator(x) = b by preconditioned conjugate gradients from x = 0,
    in the inner product inner(u, v).

    Returns (x, residual norms, negative_curvature, converged).  The norms
    start with |b| and gain one entry per completed iteration.  A direction
    p with inner(p, operator(p)) <= 0 stops the iteration at the current
    iterate with negative_curvature set; converged is set only when the
    residual norm falls to tol |b|.  A non-finite residual raises
    LinearSolverError.
    """
    x = np.zeros_like(b)
    norms = [float(np.sqrt(inner(b, b)))]
    if norms[0] == 0.0:
        return x, norms, False, True
    r = b
    z = precondition(r)
    p = z
    rz = inner(r, z)
    for iteration in range(1, max_iters + 1):
        q = operator(p)
        pq = inner(p, q)
        if pq <= 0.0:
            return x, norms, True, False
        step = rz / pq
        x = x + step * p
        r = r - step * q
        norms.append(float(np.sqrt(inner(r, r))))
        if not np.isfinite(norms[-1]):
            raise LinearSolverError(
                f"conjugate gradients produced non-finite values at iteration {iteration}")
        if norms[-1] <= tol * norms[0]:
            return x, norms, False, True
        z = precondition(r)
        rz, rz_old = inner(r, z), rz
        p = z + (rz / rz_old) * p
    return x, norms, False, False


def apply_deformation(deformation: DeformationField) -> TriMesh:
    """Move the vertices of the deformation's mesh by its displacement and
    check the moved mesh.

    The moved mesh shares the source's read-only connectivity arrays, which
    validate() has checked, so only the geometric invariants are checked
    again (_check_geometry).  The interface labels need no new check: with
    every triangle positively oriented they are read from the connectivity
    alone.
    """
    mesh = deformation.mesh
    moved = TriMesh(mesh.vertices + deformation.displacement, mesh.triangles,
                    mesh.subdomain, mesh.outer_boundary_nodes, mesh.interface_nodes)
    _check_geometry(moved)
    return moved


def locate_points(lattice: Lattice, points: np.ndarray):
    """Vectorized point location in the lattice's mesh, by grid cell, for
    (k, 2) points; returns (triangle indices, barycentrics).

    Points on shared edges resolve to the lowest incident triangle index.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise PointLocationError(f"point {points[np.argmin(finite)]} is not finite")
    npts = points.shape[0]
    n = lattice.n
    # The at most four cells within _CELL_SLACK of each point hold every
    # triangle admissible for it.  A point that far from every cell edge
    # has one cell and two candidates; the rest get the eight triangles
    # of their four cells, repeats included, which do no harm.
    ij = np.clip(np.floor(points[:, :, None] * n + [-_CELL_SLACK, _CELL_SLACK]),
                 0, n - 1).astype(np.int64)
    one_cell = (ij[:, :, 0] == ij[:, :, 1]).all(axis=1)
    tri_out = np.empty(npts, dtype=np.int64)
    bary_out = np.empty((npts, 3))
    for k, group in ((1, np.flatnonzero(one_cell)), (2, np.flatnonzero(~one_cell))):
        for block in np.array_split(group, max(1, group.size // 8192)):
            p, c = points[block], ij[block]
            cands = np.take(lattice.cells, c[:, 0, :k, None] + n * c[:, 1, None, :k],
                            axis=0).reshape(-1, 2 * k * k)
            bary = lattice._barycentric(p, cands)
            ok = bary.min(axis=0) >= -_BARY_TOL
            # lowest triangle index wins among admissible candidates
            pick = np.argmin(np.where(ok, cands, np.iinfo(np.int64).max), axis=1)
            rows = np.arange(block.size)
            missed = ~ok[rows, pick]
            if missed.any():
                raise PointLocationError(f"point {p[np.argmax(missed)]} lies outside the mesh")
            tri_out[block] = cands[rows, pick]
            b = np.clip(bary[:, rows, pick].T, 0.0, None)
            b /= b.sum(axis=1, keepdims=True)
            snap = b.max(axis=1) >= 1.0 - 1e-12
            if snap.any():
                hot = np.argmax(b[snap], axis=1)
                b[snap] = 0.0
                b[np.flatnonzero(snap), hot] = 1.0
            bary_out[block] = b
    return tri_out, bary_out
