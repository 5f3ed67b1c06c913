"""Piecewise-linear finite elements on interface meshes.

Assembly of stiffness, mass and load vectors, homogeneous Dirichlet solves via
a deterministic sparse factorization, and the state solve of the two-source
Poisson problem.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import LinearSolverError
from .mesh import Locator, TriMesh, factor_spd, locate_points, p1_gradients

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class NodalField:
    """Vertex values tied to the mesh they live on."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.mesh.n_vertices,):
            raise ValueError(
                f"field has {self.values.shape[0]} values for "
                f"{self.mesh.n_vertices} vertices")
        self.values.flags.writeable = False


def _check_same_mesh(mesh: TriMesh, *fields: NodalField) -> None:
    for f in fields:
        if f.mesh is not mesh:
            raise ValueError("field belongs to a different mesh")


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """Global P1 stiffness matrix (no boundary conditions applied)."""
    b, c, area = p1_gradients(mesh)
    Ke = (np.einsum("ti,tj->tij", b, b) + np.einsum("ti,tj->tij", c, c)) \
        / (4.0 * area)[:, None, None]
    return _scatter(mesh, Ke)


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Global consistent P1 mass matrix."""
    _, _, area = p1_gradients(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    Me = area[:, None, None] * base
    return _scatter(mesh, Me)


def _scatter(mesh: TriMesh, element_matrices: np.ndarray) -> sp.csr_matrix:
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    nv = mesh.n_vertices
    return sp.coo_matrix((element_matrices.ravel(), (rows, cols)),
                         shape=(nv, nv)).tocsr()


def assemble_load_piecewise(mesh: TriMesh, f1: float, f2: float) -> np.ndarray:
    """Load vector for a source that is constant on each subdomain."""
    _, _, area = p1_gradients(mesh)
    f = np.where(mesh.subdomain == 1, f1, f2)
    contrib = (area * f / 3.0)[:, None] * np.ones(3)
    load = np.zeros(mesh.n_vertices)
    np.add.at(load, mesh.triangles, contrib)
    return load


def assemble_load_function(mesh: TriMesh, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Load vector for a smooth source, edge-midpoint quadrature."""
    p = mesh.vertices[mesh.triangles]
    _, _, area = p1_gradients(mesh)
    mids = 0.5 * (p + np.roll(p, -1, axis=1))  # m01, m12, m20
    fm = f(mids.reshape(-1, 2)).reshape(-1, 3)
    # vertex i is supported on the two midpoints of its incident edges
    w = np.empty_like(fm)
    w[:, 0] = fm[:, 0] + fm[:, 2]
    w[:, 1] = fm[:, 1] + fm[:, 0]
    w[:, 2] = fm[:, 2] + fm[:, 1]
    load = np.zeros(mesh.n_vertices)
    np.add.at(load, mesh.triangles, area[:, None] / 6.0 * w)
    return load


class DirichletSolver:
    """Factorized solver for the P1 stiffness matrix with homogeneous
    Dirichlet data on the outer boundary.

    The factorization is computed once and reused across right-hand sides,
    which keeps repeated solves on the same mesh cheap and deterministic.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.matrix = assemble_stiffness(mesh)
        mask = np.ones(mesh.n_vertices, dtype=bool)
        mask[mesh.outer_boundary_nodes] = False
        self.free = np.flatnonzero(mask)
        self._kff = self.matrix[self.free][:, self.free].tocsc()
        self._lu = factor_spd(self._kff)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the given full-length rhs; constrained entries are zero."""
        bf = rhs[self.free]
        xf = self._lu.solve(bf)
        if not np.all(np.isfinite(xf)):
            raise LinearSolverError("sparse solve produced non-finite values")
        resid = np.linalg.norm(self._kff @ xf - bf)
        scale = max(np.linalg.norm(bf), 1e-300)
        if resid > _RESIDUAL_TOL * scale:
            raise LinearSolverError(
                f"relative residual {resid/scale:.3e} exceeds {_RESIDUAL_TOL:.1e}")
        out = np.zeros(self.mesh.n_vertices)
        out[self.free] = xf
        return out


def solve_state(mesh: TriMesh, f1: float, f2: float) -> NodalField:
    """State solve: -lap y = f with f = f1 left of the interface, f2 right."""
    load = assemble_load_piecewise(mesh, f1, f2)
    return NodalField(mesh, DirichletSolver(mesh).solve(load))


def evaluate_field(locator: Locator, field: NodalField, points: np.ndarray) -> np.ndarray:
    """Evaluate a nodal field at arbitrary points inside the locator's mesh."""
    _check_same_mesh(locator.mesh, field)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tri, bary = locate_points(locator, pts)
    vals = np.einsum("pk,pk->p", bary, field.values[locator.mesh.triangles[tri]])
    return vals if np.asarray(points).ndim > 1 else vals[0]


def objective_misfit(mesh: TriMesh, y: NodalField, ybar: NodalField,
                     mass: sp.csr_matrix | None = None) -> float:
    """Tracking term 0.5 * ||y - ybar||_L2^2."""
    _check_same_mesh(mesh, y, ybar)
    if mass is None:
        mass = assemble_mass(mesh)
    d = y.values - ybar.values
    return float(0.5 * (d @ (mass @ d)))


def quadrature_l2_difference(mesh: TriMesh, field: NodalField,
                             exact: Callable[[np.ndarray], np.ndarray]) -> float:
    """L2 distance between a P1 field and a smooth function, midpoint rule."""
    _check_same_mesh(mesh, field)
    p = mesh.vertices[mesh.triangles]
    v = field.values[mesh.triangles]
    _, _, area = p1_gradients(mesh)
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    vm = 0.5 * (v + np.roll(v, -1, axis=1))
    diff = vm - exact(mids.reshape(-1, 2)).reshape(-1, 3)
    err2 = (area / 3.0) * (diff ** 2).sum(axis=1)
    return float(np.sqrt(err2.sum()))
