"""Piecewise-linear finite elements on interface meshes.

Assembly of stiffness, mass and load vectors, the homogeneous Dirichlet
Poisson solve on a mesh.DirichletSystem, and the state solve of the
two-source Poisson problem.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import DirichletSystem, Locator, TriMesh, locate_points, p1_gradients, scatter


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
    return scatter(mesh.triangles, Ke, mesh.n_vertices)


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Global consistent P1 mass matrix."""
    _, _, area = p1_gradients(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    Me = area[:, None, None] * base
    return scatter(mesh.triangles, Me, mesh.n_vertices)


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
    """The P1 stiffness matrix of one mesh with homogeneous Dirichlet data on
    the outer boundary, held as a DirichletSystem.

    The factorization is computed once and reused across right-hand sides,
    which keeps repeated solves on the same mesh cheap and deterministic.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.system = DirichletSystem(assemble_stiffness(mesh), mesh.outer_boundary_nodes)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the given full-length rhs; constrained entries are zero."""
        return self.system.solve(rhs)


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
                     mass: sp.csr_matrix) -> float:
    """Tracking term 0.5 * ||y - ybar||_L2^2 with the mesh's mass matrix."""
    _check_same_mesh(mesh, y, ybar)
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
