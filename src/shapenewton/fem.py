"""Piecewise-linear finite elements on interface meshes.

Assembly of mass and load vectors (the stiffness matrix comes from
mesh.assemble_stiffness, and the elastic extension reuses the matrix a state
already holds); the element formulas are shared with qp.MeshState, which
scatters them through a level's mesh.Lattice.  Also the homogeneous
Dirichlet Poisson system (DirichletSolver, a mesh.DirichletSystem), the
state solve of the two-source Poisson problem, and a field's values at
points located by a mesh.Lattice.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import (
    DirichletSystem,
    Lattice,
    TriMesh,
    assemble_stiffness,
    locate_points,
    p1_gradients,
    scatter,
    triangle_corners,
)


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


def mass_elements(area: np.ndarray) -> np.ndarray:
    """Consistent P1 mass element matrices (nt, 3, 3) from the areas."""
    return area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Global consistent P1 mass matrix."""
    return scatter(mesh.triangles, mass_elements(p1_gradients(mesh)[2]), mesh.n_vertices)


def load_piecewise(mesh: TriMesh, area: np.ndarray, f1: float, f2: float) -> np.ndarray:
    """Load vector for a source that is constant on each subdomain, from
    the triangle areas."""
    f = np.where(mesh.subdomain == 1, f1, f2)
    contrib = np.repeat(area * f / 3.0, 3)
    return np.bincount(mesh.triangles.ravel(), contrib, minlength=mesh.n_vertices)


def assemble_load_piecewise(mesh: TriMesh, f1: float, f2: float) -> np.ndarray:
    """Load vector for a source that is constant on each subdomain."""
    return load_piecewise(mesh, p1_gradients(mesh)[2], f1, f2)


def _edge_midpoints(mesh: TriMesh) -> np.ndarray:
    """The midpoints m01, m12, m20 of each triangle's edges, (3 nt, 2)."""
    x, y = triangle_corners(mesh.vertices, mesh.triangles)
    return np.stack([0.5 * (x + np.roll(x, -1, axis=1)),
                     0.5 * (y + np.roll(y, -1, axis=1))], axis=2).reshape(-1, 2)


def assemble_load_function(mesh: TriMesh, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Load vector for a smooth source, edge-midpoint quadrature."""
    _, _, area = p1_gradients(mesh)
    fm = f(_edge_midpoints(mesh)).reshape(-1, 3)
    # vertex i is supported on the two midpoints of its incident edges
    w = np.empty_like(fm)
    w[:, 0] = fm[:, 0] + fm[:, 2]
    w[:, 1] = fm[:, 1] + fm[:, 0]
    w[:, 2] = fm[:, 2] + fm[:, 1]
    return np.bincount(mesh.triangles.ravel(), (area[:, None] / 6.0 * w).ravel(),
                       minlength=mesh.n_vertices)


class DirichletSolver(DirichletSystem):
    """The DirichletSystem of a mesh's P1 stiffness matrix
    (assemble_stiffness) with homogeneous Dirichlet data on the outer
    boundary.  __init__ and solve stay in this class's own body:
    bench/run.py times the Poisson factors and solves by wrapping them
    there.
    """

    def __init__(self, mesh: TriMesh, stiffness: sp.csr_matrix):
        super().__init__(stiffness, mesh.outer_boundary_nodes)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the given full-length rhs; constrained entries are zero."""
        return super().solve(rhs)


def solve_state(mesh: TriMesh, f1: float, f2: float) -> NodalField:
    """State solve: -lap y = f with f = f1 left of the interface, f2 right."""
    load = assemble_load_piecewise(mesh, f1, f2)
    return NodalField(mesh, DirichletSolver(mesh, assemble_stiffness(mesh)).solve(load))


def evaluate_field(lattice: Lattice, field: NodalField, points: np.ndarray) -> np.ndarray:
    """Evaluate a nodal field on the lattice's mesh at (k, 2) points inside it."""
    _check_same_mesh(lattice.mesh, field)
    tri, bary = locate_points(lattice, points)
    return np.einsum("pk,pk->p", bary,
                     field.values[np.take(lattice.mesh.triangles, tri, axis=0)])


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
    v = field.values[mesh.triangles]
    _, _, area = p1_gradients(mesh)
    vm = 0.5 * (v + np.roll(v, -1, axis=1))
    diff = vm - exact(_edge_midpoints(mesh)).reshape(-1, 3)
    err2 = (area / 3.0) * (diff ** 2).sum(axis=1)
    return float(np.sqrt(err2.sum()))
