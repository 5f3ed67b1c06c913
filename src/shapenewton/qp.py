"""Linear-quadratic subproblem of one interface-Newton step.

A MeshState holds the data, the matrices and the state on one mesh, solved
without a factorization; a workspace factors that state's stiffness once and
solves the adjoint on the factor.  The Newton step solves the reduced design
equation A w = -g, with g the shape gradient, matrix-free by the
conjugate-gradient loop mesh.pcg in the lumped arc-length inner product; one
operator application costs two triangular back-solves on the workspace's
factor.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from . import fem, mesh, shape
from .errors import LinearSolverError
from .mesh import (
    Lattice,
    TriMesh,
    p1_gradients,
    solve_lattice_poisson,
    stiffness_elements,
)
from .shape import InterfaceField, InterfaceGeometry

_CONSISTENCY_TOL = 1e-8


class MeshState:
    """Sampled data and everything assembled on one mesh (geometry, mass,
    load and P1 stiffness), the state, and the objective.

    lattice is the Lattice of the straight mesh the mesh was moved from.
    The gradients are computed once, the mass and the stiffness scattered
    through the lattice, and the state solved by mesh.solve_lattice_poisson,
    preconditioned on the lattice, so building a state factors nothing and
    may run on any thread.
    """

    def __init__(self, mesh: TriMesh, ybar: fem.NodalField, f1: float, f2: float,
                 mu: float, lattice: Lattice):
        if ybar.mesh is not mesh:
            raise ValueError("ybar belongs to a different mesh")
        if f1 == f2 and mu <= 0.0:
            raise ValueError("degenerate problem: no source jump and no regularization")
        self.mesh = mesh
        self.ybar = ybar
        self.f1 = float(f1)
        self.f2 = float(f2)
        self.mu = float(mu)
        self.lattice = lattice
        self.geometry: InterfaceGeometry = shape.compute_geometry(mesh)
        b, c, area = p1_gradients(mesh)
        self.mass = lattice.scatter(mesh, fem.mass_elements(area))
        self.load = fem.load_piecewise(mesh, area, f1, f2)
        self.stiffness = lattice.scatter(mesh, stiffness_elements(b, c, area))
        self.y = fem.NodalField(mesh=mesh, values=solve_lattice_poisson(
            lattice, self.stiffness, self.load))
        self.objective = shape.objective(mesh, self.y, self.ybar, self.geometry,
                                         self.mu, self.mass)


def _free_max(mesh: TriMesh, values: np.ndarray) -> float:
    """Largest magnitude of values off the outer boundary."""
    return float(np.abs(np.delete(values, mesh.outer_boundary_nodes)).max())


class QpWorkspace:
    """The factored stiffness of a MeshState, its adjoint, the adjoint's
    shape gradient, and the CG settings for one outer iteration.

    The workspace checks the state against the state equation, factors the
    stiffness once (fem.DirichletSolver, a mesh.DirichletSystem), and solves
    the adjoint K p = -M (y - ybar) on that factor, as does every
    reduced-Hessian application.  Leaving its with block leaves the
    solver's, which releases the factor.
    """

    def __init__(self, state: MeshState, cg_tol: float = 1e-8):
        self.state = state
        self.cg_tol = float(cg_tol)

        resid = state.load - state.stiffness @ state.y.values
        scale = 1.0 + np.abs(state.load).max()
        if _free_max(state.mesh, resid) > _CONSISTENCY_TOL * scale:
            raise LinearSolverError("workspace state violates the discrete state equation")

        self.solver = fem.DirichletSolver(state.mesh, state.stiffness)
        misfit = state.mass @ (state.y.values - state.ybar.values)
        self.p = fem.NodalField(mesh=state.mesh, values=self.solver.solve(-misfit))
        aresid = state.stiffness @ self.p.values + misfit
        ascale = 1.0 + np.abs(misfit).max()
        if _free_max(state.mesh, aresid) > _CONSISTENCY_TOL * ascale:
            raise LinearSolverError("workspace adjoint violates the discrete adjoint equation")

    @cached_property
    def gradient(self) -> InterfaceField:
        """The shape gradient (shape.shape_gradient) of the adjoint p,
        computed once per workspace."""
        state = self.state
        return shape.shape_gradient(state.mesh, state.geometry, self.p, state.f1,
                                    state.f2, state.mu)

    def __enter__(self) -> QpWorkspace:
        return self

    def __exit__(self, *exc_info) -> None:
        self.solver.__exit__(*exc_info)


def reduced_hessian_apply(ws: QpWorkspace, w: InterfaceField) -> InterfaceField:
    """Matrix-free application of the reduced Hessian A.

    A w = mu L w - (f1 - f2)(dq(w) + kappa p w) with dq the dual increment of
    the interface source alone: K z = B w, then K dq = -M z.  A is symmetric
    positive semi-definite in the arc inner product, plus the indefinite
    diagonal curvature coupling.
    """
    state = ws.state
    if w.mesh is not state.mesh:
        raise ValueError("design field belongs to a different mesh")
    jump = state.f1 - state.f2
    interface = state.mesh.interface_nodes
    rhs = np.zeros(state.mesh.n_vertices)
    rhs[interface] = jump * state.geometry.arc_weights * w.values
    z = ws.solver.solve(rhs)
    dq = ws.solver.solve(-(state.mass @ z))
    p_u = ws.p.values[interface]
    kappa = state.geometry.curvature
    out = (state.mu * shape.tangential_laplacian_apply(state.geometry, w.values)
           - jump * (dq[interface] + kappa * p_u * w.values))
    out[0] = 0.0
    out[-1] = 0.0
    return InterfaceField(mesh=state.mesh, values=out)


def _laplacian_banded(geometry: InterfaceGeometry, mu: float):
    """Interior tridiagonal of mu times the tangential Laplacian, banded form."""
    lengths = geometry.edge_lengths
    s = geometry.arc_weights
    m = geometry.n_nodes
    inner = m - 2
    ab = np.zeros((3, inner))
    ab[1] = mu * (1.0 / lengths[:-1] + 1.0 / lengths[1:]) / s[1:-1]
    upper = -mu / lengths[1:-1] / s[1:-2]
    lower = -mu / lengths[1:-1] / s[2:-1]
    ab[0, 1:] = upper
    ab[2, :-1] = lower
    return ab


def solve_tridiagonal_regularization(geometry: InterfaceGeometry, mu: float,
                                     rhs: np.ndarray) -> np.ndarray:
    """Direct solve of mu L w = rhs on the interior nodes (pinned ends)."""
    ab = _laplacian_banded(geometry, mu)
    out = np.zeros(geometry.n_nodes)
    out[1:-1] = scipy.linalg.solve_banded((1, 1), ab, np.asarray(rhs)[1:-1])
    return out


@dataclass
class CgResult:
    """Outcome of the reduced-system conjugate-gradient solve."""

    w: InterfaceField
    iterations: int
    residual_norm: float
    negative_curvature: bool = False
    converged: bool = False
    residual_history: list[float] = field(default_factory=list)


def solve_qp_cg(ws: QpWorkspace, preconditioner: str = "laplacian") -> CgResult:
    """Solve A w = -g by conjugate gradients (mesh.pcg) in the lumped
    arc-length inner product, with g the workspace's gradient, capped at
    2 (m - 2) iterations on m interface nodes.

    preconditioner="laplacian" (the default) applies the inverse of the
    tridiagonal regularization block mu L, which dominates the reduced
    Hessian, so the iteration count hardly grows with the mesh;
    preconditioner="none" runs plain CG.  A non-positive curvature direction
    stops the iteration at the current iterate with a flag.  converged is set
    only when the residual falls to cg_tol times its initial norm.
    """
    if preconditioner not in ("none", "laplacian"):
        raise ValueError(f"unknown preconditioner {preconditioner!r}")

    state = ws.state
    geo = state.geometry

    def apply_precond(r):
        if preconditioner == "laplacian":
            return solve_tridiagonal_regularization(geo, state.mu, r)
        return r

    def operator(d):
        return reduced_hessian_apply(ws, InterfaceField(mesh=state.mesh, values=d)).values

    w, history, negative, converged = mesh.pcg(
        operator, -ws.gradient.values, apply_precond,
        lambda u, v: shape.s_inner(geo, u, v), ws.cg_tol, 2 * (geo.n_nodes - 2))
    w[0] = 0.0
    w[-1] = 0.0
    return CgResult(w=InterfaceField(mesh=state.mesh, values=w),
                    iterations=len(history) - 1, residual_norm=history[-1],
                    negative_curvature=negative, converged=converged,
                    residual_history=history)
