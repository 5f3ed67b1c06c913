"""Linear-quadratic subproblem of one interface-Newton step.

A MeshState holds the data, the matrices and the state on one mesh, and an
Adjoint its adjoint, each solved without a factorization; a workspace is the
state's stiffness factored once (a fem.DirichletSolver) and an Adjoint
solved on it.  The Newton step solves the reduced design equation A w = -g,
with g the shape gradient, matrix-free by the conjugate-gradient loop
mesh.pcg in the lumped arc-length inner product; one operator application
costs two triangular back-solves on the workspace.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.linalg

from . import fem, mesh, shape
from .mesh import (
    Lattice,
    p1_gradients,
    solve_lattice_poisson,
    stiffness_elements,
)
from .shape import InterfaceField, InterfaceGeometry

CG_TOL = 1e-10  # Newton CG tolerance, relative; README says why 1e-8 is too loose


class MeshState:
    """Sampled data and everything assembled on one mesh (geometry, mass,
    load and P1 stiffness), the state, its misfit M (y - ybar), the objective.

    The mesh is ybar's, and lattice the Lattice of the straight mesh it was
    moved from.  The gradients are computed once, the mass and the stiffness
    scattered through the lattice, and the state solved by
    mesh.solve_lattice_poisson, preconditioned on the lattice, and checked
    (_check_equation), so building a state factors nothing and may run on
    any thread.
    """

    def __init__(self, ybar: fem.NodalField, f1: float, f2: float, mu: float,
                 lattice: Lattice):
        if f1 == f2 and mu <= 0.0:
            raise ValueError("degenerate problem: no source jump and no regularization")
        self.mesh = mesh = ybar.mesh
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
        y = solve_lattice_poisson(lattice, self.stiffness, self.load)
        _check_equation(self, y, self.load, "state")
        self.y = fem.NodalField(mesh=mesh, values=y)
        d = self.y.values - ybar.values
        self.misfit = self.mass @ d
        self.objective = float(0.5 * (d @ self.misfit)) + self.mu * self.geometry.length


def _check_equation(state: MeshState, x: np.ndarray, rhs: np.ndarray, name: str) -> None:
    """Raise LinearSolverError unless K x = rhs holds on the rows off the
    outer boundary to mesh.check_residual's bound, K the state's full
    stiffness: a residual of its own, independent of the solver's."""
    boundary = state.mesh.outer_boundary_nodes
    mesh.check_residual(np.linalg.norm(np.delete(state.stiffness @ x - rhs, boundary)),
                        np.linalg.norm(np.delete(rhs, boundary)), f"{name} equation")


class Adjoint:
    """The adjoint K p = -M (y - ybar) of a MeshState, solved on its lattice
    by mesh.solve_lattice_poisson, so nothing is factored, and its shape
    gradient.  p is checked, as the MeshState checked y (_check_equation)."""

    def __init__(self, state: MeshState):
        self._solve_adjoint(state, partial(solve_lattice_poisson, state.lattice,
                                           state.stiffness))

    def _solve_adjoint(self, state: MeshState, solve) -> None:
        self.state = state
        p = solve(-state.misfit)
        _check_equation(state, p, -state.misfit, "adjoint")
        self.p = fem.NodalField(mesh=state.mesh, values=p)

    @cached_property
    def gradient(self) -> InterfaceField:
        """The shape gradient (shape.shape_gradient) of the adjoint p,
        computed once."""
        state = self.state
        return shape.shape_gradient(self.p, state.f1, state.f2, state.mu)


class QpWorkspace(fem.DirichletSolver, Adjoint):
    """The factored stiffness of a MeshState and its Adjoint solved on that
    factor, for one outer iteration that steps.

    It is the stiffness factored once (a fem.DirichletSolver, so a
    mesh.DirichletSystem) and solves the adjoint, checked as in an Adjoint,
    on itself, as does every reduced-Hessian application.  Leaving its with
    block releases the factor.  solve_qp_cg stops at cg_tol = CG_TOL.
    """

    cg_tol = CG_TOL

    def __init__(self, state: MeshState):
        super().__init__(state.mesh, state.stiffness)
        self._solve_adjoint(state, self.solve)


def reduced_hessian_apply(ws: QpWorkspace, w: InterfaceField) -> InterfaceField:
    """Matrix-free application of the reduced Hessian A.

    A w = mu L w - (f1 - f2)(dq(w) + kappa p w) with dq the dual increment of
    the interface source alone: K z = B w, then K dq = -M z.  A is symmetric
    positive semi-definite in the arc inner product, plus the indefinite
    diagonal curvature coupling.
    """
    state = ws.state
    fem.check_same_mesh(state.mesh, w)
    jump = state.f1 - state.f2
    interface = state.mesh.interface_nodes
    rhs = np.zeros(state.mesh.n_vertices)
    rhs[interface] = jump * state.geometry.arc_weights * w.values
    z = ws.solve(rhs)
    dq = ws.solve(-(state.mass @ z))
    p_u = ws.p.values[interface]
    kappa = state.geometry.curvature
    out = (state.mu * shape.tangential_laplacian_apply(state.geometry, w.values)
           - jump * (dq[interface] + kappa * p_u * w.values))
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
    negative_curvature: bool
    converged: bool
    residual_history: list[float]


def solve_qp_cg(ws: QpWorkspace) -> CgResult:
    """Solve A w = -g by conjugate gradients (mesh.pcg) in the lumped
    arc-length inner product, with g the workspace's gradient, capped at
    2 (m - 2) iterations on m interface nodes.

    The preconditioner is the inverse of the tridiagonal regularization
    block mu L, which dominates the reduced Hessian, so the iteration count
    hardly grows with the mesh.  A non-positive curvature direction stops
    the iteration at the current iterate with a flag.  converged is set only
    when the residual falls to cg_tol times its initial norm.
    """
    state = ws.state
    geo = state.geometry

    def operator(d):
        return reduced_hessian_apply(ws, InterfaceField(mesh=state.mesh, values=d)).values

    w, history, negative, converged = mesh.pcg(
        operator, -ws.gradient.values,
        partial(solve_tridiagonal_regularization, geo, state.mu),
        partial(shape.s_inner, geo), ws.cg_tol, 2 * (geo.n_nodes - 2))
    return CgResult(w=InterfaceField(mesh=state.mesh, values=w),
                    iterations=len(history) - 1, residual_norm=history[-1],
                    negative_curvature=negative, converged=converged,
                    residual_history=history)
