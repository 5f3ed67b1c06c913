"""Linear-quadratic subproblem of one interface-Newton step.

A MeshState holds the data, state and stiffness factorization on one mesh;
a workspace adds the adjoint, one solve on that factorization.  The Newton
step solves the reduced design equation A w = -g, with g the shape gradient,
matrix-free by conjugate gradients in the lumped arc-length inner product;
one operator application costs two triangular back-solves.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import fem, shape
from .errors import LinearSolverError
from .mesh import TriMesh
from .shape import InterfaceField, InterfaceGeometry

_CONSISTENCY_TOL = 1e-8


class MeshState:
    """Sampled data, state and objective on one mesh.

    Holds the stiffness factorization that produced the state, so a
    workspace built on it solves the adjoint without factoring again.
    """

    def __init__(self, mesh: TriMesh, ybar: fem.NodalField, f1: float, f2: float,
                 mu: float):
        if ybar.mesh is not mesh:
            raise ValueError("ybar belongs to a different mesh")
        if f1 == f2 and mu <= 0.0:
            raise ValueError("degenerate problem: no source jump and no regularization")
        self.mesh = mesh
        self.ybar = ybar
        self.f1 = float(f1)
        self.f2 = float(f2)
        self.mu = float(mu)
        self.geometry: InterfaceGeometry = shape.compute_geometry(mesh)
        self.mass = fem.assemble_mass(mesh)
        self.load = fem.assemble_load_piecewise(mesh, f1, f2)
        self.solver = fem.DirichletSolver(mesh)
        self.stiffness = self.solver.system.matrix
        self.y = fem.NodalField(mesh=mesh, values=self.solver.solve(self.load))
        self.objective = shape.objective(mesh, self.y, ybar, self.geometry, mu,
                                         self.mass)


class QpWorkspace:
    """Adjoint of a MeshState and the CG settings for one outer iteration.

    The adjoint p solves K p = -M (y - ybar) once, on the state's own
    factorization.
    """

    def __init__(self, state: MeshState, cg_tol: float = 1e-8,
                 cg_max_iters: int | None = None):
        self.state = state
        self.cg_tol = float(cg_tol)
        self.cg_max_iters = cg_max_iters

        resid = state.load - state.stiffness @ state.y.values
        scale = 1.0 + np.abs(state.load).max()
        if np.abs(resid[state.solver.system.free]).max() > _CONSISTENCY_TOL * scale:
            raise LinearSolverError("workspace state violates the discrete state equation")

        misfit = state.mass @ (state.y.values - state.ybar.values)
        self.p = fem.NodalField(mesh=state.mesh, values=state.solver.solve(-misfit))
        aresid = state.stiffness @ self.p.values + misfit
        ascale = 1.0 + np.abs(misfit).max()
        if np.abs(aresid[state.solver.system.free]).max() > _CONSISTENCY_TOL * ascale:
            raise LinearSolverError("workspace adjoint violates the discrete adjoint equation")


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
    z = state.solver.solve(rhs)
    dq = state.solver.solve(-(state.mass @ z))
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
    """Solve A w = -g by conjugate gradients in the lumped arc-length inner
    product, with g the shape gradient of the workspace adjoint.

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

    b = -shape.shape_gradient(state.mesh, geo, ws.p, state.f1, state.f2,
                              state.mu).values
    norm_b = shape.s_norm(geo, b)

    w = np.zeros_like(b)
    history: list[float] = [norm_b]
    if norm_b == 0.0:
        return CgResult(w=InterfaceField(mesh=state.mesh, values=w),
                        iterations=0, residual_norm=0.0, converged=True,
                        residual_history=history)

    max_iters = ws.cg_max_iters if ws.cg_max_iters is not None else 2 * (geo.n_nodes - 2)
    r = b.copy()
    z = apply_precond(r)
    d = z.copy()
    rho = shape.s_inner(geo, r, z)
    negative = False
    converged = False
    iterations = 0
    norm_r = norm_b
    for k in range(1, max_iters + 1):
        Ad = reduced_hessian_apply(
            ws, InterfaceField(mesh=state.mesh, values=d)).values
        dAd = shape.s_inner(geo, d, Ad)
        if dAd <= 0.0:
            negative = True
            break
        alpha = rho / dAd
        w = w + alpha * d
        r = r - alpha * Ad
        iterations = k
        norm_r = shape.s_norm(geo, r)
        history.append(norm_r)
        if norm_r <= ws.cg_tol * norm_b:
            converged = True
            break
        z = apply_precond(r)
        rho_new = shape.s_inner(geo, r, z)
        d = z + (rho_new / rho) * d
        rho = rho_new

    w[0] = 0.0
    w[-1] = 0.0
    return CgResult(w=InterfaceField(mesh=state.mesh, values=w),
                    iterations=iterations, residual_norm=norm_r,
                    negative_curvature=negative, converged=converged,
                    residual_history=history)
