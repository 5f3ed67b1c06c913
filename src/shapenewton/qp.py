"""Linear-quadratic subproblem of one interface-Newton step.

A workspace freezes the current mesh, the state and adjoint fields and one
stiffness factorization.  The Newton step solves the reduced design equation
A w = -g, with g the shape gradient, matrix-free by conjugate gradients in the
lumped arc-length inner product; one operator application costs two
triangular back-solves.
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
    workspace built on the same mesh reuses it instead of factoring again.
    """

    def __init__(self, mesh: TriMesh, ybar: fem.NodalField, f1: float, f2: float,
                 mu: float):
        if ybar.mesh is not mesh:
            raise ValueError("ybar belongs to a different mesh")
        self.mesh = mesh
        self.ybar = ybar
        self.problem = (float(f1), float(f2), float(mu))
        self.geometry: InterfaceGeometry = shape.compute_geometry(mesh)
        self.stiffness = fem.assemble_stiffness(mesh)
        self.mass = fem.assemble_mass(mesh)
        self.load = fem.assemble_load_piecewise(mesh, f1, f2)
        self.solver = fem.DirichletSolver(mesh, matrix=self.stiffness)
        self.y = fem.NodalField(mesh=mesh, values=self.solver.solve(self.load))
        self.objective = shape.objective(mesh, self.y, ybar, self.geometry, mu,
                                         self.mass)


class QpWorkspace:
    """State, adjoint and cached factorization for one outer iteration.

    The adjoint is produced by the same solve path as the subproblem dual
    variable at w = 0, so the design residual at w = 0 is -g to the last
    bit.  A MeshState already computed for the same mesh, data and problem
    can be passed as state; otherwise one is computed here.
    """

    def __init__(self, mesh: TriMesh, ybar: fem.NodalField, f1: float, f2: float,
                 mu: float, cg_tol: float = 1e-8, cg_max_iters: int | None = None,
                 *, state: MeshState | None = None):
        if f1 == f2 and mu <= 0.0:
            raise ValueError("degenerate problem: no source jump and no regularization")
        if state is None:
            state = MeshState(mesh, ybar, f1, f2, mu)
        elif (state.mesh is not mesh or state.ybar is not ybar
              or state.problem != (float(f1), float(f2), float(mu))):
            raise ValueError("state belongs to a different mesh, data or problem")
        self.mesh = mesh
        self.ybar = ybar
        self.f1 = float(f1)
        self.f2 = float(f2)
        self.jump = float(f1) - float(f2)
        self.mu = float(mu)
        self.cg_tol = float(cg_tol)
        self.cg_max_iters = cg_max_iters

        self.geometry = state.geometry
        self.interface = mesh.interface_nodes
        self.stiffness = state.stiffness
        self.mass = state.mass
        self.load = state.load
        self.solver = state.solver
        self.y = state.y

        resid = self.load - self.stiffness @ self.y.values
        scale = 1.0 + np.abs(self.load).max()
        if np.abs(resid[self.solver.free]).max() > _CONSISTENCY_TOL * scale:
            raise LinearSolverError("workspace state violates the discrete state equation")

        self.z0 = qp_state_solve(self, self.zero_design())
        self.p = qp_adjoint_solve(self, self.z0)
        aresid = self.stiffness @ self.p.values + self.mass @ (
            self.z0.values + self.y.values - ybar.values)
        ascale = 1.0 + np.abs(self.mass @ (self.y.values - ybar.values)).max()
        if np.abs(aresid[self.solver.free]).max() > _CONSISTENCY_TOL * ascale:
            raise LinearSolverError("workspace adjoint violates the discrete adjoint equation")

    def zero_design(self) -> InterfaceField:
        return InterfaceField(mesh=self.mesh,
                              values=np.zeros(self.interface.shape[0]))

    def _check_design(self, w: InterfaceField) -> None:
        if w.mesh is not self.mesh:
            raise ValueError("design field belongs to a different mesh")


def qp_state_solve(ws: QpWorkspace, w: InterfaceField) -> fem.NodalField:
    """Linearized state: K z = B w + (F - K y).

    B carries the interface source (f1 - f2) w by trapezoidal line quadrature;
    the second term is the state residual of y and vanishes to solver
    tolerance at a consistent workspace.
    """
    ws._check_design(w)
    rhs = ws.load - ws.stiffness @ ws.y.values
    rhs[ws.interface] += ws.jump * ws.geometry.arc_weights * w.values
    return fem.NodalField(mesh=ws.mesh, values=ws.solver.solve(rhs))


def qp_adjoint_solve(ws: QpWorkspace, z: fem.NodalField) -> fem.NodalField:
    """Subproblem dual variable: K q = -M (z + y - ybar)."""
    if z.mesh is not ws.mesh:
        raise ValueError("field belongs to a different mesh")
    rhs = -(ws.mass @ (z.values + ws.y.values - ws.ybar.values))
    return fem.NodalField(mesh=ws.mesh, values=ws.solver.solve(rhs))


def reduced_hessian_apply(ws: QpWorkspace, w: InterfaceField) -> InterfaceField:
    """Matrix-free application of the reduced Hessian A.

    A w = mu L w - (f1 - f2)(dq(w) + kappa p w) with dq the dual increment of
    the interface source alone: the homogeneous solve path, on which the
    affine offsets of the state and dual equations cancel exactly.  A is
    symmetric positive semi-definite in the arc inner product, plus the
    indefinite diagonal curvature coupling.
    """
    ws._check_design(w)
    rhs = np.zeros(ws.mesh.n_vertices)
    rhs[ws.interface] = ws.jump * ws.geometry.arc_weights * w.values
    z = ws.solver.solve(rhs)
    dq = ws.solver.solve(-(ws.mass @ z))
    p_u = ws.p.values[ws.interface]
    kappa = ws.geometry.curvature
    out = (ws.mu * shape.tangential_laplacian_apply(ws.geometry, w.values)
           - ws.jump * (dq[ws.interface] + kappa * p_u * w.values))
    out[0] = 0.0
    out[-1] = 0.0
    return InterfaceField(mesh=ws.mesh, values=out)


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

    geo = ws.geometry

    def dot(a, b):
        return float(np.sum(geo.arc_weights * a * b))

    def apply_precond(r):
        if preconditioner == "laplacian":
            return solve_tridiagonal_regularization(geo, ws.mu, r)
        return r

    b = -shape.shape_gradient(ws.mesh, geo, ws.p, ws.f1, ws.f2, ws.mu).values
    norm_b = np.sqrt(max(dot(b, b), 0.0))

    w = np.zeros_like(b)
    history: list[float] = [norm_b]
    if norm_b == 0.0:
        return CgResult(w=InterfaceField(mesh=ws.mesh, values=w),
                        iterations=0, residual_norm=0.0, converged=True,
                        residual_history=history)

    max_iters = ws.cg_max_iters if ws.cg_max_iters is not None else 2 * (geo.n_nodes - 2)
    r = b.copy()
    z = apply_precond(r)
    d = z.copy()
    rho = dot(r, z)
    negative = False
    converged = False
    iterations = 0
    norm_r = norm_b
    for k in range(1, max_iters + 1):
        Ad = reduced_hessian_apply(
            ws, InterfaceField(mesh=ws.mesh, values=d)).values
        dAd = dot(d, Ad)
        if dAd <= 0.0:
            negative = True
            break
        alpha = rho / dAd
        w = w + alpha * d
        r = r - alpha * Ad
        iterations = k
        norm_r = np.sqrt(max(dot(r, r), 0.0))
        history.append(norm_r)
        if norm_r <= ws.cg_tol * norm_b:
            converged = True
            break
        z = apply_precond(r)
        rho_new = dot(r, z)
        d = z + (rho_new / rho) * d
        rho = rho_new

    w[0] = 0.0
    w[-1] = 0.0
    return CgResult(w=InterfaceField(mesh=ws.mesh, values=w),
                    iterations=iterations, residual_norm=norm_r,
                    negative_curvature=negative, converged=converged,
                    residual_history=history)
