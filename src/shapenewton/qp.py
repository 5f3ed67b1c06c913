"""Linear-quadratic subproblem of one interface-Newton step.

A MeshAssembly holds the data and matrices on one mesh; a MeshState built
from it adds the stiffness factorization and the state, and a workspace adds
the adjoint, one solve on that factorization.  The Newton step solves the
reduced design equation A w = -g, with g the shape gradient, matrix-free by
the conjugate-gradient loop mesh.pcg in the lumped arc-length inner product;
one operator application costs two triangular back-solves.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import fem, mesh, shape
from .errors import LinearSolverError
from .mesh import TriMesh
from .shape import InterfaceField, InterfaceGeometry

_CONSISTENCY_TOL = 1e-8


class MeshAssembly:
    """Sampled data and everything assembled on one mesh: geometry, mass,
    load and P1 stiffness.

    Only numpy and scipy.sparse work happens here, so it may run on any
    thread; MeshState factors the stiffness on the calling thread.
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
        self.stiffness = fem.assemble_stiffness(mesh)


class MeshState(MeshAssembly):
    """An assembly with its stiffness factorization, the state it produced,
    and the objective; a workspace built on it solves the adjoint without
    factoring again.  The assembly may come from a worker thread, but the
    factor is made on the thread that will free it: scipy's SuperLU frees a
    factor only on the thread that made it.
    """

    def __init__(self, assembly: MeshAssembly):
        vars(self).update(vars(assembly))
        self.solver = fem.DirichletSolver(self.mesh, self.stiffness)
        self.y = fem.NodalField(mesh=self.mesh, values=self.solver.solve(self.load))
        self.objective = shape.objective(self.mesh, self.y, self.ybar, self.geometry,
                                         self.mu, self.mass)


class QpWorkspace:
    """Adjoint of a MeshState and the CG settings for one outer iteration.

    The adjoint p solves K p = -M (y - ybar) once, on the state's own
    factorization.
    """

    def __init__(self, state: MeshState, cg_tol: float = 1e-8):
        self.state = state
        self.cg_tol = float(cg_tol)

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
    """Solve A w = -g by conjugate gradients (mesh.pcg) in the lumped
    arc-length inner product, with g the shape gradient of the workspace
    adjoint, capped at 2 (m - 2) iterations on m interface nodes.

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

    b = -shape.shape_gradient(state.mesh, geo, ws.p, state.f1, state.f2,
                              state.mu).values
    w, history, negative, converged = mesh.pcg(
        operator, b, apply_precond, lambda u, v: shape.s_inner(geo, u, v), ws.cg_tol,
        2 * (geo.n_nodes - 2))
    w[0] = 0.0
    w[-1] = 0.0
    return CgResult(w=InterfaceField(mesh=state.mesh, values=w),
                    iterations=len(history) - 1, residual_norm=history[-1],
                    negative_curvature=negative, converged=converged,
                    residual_history=history)
