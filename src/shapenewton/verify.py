"""Named verification checks shared by the command line and the test suite.

Each check builds its own small problem, compares against an independent
reference (manufactured solution, finite differences, a direct solve, or an
exact geometric value), and reports a CheckResult.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import driver, fem, mesh, qp, shape
from .mesh import Lattice, build_template, refine_uniform


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _pinned(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def fem_manufactured_convergence() -> CheckResult:
    """L2 error of the Poisson solver against sin(pi x) sin(pi y) must shrink
    at second order across three refinement levels."""

    def error(n):
        m = build_template(n)

        def f(p):
            return 2.0 * np.pi ** 2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

        def exact(p):
            return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

        y = fem.DirichletSolver(m, fem.assemble_stiffness(m)).solve(
            fem.assemble_load_function(m, f))
        return fem.quadrature_l2_difference(m, fem.NodalField(m, y), exact)

    errs = [error(n) for n in (8, 16, 32)]
    order = float(np.log2(errs[0] / errs[2]) / 2.0)
    passed = 1.7 <= order <= 2.3
    return CheckResult("fem_manufactured_convergence", passed,
                       f"L2 order {order:.3f} (target 2.0 +/- 0.3)")


def gradient_fd_check() -> CheckResult:
    """Interface shape gradient against central finite differences of the
    objective along the retraction, on a mildly curved 16-mesh."""
    config = driver.ExperimentConfig(n=16)
    data = driver.generate_data(config)
    base = driver.mesh_at_level(config, 1)
    nodes = base.interface_nodes.shape[0]
    heights = np.arange(nodes) / (nodes - 1)
    bump = shape.InterfaceField(
        mesh=base, values=_pinned(0.02 * np.sin(np.pi * heights)))
    m = shape.retract(shape.extend(base, bump, fem.assemble_stiffness(base)), 1.0)
    lattice = Lattice(base)

    def state_of(moved):
        return qp.MeshState(data.sample(moved), config.f1, config.f2, config.mu, lattice)

    state = state_of(m)
    geometry = state.geometry
    g = qp.QpWorkspace(state).gradient

    rng = np.random.default_rng(0)
    eps = 1e-5
    worst = 0.0
    for _ in range(5):
        c1, c2 = rng.uniform(-1.0, 1.0, 2)
        w = _pinned(c1 * np.sin(np.pi * heights)
                    + c2 * np.sin(2.0 * np.pi * heights))
        extension = shape.extend(m, shape.InterfaceField(mesh=m, values=w),
                                 state.stiffness)
        pairing = shape.s_inner(geometry, g.values, w)
        plus = shape.retract(extension, eps)
        minus = shape.retract(extension, -eps)
        fd = (state_of(plus).objective - state_of(minus).objective) / (2.0 * eps)
        worst = max(worst, abs(fd - pairing) / abs(fd))
    passed = worst <= 1e-2
    return CheckResult("gradient_fd_check", passed,
                       f"worst relative error {worst:.3e} (bound 1e-02)")


def hessian_symmetry() -> CheckResult:
    """Reduced Hessian pairings at the straight solution configuration must
    be symmetric in the arc-length inner product."""
    m = build_template(54)
    ybar = driver.DataOracle.on_lattice(m, 1000.0, 1.0).field
    ws = qp.QpWorkspace(qp.MeshState(ybar, 1000.0, 1.0, 10.0, Lattice(m)))
    rng = np.random.default_rng(1)
    nodes = m.interface_nodes.shape[0]
    worst = 0.0
    for _ in range(5):
        w1 = _pinned(rng.uniform(-1.0, 1.0, nodes))
        w2 = _pinned(rng.uniform(-1.0, 1.0, nodes))
        a1 = qp.reduced_hessian_apply(ws, shape.InterfaceField(mesh=m, values=w1))
        a2 = qp.reduced_hessian_apply(ws, shape.InterfaceField(mesh=m, values=w2))
        left = shape.s_inner(ws.state.geometry, a1.values, w2)
        right = shape.s_inner(ws.state.geometry, a2.values, w1)
        worst = max(worst, abs(left - right) / max(abs(left), abs(right)))
    passed = worst <= 1e-8
    return CheckResult("hessian_symmetry", passed,
                       f"worst relative asymmetry {worst:.3e} (bound 1e-08)")


def curvature_circle_oracle() -> CheckResult:
    """Turning-angle curvature on an equal-angle circular arc equals 1/R to
    machine precision."""
    radius = 2.0
    angles = np.linspace(-0.6, 0.6, 41)
    pts = np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])
    geometry = shape.polyline_geometry(pts)
    worst = float(np.abs(geometry.curvature[1:-1] * radius - 1.0).max())
    passed = worst <= 1e-12
    return CheckResult("curvature_circle_oracle", passed,
                       f"worst |kappa R - 1| = {worst:.3e} (bound 1e-12)")


def pure_regularization_tridiag() -> CheckResult:
    """With equal sources the reduced operator is the regularization alone;
    CG must match a direct tridiagonal solve.  CG is mesh.pcg on the Newton
    system of qp.solve_qp_cg, unpreconditioned and to 1e-12, tighter than
    qp.CG_TOL: the Newton solve's preconditioner is that tridiagonal solve,
    which would make the comparison a check of the solve against itself."""
    base = build_template(16)
    curved = driver.initial_mesh(base)
    ybar = fem.NodalField(mesh=curved, values=np.zeros(curved.n_vertices))
    ws = qp.QpWorkspace(qp.MeshState(ybar, 7.0, 7.0, 10.0, Lattice(base)))
    geo, b = ws.state.geometry, -ws.gradient.values
    direct = qp.solve_tridiagonal_regularization(geo, 10.0, b)
    w, _, negative, _ = mesh.pcg(
        lambda d: qp.reduced_hessian_apply(ws, shape.InterfaceField(curved, d)).values,
        b, lambda r: r, partial(shape.s_inner, geo), 1e-12, 2 * (geo.n_nodes - 2))
    worst = float(np.abs(w - direct).max() / np.abs(direct).max())
    passed = (not negative) and worst <= 1e-8
    return CheckResult("pure_regularization_tridiag", passed,
                       f"max relative deviation {worst:.3e} (bound 1e-08)")


def optimality_fixed_point() -> CheckResult:
    """With data sampled from a once-refined straight-interface solve, the
    straight interface is stationary up to discretization: the gradient and
    the first QP step must fall by 4 (O(h^2)) per refinement, n = 16, 32, 64."""

    def residuals(n):
        m = build_template(n)
        data = driver.DataOracle.on_lattice(refine_uniform(m), 1000.0, 1.0)
        ws = qp.QpWorkspace(qp.MeshState(data.sample(m), 1000.0, 1.0, 10.0, Lattice(m)))
        return (float(np.abs(ws.gradient.values).max()),
                float(np.abs(qp.solve_qp_cg(ws).w.values).max()))

    res = np.array([residuals(n) for n in (16, 32, 64)])
    ratios = (res[:-1] / res[1:]).T.ravel()  # |g| ratios, then |w| ratios
    passed = bool(np.all(np.abs(ratios - 4.0) <= 0.5))
    return CheckResult("optimality_fixed_point", passed,
                       f"|g|_inf, first |w|_inf fall by {np.round(ratios, 2)} "
                       "per refinement (target 4 +/- 0.5)")


ALL_CHECKS = (
    fem_manufactured_convergence,
    gradient_fd_check,
    hessian_symmetry,
    curvature_circle_oracle,
    pure_regularization_tridiag,
    optimality_fixed_point,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
