"""Linearized subproblem, design residual and reduced-system CG tests."""
import numpy as np
import pytest

from shapenewton import fem, mesh, qp, shape
from shapenewton.shape import InterfaceField

F1, F2, MU = 1000.0, 1.0, 10.0


def pinned(values):
    out = np.array(values, dtype=float)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def sine_field(m: mesh.TriMesh, amp=1.0, harmonic=1):
    y = m.interface_points[:, 1]
    return InterfaceField(mesh=m, values=pinned(amp * np.sin(harmonic * np.pi * y)))


def design_residual(ws: qp.QpWorkspace, w: InterfaceField) -> InterfaceField:
    """Residual of the reduced design equation at displacement w, along the
    affine path: state and dual solves with the full right-hand sides.

    r(w) = (f1 - f2)(q(w) + kappa p w) - mu kappa - mu d^2w/dtau^2 nodally
    on the interface, with pinned endpoints; r(0) is the negative shape
    gradient.
    """
    z = qp.qp_state_solve(ws, w)
    q = qp.qp_adjoint_solve(ws, z)
    q_u = q.values[ws.interface]
    p_u = ws.p.values[ws.interface]
    kappa = ws.geometry.curvature
    r = (ws.jump * (q_u + kappa * p_u * w.values)
         - ws.mu * kappa
         - ws.mu * shape.tangential_laplacian_apply(ws.geometry, w.values))
    r[0] = 0.0
    r[-1] = 0.0
    return InterfaceField(mesh=ws.mesh, values=r)


@pytest.fixture(scope="module")
def straight_ws():
    """Workspace at the solution configuration: straight mesh, own data."""
    m = mesh.build_template(16)
    ybar = fem.solve_state(m, F1, F2)
    return qp.QpWorkspace(m, ybar, F1, F2, MU)


@pytest.fixture(scope="module")
def bulged_ws():
    """Workspace away from the solution: bulged interface, straight data."""
    base = mesh.build_template(16)
    geo = shape.compute_geometry(base)
    w = sine_field(base, amp=0.08)
    bulged = shape.retract(base, w, geo, 1.0)
    data_mesh = mesh.refine_uniform(mesh.refine_uniform(mesh.build_template(16)))
    ydata = fem.solve_state(data_mesh, F1, F2)
    ybar = fem.NodalField(mesh=bulged, values=fem.evaluate_field(
        data_mesh, ydata, bulged.vertices))
    return qp.QpWorkspace(bulged, ybar, F1, F2, MU)


# ------------------------------------------------------------ workspace

def test_workspace_rejects_mismatched_data_and_degenerate_setup():
    m = mesh.build_template(4)
    other = mesh.build_template(4)
    ybar = fem.NodalField(mesh=other, values=np.zeros(other.n_vertices))
    with pytest.raises(ValueError):
        qp.QpWorkspace(m, ybar, F1, F2, MU)
    ok = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    with pytest.raises(ValueError):
        qp.QpWorkspace(m, ok, 7.0, 7.0, 0.0)


def test_workspace_state_matches_standalone_solve(straight_ws):
    y_ref = fem.solve_state(straight_ws.mesh, F1, F2)
    np.testing.assert_array_equal(straight_ws.y.values, y_ref.values)


def test_workspace_reuses_a_handed_state(bulged_ws):
    state = qp.MeshState(bulged_ws.mesh, bulged_ws.ybar, F1, F2, MU)
    ws = qp.QpWorkspace(state.mesh, state.ybar, F1, F2, MU, state=state)
    assert ws.solver is state.solver
    np.testing.assert_array_equal(ws.p.values, bulged_ws.p.values)
    with pytest.raises(ValueError):
        qp.QpWorkspace(state.mesh, state.ybar, F1, F2, 2.0 * MU, state=state)


def test_mesh_state_objective_matches_separate_solves(bulged_ws):
    # The line search ranks trials by this value, so it must not depend on
    # whether the state came from a workspace or from standalone solves.
    m = bulged_ws.mesh
    state = qp.MeshState(m, bulged_ws.ybar, F1, F2, MU)
    y = fem.solve_state(m, F1, F2)
    expected = shape.objective(m, y, bulged_ws.ybar, shape.compute_geometry(m), MU)
    assert state.objective == expected


# ------------------------------------------------------- linearized state

def test_state_correction_vanishes_for_consistent_state(straight_ws):
    assert np.abs(straight_ws.z0.values).max() < 1e-8
    assert np.abs(straight_ws.p.values).max() < 1e-8


def test_state_solve_is_affine(bulged_ws):
    ws = bulged_ws
    w = sine_field(ws.mesh, amp=0.3)
    w2 = InterfaceField(mesh=ws.mesh, values=2.0 * w.values)
    z1 = qp.qp_state_solve(ws, w).values - ws.z0.values
    z2 = qp.qp_state_solve(ws, w2).values - ws.z0.values
    np.testing.assert_allclose(z2, 2.0 * z1, rtol=1e-10, atol=1e-12)


def test_state_solve_matches_finite_difference_of_state(bulged_ws):
    # central differencing of the nonlinear interface-to-state map, compared
    # at the centroids of the unperturbed mesh
    ws = bulged_ws
    w = sine_field(ws.mesh, amp=1.0)
    z_lin = qp.qp_state_solve(ws, w).values - ws.z0.values
    z_field = fem.NodalField(mesh=ws.mesh, values=z_lin)

    eps = 1e-4
    plus = shape.retract(ws.mesh, w, ws.geometry, eps)
    minus = shape.retract(ws.mesh, w, ws.geometry, -eps)
    y_plus = fem.solve_state(plus, F1, F2)
    y_minus = fem.solve_state(minus, F1, F2)

    pts = ws.mesh.vertices[ws.mesh.triangles].mean(axis=1)
    fd = (fem.evaluate_field(plus, y_plus, pts)
          - fem.evaluate_field(minus, y_minus, pts)) / (2.0 * eps)
    zc = fem.evaluate_field(ws.mesh, z_field, pts)
    area = np.abs(mesh.signed_areas(ws.mesh))
    err = np.sqrt(np.sum(area * (fd - zc) ** 2))
    ref = np.sqrt(np.sum(area * zc ** 2))
    assert err <= 5e-2 * ref


# ------------------------------------------------------------- dual solve

def test_dual_solve_identities(straight_ws, bulged_ws):
    zero = fem.NodalField(mesh=straight_ws.mesh,
                          values=np.zeros(straight_ws.mesh.n_vertices))
    q = qp.qp_adjoint_solve(straight_ws, zero)
    np.testing.assert_array_equal(q.values, 0.0)  # matching data, zero source

    zero_b = fem.NodalField(mesh=bulged_ws.mesh,
                            values=np.zeros(bulged_ws.mesh.n_vertices))
    q_b = qp.qp_adjoint_solve(bulged_ws, zero_b)
    assert np.abs(bulged_ws.p.values).max() > 1e-5  # genuinely nonzero adjoint
    np.testing.assert_allclose(q_b.values, bulged_ws.p.values, atol=1e-9)


# -------------------------------------------------------- design residual

def test_residual_at_zero_is_negative_gradient_bitwise(bulged_ws):
    ws = bulged_ws
    r0 = design_residual(ws, ws.zero_design())
    g = shape.shape_gradient(ws.mesh, ws.geometry, ws.p, F1, F2, MU)
    np.testing.assert_array_equal(r0.values + g.values, np.zeros(g.values.shape))


def test_residual_vanishes_at_solution_configuration(straight_ws):
    r0 = design_residual(straight_ws, straight_ws.zero_design())
    assert np.abs(r0.values).max() < 1e-8


def test_residual_is_affine(bulged_ws):
    ws = bulged_ws
    rng = np.random.default_rng(11)
    w1 = InterfaceField(mesh=ws.mesh, values=pinned(rng.standard_normal(17)))
    w2 = InterfaceField(mesh=ws.mesh, values=pinned(rng.standard_normal(17)))
    w12 = InterfaceField(mesh=ws.mesh, values=w1.values + w2.values)
    r0 = design_residual(ws, ws.zero_design()).values
    d1 = design_residual(ws, w1).values - r0
    d2 = design_residual(ws, w2).values - r0
    d12 = design_residual(ws, w12).values - r0
    scale = np.abs(d12).max()
    np.testing.assert_allclose(d12, d1 + d2, atol=1e-10 * scale)


# -------------------------------------------------------- reduced Hessian

def test_hessian_apply_at_zero_is_zero(bulged_ws):
    out = qp.reduced_hessian_apply(bulged_ws, bulged_ws.zero_design())
    np.testing.assert_array_equal(out.values, 0.0)


def test_hessian_apply_equals_residual_difference(bulged_ws):
    ws = bulged_ws
    rng = np.random.default_rng(5)
    r0 = design_residual(ws, ws.zero_design()).values
    for _ in range(3):
        w = InterfaceField(mesh=ws.mesh, values=pinned(rng.standard_normal(17)))
        via_residual = r0 - design_residual(ws, w).values
        direct = qp.reduced_hessian_apply(ws, w).values
        scale = np.abs(direct).max()
        np.testing.assert_allclose(via_residual, direct, atol=1e-8 * scale)


def test_hessian_apply_matches_residual_differencing(bulged_ws):
    ws = bulged_ws
    w = sine_field(ws.mesh, amp=0.7, harmonic=2)
    eps = 1e-4
    scaled = InterfaceField(mesh=ws.mesh, values=eps * w.values)
    r0 = design_residual(ws, ws.zero_design()).values
    fd = (design_residual(ws, scaled).values - r0) / eps
    direct = -qp.reduced_hessian_apply(ws, w).values
    np.testing.assert_allclose(fd, direct, atol=1e-6 * np.abs(direct).max())


def test_hessian_reduces_to_regularization_without_jump():
    base = mesh.build_template(16)
    geo0 = shape.compute_geometry(base)
    offsets = shape.bspline_initial_interface(17)[:, 0] - 0.5
    curved = shape.retract(
        base, InterfaceField(mesh=base, values=pinned(offsets)), geo0, 1.0)
    ybar = fem.NodalField(mesh=curved, values=np.zeros(curved.n_vertices))
    ws = qp.QpWorkspace(curved, ybar, 7.0, 7.0, MU)
    w = sine_field(ws.mesh, amp=0.4)
    out = qp.reduced_hessian_apply(ws, w).values
    expected = MU * shape.tangential_laplacian_apply(ws.geometry, w.values)
    expected[0] = expected[-1] = 0.0
    np.testing.assert_allclose(out, expected, rtol=0, atol=0)


def test_hessian_sine_eigenvalue_straight_uniform():
    n = 32
    m = mesh.build_template(n)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    ws = qp.QpWorkspace(m, ybar, 3.0, 3.0, MU)
    w = sine_field(m)
    out = qp.reduced_hessian_apply(ws, w).values
    mid = n // 2  # node at y = 0.5 where sin attains 1
    assert out[mid] == pytest.approx(MU * np.pi ** 2, rel=2e-3)


def test_hessian_symmetry_in_arc_inner_product(straight_ws, bulged_ws):
    rng = np.random.default_rng(17)
    for ws in (straight_ws, bulged_ws):
        geo = ws.geometry
        for _ in range(5):
            w1 = InterfaceField(mesh=ws.mesh, values=pinned(rng.standard_normal(17)))
            w2 = InterfaceField(mesh=ws.mesh, values=pinned(rng.standard_normal(17)))
            a1 = qp.reduced_hessian_apply(ws, w1).values
            a2 = qp.reduced_hessian_apply(ws, w2).values
            lhs = shape.s_inner(geo, a1, w2.values)
            rhs = shape.s_inner(geo, a2, w1.values)
            bound = 1e-8 * (shape.s_norm(geo, a1) * shape.s_norm(geo, w2.values) + 1.0)
            assert abs(lhs - rhs) <= bound


# ------------------------------------------------------------------- CG

def curved_regularization_ws(cg_tol=1e-12):
    """No source jump: the reduced operator is exactly mu L, but the curved
    interface still produces a nonzero curvature residual."""
    base = mesh.build_template(16)
    geo0 = shape.compute_geometry(base)
    offsets = shape.bspline_initial_interface(17)[:, 0] - 0.5
    curved = shape.retract(
        base, InterfaceField(mesh=base, values=pinned(offsets)), geo0, 1.0)
    ybar = fem.NodalField(mesh=curved, values=np.zeros(curved.n_vertices))
    return qp.QpWorkspace(curved, ybar, 7.0, 7.0, MU, cg_tol=cg_tol)


def test_cg_returns_zero_in_zero_iterations_for_zero_residual():
    m = mesh.build_template(8)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    ws = qp.QpWorkspace(m, ybar, 7.0, 7.0, MU)  # straight and no jump: r(0) = 0
    result = qp.solve_qp_cg(ws)
    assert result.iterations == 0
    assert result.residual_norm == 0.0
    assert result.converged
    np.testing.assert_array_equal(result.w.values, 0.0)


def test_cg_matches_tridiagonal_direct_solve():
    ws = curved_regularization_ws()
    r0 = design_residual(ws, ws.zero_design()).values
    direct = qp.solve_tridiagonal_regularization(ws.geometry, MU, r0)
    # Plain CG: preconditioned by this direct solve it would compare it with itself.
    result = qp.solve_qp_cg(ws, preconditioner="none")
    assert not result.negative_curvature
    assert result.residual_norm <= 1e-12 * shape.s_norm(ws.geometry, r0)
    np.testing.assert_allclose(result.w.values, direct,
                               atol=1e-8 * np.abs(direct).max())


def test_cg_laplacian_preconditioner_is_exact_for_pure_regularization():
    ws = curved_regularization_ws(cg_tol=1e-10)
    direct = qp.solve_tridiagonal_regularization(
        ws.geometry, MU, design_residual(ws, ws.zero_design()).values)
    result = qp.solve_qp_cg(ws, preconditioner="laplacian")
    assert result.iterations <= 2
    np.testing.assert_allclose(result.w.values, direct,
                               atol=1e-8 * np.abs(direct).max())


def test_cg_error_decreases_monotonically_in_operator_norm():
    ws = curved_regularization_ws()
    r0 = design_residual(ws, ws.zero_design()).values
    exact = qp.solve_tridiagonal_regularization(ws.geometry, MU, r0)
    result = qp.solve_qp_cg(ws, preconditioner="none")
    energies = []
    for k in range(result.iterations + 1):
        # CG is deterministic: a run capped at k iterations ends on iterate k
        ws.cg_max_iters = k
        err = qp.solve_qp_cg(ws, preconditioner="none").w.values - exact
        Aerr = MU * shape.tangential_laplacian_apply(ws.geometry, err)
        energies.append(shape.s_inner(ws.geometry, Aerr, err))
    energies = np.array(energies)
    assert np.all(np.diff(energies) <= 1e-12 * energies[0])
    assert energies[-1] <= 1e-12 * energies[0]


def test_cg_solves_full_problem_to_tolerance(bulged_ws):
    result = qp.solve_qp_cg(bulged_ws)
    assert not result.negative_curvature
    r0 = design_residual(bulged_ws, bulged_ws.zero_design())
    norm0 = shape.s_norm(bulged_ws.geometry, r0.values)
    assert result.residual_norm <= 1e-8 * norm0
    # verify against a from-scratch residual evaluation
    r_final = r0.values - qp.reduced_hessian_apply(bulged_ws, result.w).values
    assert shape.s_norm(bulged_ws.geometry, r_final) <= 1.1e-8 * norm0
    assert result.iterations >= 1
    assert len(result.residual_history) == result.iterations + 1
    assert result.converged


def test_cg_reports_stopping_above_tolerance(bulged_ws):
    ws = qp.QpWorkspace(bulged_ws.mesh, bulged_ws.ybar, F1, F2, MU, cg_max_iters=1)
    result = qp.solve_qp_cg(ws)
    assert result.iterations == 1
    assert not result.negative_curvature
    assert not result.converged


def test_cg_flags_negative_curvature():
    m = mesh.build_template(8)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    ws = qp.QpWorkspace(m, ybar, 7.0, 6.999, mu=-5.0)  # concave regularization
    result = qp.solve_qp_cg(ws)
    assert result.negative_curvature
    assert not result.converged
    np.testing.assert_array_equal(result.w.values, 0.0)


def test_cg_rejects_unknown_preconditioner(bulged_ws):
    with pytest.raises(ValueError):
        qp.solve_qp_cg(bulged_ws, preconditioner="ilu")
