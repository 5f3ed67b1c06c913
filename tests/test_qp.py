"""Linearized subproblem, design residual and reduced-system CG tests."""
import math

import numpy as np
import pytest

from oracles import solve_state
from shapenewton import driver, fem, mesh, qp, shape
from shapenewton.errors import LinearSolverError
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


def template_of(m: mesh.TriMesh) -> mesh.TriMesh:
    """The template that the level-1 mesh m was moved from."""
    template = mesh.build_template(math.isqrt(m.n_triangles // 2))
    assert np.array_equal(template.triangles, m.triangles)
    return template


def mesh_state(ybar, f1=F1, f2=F2, mu=MU):
    return qp.MeshState(ybar, f1, f2, mu, mesh.Lattice(template_of(ybar.mesh)))


def workspace(ybar, f1=F1, f2=F2, mu=MU):
    return qp.QpWorkspace(mesh_state(ybar, f1, f2, mu))


def zero_design(ws: qp.QpWorkspace) -> InterfaceField:
    return InterfaceField(mesh=ws.state.mesh,
                          values=np.zeros(ws.state.geometry.n_nodes))


def linearized_state(ws: qp.QpWorkspace, w: InterfaceField) -> np.ndarray:
    """Linearized state: K z = B w, with B the interface source (f1 - f2) w
    by trapezoidal line quadrature.  z(0) = 0 exactly."""
    st = ws.state
    rhs = np.zeros(st.mesh.n_vertices)
    rhs[st.mesh.interface_nodes] = (st.f1 - st.f2) * st.geometry.arc_weights * w.values
    return ws.solve(rhs)


def dual_solve(ws: qp.QpWorkspace, z: np.ndarray) -> np.ndarray:
    """Subproblem dual variable: K q = -M (z + y - ybar)."""
    st = ws.state
    return ws.solve(-(st.mass @ (z + st.y.values - st.ybar.values)))


def design_residual(ws: qp.QpWorkspace, w: InterfaceField) -> InterfaceField:
    """Residual of the reduced design equation at displacement w, along the
    affine path: the linearized state and its dual, solved with the full
    right-hand sides.

    r(w) = (f1 - f2)(q(w) + kappa p w) - mu kappa - mu d^2w/dtau^2 nodally
    on the interface, with pinned endpoints; r(0) is the negative shape
    gradient.
    """
    st = ws.state
    q_u = dual_solve(ws, linearized_state(ws, w))[st.mesh.interface_nodes]
    p_u = ws.p.values[st.mesh.interface_nodes]
    kappa = st.geometry.curvature
    r = ((st.f1 - st.f2) * (q_u + kappa * p_u * w.values)
         - st.mu * kappa
         - st.mu * shape.tangential_laplacian_apply(st.geometry, w.values))
    r[0] = 0.0
    r[-1] = 0.0
    return InterfaceField(mesh=st.mesh, values=r)


@pytest.fixture(scope="module")
def straight_ws():
    """Workspace at the solution configuration: straight mesh, own data,
    solved as the state is, so the two agree to the bit."""
    m = mesh.build_template(16)
    ybar = fem.NodalField(m, mesh.solve_lattice_poisson(
        mesh.Lattice(m), fem.assemble_stiffness(m), fem.assemble_load_piecewise(m, F1, F2)))
    return workspace(ybar)


@pytest.fixture(scope="module")
def bulged_ws():
    """Workspace away from the solution: bulged interface, straight data."""
    base = mesh.build_template(16)
    w = sine_field(base, amp=0.08)
    bulged = shape.retract(shape.extend(base, w, fem.assemble_stiffness(base)), 1.0)
    data_mesh = mesh.refine_uniform(mesh.refine_uniform(mesh.build_template(16)))
    ydata = solve_state(data_mesh, F1, F2)
    ybar = fem.NodalField(mesh=bulged, values=fem.evaluate_field(
        mesh.Lattice(data_mesh), ydata, bulged.vertices))
    return workspace(ybar)


# ------------------------------------------------------------ workspace

def test_workspace_rejects_a_degenerate_setup():
    m = mesh.build_template(4)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    with pytest.raises(ValueError):
        mesh_state(ybar, 7.0, 7.0, 0.0)


def test_workspace_state_matches_standalone_solve(straight_ws, bulged_ws):
    # The state is solved on the lattice, without a factor; the standalone
    # solve is SuperLU's.
    for ws in (straight_ws, bulged_ws):
        y_ref = solve_state(ws.state.mesh, F1, F2).values
        assert np.linalg.norm(ws.state.y.values - y_ref) <= 1e-12 * np.linalg.norm(y_ref)


def test_workspace_reuses_a_handed_state(bulged_ws):
    state = mesh_state(bulged_ws.state.ybar)
    ws = qp.QpWorkspace(state)
    assert ws.state is state
    np.testing.assert_array_equal(ws.p.values, bulged_ws.p.values)


def test_only_the_workspace_factors_and_it_factors_once(bulged_ws, monkeypatch):
    factored, solved_on = [], []
    init, solve = fem.DirichletSolver.__init__, fem.DirichletSolver.solve

    def counted_init(self, *args, **kwargs):
        factored.append(self)
        init(self, *args, **kwargs)

    def counted_solve(self, rhs):
        solved_on.append(self)
        return solve(self, rhs)

    monkeypatch.setattr(fem.DirichletSolver, "__init__", counted_init)
    monkeypatch.setattr(fem.DirichletSolver, "solve", counted_solve)
    state = mesh_state(bulged_ws.state.ybar)
    assert factored == [] and solved_on == []
    ws = qp.QpWorkspace(state)
    assert factored == [ws] and solved_on == [ws]
    qp.reduced_hessian_apply(ws, sine_field(state.mesh))
    assert factored == [ws] and solved_on == [ws] * 3


def test_mesh_state_objective_matches_separate_solves(bulged_ws):
    # The line search ranks trials by this value; the lattice solve of the
    # state moves it from a SuperLU state's only at round-off.
    m, ybar = bulged_ws.state.mesh, bulged_ws.state.ybar
    state = mesh_state(ybar)
    d = solve_state(m, F1, F2).values - ybar.values
    expected = (0.5 * (d @ (fem.assemble_mass(m) @ d))
                + MU * shape.compute_geometry(m).length)
    assert state.objective == pytest.approx(expected, rel=1e-13, abs=0)


# ------------------------------------------------------- linearized state

def test_state_correction_vanishes_for_consistent_state(straight_ws):
    # The workspace adjoint omits the state correction K^-1 (F - K y): it is
    # round-off at a state the same factorization produced.
    st = straight_ws.state
    correction = straight_ws.solve(st.load - st.stiffness @ st.y.values)
    assert np.abs(correction).max() < 1e-12 * np.abs(st.y.values).max()
    assert np.abs(straight_ws.p.values).max() < 1e-8


def test_state_solve_is_affine(bulged_ws):
    ws = bulged_ws
    w = sine_field(ws.state.mesh, amp=0.3)
    w2 = InterfaceField(mesh=ws.state.mesh, values=2.0 * w.values)
    z1 = linearized_state(ws, w)
    z2 = linearized_state(ws, w2)
    np.testing.assert_allclose(z2, 2.0 * z1, rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(linearized_state(ws, zero_design(ws)), 0.0)


def evaluate_in_moved_mesh(field: fem.NodalField, pts: np.ndarray) -> np.ndarray:
    """P1 field at points by brute force, in the lowest-index triangle that
    holds each point: mesh.Lattice locates only in uniform grids, not moved meshes."""
    m = field.mesh
    p = m.vertices[m.triangles]                                   # (T, 3, 2)
    lhs = np.concatenate([p.transpose(0, 2, 1), np.ones((m.n_triangles, 1, 3))], axis=1)
    rhs = np.concatenate([pts.T, np.ones((1, pts.shape[0]))])
    bary = np.linalg.solve(lhs[:, None], rhs.T[None, :, :, None])[..., 0]  # (T, P, 3)
    inside = bary.min(axis=-1) >= -1e-12
    assert inside.any(axis=0).all()
    tri = np.argmax(inside, axis=0)
    rows = bary[tri, np.arange(pts.shape[0])]
    return np.einsum("pk,pk->p", rows, field.values[m.triangles[tri]])


def test_state_solve_matches_finite_difference_of_state(bulged_ws):
    # central differencing of the nonlinear interface-to-state map, compared
    # at the centroids of the unperturbed mesh
    ws = bulged_ws
    m = ws.state.mesh
    w = sine_field(m, amp=1.0)
    z_field = fem.NodalField(mesh=m, values=linearized_state(ws, w))

    eps = 1e-4
    extension = shape.extend(m, w, ws.state.stiffness)
    plus = shape.retract(extension, eps)
    minus = shape.retract(extension, -eps)
    y_plus = solve_state(plus, F1, F2)
    y_minus = solve_state(minus, F1, F2)

    pts = m.vertices[m.triangles].mean(axis=1)
    fd = (evaluate_in_moved_mesh(y_plus, pts)
          - evaluate_in_moved_mesh(y_minus, pts)) / (2.0 * eps)
    zc = evaluate_in_moved_mesh(z_field, pts)
    area = np.abs(mesh.signed_areas(m))
    err = np.sqrt(np.sum(area * (fd - zc) ** 2))
    ref = np.sqrt(np.sum(area * zc ** 2))
    assert err <= 5e-2 * ref


# ------------------------------------------------------------- dual solve

def test_dual_solve_identities(straight_ws, bulged_ws):
    q = dual_solve(straight_ws, np.zeros(straight_ws.state.mesh.n_vertices))
    np.testing.assert_array_equal(q, 0.0)  # matching data, zero source

    q_b = dual_solve(bulged_ws, np.zeros(bulged_ws.state.mesh.n_vertices))
    assert np.abs(bulged_ws.p.values).max() > 1e-5  # genuinely nonzero adjoint
    np.testing.assert_array_equal(q_b, bulged_ws.p.values)


# -------------------------------------------------------- design residual

def test_residual_at_zero_is_negative_gradient_bitwise(bulged_ws):
    ws = bulged_ws
    r0 = design_residual(ws, zero_design(ws))
    g = shape.shape_gradient(ws.p, F1, F2, MU)
    np.testing.assert_array_equal(r0.values + g.values, np.zeros(g.values.shape))


def test_residual_vanishes_at_solution_configuration(straight_ws):
    r0 = design_residual(straight_ws, zero_design(straight_ws))
    assert np.abs(r0.values).max() < 1e-8


def test_residual_is_affine(bulged_ws):
    ws = bulged_ws
    rng = np.random.default_rng(11)
    w1 = InterfaceField(mesh=ws.state.mesh, values=pinned(rng.standard_normal(17)))
    w2 = InterfaceField(mesh=ws.state.mesh, values=pinned(rng.standard_normal(17)))
    w12 = InterfaceField(mesh=ws.state.mesh, values=w1.values + w2.values)
    r0 = design_residual(ws, zero_design(ws)).values
    d1 = design_residual(ws, w1).values - r0
    d2 = design_residual(ws, w2).values - r0
    d12 = design_residual(ws, w12).values - r0
    scale = np.abs(d12).max()
    np.testing.assert_allclose(d12, d1 + d2, atol=1e-10 * scale)


# -------------------------------------------------------- reduced Hessian

def test_hessian_apply_at_zero_is_zero(bulged_ws):
    out = qp.reduced_hessian_apply(bulged_ws, zero_design(bulged_ws))
    np.testing.assert_array_equal(out.values, 0.0)


def test_hessian_apply_equals_residual_difference(bulged_ws):
    ws = bulged_ws
    rng = np.random.default_rng(5)
    r0 = design_residual(ws, zero_design(ws)).values
    for _ in range(3):
        w = InterfaceField(mesh=ws.state.mesh, values=pinned(rng.standard_normal(17)))
        via_residual = r0 - design_residual(ws, w).values
        direct = qp.reduced_hessian_apply(ws, w).values
        scale = np.abs(direct).max()
        np.testing.assert_allclose(via_residual, direct, atol=1e-8 * scale)


def test_hessian_apply_matches_residual_differencing(bulged_ws):
    ws = bulged_ws
    w = sine_field(ws.state.mesh, amp=0.7, harmonic=2)
    eps = 1e-4
    scaled = InterfaceField(mesh=ws.state.mesh, values=eps * w.values)
    r0 = design_residual(ws, zero_design(ws)).values
    fd = (design_residual(ws, scaled).values - r0) / eps
    direct = -qp.reduced_hessian_apply(ws, w).values
    np.testing.assert_allclose(fd, direct, atol=1e-6 * np.abs(direct).max())


def test_hessian_reduces_to_regularization_without_jump():
    base = mesh.build_template(16)
    offsets = shape.bspline_initial_interface(17)[:, 0] - 0.5
    field = InterfaceField(mesh=base, values=pinned(offsets))
    curved = shape.retract(shape.extend(base, field, fem.assemble_stiffness(base)), 1.0)
    ybar = fem.NodalField(mesh=curved, values=np.zeros(curved.n_vertices))
    ws = workspace(ybar, 7.0, 7.0)
    w = sine_field(ws.state.mesh, amp=0.4)
    out = qp.reduced_hessian_apply(ws, w).values
    expected = MU * shape.tangential_laplacian_apply(ws.state.geometry, w.values)
    expected[0] = expected[-1] = 0.0
    np.testing.assert_allclose(out, expected, rtol=0, atol=0)


def test_hessian_sine_eigenvalue_straight_uniform():
    n = 32
    m = mesh.build_template(n)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    ws = workspace(ybar, 3.0, 3.0)
    w = sine_field(m)
    out = qp.reduced_hessian_apply(ws, w).values
    mid = n // 2  # node at y = 0.5 where sin attains 1
    assert out[mid] == pytest.approx(MU * np.pi ** 2, rel=2e-3)


def test_hessian_symmetry_in_arc_inner_product(straight_ws, bulged_ws):
    rng = np.random.default_rng(17)
    for ws in (straight_ws, bulged_ws):
        geo, m = ws.state.geometry, ws.state.mesh
        for _ in range(5):
            w1 = InterfaceField(mesh=m, values=pinned(rng.standard_normal(17)))
            w2 = InterfaceField(mesh=m, values=pinned(rng.standard_normal(17)))
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
    offsets = shape.bspline_initial_interface(17)[:, 0] - 0.5
    field = InterfaceField(mesh=base, values=pinned(offsets))
    curved = shape.retract(shape.extend(base, field, fem.assemble_stiffness(base)), 1.0)
    ybar = fem.NodalField(mesh=curved, values=np.zeros(curved.n_vertices))
    ws = workspace(ybar, 7.0, 7.0)
    ws.cg_tol = cg_tol
    return ws


def test_cg_returns_zero_in_zero_iterations_for_zero_residual():
    m = mesh.build_template(8)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    ws = workspace(ybar, 7.0, 7.0)  # straight and no jump: r(0) = 0
    result = qp.solve_qp_cg(ws)
    assert result.iterations == 0
    assert result.residual_norm == 0.0
    assert result.converged
    np.testing.assert_array_equal(result.w.values, 0.0)


def newton_system(monkeypatch, ws):
    """The arguments solve_qp_cg hands to mesh.pcg."""
    captured = []
    pcg = mesh.pcg

    def capture(*args):
        captured.extend(args)
        return pcg(*args)

    monkeypatch.setattr(mesh, "pcg", capture)
    qp.solve_qp_cg(ws)
    monkeypatch.setattr(mesh, "pcg", pcg)
    return captured


def plain_cg(monkeypatch, ws):
    """mesh.pcg on the Newton system of ws with the identity preconditioner,
    as a function of the iteration cap (default: solve_qp_cg's).  With the
    direct tridiagonal solve as preconditioner, a pure-regularization system
    is solved in one step, and compared with that solve itself."""
    operator, b, _, inner, tol, cap = newton_system(monkeypatch, ws)
    return lambda k=cap: mesh.pcg(operator, b, lambda r: r, inner, tol, k)


def test_cg_matches_tridiagonal_direct_solve(monkeypatch):
    ws = curved_regularization_ws()
    r0 = design_residual(ws, zero_design(ws)).values
    direct = qp.solve_tridiagonal_regularization(ws.state.geometry, MU, r0)
    w, history, negative, converged = plain_cg(monkeypatch, ws)()
    assert not negative and converged and len(history) > 2
    assert history[-1] <= 1e-12 * shape.s_norm(ws.state.geometry, r0)
    np.testing.assert_allclose(w, direct, atol=1e-8 * np.abs(direct).max())


def test_cg_laplacian_preconditioner_is_exact_for_pure_regularization():
    ws = curved_regularization_ws(cg_tol=1e-10)
    direct = qp.solve_tridiagonal_regularization(
        ws.state.geometry, MU, design_residual(ws, zero_design(ws)).values)
    result = qp.solve_qp_cg(ws)
    assert result.iterations <= 2
    np.testing.assert_allclose(result.w.values, direct,
                               atol=1e-8 * np.abs(direct).max())


def test_cg_error_decreases_monotonically_in_operator_norm(monkeypatch):
    ws = curved_regularization_ws()
    r0 = design_residual(ws, zero_design(ws)).values
    exact = qp.solve_tridiagonal_regularization(ws.state.geometry, MU, r0)
    run = plain_cg(monkeypatch, ws)
    energies = []
    for k in range(len(run()[1])):
        # CG is deterministic: a run capped at k iterations ends on iterate k
        err = run(k)[0] - exact
        Aerr = MU * shape.tangential_laplacian_apply(ws.state.geometry, err)
        energies.append(shape.s_inner(ws.state.geometry, Aerr, err))
    energies = np.array(energies)
    assert np.all(np.diff(energies) <= 1e-12 * energies[0])
    assert energies[-1] <= 1e-12 * energies[0]


def test_cg_solves_full_problem_to_tolerance(bulged_ws):
    result = qp.solve_qp_cg(bulged_ws)
    assert not result.negative_curvature
    r0 = design_residual(bulged_ws, zero_design(bulged_ws))
    norm0 = shape.s_norm(bulged_ws.state.geometry, r0.values)
    assert result.residual_norm <= 1e-8 * norm0
    # verify against a from-scratch residual evaluation
    r_final = r0.values - qp.reduced_hessian_apply(bulged_ws, result.w).values
    assert shape.s_norm(bulged_ws.state.geometry, r_final) <= 1.1e-8 * norm0
    assert result.iterations >= 1
    assert len(result.residual_history) == result.iterations + 1
    assert result.converged


def test_cg_reports_stopping_above_tolerance(bulged_ws):
    # No residual reaches 1e-300 of the first: CG runs to its cap of 2 (m - 2).
    ws = qp.QpWorkspace(bulged_ws.state)
    ws.cg_tol = 1e-300
    result = qp.solve_qp_cg(ws)
    assert result.iterations == 2 * (17 - 2)
    assert len(result.residual_history) == result.iterations + 1
    assert not result.negative_curvature
    assert not result.converged


def test_cg_fails_loudly_on_a_non_finite_hessian(monkeypatch, bulged_ws):
    apply = qp.reduced_hessian_apply

    def planted(ws, w):
        values = apply(ws, w).values.copy()
        values[1:-1] = np.nan
        return InterfaceField(mesh=w.mesh, values=values)

    monkeypatch.setattr(qp, "reduced_hessian_apply", planted)
    with pytest.raises(LinearSolverError, match="non-finite values at iteration 1"):
        qp.solve_qp_cg(bulged_ws)


def test_reduced_hessian_refuses_a_field_of_another_mesh(bulged_ws):
    twin = template_of(bulged_ws.state.mesh)
    with pytest.raises(ValueError, match="different mesh"):
        qp.reduced_hessian_apply(bulged_ws, InterfaceField(
            mesh=twin, values=np.zeros(twin.interface_nodes.shape[0])))


def test_a_state_whose_lattice_solve_is_perturbed_is_refused(monkeypatch):
    # MeshState checks K y = load as soon as it has solved it, so no state
    # with a wrong y reaches an Adjoint, a workspace or a line search.
    m = mesh.build_template(8)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    mesh_state(ybar)  # the unperturbed state passes its check
    solve = qp.solve_lattice_poisson

    def perturbed(lattice, *args):
        x = solve(lattice, *args)
        x[lattice.free[lattice.free.size // 2]] += 1e-6
        return x

    monkeypatch.setattr(qp, "solve_lattice_poisson", perturbed)
    with pytest.raises(LinearSolverError, match="state equation: relative residual"):
        mesh_state(ybar)


def test_cg_flags_negative_curvature():
    m = mesh.build_template(8)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    ws = workspace(ybar, 7.0, 6.999, mu=-5.0)  # concave regularization
    result = qp.solve_qp_cg(ws)
    assert result.negative_curvature
    assert not result.converged
    np.testing.assert_array_equal(result.w.values, 0.0)


def assert_positive_zero_ends(values):
    ends = np.asarray(values)[[0, -1]]
    np.testing.assert_array_equal(ends, 0.0)
    assert not np.signbit(ends).any()


def test_pinned_ends_are_exact_positive_zeros_without_being_set():
    # The Dirichlet solves leave the interface ends, outer-boundary nodes,
    # at +0.0, and the geometry and the preconditioner leave zero end rows,
    # so no step of the Newton system has to set them again.
    config = driver.ExperimentConfig(n=8)
    data = driver.generate_data(config)
    straight = driver.mesh_at_level(config, 1)
    start = driver.initial_mesh(straight)
    state = qp.MeshState(data.sample(start), config.f1, config.f2, config.mu,
                         mesh.Lattice(straight))
    interface = start.interface_nodes
    assert_positive_zero_ends(qp.Adjoint(state).p.values[interface])
    with qp.QpWorkspace(state) as ws:
        assert_positive_zero_ends(ws.p.values[interface])
        assert_positive_zero_ends(ws.gradient.values)
        rng = np.random.default_rng(7)
        w = InterfaceField(mesh=start, values=pinned(rng.standard_normal(interface.shape[0])))
        assert_positive_zero_ends(qp.reduced_hessian_apply(ws, w).values)
        result = qp.solve_qp_cg(ws)
    assert result.converged and result.iterations > 0
    assert_positive_zero_ends(result.w.values)
