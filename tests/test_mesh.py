from __future__ import annotations

import sys
import threading
import weakref
from concurrent.futures import CancelledError, Future

import numpy as np
import pytest
import scipy.sparse as sp

from shapenewton import driver, fem, mesh as mm, qp
from shapenewton.errors import (
    InvertedElementError,
    LinearSolverError,
    MeshInvariantError,
    PointLocationError,
)


def test_template_smallest():
    m = mm.build_template(2)
    assert m.n_vertices == 9
    assert m.n_triangles == 8
    pts = m.interface_points
    assert pts.shape == (3, 2)
    np.testing.assert_array_equal(pts, [[0.5, 0.0], [0.5, 0.5], [0.5, 1.0]])


def test_template_counts_default_resolution():
    m = mm.build_template(54)
    assert m.n_triangles == 2 * 54 * 54 == 5832
    assert m.n_vertices == 55 * 55
    assert m.interface_nodes.shape[0] == 55


@pytest.mark.parametrize("bad_n", [0, 1, 3, 55, -2])
def test_template_rejects_odd_or_small(bad_n):
    with pytest.raises(ValueError):
        mm.build_template(bad_n)


def test_template_areas():
    m = mm.build_template(6)
    areas = mm.signed_areas(m)
    assert areas.min() > 0.0
    np.testing.assert_allclose(areas, 1.0 / 72.0, rtol=1e-12)
    assert abs(areas.sum() - 1.0) < 1e-12


def test_template_subdomains_split_at_half():
    m = mm.build_template(4)
    cx = m.vertices[m.triangles, 0].mean(axis=1)
    assert np.all(m.subdomain[cx < 0.5] == 1)
    assert np.all(m.subdomain[cx > 0.5] == 2)


def test_refine_counts_and_area():
    m = mm.build_template(4)
    r = mm.refine_uniform(m)
    assert r.n_triangles == 4 * m.n_triangles
    assert abs(mm.signed_areas(r).sum() - 1.0) < 1e-12
    assert r.interface_nodes.shape[0] == 2 * m.interface_nodes.shape[0] - 1
    np.testing.assert_array_equal(r.subdomain, np.repeat(m.subdomain, 4))


def test_refine_chain_matches_experiment_levels():
    m = mm.build_template(54)
    r1 = mm.refine_uniform(m)
    r2 = mm.refine_uniform(r1)
    assert (m.n_triangles, r1.n_triangles, r2.n_triangles) == (5832, 23328, 93312)


def test_refine_straight_interface_stays_exact():
    r = mm.refine_uniform(mm.build_template(4))
    pts = r.interface_points
    assert np.all(pts[:, 0] == 0.5)
    np.testing.assert_array_equal(pts[:, 1], np.arange(9) / 8.0)


def test_unique_edges_match_an_np_unique_oracle():
    m = mm.refine_uniform(mm.build_template(6))
    t = m.triangles
    keys = mm._edge_key(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), m.n_vertices)
    order = np.argsort(keys, kind="stable")
    uniq, start, counts = np.unique(keys[order], return_index=True, return_counts=True)
    tris = np.tile(np.arange(m.n_triangles), 3)[order]
    other = tris[np.minimum(start + 1, keys.size - 1)]
    first = np.where(counts == 2, np.minimum(tris[start], other), tris[start])
    second = np.where(counts == 2, np.maximum(tris[start], other), -1)
    inverse = np.unique(keys, return_inverse=True)[1]
    got = mm._unique_edges(m)
    assert len(got) == 5
    for a, b in zip(got, (uniq, counts, first, second, inverse)):
        np.testing.assert_array_equal(a, b)
    assert set(np.unique(counts)) == {1, 2}


def test_mesh_arrays_immutable():
    m = mm.build_template(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 2.0


def test_validate_rejects_bad_subdomain_labels():
    m = mm.build_template(2)
    sub = m.subdomain.copy()
    sub[0] = 3
    broken = mm.TriMesh(m.vertices.copy(), m.triangles.copy(), sub,
                        m.outer_boundary_nodes.copy(), m.interface_nodes.copy())
    with pytest.raises(MeshInvariantError):
        mm.validate(broken)


def test_validate_rejects_swapped_sides():
    m = mm.build_template(2)
    sub = np.where(m.subdomain == 1, 2, 1).astype(np.int64)
    broken = mm.TriMesh(m.vertices.copy(), m.triangles.copy(), sub,
                        m.outer_boundary_nodes.copy(), m.interface_nodes.copy())
    with pytest.raises(MeshInvariantError):
        mm.validate(broken)


def test_validate_rejects_unpinned_endpoint():
    m = mm.build_template(2)
    verts = m.vertices.copy()
    verts[m.interface_nodes[0]] = [0.4, 0.0]
    broken = mm.TriMesh(verts, m.triangles.copy(), m.subdomain.copy(),
                        m.outer_boundary_nodes.copy(), m.interface_nodes.copy())
    with pytest.raises(MeshInvariantError):
        mm.validate(broken)


def test_validate_rejects_collapsed_triangle():
    m = mm.build_template(2)
    verts = m.vertices.copy()
    verts[0] = verts[1]
    broken = mm.TriMesh(verts, m.triangles.copy(), m.subdomain.copy(),
                        m.outer_boundary_nodes.copy(), m.interface_nodes.copy())
    with pytest.raises(MeshInvariantError):
        mm.validate(broken)


def interface_label_oracle(m: mm.TriMesh) -> str | None:
    """The first interface label fault, the side of each triangle read from
    the coordinates: its third vertex left of the directed edge (a, b)."""
    for k, (a, b) in enumerate(m.interface_edges):
        for tri in np.flatnonzero(np.isin(m.triangles, (a, b)).sum(axis=1) == 2):
            tv = m.triangles[tri]
            c = tv[~np.isin(tv, (a, b))][0]
            e = m.vertices[b] - m.vertices[a]
            d = m.vertices[c] - m.vertices[a]
            left = e[0] * d[1] - e[1] * d[0] > 0.0
            if m.subdomain[tri] != (1 if left else 2):
                return (f"triangle {int(tri)} on the {'left' if left else 'right'} of "
                        f"interface edge {k} has label {int(m.subdomain[tri])}")
    return None


def test_validate_reads_interface_sides_from_the_connectivity():
    # validate() takes the side of an interface-edge triangle from its cyclic
    # vertex order; on positively oriented triangles that is the side its
    # coordinates give.
    m = driver.initial_mesh(driver.mesh_at_level(driver.ExperimentConfig(n=8), 1))
    assert interface_label_oracle(m) is None
    edge_tris = np.flatnonzero(np.isin(m.triangles, m.interface_nodes).sum(axis=1) == 2)
    for tri in edge_tris:
        sub = m.subdomain.copy()
        sub[tri] = 3 - sub[tri]
        broken = mm.TriMesh(m.vertices, m.triangles, sub, m.outer_boundary_nodes,
                            m.interface_nodes)
        with pytest.raises(MeshInvariantError) as raised:
            mm.validate(broken)
        assert str(raised.value) == interface_label_oracle(broken)


def test_elastic_extension_zero_data():
    m = mm.build_template(4)
    g = np.zeros((m.interface_nodes.shape[0], 2))
    d = mm.solve_elastic_deformation(m, g, fem.assemble_stiffness(m))
    assert np.all(d.displacement == 0.0)


def test_elastic_extension_linearity_and_bcs():
    m = mm.build_template(6)
    rng = np.random.default_rng(3)
    g = np.zeros((m.interface_nodes.shape[0], 2))
    g[1:-1] = 0.02 * rng.standard_normal((m.interface_nodes.shape[0] - 2, 2))
    d1 = mm.solve_elastic_deformation(m, g, fem.assemble_stiffness(m))
    d2 = mm.solve_elastic_deformation(m, 2.0 * g, fem.assemble_stiffness(m))
    np.testing.assert_allclose(d2.displacement, 2.0 * d1.displacement, atol=1e-12)
    np.testing.assert_allclose(d1.displacement[m.interface_nodes], g, atol=1e-14)
    assert np.all(d1.displacement[m.outer_boundary_nodes] == 0.0)


def test_elastic_extension_rejects_moving_pinned_ends():
    m = mm.build_template(4)
    g = np.zeros((m.interface_nodes.shape[0], 2))
    g[0] = [0.1, 0.0]
    with pytest.raises(ValueError):
        mm.solve_elastic_deformation(m, g, fem.assemble_stiffness(m))


def interface_bump(m: mm.TriMesh) -> np.ndarray:
    g = np.zeros((m.interface_nodes.shape[0], 2))
    g[1:-1, 0] = 0.02 * np.sin(np.pi * m.interface_points[1:-1, 1])
    return g


def elasticity_oracle(m: mm.TriMesh) -> sp.csr_matrix:
    """Elasticity matrix for lambda = 0, mu = 1 as area * B^T D B, with B the
    strain rows (eps_xx, eps_yy, gamma_xy) over the interleaved element dofs
    (ux0, uy0, ux1, uy1, ux2, uy2)."""
    bmat, cmat, area = mm.p1_gradients(m)
    nt = m.n_triangles
    B = np.zeros((nt, 3, 6))
    inv2a = 1.0 / (2.0 * area)
    for i in range(3):
        B[:, 0, 2 * i] = bmat[:, i] * inv2a
        B[:, 1, 2 * i + 1] = cmat[:, i] * inv2a
        B[:, 2, 2 * i] = cmat[:, i] * inv2a
        B[:, 2, 2 * i + 1] = bmat[:, i] * inv2a
    D = np.diag([2.0, 2.0, 1.0])  # lambda + 2 mu, lambda + 2 mu, mu
    Ke = np.einsum("tki,kl,tlj,t->tij", B, D, B, area, optimize=True)
    dofs = np.empty((nt, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * m.triangles
    dofs[:, 1::2] = 2 * m.triangles + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    nv2 = 2 * m.n_vertices
    return sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(nv2, nv2)).tocsr()


def extension_systems(monkeypatch, m, g):
    """The operator and right-hand side that each half of the extension
    hands to its conjugate gradients, keyed by whether that half ran on the
    calling thread."""
    captured = {}
    pcg = mm.pcg

    def capture(operator, rhs, *args):
        on_caller = threading.current_thread() is threading.main_thread()
        captured[on_caller] = (operator, rhs)
        return pcg(operator, rhs, *args)

    monkeypatch.setattr(mm, "pcg", capture)
    mm.solve_elastic_deformation(m, g, fem.assemble_stiffness(m))
    return captured


def test_elasticity_matches_strain_oracle_and_splits_into_laplacians(monkeypatch):
    m = driver.initial_mesh(driver.mesh_at_level(driver.ExperimentConfig(n=16), 1))
    g = interface_bump(m)
    systems = extension_systems(monkeypatch, m, g)
    oracle = elasticity_oracle(m)
    # Each half's free rows, its dofs in node-major order, equal the strain
    # oracle's, on its free columns (the operator) and on the Dirichlet lift
    # (the right-hand side); the left half runs on the calling thread.  The
    # oracle's rows of one half vanish on the other half's free columns, so
    # the halves are independent.
    fixed_nodes = np.concatenate([m.outer_boundary_nodes, m.interface_nodes])
    lift = np.zeros((m.n_vertices, 2))
    lift[m.interface_nodes] = g
    halves = {label: np.setdiff1d(m.triangles[m.subdomain == label], fixed_nodes)
              for label in (1, 2)}
    assert sorted(systems) == [False, True]
    for label, on_caller in ((1, True), (2, False)):
        operator, rhs = systems[on_caller]
        free = (2 * halves[label][:, None] + np.arange(2)).ravel()
        other = (2 * halves[3 - label][:, None] + np.arange(2)).ravel()
        rows = oracle[free]
        columns = np.column_stack([operator(e) for e in np.eye(free.size)])
        assert np.abs(columns - rows[:, free].toarray()).max() <= 1e-14 * abs(oracle).max()
        assert rows[:, other].count_nonzero() == 0
        expected = -(rows @ lift.ravel())
        assert np.abs(rhs - expected).max() <= 1e-14 * np.abs(expected).max()

    # For u vanishing on the outer boundary, a(u, u) = |grad u|^2 + |div u|^2:
    # the scalar Laplacian on each component plus the divergence term.
    rng = np.random.default_rng(11)
    u = rng.standard_normal((m.n_vertices, 2))
    u[m.outer_boundary_nodes] = 0.0
    L = fem.assemble_stiffness(m)
    b, c, area = mm.p1_gradients(m)
    uk = u[m.triangles]
    div = ((b * uk[..., 0]).sum(axis=1) + (c * uk[..., 1]).sum(axis=1)) / (2.0 * area)
    energy = u.ravel() @ (oracle @ u.ravel())
    split = u[:, 0] @ (L @ u[:, 0]) + u[:, 1] @ (L @ u[:, 1]) + area @ div ** 2
    assert abs(energy - split) <= 1e-14 * energy


def coupled_direct_solve(m: mm.TriMesh, g: np.ndarray) -> np.ndarray:
    """The extension's coupled system, on the strain-oracle matrix, solved
    by one SuperLU factorization of its free block: the interface data is
    lifted and the free dofs solve for the rest."""
    nodes = np.concatenate([m.outer_boundary_nodes, m.interface_nodes])
    matrix = elasticity_oracle(m)
    system = mm.DirichletSystem(matrix, np.concatenate([2 * nodes, 2 * nodes + 1]))
    lift = np.zeros((m.n_vertices, 2))
    lift[m.interface_nodes] = g
    return lift + system.solve(-(matrix @ lift.ravel())).reshape(-1, 2)


def plant_factor(monkeypatch, corrupt):
    """Make every SuperLU factor return corrupt(x) for its solution x."""
    splu = mm.spla.splu

    class PlantedFactor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return corrupt(self.lu.solve(rhs))

    monkeypatch.setattr(mm.spla, "splu", lambda *a, **k: PlantedFactor(splu(*a, **k)))


def test_elastic_extension_matches_the_coupled_direct_solve(monkeypatch):
    m = driver.initial_mesh(driver.mesh_at_level(driver.ExperimentConfig(n=16), 1))
    rng = np.random.default_rng(5)
    g = interface_bump(m)
    g[1:-1, 1] = 0.01 * rng.standard_normal(g.shape[0] - 2)
    expected = coupled_direct_solve(m, g)
    got = mm.solve_elastic_deformation(m, g, fem.assemble_stiffness(m)).displacement
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
    # The Laplacian factor only preconditions the conjugate gradients, so a
    # factor off by 1e-6 still yields the same displacement.
    plant_factor(monkeypatch, lambda x: x * (1.0 + 1e-6))
    got = mm.solve_elastic_deformation(m, g, fem.assemble_stiffness(m)).displacement
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("level", [1, 2])
def test_elastic_extension_iterations_do_not_grow_with_the_mesh(monkeypatch, level):
    m = driver.initial_mesh(driver.mesh_at_level(driver.ExperimentConfig(), level))
    applications = {}
    solve_free = mm.DirichletSystem.solve_free

    def counted(self, bf):
        applications.setdefault(id(self), []).append(bf.shape)
        return solve_free(self, bf)

    monkeypatch.setattr(mm.DirichletSystem, "solve_free", counted)
    mm.solve_elastic_deformation(m, interface_bump(m), fem.assemble_stiffness(m))
    # Two halves, each one preconditioner application per iteration, on both
    # components at once.
    assert len(applications) == 2
    for shapes in applications.values():
        assert 0 < len(shapes) <= 20
        assert {shape[1] for shape in shapes} == {2}


@pytest.mark.parametrize("corrupt, pcg_cap, reason", [
    pytest.param(lambda x: np.full_like(x, np.nan), None, "non-finite", id="nan"),
    pytest.param(lambda x: x * (1.0 + 1e-6), 3,
                 "stopped after 3 iterations at relative residual", id="relative-error-1e-6"),
])
def test_dirichlet_solves_fail_loudly_on_a_bad_factor(monkeypatch, corrupt, pcg_cap, reason):
    plant_factor(monkeypatch, corrupt)
    m = mm.build_template(8)
    with pytest.raises(LinearSolverError):
        fem.DirichletSolver(m, fem.assemble_stiffness(m)).solve(np.ones(m.n_vertices))
    # A factor off by 1e-6 leaves the extension right, because it only
    # preconditions CG (test_elastic_extension_matches_the_coupled_direct_solve),
    # so that case makes the extension wrong by capping CG below convergence.
    if pcg_cap is not None:
        monkeypatch.setattr(mm, "_PCG_MAX_ITERS", pcg_cap)
    with pytest.raises(LinearSolverError, match=reason):
        mm.solve_elastic_deformation(m, interface_bump(m), fem.assemble_stiffness(m))


def test_pcg_stops_on_convergence_cap_or_negative_curvature():
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    spd = q @ np.diag([1.0, 2.0, 3.0, 5.0, 8.0, 13.0]) @ q.T
    b = rng.standard_normal(6)
    jacobi = 1.0 / np.diag(spd)

    x, norms, negative, converged = mm.pcg(lambda v: spd @ v, b, lambda r: jacobi * r,
                                           np.dot, 1e-12, 20)
    assert converged and not negative
    assert norms[0] == np.linalg.norm(b) and norms[-1] <= 1e-12 * norms[0]
    np.testing.assert_allclose(x, np.linalg.solve(spd, b), rtol=1e-10)

    x, norms, negative, converged = mm.pcg(lambda v: spd @ v, b, lambda r: jacobi * r,
                                           np.dot, 1e-12, 2)
    assert len(norms) == 3 and not converged and not negative
    assert np.linalg.norm(spd @ x - b) == pytest.approx(norms[-1], rel=1e-10)

    # The first direction is b itself, along which this matrix is negative.
    x, norms, negative, converged = mm.pcg(lambda v: -v, b, lambda r: r, np.dot, 1e-12, 20)
    assert negative and not converged
    assert norms == [np.linalg.norm(b)]
    np.testing.assert_array_equal(x, 0.0)

    assert mm.pcg(lambda v: spd @ v, np.zeros(6), lambda r: r, np.dot, 1e-12, 20)[1:] \
        == ([0.0], False, True)
    with pytest.raises(LinearSolverError, match="non-finite"):
        mm.pcg(lambda v: np.full_like(v, np.nan), b, lambda r: r, np.dot, 1e-12, 20)


def test_poisson_and_elastic_solves_share_one_dirichlet_path(monkeypatch):
    systems, factors = [], []
    init, splu = mm.DirichletSystem.__init__, mm.spla.splu

    def counted_init(self, *args):
        systems.append(self)
        init(self, *args)

    def counted_splu(*args, **kwargs):
        factors.append(args[0])
        return splu(*args, **kwargs)

    monkeypatch.setattr(mm.DirichletSystem, "__init__", counted_init)
    monkeypatch.setattr(mm.spla, "splu", counted_splu)
    m = mm.build_template(8)
    fem.DirichletSolver(m, fem.assemble_stiffness(m))
    assert (len(systems), len(factors)) == (1, 1)
    # One system per subdomain half of the extension.
    mm.solve_elastic_deformation(m, interface_bump(m), fem.assemble_stiffness(m))
    assert (len(systems), len(factors)) == (3, 3)


def test_newton_and_extension_share_one_cg_loop(monkeypatch):
    config = driver.ExperimentConfig(n=8, levels=1, max_sqp_iters=1)
    start = driver.initial_mesh(driver.mesh_at_level(config, 1))
    callers, checked, depth, outside = [], [], threading.local(), []
    pcg = mm.pcg

    def inside():
        return getattr(depth, "value", 0) > 0

    def counted(*args):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_checked_pcg":
            frame = frame.f_back
            checked.append(frame.f_code.co_name)
        callers.append(frame.f_code.co_name)
        depth.value = getattr(depth, "value", 0) + 1
        try:
            return pcg(*args)
        finally:
            depth.value -= 1

    hessian_apply = qp.reduced_hessian_apply
    solve_free = mm.DirichletSystem.solve_free

    def hessian(ws, w):
        if not inside():
            outside.append("reduced Hessian")
        return hessian_apply(ws, w)

    def preconditioner(self, bf):
        if bf.ndim == 2 and not inside():
            outside.append("elastic preconditioner")
        return solve_free(self, bf)

    monkeypatch.setattr(mm, "pcg", counted)
    monkeypatch.setattr(qp, "reduced_hessian_apply", hessian)
    monkeypatch.setattr(mm.DirichletSystem, "solve_free", preconditioner)
    trace = driver.sqp_solve(config, driver.generate_data(config), 1, start=start)
    # The lattice solves of the data oracle and of five states (the start and
    # the step's three trials), then one Newton iteration: one CG solve of
    # the reduced system and one of each half of the step's extension, and
    # every reduced-Hessian application and every elastic preconditioner
    # solve happens inside mesh.pcg on its own thread.  The lattice solves
    # and the extension run it through the same residual checks.
    assert trace.rows[0].cg_iterations > 0
    lattice_solves = ["solve_lattice_poisson"] * 5
    halves = ["_extend_half"] * 2
    assert sorted(callers) == [*halves, *lattice_solves, "solve_qp_cg"]
    assert sorted(checked) == [*halves, *lattice_solves]
    assert outside == []


@pytest.mark.parametrize("fault", ["left", "right", "cancelled"])
def test_a_failing_half_or_a_cancelled_step_ends_the_extension_cleanly(monkeypatch, fault):
    # A bad factor on either half, or a step that never comes, makes the
    # extension raise; by the time the error reaches the caller, each half's
    # factor has been released on the thread that made it.  A SuperLU
    # factor takes no weak references, so each is tracked through a proxy
    # that is its only holder.
    m = driver.initial_mesh(driver.mesh_at_level(driver.ExperimentConfig(n=16), 1))
    stiffness = fem.assemble_stiffness(m)
    made, released = [], []
    splu = mm.spla.splu

    class Factor:
        def __init__(self, lu, planted):
            self.lu, self.planted = lu, planted

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            return np.full_like(x, np.nan) if self.planted else x

    def recorded_splu(*args, **kwargs):
        maker = threading.current_thread()
        planted = fault != "cancelled" and (maker is threading.main_thread()) == (
            fault == "left")
        factor = Factor(splu(*args, **kwargs), planted)
        made.append(maker)
        weakref.finalize(factor, lambda: released.append((maker, threading.current_thread())))
        return factor

    monkeypatch.setattr(mm.spla, "splu", recorded_splu)
    displacement, expected = interface_bump(m), LinearSolverError
    if fault == "cancelled":
        step = Future()
        step.cancel()
        displacement, expected = step.result, CancelledError
    with pytest.raises(expected):
        try:
            mm.solve_elastic_deformation(m, displacement, stiffness)
        finally:
            released_by_then = list(released)
    assert len(made) == 2
    assert sum(maker is threading.main_thread() for maker in made) == 1
    assert sorted(map(id, made)) == sorted(id(maker) for maker, _ in released_by_then)
    assert all(maker is freer for maker, freer in released_by_then)


def test_the_poisson_solver_is_a_dirichlet_system_on_the_outer_boundary():
    m = mm.build_template(4)
    solver = fem.DirichletSolver(m, fem.assemble_stiffness(m))
    assert isinstance(solver, mm.DirichletSystem)
    free = np.setdiff1d(np.arange(m.n_vertices), m.outer_boundary_nodes)
    np.testing.assert_array_equal(solver.free, free)


def test_a_system_used_after_its_with_block_refuses_to_solve():
    m = mm.build_template(4)
    stiffness, load = fem.assemble_stiffness(m), np.ones(m.n_vertices)
    with mm.DirichletSystem(stiffness, m.outer_boundary_nodes) as system:
        inside = system.solve(load)
    with fem.DirichletSolver(m, stiffness) as solver:
        np.testing.assert_array_equal(solver.solve(load), inside)
    for released in (system, solver):
        with pytest.raises(ValueError, match="released when its with block ended"):
            released.solve(load)


def mislabelled_template():
    """The 4 x 4 template with triangle 0, left of the interface, labelled
    2: its vertex 6, at lattice point (1, 1), now lies in both subdomains."""
    m = mm.build_template(4)
    labels = m.subdomain.copy()
    labels[0] = 2
    return mm.TriMesh(m.vertices, m.triangles, labels, m.outer_boundary_nodes,
                      m.interface_nodes)


def unlabelled_template():
    """The 4 x 4 template with every triangle at vertex 6, at lattice point
    (1, 1), labelled 0, so that the vertex lies in no subdomain."""
    m = mm.build_template(4)
    labels = m.subdomain.copy()
    labels[np.flatnonzero((m.triangles == 6).any(axis=1))] = 0
    return mm.TriMesh(m.vertices, m.triangles, labels, m.outer_boundary_nodes,
                      m.interface_nodes)


def template_with_a_loose_vertex():
    """The 4 x 4 template with vertex 25 added, in no triangle."""
    m = mm.build_template(4)
    return mm.TriMesh(np.vstack([m.vertices, [[0.3, 0.3]]]), m.triangles, m.subdomain,
                      m.outer_boundary_nodes, m.interface_nodes)


@pytest.mark.parametrize("build, reason", [
    pytest.param(mislabelled_template, "free vertex 6 lies in both subdomains",
                 id="mislabelled"),
    pytest.param(template_with_a_loose_vertex, "free vertex 25 lies in no subdomain",
                 id="loose-vertex"),
    pytest.param(unlabelled_template, "free vertex 6 lies in no subdomain",
                 id="unlabelled"),
])
def test_a_bad_split_fails_before_anything_factors(monkeypatch, build, reason):
    # Neither mesh is validated; the extension's split refuses both.
    m = build()
    factors = []
    monkeypatch.setattr(mm.spla, "splu", lambda *args, **kwargs: factors.append(1))
    g = np.zeros((m.interface_nodes.shape[0], 2))
    with pytest.raises(MeshInvariantError, match=reason):
        mm.solve_elastic_deformation(m, g, fem.assemble_stiffness(m))
    assert factors == []


def test_pattern_matches_the_coo_scatter_on_a_moved_mesh():
    moved, straight, _, _ = moved_level2_state()
    lattice = mm.Lattice(straight)
    b, c, area = mm.p1_gradients(moved)
    for elements in (mm.stiffness_elements(b, c, area), fem.mass_elements(area)):
        want = mm.scatter(moved.triangles, elements, moved.n_vertices)
        got = lattice.scatter(moved, elements)
        assert got.shape == want.shape
        assert abs(got - want).max() <= 1e-14 * abs(want).max()
    # A mesh of other connectivity: another level, or the same triangles in
    # another order.
    others = [driver.mesh_at_level(driver.ExperimentConfig(), 1),
              mm.TriMesh(moved.vertices, moved.triangles[::-1].copy(),
                         moved.subdomain[::-1].copy(), moved.outer_boundary_nodes,
                         moved.interface_nodes)]
    for other in others:
        with pytest.raises(ValueError, match="connectivity"):
            lattice.scatter(other, mm.stiffness_elements(*mm.p1_gradients(other)))


def test_a_fresh_lattice_scatters_alike_on_many_threads():
    # A lattice's pattern is read on its first scatter.  Trial workers share
    # the lattice, so first scatters that race must each still return the
    # COO scatter's matrix.
    m = mm.build_template(16)
    elements = mm.stiffness_elements(*mm.p1_gradients(m))
    want = mm.scatter(m.triangles, elements, m.n_vertices)
    lattice, results, start = mm.Lattice(m), [], threading.Barrier(8)

    def first_scatter():
        start.wait(timeout=10)
        results.append(lattice.scatter(m, elements))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_scatter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    for got in results:
        assert abs(got - want).max() <= 1e-14 * abs(want).max()


def test_apply_deformation_round_trip():
    m = mm.build_template(6)
    g = np.zeros((m.interface_nodes.shape[0], 2))
    g[1:-1, 0] = 0.05 * np.sin(np.pi * np.arange(1, 6) / 6.0)
    d = mm.solve_elastic_deformation(m, g, fem.assemble_stiffness(m))
    moved = mm.apply_deformation(m, d)
    assert moved is not m
    back = mm.apply_deformation(
        moved, mm.DeformationField(mesh=moved, displacement=-d.displacement))
    np.testing.assert_allclose(back.vertices, m.vertices, atol=1e-14)


def test_apply_deformation_detects_inversion():
    m = mm.build_template(4)
    disp = np.zeros_like(m.vertices)
    inner = m.interface_nodes[2]
    disp[inner] = [5.0, 0.0]
    with pytest.raises(InvertedElementError):
        mm.apply_deformation(m, mm.DeformationField(mesh=m, displacement=disp))


def move(m: mm.TriMesh, displacement: np.ndarray) -> mm.TriMesh:
    return mm.apply_deformation(m, mm.DeformationField(mesh=m, displacement=displacement))


def unpin_an_endpoint(m):
    disp = np.zeros_like(m.vertices)
    disp[m.interface_nodes[0]] = [0.01, 0.0]
    return disp


def shear_past_the_strip(m):
    # A shear x -> x + f(y) keeps every triangle positively oriented.
    y = m.vertices[:, 1]
    return np.column_stack([2.4 * y * (1.0 - y), np.zeros_like(y)])


def loop_the_interface(m):
    # Squash the square into a thin tube around a looped curve through the
    # pinned endpoints: every triangle stays positively oriented, but the
    # interface, the tube's centre line, crosses itself.
    x, y = m.vertices.T
    s = np.pi * (2.0 * y - 1.0)
    curve = np.column_stack([0.5 - 0.16 * (1.0 + np.cos(s)),
                             0.5 + (s - 2.0 * np.sin(s)) / (2.0 * np.pi)])
    tangent = np.column_stack([0.16 * np.sin(s), (1.0 - 2.0 * np.cos(s)) / (2.0 * np.pi)])
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    target = curve + 0.02 * (x - 0.5)[:, None] * normal
    target[m.interface_nodes[[0, -1]]] = [[0.5, 0.0], [0.5, 1.0]]
    return target - m.vertices


@pytest.mark.parametrize("displacement, reason", [
    (unpin_an_endpoint, "not pinned"),
    (shear_past_the_strip, "open strip"),
    (loop_the_interface, "interface segments 1 and 6 intersect"),
])
def test_apply_deformation_rejects_a_planted_fault(displacement, reason):
    m = mm.build_template(8)
    with pytest.raises(MeshInvariantError, match=reason) as raised:
        move(m, displacement(m))
    assert not isinstance(raised.value, InvertedElementError)


def test_apply_deformation_inverts_before_an_interface_label_can_change():
    # Moved meshes skip the interface label check.  It is implied: pushing
    # the third vertex of an interface-edge triangle across the edge, which
    # would put that triangle on the other side, inverts it.
    m = mm.build_template(8)
    a, b = m.interface_edges[3]
    tri = int(np.flatnonzero(np.isin(m.triangles, (a, b)).sum(axis=1) == 2)[0])
    c = next(v for v in m.triangles[tri] if v not in (a, b))
    disp = np.zeros_like(m.vertices)
    disp[c, 0] = 2.0 * (0.5 - m.vertices[c, 0])
    with pytest.raises(InvertedElementError):
        move(m, disp)
    moved = mm.TriMesh(m.vertices + disp, m.triangles, m.subdomain,
                       m.outer_boundary_nodes, m.interface_nodes)
    assert mm.signed_areas(moved)[tri] < 0.0


def test_apply_deformation_rejects_foreign_field():
    m1 = mm.build_template(4)
    m2 = mm.build_template(4)
    d = mm.DeformationField(mesh=m2, displacement=np.zeros_like(m2.vertices))
    with pytest.raises(ValueError):
        mm.apply_deformation(m1, d)


def test_locate_reconstructs_random_points():
    m = mm.refine_uniform(mm.build_template(8))
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.0, size=(10_000, 2))
    tri, bary = mm.locate_points(mm.Lattice(m), pts)
    assert np.all(tri >= 0)
    rebuilt = np.einsum("pk,pkd->pd", bary, m.vertices[m.triangles[tri]])
    assert np.abs(rebuilt - pts).max() < 1e-12


def test_locate_vertex_is_exact():
    m = mm.build_template(4)
    (tri,), (bary,) = mm.locate_points(mm.Lattice(m), m.vertices[7:8])
    assert set(np.round(bary, 15)) <= {0.0, 1.0}
    assert m.triangles[tri][np.argmax(bary)] == 7


def test_locate_edge_point_lowest_triangle_wins():
    m = mm.build_template(4)
    x = np.array([0.5, 0.375])  # interior point of an interface edge
    (tri,), _ = mm.locate_points(mm.Lattice(m), x[None, :])
    areas = mm.signed_areas(m)
    containing = []
    for t in range(m.n_triangles):
        p = m.vertices[m.triangles[t]]
        b = np.linalg.lstsq(
            np.vstack([p.T, np.ones(3)]), np.array([*x, 1.0]), rcond=None)[0]
        if b.min() >= -1e-12:
            containing.append(t)
    assert tri == min(containing)
    assert areas[tri] > 0


def test_locate_edge_midpoints_lowest_triangle_wins():
    # Diagonal-edge midpoints are as far from the edge's endpoints as from the
    # opposite right-angle vertices, so the nearest vertex's star may hold
    # only one of the two triangles on the edge.
    m = mm.refine_uniform(mm.build_template(4))
    t = m.triangles
    edges = np.unique(np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                              axis=1), axis=0)
    mids = 0.5 * (m.vertices[edges[:, 0]] + m.vertices[edges[:, 1]])
    tri, _ = mm.locate_points(mm.Lattice(m), mids)
    p = m.vertices[t]                                   # (T, 3, 2)
    lhs = np.concatenate([p.transpose(0, 2, 1), np.ones((m.n_triangles, 1, 3))], axis=1)
    rhs = np.concatenate([mids.T, np.ones((1, mids.shape[0]))])
    bary = np.linalg.solve(lhs[:, None], rhs.T[None, :, :, None])[..., 0]  # (T, P, 3)
    containing = bary.min(axis=-1) >= -1e-12
    np.testing.assert_array_equal(tri, np.argmax(containing, axis=0))


def edge_midpoints(m):
    t = m.triangles
    edges = np.unique(np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                              axis=1), axis=0)
    return 0.5 * (m.vertices[edges[:, 0]] + m.vertices[edges[:, 1]])


def test_locate_in_the_oracle_matches_a_brute_force_search():
    # The oracle's grid lines carry every vertex and edge midpoint of the
    # working levels, so these points sit on shared edges and vertices, where
    # the lowest admissible triangle index must win.
    config = driver.ExperimentConfig(n=6)
    oracle = driver.generate_data(config).field.mesh
    working = [driver.mesh_at_level(config, level) for level in (1, 2)]
    pts = np.vstack([m.vertices for m in working] + [edge_midpoints(m) for m in working]
                    + [driver.initial_mesh(m).vertices for m in working])
    tri, bary = mm.locate_points(mm.Lattice(oracle), pts)
    p = oracle.vertices[oracle.triangles]                           # (T, 3, 2)
    inv = np.linalg.inv(np.concatenate(
        [p.transpose(0, 2, 1), np.ones((oracle.n_triangles, 1, 3))], axis=1))
    # (T, P, 3): the barycentrics of every point in every triangle
    want = np.einsum("tij,pj->tpi", inv, np.column_stack([pts, np.ones(len(pts))]))
    want_tri = np.argmax(want.min(axis=-1) >= -mm._BARY_TOL, axis=0)
    np.testing.assert_array_equal(tri, want_tri)
    np.testing.assert_allclose(bary, want[want_tri, np.arange(len(pts))], rtol=0, atol=1e-12)


def test_lattice_refuses_a_mesh_that_is_not_a_uniform_grid():
    m = mm.build_template(4)
    nudged = m.vertices.copy()
    nudged[6, 0] += 1e-6  # the interior vertex (0.25, 0.25)
    for moved in (mm.TriMesh(nudged, m.triangles, m.subdomain, m.outer_boundary_nodes,
                             m.interface_nodes),
                  driver.initial_mesh(driver.mesh_at_level(driver.ExperimentConfig(n=4), 1))):
        with pytest.raises(ValueError, match="not a uniform 4 x 4 grid"):
            mm.Lattice(moved)


def smooth_source(p):
    return np.sin(np.pi * p[:, 0]) * np.exp(p[:, 1])


@pytest.mark.parametrize("load", ["piecewise", "smooth"])
@pytest.mark.parametrize("refinements", [0, 1, 2])
def test_lattice_poisson_matches_the_factored_system(monkeypatch, refinements, load):
    m = mm.build_template(8)  # alternating diagonals
    for _ in range(refinements):
        m = mm.refine_uniform(m)
    b = (fem.assemble_load_piecewise(m, 1000.0, 1.0) if load == "piecewise"
         else fem.assemble_load_function(m, smooth_source))
    stiffness = mm.assemble_stiffness(m)
    want = mm.DirichletSystem(stiffness, m.outer_boundary_nodes).solve(b)
    iterations, pcg = [], mm.pcg

    def counted(*args):
        out = pcg(*args)
        iterations.append(len(out[1]) - 1)
        return out

    monkeypatch.setattr(mm, "pcg", counted)
    got = mm.solve_lattice_poisson(mm.Lattice(m), stiffness, b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    np.testing.assert_array_equal(got[m.outer_boundary_nodes], 0.0)
    # The preconditioner is the stiffness's exact inverse.
    assert len(iterations) == 1 and iterations[0] <= 3


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["planted-right", "cosine-sign-flipped"])
def test_a_wrong_lattice_preconditioner_fails_loudly(monkeypatch, sign):
    def planted(n):
        k = np.arange(1, n)
        s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
        lam = 2.0 + sign * 2.0 * np.cos(np.pi * k / n)
        denominator = lam[:, None] + lam[None, :]
        return lambda b: s @ ((s @ b @ s) / denominator) @ s

    m = mm.refine_uniform(mm.refine_uniform(mm.build_template(8)))
    want = driver.DataOracle.on_lattice(m, 1000.0, 1.0).field.values
    monkeypatch.setattr(mm, "_lattice_laplacian_inverse", planted)
    if sign < 0.0:  # the plant itself is sound
        got = driver.DataOracle.on_lattice(m, 1000.0, 1.0).field.values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        return
    with pytest.raises(LinearSolverError,
                       match=f"stopped after {mm._PCG_MAX_ITERS} iterations"):
        driver.DataOracle.on_lattice(m, 1000.0, 1.0)


def moved_level2_state():
    """A level-2 start mesh, moved from its straight mesh, with the straight
    mesh's lattice, its stiffness and its load."""
    straight = driver.mesh_at_level(driver.ExperimentConfig(), 2)
    moved = driver.initial_mesh(straight)
    return (moved, straight, mm.assemble_stiffness(moved),
            fem.assemble_load_piecewise(moved, 1000.0, 1.0))


def test_lattice_poisson_solves_a_moved_mesh_like_the_factored_system(monkeypatch):
    # A line-search trial's state: the stiffness of a moved mesh,
    # preconditioned on the lattice of the straight mesh it was moved from.
    moved, straight, stiffness, load = moved_level2_state()
    want = mm.DirichletSystem(stiffness, moved.outer_boundary_nodes).solve(load)
    iterations, pcg = [], mm.pcg

    def counted(*args):
        out = pcg(*args)
        iterations.append(len(out[1]) - 1)
        return out

    monkeypatch.setattr(mm, "pcg", counted)
    got = mm.solve_lattice_poisson(mm.Lattice(straight), stiffness, load)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    np.testing.assert_array_equal(got[moved.outer_boundary_nodes], 0.0)
    # More than on the lattice itself, far below the cap.
    assert len(iterations) == 1 and 3 < iterations[0] <= 40


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["planted-right", "cosine-sign-flipped"])
def test_a_wrong_lattice_preconditioner_fails_a_trial_state_loudly(monkeypatch, sign):
    def planted(n):
        k = np.arange(1, n)
        s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
        lam = 2.0 + sign * 2.0 * np.cos(np.pi * k / n)
        denominator = lam[:, None] + lam[None, :]
        return lambda b: s @ ((s @ b @ s) / denominator) @ s

    moved, straight, _, _ = moved_level2_state()
    ybar = fem.NodalField(moved, np.zeros(moved.n_vertices))
    want = qp.MeshState(moved, ybar, 1000.0, 1.0, 10.0, mm.Lattice(straight)).y.values
    monkeypatch.setattr(mm, "_lattice_laplacian_inverse", planted)
    if sign < 0.0:  # the plant itself is sound
        got = qp.MeshState(moved, ybar, 1000.0, 1.0, 10.0, mm.Lattice(straight)).y.values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        return
    with pytest.raises(LinearSolverError,
                       match=f"stopped after {mm._PCG_MAX_ITERS} iterations"):
        qp.MeshState(moved, ybar, 1000.0, 1.0, 10.0, mm.Lattice(straight))


def test_locate_repeatable():
    m = mm.build_template(6)
    pts = np.random.default_rng(0).uniform(size=(64, 2))
    lattice = mm.Lattice(m)
    t1, b1 = mm.locate_points(lattice, pts)
    t2, b2 = mm.locate_points(lattice, pts)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(b1, b2)


@pytest.mark.parametrize("x", [[-1e-3, 0.5], [1.001, 0.5], [0.5, -0.01], [np.nan, 0.5],
                               [0.5, np.inf]])
def test_locate_outside_raises(x):
    m = mm.build_template(4)
    with pytest.raises(PointLocationError):
        mm.locate_points(mm.Lattice(m), np.array([x]))


def p1_gradients_row_gather(m: mm.TriMesh):
    """p1_gradients by numpy's fancy row gather vertices[triangles]."""
    p = m.vertices[m.triangles]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


def signed_areas_row_gather(m: mm.TriMesh):
    p = m.vertices[m.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def barycentric_row_gather(self, points, tris):
    """Lattice._barycentric by fancy row gathers."""
    verts = self.mesh.vertices
    tv = self.mesh.triangles[tris]
    p0 = verts[tv[..., 0]]
    d1 = verts[tv[..., 1]] - p0
    d2 = verts[tv[..., 2]] - p0
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    r = points[:, None, :] - p0
    b1 = (r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]) / det
    b2 = (d1[..., 0] * r[..., 1] - d1[..., 1] * r[..., 0]) / det
    return np.stack([1.0 - b1 - b2, b1, b2])


def test_corner_gathers_equal_the_row_gathers_bit_for_bit(monkeypatch):
    straight = driver.mesh_at_level(driver.ExperimentConfig(), 2)
    moved = driver.initial_mesh(straight)
    vertices = moved.vertices.copy()
    a, b, c = moved.triangles[100]
    vertices[c] = vertices[a] + vertices[b] - vertices[c]  # c mirrored through ab
    inverted = mm.TriMesh(vertices, moved.triangles, moved.subdomain,
                          moved.outer_boundary_nodes, moved.interface_nodes)
    assert mm.signed_areas(inverted)[100] < 0.0
    for m in (moved, inverted):
        x, y = mm.triangle_corners(m.vertices, m.triangles)
        assert np.array_equal(np.stack([x, y], axis=-1), m.vertices[m.triangles])
        for got, want in zip(mm.p1_gradients(m), p1_gradients_row_gather(m)):
            assert np.array_equal(got, want)
        assert np.array_equal(mm.signed_areas(m), signed_areas_row_gather(m))

    lattice = mm.Lattice(straight)
    pts = np.vstack([moved.vertices, edge_midpoints(straight), edge_midpoints(moved),
                     np.random.default_rng(5).uniform(size=(2000, 2))])
    field = fem.NodalField(straight, np.sin(7.0 * straight.vertices[:, 0])
                           * np.cos(3.0 * straight.vertices[:, 1]))
    tri, bary = lattice.locate(pts)
    values = fem.evaluate_field(lattice, field, pts)
    monkeypatch.setattr(mm.Lattice, "_barycentric", barycentric_row_gather)
    want_tri, want_bary = lattice.locate(pts)
    assert np.array_equal(tri, want_tri)
    assert np.array_equal(bary, want_bary)
    assert np.array_equal(values, np.einsum("pk,pk->p", want_bary,
                                            field.values[straight.triangles[want_tri]]))
