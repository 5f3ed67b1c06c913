from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from shapenewton import fem, mesh as mm, qp


def element_stiffness(coords: np.ndarray) -> np.ndarray:
    """Stiffness matrix of a single triangle given its (3, 2) vertex coords."""
    x, y = coords[:, 0], coords[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area = 0.5 * (b[0] * c[1] - b[1] * c[0])
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def element_mass(coords: np.ndarray) -> np.ndarray:
    """Consistent mass matrix of a single triangle."""
    x, y = coords[:, 0], coords[:, 1]
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))
    return area / 12.0 * (np.ones((3, 3)) + np.eye(3))


def unit_triangle_stiffness_oracle():
    # hand integration of grad(phi_i).grad(phi_j) on the triangle (0,0),(1,0),(0,1)
    return np.array([[1.0, -0.5, -0.5],
                     [-0.5, 0.5, 0.0],
                     [-0.5, 0.0, 0.5]])


def test_element_stiffness_reference_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(element_stiffness(coords),
                               unit_triangle_stiffness_oracle(), atol=1e-15)


def test_element_stiffness_translation_invariant():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    shifted = coords + np.array([0.3, -0.7])
    np.testing.assert_allclose(element_stiffness(shifted),
                               element_stiffness(coords), atol=1e-14)


def test_element_mass_reference_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    oracle = 0.5 / 12.0 * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    np.testing.assert_allclose(element_mass(coords), oracle, atol=1e-15)


def test_assembly_matches_element_oracles():
    # the vectorized assembly against a loop over the single-element matrices
    m = mm.refine_uniform(mm.build_template(4))
    K = np.zeros((m.n_vertices, m.n_vertices))
    M = np.zeros_like(K)
    for tri in m.triangles:
        K[np.ix_(tri, tri)] += element_stiffness(m.vertices[tri])
        M[np.ix_(tri, tri)] += element_mass(m.vertices[tri])
    np.testing.assert_allclose(fem.assemble_stiffness(m).toarray(), K, atol=1e-13)
    np.testing.assert_allclose(fem.assemble_mass(m).toarray(), M, atol=1e-16)


def test_stiffness_kernel_and_symmetry():
    m = mm.build_template(8)
    K = fem.assemble_stiffness(m)
    ones = np.ones(m.n_vertices)
    assert np.abs(K @ ones).max() < 1e-12
    assert np.abs((K - K.T).toarray()).max() == 0.0


def test_stiffness_positive_definite_after_elimination():
    m = mm.build_template(8)
    solver = fem.DirichletSolver(m, fem.assemble_stiffness(m))
    kff = solver.matrix[solver.free][:, solver.free]
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(solver.free.shape[0])
    x, info = spla.cg(kff, rhs, rtol=1e-10, maxiter=10 * rhs.shape[0])
    assert info == 0  # CG convergence certifies positive definiteness


def test_load_piecewise_total_source():
    m = mm.build_template(6)
    load = fem.assemble_load_piecewise(m, 1000.0, 1.0)
    assert abs(load.sum() - 500.5) < 1e-12 * 500.5
    uniform = fem.assemble_load_piecewise(m, 1.0, 1.0)
    assert abs(uniform.sum() - 1.0) < 1e-13


def test_loads_match_an_add_at_oracle():
    # Summed per vertex in triangle order, bit for bit.
    m = mm.refine_uniform(mm.build_template(6))
    _, _, area = mm.p1_gradients(m)
    expected = np.zeros(m.n_vertices)
    np.add.at(expected, m.triangles, (area * np.where(m.subdomain == 1, 7.0, -3.0) / 3.0)[:, None]
              * np.ones(3))
    np.testing.assert_array_equal(fem.assemble_load_piecewise(m, 7.0, -3.0), expected)

    p = m.vertices[m.triangles]
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    fm = np.exp(mids[..., 0]) * np.cos(mids[..., 1])
    expected = np.zeros(m.n_vertices)
    np.add.at(expected, m.triangles, area[:, None] / 6.0 * (fm + np.roll(fm, 1, axis=1)))
    load = fem.assemble_load_function(m, lambda x: np.exp(x[:, 0]) * np.cos(x[:, 1]))
    np.testing.assert_array_equal(load, expected)


def test_misfit_constant_offset():
    m = mm.build_template(6)
    y = fem.NodalField(m, np.full(m.n_vertices, 3.0))
    ybar = fem.NodalField(m, np.full(m.n_vertices, 2.0))
    assert abs(fem.objective_misfit(m, y, ybar, fem.assemble_mass(m)) - 0.5) < 1e-14


def test_misfit_sin_product():
    m = mm.build_template(32)
    vals = np.sin(np.pi * m.vertices[:, 0]) * np.sin(np.pi * m.vertices[:, 1])
    y = fem.NodalField(m, vals)
    zero = fem.NodalField(m, np.zeros(m.n_vertices))
    assert abs(fem.objective_misfit(m, y, zero, fem.assemble_mass(m)) - 0.125) < 1.5e-3


def test_l2_norm_linear_field_exact():
    m = mm.build_template(4)
    x = m.vertices[:, 0]
    # int_0^1 int_0^1 x^2 = 1/3, exact for the consistent mass matrix
    assert abs(np.sqrt(x @ (fem.assemble_mass(m) @ x)) - np.sqrt(1.0 / 3.0)) < 1e-14


def manufactured_error(n: int) -> float:
    m = mm.build_template(n)

    def f(p):
        return 2.0 * np.pi ** 2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    def exact(p):
        return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    y = fem.DirichletSolver(m, fem.assemble_stiffness(m)).solve(
        fem.assemble_load_function(m, f))
    return fem.quadrature_l2_difference(m, fem.NodalField(m, y), exact)


def test_manufactured_solution_second_order():
    errs = [manufactured_error(n) for n in (8, 16, 32)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for r in ratios:
        assert 3.5 < r < 4.5
    order = np.log2(errs[0] / errs[2]) / 2.0
    assert 1.7 < order < 2.3


def test_state_solve_consistency_with_load():
    m = mm.build_template(12)
    y = fem.solve_state(m, 1000.0, 1.0)
    K = fem.assemble_stiffness(m)
    load = fem.assemble_load_piecewise(m, 1000.0, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi = rng.standard_normal(m.n_vertices)
        phi[m.outer_boundary_nodes] = 0.0
        lhs = phi @ (K @ y.values)
        rhs = phi @ load
        assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)


def test_state_solve_positive_and_peaked_left():
    m = mm.build_template(16)
    y = fem.solve_state(m, 1000.0, 1.0)
    assert y.values.min() >= 0.0
    peak = m.vertices[np.argmax(y.values)]
    assert peak[0] < 0.5


def test_adjoint_zero_for_matching_data():
    # The data solved as the state is, on the lattice, matches it to the bit.
    m = mm.build_template(8)
    lattice = mm.Lattice(m)
    y = fem.NodalField(m, mm.solve_lattice_poisson(
        lattice, fem.assemble_stiffness(m), fem.assemble_load_piecewise(m, 1000.0, 1.0)))
    p = qp.QpWorkspace(qp.MeshState(m, y, 1000.0, 1.0, 10.0, lattice)).p
    assert np.abs(p.values).max() == 0.0


def test_adjoint_weak_form_consistency():
    m = mm.build_template(10)
    y = fem.solve_state(m, 1000.0, 1.0)
    ybar = fem.NodalField(m, np.zeros(m.n_vertices))
    p = qp.QpWorkspace(qp.MeshState(m, ybar, 1000.0, 1.0, 10.0, mm.Lattice(m))).p
    K = fem.assemble_stiffness(m)
    M = fem.assemble_mass(m)
    rng = np.random.default_rng(2)
    phi = rng.standard_normal(m.n_vertices)
    phi[m.outer_boundary_nodes] = 0.0
    lhs = phi @ (K @ p.values)
    rhs = -(phi @ (M @ (y.values - ybar.values)))
    assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)


def test_evaluate_field_reproduces_linear_functions():
    m = mm.refine_uniform(mm.build_template(6))
    vals = 0.25 + 2.0 * m.vertices[:, 0] - 0.5 * m.vertices[:, 1]
    field = fem.NodalField(m, vals)
    rng = np.random.default_rng(13)
    pts = rng.uniform(size=(10_000, 2))
    got = fem.evaluate_field(mm.Lattice(m), field, pts)
    want = 0.25 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1]
    assert np.abs(got - want).max() < 1e-12


def test_evaluate_field_at_vertices_is_exact():
    m = mm.build_template(4)
    rng = np.random.default_rng(21)
    vals = rng.standard_normal(m.n_vertices)
    field = fem.NodalField(m, vals)
    got = fem.evaluate_field(mm.Lattice(m), field, m.vertices.copy())
    np.testing.assert_array_equal(got, vals)


def test_field_mesh_tag_enforced():
    m1 = mm.build_template(4)
    m2 = mm.build_template(4)
    y = fem.solve_state(m1, 1.0, 1.0)
    with pytest.raises(ValueError):
        fem.evaluate_field(mm.Lattice(m2), y, np.array([[0.5, 0.5]]))
