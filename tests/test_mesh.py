from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from shapenewton import driver, fem, mesh as mm
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


def test_elastic_extension_zero_data():
    m = mm.build_template(4)
    g = np.zeros((m.interface_nodes.shape[0], 2))
    d = mm.solve_elastic_deformation(m, g)
    assert np.all(d.displacement == 0.0)


def test_elastic_extension_linearity_and_bcs():
    m = mm.build_template(6)
    rng = np.random.default_rng(3)
    g = np.zeros((m.interface_nodes.shape[0], 2))
    g[1:-1] = 0.02 * rng.standard_normal((m.interface_nodes.shape[0] - 2, 2))
    d1 = mm.solve_elastic_deformation(m, g)
    d2 = mm.solve_elastic_deformation(m, 2.0 * g)
    np.testing.assert_allclose(d2.displacement, 2.0 * d1.displacement, atol=1e-12)
    np.testing.assert_allclose(d1.displacement[m.interface_nodes], g, atol=1e-14)
    assert np.all(d1.displacement[m.outer_boundary_nodes] == 0.0)


def test_elastic_extension_rejects_moving_pinned_ends():
    m = mm.build_template(4)
    g = np.zeros((m.interface_nodes.shape[0], 2))
    g[0] = [0.1, 0.0]
    with pytest.raises(ValueError):
        mm.solve_elastic_deformation(m, g)


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


def test_elasticity_matches_strain_oracle_and_splits_into_laplacians():
    m = driver.initial_mesh(driver.ExperimentConfig(n=16), 1)
    K = mm._assemble_elasticity(m)
    oracle = elasticity_oracle(m)
    assert abs(K - oracle).max() <= 1e-14 * abs(oracle).max()

    # For u vanishing on the outer boundary, a(u, u) = |grad u|^2 + |div u|^2:
    # the scalar Laplacian on each component plus the divergence term.
    rng = np.random.default_rng(11)
    u = rng.standard_normal((m.n_vertices, 2))
    u[m.outer_boundary_nodes] = 0.0
    L = fem.assemble_stiffness(m)
    b, c, area = mm.p1_gradients(m)
    uk = u[m.triangles]
    div = ((b * uk[..., 0]).sum(axis=1) + (c * uk[..., 1]).sum(axis=1)) / (2.0 * area)
    energy = u.ravel() @ (K @ u.ravel())
    split = u[:, 0] @ (L @ u[:, 0]) + u[:, 1] @ (L @ u[:, 1]) + area @ div ** 2
    assert abs(energy - split) <= 1e-14 * energy


@pytest.mark.parametrize("corrupt", [lambda x: np.full_like(x, np.nan),
                                     lambda x: x * (1.0 + 1e-6)],
                         ids=["nan", "relative-error-1e-6"])
def test_dirichlet_solves_fail_loudly_on_a_bad_factor(monkeypatch, corrupt):
    splu = mm.spla.splu

    class PlantedFactor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return corrupt(self.lu.solve(rhs))

    monkeypatch.setattr(mm.spla, "splu", lambda *a, **k: PlantedFactor(splu(*a, **k)))
    m = mm.build_template(8)
    with pytest.raises(LinearSolverError):
        fem.DirichletSolver(m).solve(np.ones(m.n_vertices))
    with pytest.raises(LinearSolverError):
        mm.solve_elastic_deformation(m, interface_bump(m))


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
    fem.DirichletSolver(m)
    assert (len(systems), len(factors)) == (1, 1)
    mm.solve_elastic_deformation(m, interface_bump(m))
    assert (len(systems), len(factors)) == (2, 2)


def test_apply_deformation_round_trip():
    m = mm.build_template(6)
    g = np.zeros((m.interface_nodes.shape[0], 2))
    g[1:-1, 0] = 0.05 * np.sin(np.pi * np.arange(1, 6) / 6.0)
    d = mm.solve_elastic_deformation(m, g)
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
    tri, bary = mm.locate_points(mm.Locator(m), pts)
    assert np.all(tri >= 0)
    rebuilt = np.einsum("pk,pkd->pd", bary, m.vertices[m.triangles[tri]])
    assert np.abs(rebuilt - pts).max() < 1e-12


def test_locate_vertex_is_exact():
    m = mm.build_template(4)
    (tri,), (bary,) = mm.locate_points(mm.Locator(m), m.vertices[7:8])
    assert set(np.round(bary, 15)) <= {0.0, 1.0}
    assert m.triangles[tri][np.argmax(bary)] == 7


def test_locate_edge_point_lowest_triangle_wins():
    m = mm.build_template(4)
    x = np.array([0.5, 0.375])  # interior point of an interface edge
    (tri,), _ = mm.locate_points(mm.Locator(m), x[None, :])
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
    tri, _ = mm.locate_points(mm.Locator(m), mids)
    p = m.vertices[t]                                   # (T, 3, 2)
    lhs = np.concatenate([p.transpose(0, 2, 1), np.ones((m.n_triangles, 1, 3))], axis=1)
    rhs = np.concatenate([mids.T, np.ones((1, mids.shape[0]))])
    bary = np.linalg.solve(lhs[:, None], rhs.T[None, :, :, None])[..., 0]  # (T, P, 3)
    containing = bary.min(axis=-1) >= -1e-12
    np.testing.assert_array_equal(tri, np.argmax(containing, axis=0))


def test_locate_repeatable():
    m = mm.build_template(6)
    pts = np.random.default_rng(0).uniform(size=(64, 2))
    locator = mm.Locator(m)
    t1, b1 = mm.locate_points(locator, pts)
    t2, b2 = mm.locate_points(locator, pts)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(b1, b2)


@pytest.mark.parametrize("x", [[-1e-3, 0.5], [1.001, 0.5], [0.5, -0.01]])
def test_locate_outside_raises(x):
    m = mm.build_template(4)
    with pytest.raises(PointLocationError):
        mm.locate_points(mm.Locator(m), np.array([x]))
