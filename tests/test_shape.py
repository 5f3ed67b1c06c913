"""Interface geometry, shape gradient, retraction and distance tests."""
import gc
import json
import logging
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import solve_state
from shapenewton import fem, mesh, qp, shape
from shapenewton.errors import InvertedElementError, ShapeNewtonError


def straight(n: int) -> mesh.TriMesh:
    return mesh.build_template(n)


def pinned(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[0] = 0.0
    out[-1] = 0.0
    return out


# ---------------------------------------------------------------- geometry

def test_straight_interface_geometry_is_exact():
    m = straight(8)
    geo = shape.compute_geometry(m)
    assert geo.n_nodes == 9
    np.testing.assert_array_equal(geo.normals, np.tile([1.0, 0.0], (9, 1)))
    np.testing.assert_array_equal(geo.curvature, np.zeros(9))
    np.testing.assert_allclose(geo.edge_lengths, np.full(8, 1 / 8), rtol=1e-15)
    expected = np.full(9, 1 / 8)
    expected[[0, -1]] = 1 / 16
    np.testing.assert_allclose(geo.arc_weights, expected, rtol=1e-15)
    assert geo.length == pytest.approx(1.0, abs=1e-15)


def test_circle_arc_curvature_is_exact_for_equal_angles():
    # Turning-angle curvature 2 sin(dtheta/2) / mean edge length reproduces
    # 1/R exactly when successive chords subtend equal angles.
    R = 0.7
    theta = np.linspace(-0.9, 0.9, 21)
    pts = np.column_stack([R * np.cos(theta), R * np.sin(theta)])
    geo = shape.polyline_geometry(pts)
    np.testing.assert_allclose(geo.curvature[1:-1], 1.0 / R, rtol=1e-12)
    radial = pts[1:-1] / R
    np.testing.assert_allclose(geo.normals[1:-1], radial, atol=1e-12)


def test_circle_curvature_second_order_for_uneven_angles():
    R = 0.7

    def sample(m):
        u = np.linspace(0.0, 1.0, m)
        theta = -0.9 + 1.8 * (u + 0.05 * np.sin(2 * np.pi * u))
        pts = np.column_stack([R * np.cos(theta), R * np.sin(theta)])
        geo = shape.polyline_geometry(pts)
        return np.abs(geo.curvature[1:-1] - 1.0 / R).max()

    err_coarse = sample(21)
    err_fine = sample(41)
    assert err_coarse < 5e-3
    assert err_fine < err_coarse / 2.5


def test_arc_weights_sum_to_polyline_length():
    pts = shape.bspline_initial_interface(33)
    geo = shape.polyline_geometry(pts)
    length = np.sum(np.hypot(*np.diff(pts, axis=0).T))
    assert geo.arc_weights.sum() == pytest.approx(length, rel=1e-14)
    assert geo.length == pytest.approx(length, rel=1e-14)
    assert geo.length > 1.0  # curved start is longer than the straight line


def test_degenerate_polylines_are_rejected():
    with pytest.raises(ValueError):
        shape.polyline_geometry(np.array([[0.5, 0.0]]))
    with pytest.raises(ValueError):
        shape.polyline_geometry(np.array([[0.5, 0.0], [0.5, 0.0], [0.5, 1.0]]))


# ---------------------------------------------------- tangential Laplacian

def test_tangential_laplacian_annihilates_linear_fields():
    geo = shape.compute_geometry(straight(16))
    w = geo.points[:, 1].copy()  # linear in arc length
    out = shape.tangential_laplacian_apply(geo, w)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_tangential_laplacian_matches_sine_eigenvalue():
    n = 32
    geo = shape.compute_geometry(straight(n))
    y = geo.points[:, 1]
    w = np.sin(np.pi * y)
    out = shape.tangential_laplacian_apply(geo, w)
    # uniform 3-point stencil: eigenvalue (2 - 2 cos(pi h)) / h^2, relative
    # deficit (pi h)^2 / 12 ~ 8e-4 at h = 1/32
    assert out[0] == 0.0 and out[-1] == 0.0
    err = np.abs(out - np.pi ** 2 * w).max()
    assert err < 2e-3 * np.pi ** 2


def test_tangential_laplacian_is_symmetric_in_arc_inner_product():
    pts = shape.bspline_initial_interface(25)
    geo = shape.polyline_geometry(pts)
    rng = np.random.default_rng(3)
    v = pinned(rng.standard_normal(25))
    w = pinned(rng.standard_normal(25))
    lhs = shape.s_inner(geo, shape.tangential_laplacian_apply(geo, v), w)
    rhs = shape.s_inner(geo, v, shape.tangential_laplacian_apply(geo, w))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # positive semi-definite: energy of a nonzero pinned field is positive
    assert shape.s_inner(geo, shape.tangential_laplacian_apply(geo, v), v) > 0.0


# ------------------------------------------------------------- fields

def test_interface_field_requires_pinned_endpoints():
    m = straight(4)
    with pytest.raises(ValueError):
        shape.InterfaceField(mesh=m, values=np.ones(5))
    with pytest.raises(ValueError):
        shape.InterfaceField(mesh=m, values=np.zeros(4))
    f = shape.InterfaceField(mesh=m, values=pinned(np.ones(5)))
    assert not f.values.flags.writeable


# ------------------------------------------------------------- gradient

def test_shape_gradient_combines_adjoint_jump_and_curvature():
    m = straight(8)
    pvals = m.vertices[:, 0] * (1.0 + m.vertices[:, 1])
    p = fem.NodalField(mesh=m, values=pvals)
    g = shape.shape_gradient(p, f1=1000.0, f2=1.0, mu=10.0)
    expected = -999.0 * pvals[m.interface_nodes]
    expected[0] = 0.0
    expected[-1] = 0.0
    np.testing.assert_allclose(g.values, expected, rtol=1e-14)


def test_gradient_pushes_a_rightward_bulge_back():
    # Bulge the interface into the weak-source side.  Subdomain 1 grows, the
    # strong source covers more area, y exceeds the straight-interface data,
    # the adjoint goes negative, and both gradient terms become positive, so
    # the descent direction -g moves the interface back to the left.
    n = 16
    base = straight(n)
    geo0 = shape.compute_geometry(base)
    w = shape.InterfaceField(
        mesh=base, values=pinned(0.08 * np.sin(np.pi * geo0.points[:, 1])))
    bulged = shape.retract(shape.extend(base, w, fem.assemble_stiffness(base)), 1.0)

    data_mesh = mesh.refine_uniform(mesh.refine_uniform(straight(n)))
    ybar_data = solve_state(data_mesh, 1000.0, 1.0)
    ybar = fem.NodalField(mesh=bulged, values=fem.evaluate_field(
        mesh.Lattice(data_mesh), ybar_data, bulged.vertices))

    p = qp.QpWorkspace(qp.MeshState(ybar, 1000.0, 1.0, 10.0, mesh.Lattice(base))).p
    geo = shape.compute_geometry(bulged)
    g = shape.shape_gradient(p, 1000.0, 1.0, 10.0)
    assert np.all(g.values[1:-1] > 0.0)
    assert np.all(geo.curvature[1:-1][5:-5] > 0.0)  # apex region is convex


def shape_gradient_domain(m, y, p, ybar, f1, f2, V):
    """Volumetric shape derivative of the misfit-plus-PDE Lagrangian along V.

    Evaluates the distributed expression
        int_Omega -grad(y)^T (DV + DV^T) grad(p) - p V.grad(f)
                  + div(V) (0.5 (y - ybar)^2 + grad(y).grad(p) - f p) dx.
    The source is constant on each subdomain and transported with the
    deformation, so the V.grad(f) term vanishes elementwise.  The perimeter
    term is not included here.
    """
    b, c, area = mesh.p1_gradients(m)
    inv2a = 1.0 / (2.0 * area)
    tv = m.triangles

    def grad(vals):
        return np.stack([np.einsum("ti,ti->t", b, vals[tv]) * inv2a,
                         np.einsum("ti,ti->t", c, vals[tv]) * inv2a], axis=1)

    gy = grad(y.values)
    gp = grad(p.values)
    # DV[t, i, j] = d V_i / d x_j, constant per triangle
    DV = np.empty((m.n_triangles, 2, 2))
    for comp in (0, 1):
        g = grad(V[:, comp])
        DV[:, comp, 0] = g[:, 0]
        DV[:, comp, 1] = g[:, 1]
    divV = DV[:, 0, 0] + DV[:, 1, 1]
    sym = DV + np.transpose(DV, (0, 2, 1))

    term_strain = -np.einsum("ti,tij,tj->t", gy, sym, gp)
    misfit = y.values - ybar.values
    mis_tri = misfit[tv]
    mis_mid = 0.5 * (mis_tri + np.roll(mis_tri, -1, axis=1))
    mis_sq = (mis_mid ** 2).mean(axis=1)  # edge-midpoint rule, exact for P1^2
    fvals = np.where(m.subdomain == 1, f1, f2)
    p_mean = p.values[tv].mean(axis=1)
    term_div = divV * (0.5 * mis_sq + np.einsum("ti,ti->t", gy, gp) - fvals * p_mean)
    return float(np.sum(area * (term_strain + term_div)))


def test_domain_and_interface_gradient_forms_agree():
    # Constant data keeps the fixed-data misfit term exact in the volumetric
    # form; compare both pairings without the perimeter part.
    n = 32
    m = straight(n)
    y = solve_state(m, 1000.0, 1.0)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    p = qp.QpWorkspace(qp.MeshState(ybar, 1000.0, 1.0, 10.0, mesh.Lattice(m))).p
    geo = shape.compute_geometry(m)

    w = shape.InterfaceField(
        mesh=m, values=pinned(np.sin(np.pi * geo.points[:, 1])))
    V = mesh.solve_elastic_deformation(
        m, w.values[:, None] * geo.normals, fem.assemble_stiffness(m)).displacement

    volumetric = shape_gradient_domain(m, y, p, ybar, 1000.0, 1.0, V)
    g = shape.shape_gradient(p, 1000.0, 1.0, mu=0.0)
    paired = shape.s_inner(geo, g.values, w.values)
    assert volumetric == pytest.approx(paired, rel=5e-2)
    assert volumetric != 0.0


# ------------------------------------------------------------- retraction

def test_retract_zero_field_returns_identical_vertices():
    m = straight(8)
    w = shape.InterfaceField(mesh=m, values=np.zeros(9))
    moved = shape.retract(shape.extend(m, w, fem.assemble_stiffness(m)), 1.0)
    np.testing.assert_array_equal(moved.vertices, m.vertices)
    np.testing.assert_array_equal(moved.triangles, m.triangles)


def test_retract_places_interface_nodes_exactly():
    n = 16
    m = straight(n)
    geo = shape.compute_geometry(m)
    vals = pinned(0.1 * np.sin(np.pi * np.arange(n + 1) / n))
    w = shape.InterfaceField(mesh=m, values=vals)
    moved = shape.retract(shape.extend(m, w, fem.assemble_stiffness(m)), 0.5)
    target = geo.points + 0.5 * vals[:, None] * geo.normals
    np.testing.assert_allclose(moved.interface_points, target, atol=1e-14)


def test_retract_round_trip_recovers_interface():
    n = 16
    m = straight(n)
    vals = pinned(0.02 * np.sin(np.pi * np.arange(n + 1) / n))
    forward = shape.retract(shape.extend(m, shape.InterfaceField(mesh=m, values=vals),
                                         fem.assemble_stiffness(m)), 1.0)
    back = shape.retract(shape.extend(
        forward, shape.InterfaceField(mesh=forward, values=vals),
        fem.assemble_stiffness(forward)), -1.0)
    # the reverse step rides slightly different normals, hence the loose bound
    err = np.abs(back.interface_points - m.interface_points).max()
    assert err < 1e-3


@pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0 ** -7, 1.25, 1.5])
def test_retract_scales_one_extension(alpha):
    # Oracle: the elastic extension solved afresh for the scaled step.  A
    # power-of-two scale is exact in floating point, so those agree to the bit.
    n = 16
    m = straight(n)
    geo = shape.compute_geometry(m)
    vals = pinned(0.05 * np.sin(np.pi * np.arange(n + 1) / n))
    stiffness = fem.assemble_stiffness(m)
    got = shape.retract(shape.extend(m, shape.InterfaceField(mesh=m, values=vals),
                                     stiffness), alpha)
    disp = alpha * vals[:, None] * geo.normals
    expected = mesh.apply_deformation(mesh.solve_elastic_deformation(m, disp, stiffness))
    if np.log2(alpha).is_integer():
        np.testing.assert_array_equal(got.vertices, expected.vertices)
    else:
        np.testing.assert_allclose(got.vertices, expected.vertices, rtol=0, atol=1e-14)
    assert not np.array_equal(got.vertices, m.vertices)


def inverting_step(n=8):
    """A straight mesh and a unit step that inverts an element."""
    m = straight(n)
    vals = pinned(0.9 * np.sin(np.pi * np.arange(n + 1) / n))
    return m, shape.InterfaceField(mesh=m, values=vals), shape.compute_geometry(m)


def test_retract_takes_one_step_and_raises_on_inversion():
    m, w, geo = inverting_step()
    extension = shape.extend(m, w, fem.assemble_stiffness(m))
    with pytest.raises(InvertedElementError):
        shape.retract(extension, 1.0)
    moved = shape.retract(extension, 0.25)
    target = geo.points + 0.25 * w.values[:, None] * geo.normals
    np.testing.assert_allclose(moved.interface_points, target, atol=1e-14)


def test_failed_retraction_frees_the_source_mesh_without_gc():
    # A failed trial must not leave its source mesh, or the extension that
    # refers to it, in a reference cycle that only the collector can free.
    m, w, geo = inverting_step()
    extension = shape.extend(m, w, fem.assemble_stiffness(m))
    source = weakref.ref(m)
    gc.disable()
    try:
        try:
            shape.retract(extension, 1e6)
        except ShapeNewtonError:
            pass
        del m, w, geo, extension
        assert source() is None
    finally:
        gc.enable()


# ------------------------------------------------------------- distance

def test_distance_exact_on_piecewise_linear_graphs():
    # one-sided tent: two segments, each with mean offset 0.05 over dy = 0.5
    tent = np.array([[0.5, 0.0], [0.6, 0.5], [0.5, 1.0]])
    assert shape.polyline_distance(tent) == pytest.approx(0.05, abs=1e-15)
    # sign change inside the middle segment:
    #   0.4 * (0.05 + 0) / 2 + 0.4 * (0.05^2 + 0.05^2) / (2 * 0.1) + 0.2 * 0.05 / 2
    zig = np.array([[0.5, 0.0], [0.45, 0.4], [0.55, 0.8], [0.5, 1.0]])
    assert shape.polyline_distance(zig) == pytest.approx(0.025, abs=1e-15)


def test_distance_of_straight_interface_is_zero():
    assert shape.dist_to_solution(straight(8)) == 0.0


def test_distance_matches_parabolic_offset_oracle():
    # x(y) = 0.5 + 0.1 y (1 - y) has offset integral 0.1/6 = 1/60
    y = np.linspace(0.0, 1.0, 401)
    pts = np.column_stack([0.5 + 0.1 * y * (1.0 - y), y])
    assert shape.polyline_distance(pts) == pytest.approx(1.0 / 60.0, abs=1e-6)

    n = 16
    m = straight(n)
    yi = np.arange(n + 1) / n
    vals = pinned(0.1 * yi * (1.0 - yi))
    w = shape.InterfaceField(mesh=m, values=vals)
    moved = shape.retract(shape.extend(m, w, fem.assemble_stiffness(m)), 1.0)
    assert shape.dist_to_solution(moved) == pytest.approx(1.0 / 60.0, abs=1e-3)


def test_distance_falls_back_for_non_graph_polylines(caplog):
    pts = np.array([[0.5, 0.0], [0.6, 0.6], [0.55, 0.3], [0.5, 1.0]])
    with caplog.at_level(logging.WARNING, logger="shapenewton.shape"):
        value = shape.polyline_distance(pts)
    assert value > 0.0
    assert any("not a graph" in rec.message for rec in caplog.records)


# ------------------------------------------------------------- start curve

def test_start_curve_endpoints_and_sampling():
    pts = shape.bspline_initial_interface(55)
    np.testing.assert_array_equal(pts[0], [0.5, 0.0])
    np.testing.assert_array_equal(pts[-1], [0.5, 1.0])
    np.testing.assert_allclose(pts[:, 1], np.linspace(0, 1, 55), atol=1e-12)
    # lower half bends left, upper half right, point symmetry about (0.5, 0.5)
    assert np.all(pts[1:27, 0] < 0.5)
    assert np.all(pts[28:-1, 0] > 0.5)
    np.testing.assert_allclose(pts[:, 0] + pts[::-1, 0], 1.0, atol=1e-12)


def test_start_curve_offset_integral_is_calibrated():
    fine = shape.bspline_initial_interface(4001)
    assert shape.polyline_distance(fine) == pytest.approx(
        shape.START_OFFSET_INTEGRAL, abs=1e-5)
    coarse = shape.bspline_initial_interface(55)
    assert shape.polyline_distance(coarse) == pytest.approx(
        shape.START_OFFSET_INTEGRAL, rel=5e-2)


@pytest.mark.parametrize("m", [3, 5, 55, 217, 433])
def test_start_curve_matches_scipy_natural_spline(m):
    from scipy.interpolate import CubicSpline

    b = shape._KNOT_OFFSET
    spline = CubicSpline([0.0, 0.3, 0.7, 1.0], [0.0, -b, b, 0.0], bc_type="natural")
    y = np.arange(m) / (m - 1)
    pts = shape.bspline_initial_interface(m)
    np.testing.assert_array_equal(pts[:, 1], y)
    np.testing.assert_allclose(pts[:, 0], 0.5 + spline(y), rtol=0, atol=1e-15)


GUARD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import shapenewton
shapenewton.generate_data(shapenewton.ExperimentConfig(n=8, levels=1))
print(json.dumps(sorted(sys.modules)))
"""


def test_the_package_loads_neither_scipy_interpolate_nor_optimize():
    # Each pulls in more of scipy (special, fft, spatial) and costs a
    # fresh interpreter about 0.3 s of set-up; the package needs neither.
    # The lattice Poisson solve does its sine transform with NumPy products,
    # so scipy.fft stays out too.
    src = Path(shape.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", GUARD, str(src)], capture_output=True,
                          text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "shapenewton.driver" in loaded
    assert [k for k in loaded
            if k.startswith(("scipy.interpolate", "scipy.optimize", "scipy.fft"))] == []


def test_objective_adds_misfit_and_length_penalty():
    m = straight(8)
    ybar = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    state = qp.MeshState(ybar, 1000.0, 1.0, 10.0, mesh.Lattice(m))
    y = state.y.values
    misfit = 0.5 * (y @ (fem.assemble_mass(m) @ y))
    assert state.objective == pytest.approx(misfit + 10.0, rel=1e-14)
