"""Discrete geometry and shape calculus on the interface polyline.

Interface fields are scalar normal-displacement coefficients on the polyline
nodes; both endpoints are pinned, so admissible fields vanish there.  The
normal points from subdomain 1 into subdomain 2 ((1, 0) on the straight
interface).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import fem
from .mesh import DeformationField, TriMesh, apply_deformation, solve_elastic_deformation

log = logging.getLogger(__name__)

# Offset integral of the reference starting curve; the spline knot offset
# below is calibrated so the exact curve attains it.
START_OFFSET_INTEGRAL = 0.0706
_KNOT_OFFSET = 0.10931613


@dataclass(frozen=True)
class InterfaceGeometry:
    """Discrete first-order geometry of the interface polyline."""

    points: np.ndarray       # (m, 2) node coordinates, bottom to top
    tangents: np.ndarray     # (m, 2) unit tangents
    normals: np.ndarray      # (m, 2) unit normals, subdomain 1 -> 2
    curvature: np.ndarray    # (m,) turning-angle curvature, zero at endpoints
    arc_weights: np.ndarray  # (m,) lumped arc-length weights
    edge_lengths: np.ndarray  # (m-1,)

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    @property
    def length(self) -> float:
        return float(self.edge_lengths.sum())


@dataclass(frozen=True)
class InterfaceField:
    """Scalar nodal field on the interface; vanishes at the pinned endpoints."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != (self.mesh.interface_nodes.shape[0],):
            raise ValueError("interface field length does not match the mesh")
        if vals[0] != 0.0 or vals[-1] != 0.0:
            raise ValueError("interface fields must vanish at the pinned endpoints")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def polyline_geometry(points: np.ndarray) -> InterfaceGeometry:
    """Geometry of an arbitrary open polyline (used via compute_geometry)."""
    pts = np.asarray(points, dtype=np.float64)
    m = pts.shape[0]
    if m < 2:
        raise ValueError("polyline needs at least two nodes")
    edges = pts[1:] - pts[:-1]
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    if lengths.min() <= 0.0:
        raise ValueError(f"zero-length interface edge {int(np.argmin(lengths))}")
    unit = edges / lengths[:, None]

    tangents = np.empty((m, 2))
    tangents[0] = unit[0]
    tangents[-1] = unit[-1]
    interior_sum = unit[:-1] + unit[1:]
    norms = np.hypot(interior_sum[:, 0], interior_sum[:, 1])
    if m > 2 and norms.min() <= 1e-14:
        raise ValueError("interface folds back on itself (opposite adjacent tangents)")
    tangents[1:-1] = interior_sum / norms[:, None]

    # rotate tangents by -90 degrees: left region is subdomain 1
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])

    arc = np.empty(m)
    arc[0] = 0.5 * lengths[0]
    arc[-1] = 0.5 * lengths[-1]
    arc[1:-1] = 0.5 * (lengths[:-1] + lengths[1:])

    curvature = np.zeros(m)
    if m > 2:
        cross = unit[:-1, 0] * unit[1:, 1] - unit[:-1, 1] * unit[1:, 0]
        dot = np.einsum("ij,ij->i", unit[:-1], unit[1:])
        turn = np.arctan2(cross, dot)
        curvature[1:-1] = 2.0 * np.sin(0.5 * turn) / arc[1:-1]

    return InterfaceGeometry(points=pts, tangents=tangents, normals=normals,
                             curvature=curvature, arc_weights=arc,
                             edge_lengths=lengths)


def compute_geometry(mesh: TriMesh) -> InterfaceGeometry:
    """Normals, curvature and arc weights of the mesh's interface polyline."""
    return polyline_geometry(mesh.interface_points)


def s_inner(geometry: InterfaceGeometry, a: np.ndarray, b: np.ndarray) -> float:
    """Lumped arc-length inner product of two nodal interface arrays."""
    return float(np.sum(geometry.arc_weights * a * b))


def s_norm(geometry: InterfaceGeometry, a: np.ndarray) -> float:
    return float(np.sqrt(max(s_inner(geometry, a, a), 0.0)))


def shape_gradient(mesh: TriMesh, geometry: InterfaceGeometry, p: fem.NodalField,
                   f1: float, f2: float, mu: float) -> InterfaceField:
    """Interface form of the shape gradient: g = -(f1 - f2) p + mu kappa.

    Pairing sum_i g_i w_i s_i approximates dJ[w n]; endpoints are pinned.
    """
    if p.mesh is not mesh:
        raise ValueError("adjoint field belongs to a different mesh")
    g = -(f1 - f2) * p.values[mesh.interface_nodes] + mu * geometry.curvature
    g[0] = 0.0
    g[-1] = 0.0
    return InterfaceField(mesh=mesh, values=g)


def objective(mesh: TriMesh, y: fem.NodalField, ybar: fem.NodalField,
              geometry: InterfaceGeometry, mu: float, mass) -> float:
    """J = 0.5 ||y - ybar||^2 + mu * interface length; mass is the mesh's
    mass matrix."""
    return fem.objective_misfit(mesh, y, ybar, mass) + mu * geometry.length


def tangential_laplacian_apply(geometry: InterfaceGeometry, w: np.ndarray) -> np.ndarray:
    """Nodewise -d^2 w / d tau^2 with pinned (zero) endpoint rows."""
    m = geometry.n_nodes
    if m < 3:
        raise ValueError("tangential Laplacian needs at least three interface nodes")
    w = np.asarray(w, dtype=np.float64)
    lengths = geometry.edge_lengths
    out = np.zeros(m)
    out[1:-1] = ((w[1:-1] - w[:-2]) / lengths[:-1]
                 + (w[1:-1] - w[2:]) / lengths[1:]) / geometry.arc_weights[1:-1]
    return out


def extend(mesh: TriMesh, w: InterfaceField,
           geometry: InterfaceGeometry) -> DeformationField:
    """Elastic extension of the unit step w * n to the volume.

    The extension is linear in the step, so retract() scales this one field
    to every trial length along w.
    """
    if w.mesh is not mesh:
        raise ValueError("design field belongs to a different mesh")
    if geometry.n_nodes != mesh.interface_nodes.shape[0]:
        raise ValueError("geometry does not match the mesh interface")
    # w vanishes at the pinned endpoints, so the displacement does as well.
    return solve_elastic_deformation(mesh, w.values[:, None] * geometry.normals)


def retract(mesh: TriMesh, extension: DeformationField, step: float) -> TriMesh:
    """Move the mesh by step times an extension from extend().

    Takes exactly the given step; choosing and halving it is the driver's
    job.  Raises MeshInvariantError (InvertedElementError when a triangle
    inverts) if the moved mesh is not valid.
    """
    return apply_deformation(mesh, DeformationField(
        mesh=extension.mesh, displacement=float(step) * extension.displacement))


def polyline_distance(points: np.ndarray) -> float:
    """Offset integral int_0^1 |x(y) - 0.5| dy of a polyline graph over y.

    Exact piecewise integration with sign-change splitting.  If the polyline
    is not a graph over y, an arc-length parameterized approximation is used
    and a warning is emitted.
    """
    pts = np.asarray(points, dtype=np.float64)
    d = pts[:, 0] - 0.5
    dy = np.diff(pts[:, 1])
    if np.any(dy <= 0.0):
        log.warning("interface is not a graph over y; "
                    "using arc-length parameterized distance approximation")
        dy = np.abs(dy)
    d0, d1 = d[:-1], d[1:]
    same = d0 * d1 >= 0.0
    seg = np.empty_like(dy)
    seg[same] = 0.5 * (np.abs(d0[same]) + np.abs(d1[same])) * dy[same]
    opp = ~same
    seg[opp] = dy[opp] * (d0[opp] ** 2 + d1[opp] ** 2) / (2.0 * np.abs(d0[opp] - d1[opp]))
    return float(seg.sum())


def dist_to_solution(mesh: TriMesh) -> float:
    """Distance of the interface to the straight solution line x = 0.5."""
    return polyline_distance(mesh.interface_points)


def bspline_initial_interface(m: int) -> np.ndarray:
    """Sample the reference starting curve at m nodes, uniform in y.

    The curve is the natural cubic spline x(y) through (0.5, 0),
    (0.5 - b, 0.3), (0.5 + b, 0.7), (0.5, 1); the knot offset b is calibrated
    so the exact curve has offset integral START_OFFSET_INTEGRAL.
    """
    if m < 3:
        raise ValueError("need at least three samples")
    spline = CubicSpline(
        [0.0, 0.3, 0.7, 1.0],
        [0.0, -_KNOT_OFFSET, _KNOT_OFFSET, 0.0],
        bc_type="natural",
    )
    y = np.arange(m) / (m - 1)
    x = 0.5 + spline(y)
    x[0] = 0.5
    x[-1] = 0.5
    return np.column_stack([x, y])
