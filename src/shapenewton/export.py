"""Artifact writers: legacy ASCII VTK meshes, interface CSV, and trace CSV.

All floating-point values are written with 7 significant digits.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

import numpy as np

from .driver import TraceRow
from .fem import NodalField
from .mesh import TriMesh
from .shape import InterfaceGeometry


def _fmt(x: float) -> str:
    return f"{x:.7g}"


def write_vtk(path, mesh: TriMesh, fields: dict[str, NodalField] | None = None,
              title: str = "shapenewton mesh") -> None:
    """Write the mesh as a legacy ASCII VTK unstructured grid.

    The subdomain label goes into CELL_DATA; each entry of fields becomes a
    named POINT_DATA scalar.  A title that VTK cannot read back (a line
    break, or more than 256 characters) or a field name that is empty or
    holds whitespace raises ValueError before the file is created.
    """
    fields = fields or {}
    if "\n" in title or "\r" in title or len(title) > 256:
        raise ValueError("VTK title must be one line of at most 256 characters")
    for name, field in fields.items():
        if name.split() != [name]:  # empty, or holds whitespace
            raise ValueError(f"VTK field name {name!r} is empty or holds whitespace")
        if field.mesh is not mesh:
            raise ValueError(f"field {name!r} belongs to a different mesh")
    nv, nt = mesh.n_vertices, mesh.n_triangles
    # One % over a tuple of Python scalars formats a whole block in C; "%.7g"
    # gives the same text as _fmt.
    blocks = [
        "# vtk DataFile Version 3.0\n", title, "\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {nv} double\n",
        ("%.7g %.7g 0\n" * nv) % tuple(mesh.vertices.ravel().tolist()),
        f"CELLS {nt} {4 * nt}\n",
        ("3 %d %d %d\n" * nt) % tuple(mesh.triangles.ravel().tolist()),
        f"CELL_TYPES {nt}\n", "5\n" * nt,
        f"CELL_DATA {nt}\nSCALARS subdomain int 1\nLOOKUP_TABLE default\n",
        ("%d\n" * nt) % tuple(mesh.subdomain.tolist()),
    ]
    if fields:
        blocks.append(f"POINT_DATA {nv}\n")
        for name, field in fields.items():
            blocks.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            blocks.append(("%.7g\n" * nv) % tuple(field.values.tolist()))
    Path(path).write_text("".join(blocks))


def write_interface_csv(path, geometry: InterfaceGeometry,
                        values: np.ndarray) -> None:
    """Write the interface polyline with one nodal scalar per row."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (geometry.n_nodes,):
        raise ValueError("value count does not match the interface")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "x", "nx", "ny", "kappa", "value"])
        for i in range(geometry.n_nodes):
            writer.writerow([
                _fmt(geometry.points[i, 1]),
                _fmt(geometry.points[i, 0]),
                _fmt(geometry.normals[i, 0]),
                _fmt(geometry.normals[i, 1]),
                _fmt(geometry.curvature[i]),
                _fmt(values[i]),
            ])


def write_trace_csv(path, rows: Iterable[TraceRow]) -> None:
    """Write iteration trace rows, one line per iteration."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["level", "iter", "dist", "J", "grad_norm",
                         "cg_iters", "alpha"])
        for row in rows:
            writer.writerow([
                row.level,
                row.iteration,
                _fmt(row.dist),
                _fmt(row.objective),
                _fmt(row.grad_norm),
                row.cg_iterations,
                _fmt(row.step_length),
            ])
