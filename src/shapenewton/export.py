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
    named POINT_DATA scalar.
    """
    fields = fields or {}
    for name, field in fields.items():
        if field.mesh is not mesh:
            raise ValueError(f"field {name!r} belongs to a different mesh")
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    # Python scalars from tolist() format several times faster than numpy's.
    lines.extend(f"{_fmt(x)} {_fmt(y)} 0" for x, y in mesh.vertices.tolist())
    nt = mesh.n_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist())
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    lines.append(f"CELL_DATA {nt}")
    lines.append("SCALARS subdomain int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(map(str, mesh.subdomain.tolist()))
    if fields:
        lines.append(f"POINT_DATA {mesh.n_vertices}")
        for name, field in fields.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_fmt(v) for v in field.values.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


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
