"""Artifact writers: legacy ASCII VTK meshes, interface CSV, and trace CSV.

All floating-point values are written with 7 significant digits ("%.7g"),
formatted by % over tuples of Python scalars; CSV lines end in \r\n.
"""
from __future__ import annotations

from dataclasses import astuple
from pathlib import Path
from typing import Iterable

import numpy as np

from .driver import TraceRow
from .fem import NodalField, check_same_mesh
from .mesh import TriMesh
from .shape import InterfaceGeometry


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
    for name in fields:
        if name.split() != [name]:  # empty, or holds whitespace
            raise ValueError(f"VTK field name {name!r} is empty or holds whitespace")
    check_same_mesh(mesh, *fields.values())
    nv, nt = mesh.n_vertices, mesh.n_triangles
    # One % over a tuple of Python scalars formats a whole block in C; "%.7g"
    # gives the same text as f"{x:.7g}".
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
    columns = np.column_stack([geometry.points[:, ::-1], geometry.normals,
                               geometry.curvature, values])
    Path(path).write_text(
        "y,x,nx,ny,kappa,value\r\n"
        + ("%.7g,%.7g,%.7g,%.7g,%.7g,%.7g\r\n" * geometry.n_nodes)
        % tuple(columns.ravel().tolist()), newline="")


def write_trace_csv(path, rows: Iterable[TraceRow]) -> None:
    """Write iteration trace rows, one line per iteration; the columns are
    TraceRow's fields in order."""
    lines = ["level,iter,dist,J,grad_norm,cg_iters,alpha\r\n"]
    lines += ["%d,%d,%.7g,%.7g,%.7g,%d,%.7g\r\n" % astuple(row) for row in rows]
    Path(path).write_text("".join(lines), newline="")
