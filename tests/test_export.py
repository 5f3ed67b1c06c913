"""Artifact writers: VTK layout, interface CSV, trace CSV."""
import csv
import dataclasses

import numpy as np
import pytest

from oracles import solve_state
from shapenewton import driver, export, fem, shape
from shapenewton.driver import TraceRow
from shapenewton.mesh import build_template


def parse_vtk(text):
    """Minimal legacy-VTK reader for the blocks the writer emits."""
    lines = text.strip().split("\n")
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    idx = 4
    tag, count, kind = lines[idx].split()
    assert tag == "POINTS" and kind == "double"
    n = int(count)
    points = np.array([[float(v) for v in lines[idx + 1 + i].split()]
                       for i in range(n)])
    idx += 1 + n
    tag, count, total = lines[idx].split()
    assert tag == "CELLS"
    m = int(count)
    assert int(total) == 4 * m
    cells = []
    for i in range(m):
        parts = lines[idx + 1 + i].split()
        assert parts[0] == "3"
        cells.append([int(p) for p in parts[1:]])
    idx += 1 + m
    assert lines[idx] == f"CELL_TYPES {m}"
    assert all(lines[idx + 1 + i] == "5" for i in range(m))
    idx += 1 + m
    assert lines[idx] == f"CELL_DATA {m}"
    assert lines[idx + 1] == "SCALARS subdomain int 1"
    assert lines[idx + 2] == "LOOKUP_TABLE default"
    subdomain = np.array([int(lines[idx + 3 + i]) for i in range(m)])
    idx += 3 + m
    fields = {}
    if idx < len(lines):
        assert lines[idx] == f"POINT_DATA {n}"
        idx += 1
        while idx < len(lines):
            _, name, kind, comps = lines[idx].split()
            assert kind == "double" and comps == "1"
            assert lines[idx + 1] == "LOOKUP_TABLE default"
            fields[name] = np.array([float(lines[idx + 2 + i])
                                     for i in range(n)])
            idx += 2 + n
    return points, np.array(cells), subdomain, fields


def test_vtk_mesh_blocks_round_trip(tmp_path):
    m = build_template(4)
    path = tmp_path / "mesh.vtk"
    export.write_vtk(path, m)
    points, cells, subdomain, fields = parse_vtk(path.read_text())
    assert points.shape == (m.n_vertices, 3)
    np.testing.assert_allclose(points[:, :2], m.vertices, rtol=1e-6)
    assert np.all(points[:, 2] == 0.0)
    np.testing.assert_array_equal(cells, m.triangles)
    np.testing.assert_array_equal(subdomain, m.subdomain)
    assert fields == {}


def test_vtk_point_data_fields(tmp_path):
    m = build_template(4)
    y = solve_state(m, 1000.0, 1.0)
    p = fem.NodalField(mesh=m, values=np.arange(m.n_vertices, dtype=np.float64))
    path = tmp_path / "fields.vtk"
    export.write_vtk(path, m, {"state": y, "adjoint": p})
    _, _, _, fields = parse_vtk(path.read_text())
    assert set(fields) == {"state", "adjoint"}
    np.testing.assert_allclose(fields["state"], y.values, rtol=1e-6, atol=1e-12)
    np.testing.assert_allclose(fields["adjoint"], p.values, rtol=1e-6)


# Signed zeros, where %g switches to an exponent (1e-5 against 1e-4, and
# from 9999999.5, which rounds up to 1e+07), the smallest subnormal and a
# huge value.
EDGES = [0.0, -0.0, 1e-5, 1e-4, -1e-5, -1e-4, 9999999.5, 1e7, -9999999.5,
         5e-324, -5e-324, 1e300, -1e300]
NONFINITE = [float("nan"), float("inf"), float("-inf")]


def fmt(x):
    """One value at 7 significant digits, as the reference writers format."""
    return f"{x:.7g}"


def write_vtk_per_element(path, m, fields, title="shapenewton mesh"):
    """The writer formatting one numpy scalar at a time: the reference the
    vectorized writer must match byte for byte."""
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {m.n_vertices} double"]
    for x, y in m.vertices:
        lines.append(f"{fmt(x)} {fmt(y)} 0")
    nt = m.n_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in m.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    lines.append(f"CELL_DATA {nt}")
    lines.append("SCALARS subdomain int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(int(s)) for s in m.subdomain)
    if fields:
        lines.append(f"POINT_DATA {m.n_vertices}")
        for name, field in fields.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(fmt(v) for v in field.values)
    path.write_text("\n".join(lines) + "\n")


def test_vtk_matches_the_per_element_writer_byte_for_byte(tmp_path):
    m = driver.initial_mesh(driver.mesh_at_level(driver.ExperimentConfig(), 1))
    y = solve_state(m, 1000.0, 1.0)
    signed = fem.NodalField(mesh=m, values=np.sin(40.0 * m.vertices[:, 0]) * 1e-3
                            - m.vertices[:, 1] * 1e5)
    edge_values = np.resize(EDGES, m.n_vertices)
    fields = {"state": y, "signed": signed,
              "edges": fem.NodalField(mesh=m, values=edge_values)}
    export.write_vtk(tmp_path / "fast.vtk", m, fields)
    write_vtk_per_element(tmp_path / "oracle.vtk", m, fields)
    assert (tmp_path / "fast.vtk").read_bytes() == (tmp_path / "oracle.vtk").read_bytes()


@pytest.mark.parametrize("title, name", [
    ("two\nlines", "y"),
    ("carriage\rreturn", "y"),
    ("x" * 257, "y"),
    ("iteration 3", ""),
    ("iteration 3", "two words"),
    ("iteration 3", "tab\there"),
])
def test_vtk_refuses_what_vtk_cannot_read_before_writing(tmp_path, title, name):
    m = build_template(4)
    field = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    path = tmp_path / "bad.vtk"
    with pytest.raises(ValueError, match="VTK title|VTK field name"):
        export.write_vtk(path, m, {name: field}, title=title)
    assert not path.exists()


def test_vtk_takes_the_longest_title_and_the_cli_names(tmp_path):
    m = build_template(4)
    field = fem.NodalField(mesh=m, values=np.zeros(m.n_vertices))
    export.write_vtk(tmp_path / "ok.vtk", m, {"y": field, "p": field}, title="x" * 256)
    assert (tmp_path / "ok.vtk").read_text().split("\n")[1] == "x" * 256
    _, _, _, fields = parse_vtk((tmp_path / "ok.vtk").read_text())
    assert set(fields) == {"y", "p"}


def test_vtk_rejects_foreign_field(tmp_path):
    m = build_template(4)
    other = build_template(4)
    field = fem.NodalField(mesh=other, values=np.zeros(other.n_vertices))
    with pytest.raises(ValueError, match="different mesh"):
        export.write_vtk(tmp_path / "bad.vtk", m, {"f": field})


def test_interface_csv_columns(tmp_path):
    pts = shape.bspline_initial_interface(9)
    geometry = shape.polyline_geometry(pts)
    values = np.linspace(0.0, 1.0, 9)
    path = tmp_path / "interface.csv"
    export.write_interface_csv(path, geometry, values)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["y", "x", "nx", "ny", "kappa", "value"]
    assert len(rows) == 10
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    np.testing.assert_allclose(data[:, 0], pts[:, 1], rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(data[:, 1], pts[:, 0], rtol=1e-6)
    np.testing.assert_allclose(data[:, 2:4], geometry.normals, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(data[:, 4], geometry.curvature, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(data[:, 5], values, rtol=1e-6, atol=1e-7)


def test_interface_csv_rejects_bad_length(tmp_path):
    geometry = shape.polyline_geometry(shape.bspline_initial_interface(5))
    with pytest.raises(ValueError, match="value count"):
        export.write_interface_csv(tmp_path / "bad.csv", geometry, np.zeros(4))


def test_trace_csv_layout(tmp_path):
    rows = [
        TraceRow(1, 0, 0.0705219, 14.12171, 104.9876, 45, 1.5),
        TraceRow(1, 1, 0.00360604, 10.02131, 16.82345, 70, 1.0),
    ]
    path = tmp_path / "trace.csv"
    export.write_trace_csv(path, rows)
    with open(path, newline="") as handle:
        parsed = list(csv.reader(handle))
    assert parsed[0] == ["level", "iter", "dist", "J", "grad_norm",
                         "cg_iters", "alpha"]
    assert parsed[1] == ["1", "0", "0.0705219", "14.12171", "104.9876",
                         "45", "1.5"]
    assert parsed[2][2] == "0.00360604"


def write_interface_csv_by_row(path, geometry, values):
    """The csv-module writer formatting one value at a time: the reference
    write_interface_csv must match byte for byte."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "x", "nx", "ny", "kappa", "value"])
        for i in range(geometry.n_nodes):
            writer.writerow([
                fmt(geometry.points[i, 1]),
                fmt(geometry.points[i, 0]),
                fmt(geometry.normals[i, 0]),
                fmt(geometry.normals[i, 1]),
                fmt(geometry.curvature[i]),
                fmt(values[i]),
            ])


def write_trace_csv_by_row(path, rows):
    """The csv-module trace writer: the reference write_trace_csv must match
    byte for byte."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["level", "iter", "dist", "J", "grad_norm",
                         "cg_iters", "alpha"])
        for row in rows:
            writer.writerow([
                row.level,
                row.iteration,
                fmt(row.dist),
                fmt(row.objective),
                fmt(row.grad_norm),
                row.cg_iterations,
                fmt(row.step_length),
            ])


def test_interface_csv_matches_the_csv_module_writer_byte_for_byte(tmp_path):
    edges = np.array(EDGES + NONFINITE)
    n = 3 * edges.size
    geometry = shape.polyline_geometry(shape.bspline_initial_interface(n))
    # every column meets every edge value
    column = [np.roll(np.resize(edges, n), k) for k in range(6)]
    edged = dataclasses.replace(
        geometry, points=np.column_stack(column[:2]),
        normals=np.column_stack(column[2:4]), curvature=column[4])
    for g, values in [(geometry, np.linspace(-1.0, 1.0, n)), (edged, column[5])]:
        export.write_interface_csv(tmp_path / "fast.csv", g, values)
        write_interface_csv_by_row(tmp_path / "oracle.csv", g, values)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_trace_csv_matches_the_csv_module_writer_byte_for_byte(tmp_path):
    edges = np.array(EDGES + NONFINITE)
    # numpy and Python floats, as the driver's rows hold both
    rows = [TraceRow(3, k, edges[k], float(edges[k - 1]), float(edges[k - 2]),
                     123456789 * (k % 2), edges[k - 3].item())
            for k in range(edges.size)]
    for written in ([], rows):
        export.write_trace_csv(tmp_path / "fast.csv", written)
        write_trace_csv_by_row(tmp_path / "oracle.csv", written)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
