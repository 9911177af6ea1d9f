import numpy as np
import pytest

from crossfield import (FieldSolution, edge_angles, triangle_windings,
                        write_field_vtk)

import meshes


def reference_vtk(mesh, field, windings):
    """The legacy file written one value at a time with ``f"{x:.17g}"``."""
    def fmt(x):
        return f"{float(x):.17g}"

    theta, defined = edge_angles(field)
    theta = np.where(defined, theta, 0.0)
    frames = mesh.edge_frames
    branch = (np.cos(theta)[:, None] * frames.e_hat
              + np.sin(theta)[:, None] * frames.t_hat)
    branch[~defined] = 0.0
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                       + mesh.vertices[mesh.edges[:, 1]])
    n_pts, n_cells = len(midpoints), mesh.n_triangles
    lines = ["# vtk DataFile Version 2.0", "direction field", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n_pts} double"]
    lines += [" ".join(fmt(c) for c in p) for p in midpoints]
    lines.append(f"CELLS {n_cells} {4 * n_cells}")
    lines += ["3 " + " ".join(str(int(e)) for e in t) for t in mesh.facet_edges]
    lines.append(f"CELL_TYPES {n_cells}")
    lines += ["5"] * n_cells
    lines += [f"POINT_DATA {n_pts}", "VECTORS direction_branch double"]
    lines += [" ".join(fmt(c) for c in b) for b in branch]
    lines += ["SCALARS norm double 1", "LOOKUP_TABLE default"]
    lines += [fmt(v) for v in field.norms()]
    lines += ["SCALARS theta double 1", "LOOKUP_TABLE default"]
    lines += [fmt(v) for v in theta]
    lines += [f"CELL_DATA {n_cells}", "SCALARS winding int 1",
              "LOOKUP_TABLE default"]
    lines += [str(int(w)) for w in windings]
    return ("\n".join(lines) + "\n").encode()


def test_block_formatting_matches_per_value_writer(tmp_path):
    mesh = meshes.surface(meshes.disk_hex, 4)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(mesh.n_edges, 2)) * 10.0 ** rng.integers(
        -20, 20, size=(mesh.n_edges, 1))
    values[0] = 0.0    # an undefined direction
    values[1] = -0.0
    field = FieldSolution(order=4, values=values, epsilon=0.3)
    windings, _ = triangle_windings(mesh, field)
    assert np.any(windings != 0)

    path = tmp_path / "field.vtk"
    write_field_vtk(path, mesh, field, windings)
    assert path.read_bytes() == reference_vtk(mesh, field, windings)


def point_data(path, header, n_pts):
    """The ``n_pts`` rows of the point-data block that ``header`` opens."""
    lines = path.read_text().splitlines()
    start = lines.index(header) + 1
    if lines[start] == "LOOKUP_TABLE default":
        start += 1
    return np.loadtxt(lines[start:start + n_pts], ndmin=2)


def test_edge_below_the_norm_floor_has_no_direction(tmp_path):
    """An edge whose norm is below ``NORM_FLOOR``, where extraction reads
    no angle, has no direction in ``edge_angles`` or in the file either."""
    mesh = meshes.surface(meshes.disk_hex, 3)
    values = np.tile([np.cos(1.0), np.sin(1.0)], (mesh.n_edges, 1))
    values[2] *= 5e-10
    field = FieldSolution(order=4, values=values, epsilon=0.3)
    theta, defined = edge_angles(field)
    assert not defined[2] and np.isnan(theta[2])
    assert defined[np.arange(mesh.n_edges) != 2].all()

    path = tmp_path / "field.vtk"
    write_field_vtk(path, mesh, field, np.zeros(mesh.n_triangles, dtype=int))
    branch = point_data(path, "VECTORS direction_branch double", mesh.n_edges)
    theta = point_data(path, "SCALARS theta double 1", mesh.n_edges)
    assert (branch[2] == 0.0).all() and theta[2, 0] == 0.0
    assert (np.linalg.norm(branch, axis=1)[np.arange(mesh.n_edges) != 2]
            == pytest.approx(1.0))
