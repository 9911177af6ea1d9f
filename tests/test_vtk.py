import numpy as np

from crossfield import (FieldSolution, build_edge_frames, edge_angles,
                        triangle_frames, triangle_windings, write_field_vtk)

import meshes


def reference_vtk(mesh, edge_frames, field, windings):
    """The legacy file written one value at a time with ``f"{x:.17g}"``."""
    def fmt(x):
        return f"{float(x):.17g}"

    theta, defined = edge_angles(field)
    theta = np.where(defined, theta, 0.0)
    branch = (np.cos(theta)[:, None] * edge_frames.e_hat
              + np.sin(theta)[:, None] * edge_frames.t_hat)
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
    edge_frames = build_edge_frames(mesh)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(mesh.n_edges, 2)) * 10.0 ** rng.integers(
        -20, 20, size=(mesh.n_edges, 1))
    values[0] = 0.0    # an undefined direction
    values[1] = -0.0
    field = FieldSolution(order=4, values=values, epsilon=0.3)
    windings, _ = triangle_windings(
        mesh, triangle_frames(mesh, edge_frames, 4), field)
    assert np.any(windings != 0)

    path = tmp_path / "field.vtk"
    write_field_vtk(path, mesh, edge_frames, field, windings)
    assert path.read_bytes() == reference_vtk(mesh, edge_frames, field, windings)
