"""Legacy ASCII VTK export of a per-edge direction field.

One point per edge midpoint carries the branch direction of the field in
ambient coordinates, the representation-vector norm, and the branch angle;
triangles connect their three edge midpoints and carry the integer winding
as cell data.
"""

from __future__ import annotations

import numpy as np

from .analysis import edge_angles

__all__ = ["write_field_vtk"]


def _fmt(x):
    return f"{float(x):.17g}"


def write_field_vtk(path, mesh, edge_frames, field, windings):
    """Write the field to ``path`` as a legacy ASCII unstructured grid."""
    theta, defined = edge_angles(field)
    theta = np.where(defined, theta, 0.0)
    norms = field.norms()
    branch = (np.cos(theta)[:, None] * edge_frames.e_hat
              + np.sin(theta)[:, None] * edge_frames.t_hat)
    branch[~defined] = 0.0

    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                       + mesh.vertices[mesh.edges[:, 1]])
    n_pts = len(midpoints)
    n_cells = mesh.n_triangles

    lines = [
        "# vtk DataFile Version 2.0",
        "direction field",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_pts} double",
    ]
    for p in midpoints:
        lines.append(" ".join(_fmt(c) for c in p))
    lines.append(f"CELLS {n_cells} {4 * n_cells}")
    for tri in mesh.facet_edges:
        lines.append("3 " + " ".join(str(int(e)) for e in tri))
    lines.append(f"CELL_TYPES {n_cells}")
    lines.extend(["5"] * n_cells)

    lines.append(f"POINT_DATA {n_pts}")
    lines.append("VECTORS direction_branch double")
    for b in branch:
        lines.append(" ".join(_fmt(c) for c in b))
    lines.append("SCALARS norm double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(_fmt(v) for v in norms)
    lines.append("SCALARS theta double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(_fmt(v) for v in theta)

    lines.append(f"CELL_DATA {n_cells}")
    lines.append("SCALARS winding int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(int(w)) for w in windings)

    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
