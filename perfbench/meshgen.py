"""Seeded mesh generators and file writers for the benchmark workloads.

The program under test only ever sees the files written here.  The seed
draws a uniformly random rigid rotation (orthogonal, determinant +1) that is
applied to the vertices, so every seed yields a congruent mesh with the same
connectivity and different floating-point coordinates.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull


def random_rotation(seed):
    """Uniformly random 3x3 rotation matrix drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def golden_spiral_sphere(n_points):
    """Unit-sphere triangulation: golden-spiral points and their convex hull,
    triangles oriented counterclockwise about the outward normal."""
    k = np.arange(n_points)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    z = 1.0 - (2.0 * k + 1.0) / n_points
    r = np.sqrt(1.0 - z**2)
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    tris = ConvexHull(pts).simplices.copy()
    p = pts[tris]
    normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    flip = (normal * p.mean(axis=1)).sum(axis=1) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return pts, tris


def lshape(cells_per_unit):
    """Structured triangulation of ``[0,2]^2`` minus the open quadrant
    ``(1,2)x(1,2)``, ``cells_per_unit`` squares per unit length, each square
    split along its ``(0,0)-(1,1)`` diagonal."""
    n = 2 * cells_per_unit
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = ~((i > cells_per_unit) & (j > cells_per_unit))
    vid = np.full((n + 1, n + 1), -1, dtype=np.int64)
    vid[keep] = np.arange(int(keep.sum()))
    h = 1.0 / cells_per_unit
    verts = np.column_stack([i[keep] * h, j[keep] * h, np.zeros(int(keep.sum()))])

    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    inside = ~((ci >= cells_per_unit) & (cj >= cells_per_unit))
    ci, cj = ci[inside], cj[inside]
    v00, v10 = vid[ci, cj], vid[ci + 1, cj]
    v11, v01 = vid[ci + 1, cj + 1], vid[ci, cj + 1]
    tris = np.concatenate([np.column_stack([v00, v10, v11]),
                           np.column_stack([v00, v11, v01])])
    return verts, tris


def rotated(verts, seed):
    """Vertices moved by the seed's random rotation."""
    return verts @ random_rotation(seed).T


def _format_vertices(verts):
    return "\n".join(f"{x!r} {y!r} {z!r}" for x, y, z in verts.tolist())


def off_text(verts, tris):
    """ASCII OFF with coordinates written at full precision."""
    faces = "\n".join(f"3 {a} {b} {c}" for a, b, c in tris.tolist())
    return (f"OFF\n{len(verts)} {len(tris)} 0\n"
            + _format_vertices(verts) + "\n" + faces + "\n")


def write_off(path, verts, tris):
    """Write ``off_text`` to ``path``."""
    with open(path, "w") as fh:
        fh.write(off_text(verts, tris))


def write_msh22(path, verts, tris):
    """ASCII Gmsh MSH 2.2 holding the triangles as type-2 elements."""
    nodes = "\n".join(f"{k} {line}" for k, line in enumerate(
        _format_vertices(verts).split("\n"), start=1))
    elems = "\n".join(f"{k} 2 2 0 1 {a + 1} {b + 1} {c + 1}" for k, (a, b, c)
                      in enumerate(tris.tolist(), start=1))
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{len(verts)}\n{nodes}\n$EndNodes\n")
        fh.write(f"$Elements\n{len(tris)}\n{elems}\n$EndElements\n")
