"""Direction angles, singularity extraction, and index-sum certification.

A critical point of the field is located by integer winding numbers of the
representation vector.  Because the degrees of freedom sit at edge
midpoints, the natural closed sampling loops tile the surface in two
families: the midpoint (medial) triangle of every element, and the polygon
of incident-edge midpoints around every interior vertex.  A triangle loop
lives inside one flat element, so its winding is a plain sum of wrapped
angle increments; a vertex loop crosses element charts, and the angle
defect of the vertex (times the symmetry order) compensates the curvature
those flat charts cannot see.  Summed together, the two families account
for every critical point, and their total equals the symmetry order times
the Euler characteristic on closed surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .mesh import _components, topology_report

__all__ = [
    "Singularity",
    "PoincareHopfReport",
    "edge_angles",
    "triangle_windings",
    "angle_defects",
    "vertex_windings",
    "winding_total",
    "extract_singularities",
    "poincare_hopf_check",
    "singularities_to_json",
]

#: Edge norms below this leave the direction angle undefined for winding
#: purposes; adjacent triangles are merged into one singularity cluster.
NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class Singularity:
    """A critical point of the field, located at mesh granularity.

    ``triangle`` names the triangle whose midpoint loop winds, or an
    adjacent triangle when the charge sits in a vertex loop (then
    ``vertex`` holds the vertex id and ``position`` its coordinates).
    ``cluster`` lists the triangles merged into this report when near-zero
    edge norms forced neighbours together, in which case ``flagged`` is
    set.  ``index`` is the winding over the symmetry order, never zero.
    """

    triangle: int
    position: np.ndarray
    index: Fraction
    local_min_norm: float
    vertex: Optional[int] = None
    cluster: tuple[int, ...] = ()
    flagged: bool = False


@dataclass(frozen=True)
class PoincareHopfReport:
    """Index bookkeeping versus the Euler characteristic.

    On closed surfaces ``passed`` requires the interior index sum to equal
    ``chi`` exactly; on bounded surfaces the rounded boundary corner turns
    participate in the sum.
    """

    interior_sum: Fraction
    corner_sum: Fraction
    chi: int
    discrepancy: Fraction
    passed: bool

    def to_dict(self):
        def frac(f):
            return {"num": f.numerator, "den": f.denominator}
        return {
            "interior_sum": frac(self.interior_sum),
            "corner_sum": frac(self.corner_sum),
            "chi": self.chi,
            "discrepancy": frac(self.discrepancy),
            "pass": self.passed,
        }


def edge_angles(field):
    """Recover the per-edge direction angle from the representation vector.

    Returns ``(theta, defined)`` where ``theta = atan2(f2, f1) / order`` in
    ``(-pi/order, pi/order]``; edges whose components are both below 1e-12
    are marked undefined (their angle entry is NaN).
    """
    f1 = field.values[:, 0]
    f2 = field.values[:, 1]
    defined = ~((np.abs(f1) < 1e-12) & (np.abs(f2) < 1e-12))
    theta = np.full(len(f1), np.nan)
    theta[defined] = np.arctan2(f2[defined], f1[defined]) / field.order
    return theta, defined


def _wrap(angle):
    """Wrap into the principal branch (-pi, pi]."""
    out = np.remainder(angle + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def _common_frame_angles(mesh, tri_frames, field):
    """Angle of each edge's representation vector in its triangles' frames."""
    values = field.values[mesh.facet_edges]
    g1, g2 = tri_frames.to_shared(values[..., 0], values[..., 1])
    return np.arctan2(g2, g1)


def triangle_windings(mesh, tri_frames, field):
    """Integer winding of the representation vector around every triangle.

    The loop passes through the triangle's three edge midpoints; the three
    wrapped increments sum to an exact multiple of ``2*pi``.  Returns
    ``(winding, flagged)``; a triangle is flagged when one of its edges has
    near-zero norm, in which case the winding is still computed from the
    angle data but is not individually meaningful.
    """
    phi = _common_frame_angles(mesh, tri_frames, field)
    steps = _wrap(np.roll(phi, -1, axis=1) - phi)
    turns = steps.sum(axis=1) / (2.0 * np.pi)
    winding = np.rint(turns).astype(np.int64)
    if np.max(np.abs(turns - winding), initial=0.0) > 1e-9:
        raise AssertionError("triangle winding is not an integer")
    norms = field.norms()
    flagged = (norms[mesh.facet_edges] < NORM_FLOOR).any(axis=1)
    return winding, flagged


def angle_defects(mesh):
    """Angle defect (2*pi minus the incident corner angles) per vertex,
    computed once with the mesh."""
    return mesh.angle_defect


def vertex_windings(mesh, tri_frames, field):
    """Integer winding around the midpoint polygon of each interior vertex.

    Each corner of the fan contributes the wrapped angle increment between
    the two incident edge midpoints, measured inside that corner's flat
    element; the vertex's angle defect times the symmetry order accounts
    for the curvature concentrated at the vertex.  Boundary vertices have
    open fans and report zero.  Returns ``(winding, max_residual)`` where
    the residual measures how far the raw turn counts sit from integers
    (a fraction of the order-scaled defects, far below 1/2 on any
    reasonable mesh).
    """
    phi = _common_frame_angles(mesh, tri_frames, field)
    total = field.order * angle_defects(mesh)
    for i in range(3):
        # corner at local vertex i+1, between local edges i+1 (in) and i
        # (out); the hop runs with the fan orientation around the vertex
        step = _wrap(phi[:, i] - phi[:, (i + 1) % 3])
        np.add.at(total, mesh.triangles[:, (i + 1) % 3], step)
    turns = total / (2.0 * np.pi)
    winding = np.rint(turns).astype(np.int64)
    residual = np.abs(turns - winding)
    winding[mesh.boundary_vertex] = 0
    interior = ~mesh.boundary_vertex
    return winding, float(residual[interior].max(initial=0.0))


def winding_total(mesh, tri_frames, field):
    """Sum of all triangle and interior-vertex windings.

    For a converged field on a closed surface this equals the symmetry
    order times the Euler characteristic, as an exact integer identity.
    """
    w_tri, _ = triangle_windings(mesh, tri_frames, field)
    w_vert, _ = vertex_windings(mesh, tri_frames, field)
    return int(w_tri.sum() + w_vert.sum())


def extract_singularities(mesh, tri_frames, field):
    """All nonzero windings of the field, as indexed critical points.

    Triangle-seated charges are reported at triangle centroids and
    vertex-seated charges at the vertex position with an adjacent triangle
    as the representative.  Triangles that share an edge of near-zero norm
    are merged into one cluster reporting the summed winding, since a
    critical point sitting on such an edge has no single-cell location;
    such a cluster sits at the area-weighted mean of its centroids and is
    flagged.  The result is sorted by ``(index, triangle id)``.
    """
    w_tri, touches_zero = triangle_windings(mesh, tri_frames, field)
    w_vert, _ = vertex_windings(mesh, tri_frames, field)
    norms = field.norms()
    centroids = mesh.triangle_centroids()
    areas = mesh.triangle_areas()

    near_zero = (norms < NORM_FLOOR) & ~mesh.boundary_edge
    count, labels = _components(mesh.edge_facets[near_zero], mesh.n_triangles)
    charge = np.zeros(count, dtype=np.int64)
    np.add.at(charge, labels, w_tri)
    by_label = np.argsort(labels, kind="stable")
    size = np.bincount(labels)
    start = np.cumsum(size) - size

    out = []
    for c in np.flatnonzero(charge):
        members = by_label[start[c]:start[c] + size[c]]
        t = int(members[0])
        flagged = bool(touches_zero[members].any())
        if flagged:
            weights = areas[members]
            position = ((centroids[members] * weights[:, None]).sum(axis=0)
                        / weights.sum())
        else:
            position = centroids[t]
        out.append(Singularity(
            triangle=t,
            position=position,
            index=Fraction(int(charge[c]), field.order),
            local_min_norm=float(norms[mesh.facet_edges[members]].min()),
            cluster=tuple(members.tolist()),
            flagged=flagged,
        ))

    first_tri = np.full(mesh.n_vertices, mesh.n_triangles)
    np.minimum.at(first_tri, mesh.triangles,
                  np.arange(mesh.n_triangles)[:, None])
    for v in np.flatnonzero(w_vert != 0):
        v = int(v)
        t = int(first_tri[v])
        incident = np.flatnonzero((mesh.edges == v).any(axis=1))
        out.append(Singularity(
            triangle=t,
            position=mesh.vertices[v],
            index=Fraction(int(w_vert[v]), field.order),
            local_min_norm=float(norms[incident].min()),
            vertex=v,
            cluster=(t,),
            flagged=bool((norms[incident] < NORM_FLOOR).any()),
        ))

    out.sort(key=lambda s: (s.index, s.triangle))
    return out


def _boundary_corner_sum(mesh, order):
    """Rounded corner turns of the boundary polygon, in units of 1/order.

    Each boundary vertex with interior angle ``beta`` contributes the
    nearest multiple of ``1/order`` to ``(pi - beta) / (2*pi)``; straight
    boundary vertices contribute zero.
    """
    interior_angle = 2.0 * np.pi - angle_defects(mesh)[mesh.boundary_vertex]
    turns = order * (np.pi - interior_angle) / (2.0 * np.pi)
    return Fraction(int(np.rint(turns).sum()), order)


def poincare_hopf_check(mesh, singularities, field):
    """Certify that the field's indices account for the surface topology.

    Closed surface: passes iff the interior index sum equals ``chi``.
    Bounded surface: the rounded boundary corner sum joins the interior
    sum.
    """
    interior = sum((s.index for s in singularities), Fraction(0))
    chi = topology_report(mesh).chi
    if mesh.is_closed():
        corner = Fraction(0)
    else:
        corner = _boundary_corner_sum(mesh, field.order)
    discrepancy = interior + corner - chi
    return PoincareHopfReport(
        interior_sum=interior,
        corner_sum=corner,
        chi=chi,
        discrepancy=discrepancy,
        passed=discrepancy == 0,
    )


def singularities_to_json(singularities):
    """JSON-ready list: triangle, position, exact index, core norm."""
    return [
        {
            "triangle": s.triangle,
            "position": [float(c) for c in s.position],
            "index": {"num": s.index.numerator, "den": s.index.denominator},
            "min_norm": s.local_min_norm,
        }
        for s in singularities
    ]
