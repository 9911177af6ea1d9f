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
for every critical point.  On a closed surface their total is the symmetry
order N times the Euler characteristic χ for any field, converged or not: each
midpoint hop enters one triangle loop and one vertex loop with opposite
signs, and the order-scaled angle defects sum to N·χ (discrete
Gauss–Bonnet).  The one exception is a hop of exactly ±π, which wraps to
+π in both loops.  The total is therefore no sign of convergence.  Each
function builds its transport phases as ``triangle_frames(mesh, field.order)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .frames import triangle_frames
from .mesh import _components, topology_report

__all__ = [
    "Singularity",
    "PoincareHopfReport",
    "edge_angles",
    "triangle_windings",
    "vertex_windings",
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
    ``(-pi/order, pi/order]``; edges whose norm is below ``NORM_FLOOR``, the
    floor below which extraction reads no angle either, are marked
    undefined (their angle entry is NaN).
    """
    f1 = field.values[:, 0]
    f2 = field.values[:, 1]
    defined = field.norms() >= NORM_FLOOR
    theta = np.full(len(f1), np.nan)
    theta[defined] = np.arctan2(f2[defined], f1[defined]) / field.order
    return theta, defined


def _wrap(angle):
    """Wrap into the principal branch (-pi, pi]."""
    out = np.remainder(angle + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def _common_frame_angles(mesh, field):
    """Angle of each edge's representation vector in its triangles' frames."""
    values = field.values[mesh.facet_edges]
    g1, g2 = triangle_frames(mesh, field.order).to_shared(
        values[..., 0], values[..., 1])
    return np.arctan2(g2, g1)


def triangle_windings(mesh, field):
    """Integer winding of the representation vector around every triangle.

    The loop passes through the triangle's three edge midpoints; the three
    wrapped increments sum to an exact multiple of ``2*pi``.  Returns
    ``(winding, flagged)``; a triangle is flagged when one of its edges has
    near-zero norm, in which case the winding is still computed from the
    angle data but is not individually meaningful.
    """
    return _triangle_windings(mesh, _common_frame_angles(mesh, field), field)


def _triangle_windings(mesh, phi, field):
    """``triangle_windings`` from the angles ``phi`` of
    ``_common_frame_angles``."""
    steps = _wrap(np.roll(phi, -1, axis=1) - phi)
    turns = steps.sum(axis=1) / (2.0 * np.pi)
    winding = np.rint(turns).astype(np.int64)
    if np.max(np.abs(turns - winding), initial=0.0) > 1e-9:
        raise AssertionError("triangle winding is not an integer")
    norms = field.norms()
    flagged = (norms[mesh.facet_edges] < NORM_FLOOR).any(axis=1)
    return winding, flagged


def _vertex_turns(mesh, phi, order):
    """Turn count of each vertex's midpoint loop before rounding, from the
    angles ``phi`` of ``_common_frame_angles``: the wrapped angle
    increments around its fan, over ``2*pi``, plus the order-scaled angle
    defect at interior vertices.  A boundary vertex's open fan turns about
    0 on a field aligned with the boundary."""
    total = order * np.where(mesh.boundary_vertex, 0.0, mesh.angle_defect)
    for i in range(3):
        # corner at local vertex i+1, between local edges i+1 (in) and i
        # (out); the hop runs with the fan orientation around the vertex
        step = _wrap(phi[:, i] - phi[:, (i + 1) % 3])
        np.add.at(total, mesh.triangles[:, (i + 1) % 3], step)
    return total / (2.0 * np.pi)


def vertex_windings(mesh, field):
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
    turns = _vertex_turns(mesh, _common_frame_angles(mesh, field), field.order)
    winding = np.rint(turns).astype(np.int64)
    residual = np.abs(turns - winding)
    winding[mesh.boundary_vertex] = 0
    interior = ~mesh.boundary_vertex
    return winding, float(residual[interior].max(initial=0.0))


def extract_singularities(mesh, field):
    """All nonzero windings of the field, as indexed critical points, and
    the triangle windings of ``triangle_windings``, from one angle pass.

    Triangle-seated charges are reported at triangle centroids and
    vertex-seated charges at the vertex position with its lowest-numbered
    triangle as the representative.  An interior edge of near-zero norm has
    no angle, yet the loops of its two triangles and of its two end vertices
    each read one, so those loops, and all loops linked to them through
    other such edges, form one cluster reporting their summed winding: a
    critical point sitting on such an edge has no single-cell location.
    The vertex loops of a cluster are summed before rounding, and a
    boundary vertex's open fan counts only in a cluster.  A cluster lists
    its triangles, sits at the area-weighted mean of their centroids and is
    flagged.  Returns ``(singularities, winding)``, the singularities sorted
    by ``(index, triangle id)``.
    """
    phi = _common_frame_angles(mesh, field)
    w_tri, touches_zero = _triangle_windings(mesh, phi, field)
    turns = _vertex_turns(mesh, phi, field.order)
    norms = field.norms()

    near_zero = (norms < NORM_FLOOR) & ~mesh.boundary_edge
    facets = mesh.edge_facets[near_zero]
    ends = mesh.edges[near_zero]
    counted = ~mesh.boundary_vertex
    counted[ends] = True
    # one graph node per triangle, then one per vertex (at n_triangles + v)
    ends = ends + mesh.n_triangles
    count, labels = _components(
        np.concatenate([facets, ends, np.stack([facets[:, 0], ends[:, 0]], 1)]),
        mesh.n_triangles + mesh.n_vertices)
    charge = np.zeros(count)
    np.add.at(charge, labels,
              np.concatenate([w_tri, np.where(counted, turns, 0.0)]))
    charge = np.rint(charge).astype(np.int64)
    by_label = np.argsort(labels, kind="stable")
    size = np.bincount(labels)
    start = np.cumsum(size) - size

    out = []
    for c in np.flatnonzero(charge):
        members = by_label[start[c]:start[c] + size[c]]
        cluster = members[members < mesh.n_triangles].tolist()
        vertex = None
        if cluster:
            t, near = cluster[0], mesh.facet_edges[cluster]
            flagged = bool(touches_zero[cluster].any())
            centroids = mesh.vertices[mesh.triangles[cluster]].mean(axis=1)
            weights = mesh.triangle_areas[cluster]
            position = ((centroids * weights[:, None]).sum(axis=0)
                        / weights.sum()) if flagged else centroids[0]
        else:  # the loop of one interior vertex
            vertex = int(members[0]) - mesh.n_triangles
            t = int(np.argmax((mesh.triangles == vertex).any(axis=1)))
            near = np.flatnonzero((mesh.edges == vertex).any(axis=1))
            flagged = bool((norms[near] < NORM_FLOOR).any())
            position = mesh.vertices[vertex]
            cluster = [t]
        out.append(Singularity(
            triangle=t,
            position=position,
            index=Fraction(int(charge[c]), field.order),
            local_min_norm=float(norms[near].min()),
            vertex=vertex,
            cluster=tuple(cluster),
            flagged=flagged,
        ))

    out.sort(key=lambda s: (s.index, s.triangle))
    return out, w_tri


def _boundary_corner_sum(mesh, order):
    """Rounded corner turns of the boundary polygon, in units of 1/order.

    Each boundary vertex with interior angle ``beta`` contributes the
    nearest multiple of ``1/order`` to ``(pi - beta) / (2*pi)``; straight
    boundary vertices contribute zero.
    """
    interior_angle = 2.0 * np.pi - mesh.angle_defect[mesh.boundary_vertex]
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
