"""Per-edge tangent frames and per-triangle transport phases.

Every mesh edge carries an orthonormal frame: the unit edge direction
(ordered by ascending vertex index), the renormalised average of the
adjacent triangle normals, and their cross product.  Direction data stored
per edge is interpolated inside a triangle after rotating all three edge
values into one shared in-plane reference (the first edge's direction).
For a field invariant under rotations by ``2*pi/order``, that change of
frame only involves the offset angles times ``order``: a plane rotation
per triangle corner, stored as its cosine and sine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import InvalidMeshError

__all__ = [
    "EdgeFrames",
    "TriangleFrames",
    "build_edge_frames",
    "triangle_frames",
]


@dataclass(frozen=True)
class EdgeFrames:
    """Orthonormal frame per edge: ``e_hat`` along the edge, ``n_hat`` the
    averaged adjacent-triangle normal, ``t_hat = n_hat x e_hat``."""

    e_hat: np.ndarray
    t_hat: np.ndarray
    n_hat: np.ndarray


@dataclass(frozen=True)
class TriangleFrames:
    """In-plane frame offsets and transport phases per triangle.

    ``alpha[t, i]`` is the signed angle, about the triangle normal, that
    carries edge ``i``'s frame direction onto the triangle's reference
    direction (edge 0's), with ``alpha[t, 0] == 0``.  ``cos`` and ``sin``
    hold ``cos(order * alpha)`` and ``sin(order * alpha)``, the phases that
    move a per-edge value ``(f1, f2)`` into the shared frame; only the
    methods below apply them.
    """

    order: int
    alpha: np.ndarray
    cos: np.ndarray
    sin: np.ndarray

    def to_shared(self, f1, f2):
        """Per-corner edge-frame components, (T, 3) each, in the shared frame."""
        c, s = self.cos, self.sin
        return c * f1 + s * f2, c * f2 - s * f1

    def to_edges(self, g1, g2):
        """Transpose of ``to_shared``: shared-frame components to edge frames."""
        c, s = self.cos, self.sin
        return c * g1 - s * g2, s * g1 + c * g2

    def blocks_to_edges(self, p, q, v):
        """Edge-frame element matrices ``R^T [[p, q], [q, v]] R``, (T, 6, 6),
        for shared-frame 3x3 blocks ``p`` (f1/f1), ``q`` (f1/f2 and f2/f1)
        and ``v`` (f2/f2), with ``R`` the 6x6 form of ``to_shared`` over the
        layout ``(f1_0, f1_1, f1_2, f2_0, f2_1, f2_2)``."""
        # keep the term order (p, q, q, v): regrouping the sums changes the
        # matrices in the last bits, which moves chaotic Newton solves
        ci, si = self.cos[:, :, None], self.sin[:, :, None]
        cj, sj = self.cos[:, None, :], self.sin[:, None, :]

        def products(block):
            """``ci*block*cj``, ``ci*block*sj``, ``si*block*cj``, ``si*block*sj``,
            each evaluated left to right, once."""
            left_c, left_s = ci * block, si * block
            return left_c * cj, left_c * sj, left_s * cj, left_s * sj

        pcc, pcs, psc, pss = products(p)
        qcc, qcs, qsc, qss = products(q)
        vcc, vcs, vsc, vss = products(v)
        k = np.empty((len(self.cos), 6, 6))
        k[:, :3, :3] = pcc - qcs - qsc + vss
        k[:, :3, 3:] = pcs + qcc - qss - vsc
        k[:, 3:, :3] = psc - qss + qcc - vcs
        k[:, 3:, 3:] = pss + qsc + qcs + vcc
        return k


def _normalize(v, what, tol=1e-14):
    nrm = np.linalg.norm(v, axis=-1)
    if np.any(nrm < tol):
        bad = np.flatnonzero(nrm < tol)[:5]
        raise InvalidMeshError(f"cannot normalise {what} at {bad.tolist()}")
    return v / nrm[..., None]


def build_edge_frames(mesh):
    """Build the orthonormal tangent frame of every edge.

    The edge normal is the average of the two adjacent triangle normals
    (the single adjacent normal on boundary edges), re-orthogonalised
    against the edge direction and renormalised.

    Raises
    ------
    InvalidMeshError
        If two adjacent triangles have (nearly) opposite normals, so their
        average vanishes (fold-over); the message names the edge.
    """
    normals = mesh.triangle_normals()
    n_sum = normals[mesh.edge_facets[:, 0]].copy()
    interior = mesh.edge_facets[:, 1] >= 0
    n_sum[interior] += normals[mesh.edge_facets[interior, 1]]

    nrm = np.linalg.norm(n_sum, axis=1)
    bad = nrm < 1e-8
    if bad.any():
        edges = mesh.edges[np.flatnonzero(bad)[:5]]
        raise InvalidMeshError(
            f"opposite adjacent triangle normals (fold-over) at edges {edges.tolist()}"
        )
    n_hat = n_sum / nrm[:, None]
    e_hat = _normalize(mesh.edge_vectors(), "edge directions")
    n_hat = n_hat - (n_hat * e_hat).sum(axis=1)[:, None] * e_hat
    n_hat = _normalize(n_hat, "edge normals")
    t_hat = np.cross(n_hat, e_hat)
    for arr in (e_hat, t_hat, n_hat):
        arr.setflags(write=False)
    return EdgeFrames(e_hat=e_hat, t_hat=t_hat, n_hat=n_hat)


def triangle_frames(mesh, edge_frames, order=4):
    """Compute the per-triangle frame offsets and transport phases.

    Each edge frame direction is projected into the triangle plane before
    measuring its in-plane angle to the first edge's direction.

    Raises
    ------
    ValueError
        If ``order`` is below 1.
    InvalidMeshError
        If a projected edge direction nearly vanishes, which cannot happen
        for valid adjacent-triangle normals and indicates broken geometry.
    """
    if order < 1:
        raise ValueError(f"symmetry order must be at least 1, got {order}")
    n_tri = mesh.triangle_normals()
    e = edge_frames.e_hat[mesh.facet_edges]            # (m, 3, 3)
    proj = e - (e * n_tri[:, None, :]).sum(axis=2)[:, :, None] * n_tri[:, None, :]
    nrm = np.linalg.norm(proj, axis=2)
    if np.any(nrm < 1e-8):
        bad = np.argwhere(nrm < 1e-8)[:5]
        raise InvalidMeshError(
            f"edge frame projects to zero in triangle plane at (triangle, edge) {bad.tolist()}"
        )
    u = proj / nrm[:, :, None]
    ref = u[:, 0, :]
    cross = np.cross(u, ref[:, None, :])
    sin_a = (cross * n_tri[:, None, :]).sum(axis=2)
    cos_a = (u * ref[:, None, :]).sum(axis=2)
    alpha = np.arctan2(sin_a, cos_a)
    alpha[:, 0] = 0.0
    cos, sin = np.cos(order * alpha), np.sin(order * alpha)
    for arr in (alpha, cos, sin):
        arr.setflags(write=False)
    return TriangleFrames(order=order, alpha=alpha, cos=cos, sin=sin)
