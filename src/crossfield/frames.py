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

from .mesh import InvalidMeshError, _cross, _dot, _norm

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
    """Transport phases per triangle corner.

    With ``alpha[t, i]`` the signed angle, about the triangle normal, that
    carries edge ``i``'s frame direction onto the triangle's reference
    direction (edge 0's, so ``alpha[t, 0] == 0``), ``cos`` and ``sin`` hold
    ``cos(order * alpha)`` and ``sin(order * alpha)``, the phases that move
    a per-edge value ``(f1, f2)`` into the shared frame; only the methods
    below apply them.
    """

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

    def hermitian_blocks(self, s):
        """The complex blocks ``a + i*b``, (T, 3, 3), of ``blocks_to_edges(s,
        0.0, s) = [[a, -b], [b, a]]``, which act on ``z = f1 + i*f2`` as the
        rotation acts on ``(f1, f2)``, formed without the products of the
        zero block."""
        left_c, left_s = self.cos[:, :, None] * s, self.sin[:, :, None] * s
        cj, sj = self.cos[:, None, :], self.sin[:, None, :]
        h = np.empty(s.shape, dtype=complex)
        np.subtract(left_s * cj, left_c * sj, out=h.imag)
        # a product read once is formed in place: fresh pages cost more
        # than the arithmetic
        np.add(np.multiply(left_c, cj, out=left_c),
               np.multiply(left_s, sj, out=left_s), out=h.real)
        return h


def _normalize(v, what):
    """The component triple ``v`` over its norm; a norm below 1e-14 times
    the largest one cannot be normalised."""
    nrm = _norm(v)
    small = nrm < 1e-14 * nrm.max()
    if small.any():
        bad = np.flatnonzero(small)[:5]
        raise InvalidMeshError(f"cannot normalise {what} at {bad.tolist()}")
    return v / nrm


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
    normals = mesh.triangle_normals.T
    first, second = mesh.edge_facets.T  # second is -1 on boundary edges
    n_sum = np.take(normals, first, axis=1)
    np.add(n_sum, np.take(normals, second, axis=1), out=n_sum, where=second >= 0)

    nrm = _norm(n_sum)
    bad = nrm < 1e-8
    if bad.any():
        edges = mesh.edges[np.flatnonzero(bad)[:5]]
        raise InvalidMeshError(
            f"opposite adjacent triangle normals (fold-over) at edges {edges.tolist()}"
        )
    n_hat = n_sum / nrm
    xyz = mesh.vertices.T
    e_hat = _normalize(np.take(xyz, mesh.edges[:, 1], axis=1)
                       - np.take(xyz, mesh.edges[:, 0], axis=1), "edge directions")
    n_hat = _normalize(n_hat - _dot(n_hat, e_hat) * e_hat, "edge normals")
    # (n_edges, 3) views of the component rows
    frames = [a.T for a in (e_hat, _cross(n_hat, e_hat), n_hat)]
    for arr in frames:
        arr.setflags(write=False)
    return EdgeFrames(*frames)


def triangle_frames(mesh, order=4):
    """Compute the per-triangle transport phases of ``mesh.edge_frames``.

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
    # component, local edge, triangle: every product runs along triangles
    n_tri = mesh.triangle_normals.T[:, None]           # (3, 1, m)
    e = np.take(mesh.edge_frames.e_hat.T, mesh.facet_edges.T, axis=1)  # (3, 3, m)
    proj = e - _dot(e, n_tri) * n_tri
    nrm = _norm(proj)
    if np.any(nrm < 1e-8):
        bad = np.argwhere(nrm.T < 1e-8)[:5]
        raise InvalidMeshError(
            f"edge frame projects to zero in triangle plane at (triangle, edge) {bad.tolist()}"
        )
    u = proj / nrm
    ref = u[:, :1]
    sin_a = _dot(_cross(u, ref), n_tri)
    cos_a = _dot(u, ref)
    alpha = np.ascontiguousarray(np.arctan2(sin_a, cos_a).T)
    alpha[:, 0] = 0.0
    cos, sin = np.cos(order * alpha), np.sin(order * alpha)
    for arr in (cos, sin):
        arr.setflags(write=False)
    return TriangleFrames(cos=cos, sin=sin)
