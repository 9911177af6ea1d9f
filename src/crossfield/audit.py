"""Irregular-vertex accounting and the discrete index-sum identity.

A vertex of a quadrangulation is regular with 4 adjacent quads in the
interior or 2 on the boundary; for triangulations the regular valences are
6 and 3.  Each irregular vertex carries a rational index of the valence
mismatch over the regular interior valence, and the indices of all
irregular vertices sum to the Euler characteristic of the surface.

The sum is an identity on every mesh that ``topology_report`` accepts, not
a test: with ``k`` vertices per facet, ``k*F = 2*E - E_b``, and a boundary
that closes at every vertex has ``E_b = V_b``; so the interior and boundary
mismatches, over ``2k/(k-2)`` (4 for quads, 6 for triangles), sum to
``V - E + F``.  The audit reports the indices; it certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mesh import QuadMesh, topology_report

__all__ = ["IrregularVertex", "IndexAudit", "audit"]


@dataclass(frozen=True)
class IrregularVertex:
    vertex: int
    valence: int
    boundary: bool
    index: Fraction


@dataclass(frozen=True)
class IndexAudit:
    """Per-vertex valence mismatches and their index sum versus ``chi``."""

    per_vertex: tuple[IrregularVertex, ...]
    index_sum: Fraction
    chi: int

    def to_dict(self):
        return {
            "chi": self.chi,
            "index_sum": {"num": self.index_sum.numerator,
                          "den": self.index_sum.denominator},
            "irregular": [
                {
                    "vertex": v.vertex,
                    "valence": v.valence,
                    "boundary": v.boundary,
                    "index": {"num": v.index.numerator, "den": v.index.denominator},
                }
                for v in self.per_vertex
            ],
        }


def audit(mesh):
    """Account for the irregular vertices of a quad or triangle mesh.

    The valence of a vertex is its number of adjacent facets.  Regular
    valences are 4 (interior) / 2 (boundary) for quadrangulations and
    6 / 3 for triangulations; a mismatch ``k`` contributes an index of
    ``k/4`` resp. ``k/6``.  Vertices with zero mismatch are omitted from
    the per-vertex table.
    """
    if isinstance(mesh, QuadMesh):
        v_interior, v_boundary, denom = 4, 2, 4
    else:
        v_interior, v_boundary, denom = 6, 3, 6

    valence = np.bincount(mesh.facets.ravel(), minlength=mesh.n_vertices)
    regular = np.where(mesh.boundary_vertex, v_boundary, v_interior)
    mismatch = regular - valence

    rows = []
    for v in np.flatnonzero(mismatch != 0):
        rows.append(IrregularVertex(
            vertex=int(v),
            valence=int(valence[v]),
            boundary=bool(mesh.boundary_vertex[v]),
            index=Fraction(int(mismatch[v]), denom),
        ))

    return IndexAudit(
        per_vertex=tuple(rows),
        index_sum=Fraction(int(mismatch.sum()), denom),
        chi=topology_report(mesh).chi,
    )
