"""Fixed reference work that tracks the speed of a shared host.

The benchmark runs on a few cores of a shared machine whose speed drifts by
tens of percent over minutes as other tenants load the caches and memory.
The drift slows every kernel of a run alike, so the benchmark times this
fixed piece of work next to each solve and reports solve times in units of
it (``run.py`` scales them back to seconds at ``REFERENCE_S``).

The work uses only NumPy, SciPy and the standard library, never the
``crossfield`` package, so a change to the program cannot change it.  Its mix
follows the solve's: sparse assembly, a sparse LU factorisation and solve of
a 2x2-block system on a sphere mesh (like the solver's), vectorised gathers
and a text write and parse (like mesh and VTK I/O).
"""

from __future__ import annotations

import io
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import meshgen

#: Seconds the reference work took on the machine where the benchmark was
#: written (2-core x86-64, Python 3.11, NumPy and SciPy with OpenBLAS), as a
#: median over a quiet stretch.  Only the scale of the reported metrics
#: depends on it; their run-to-run spread does not.
REFERENCE_S = 0.09


class Reference:
    """Inputs of the reference work, built once."""

    def __init__(self, n_points=1482):
        verts, tris = meshgen.golden_spiral_sphere(n_points)
        sides = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                        tris[:, [2, 0]]]), axis=1)
        self.edges, tri_edges = np.unique(sides, axis=0, return_inverse=True)
        self.tri_edges = tri_edges.reshape(3, -1).T
        self.verts = verts
        self.tris = tris
        self.text = meshgen.off_text(verts, tris)

    def work(self):
        """One round of the reference work; returns a checksum."""
        n = 2 * len(self.edges)
        # per-triangle 6x6 blocks coupling the triangle's three edges
        dofs = np.concatenate([2 * self.tri_edges, 2 * self.tri_edges + 1],
                              axis=1)
        p = self.verts[self.tris]
        area = np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                              axis=1)
        block = np.cos(np.add.outer(np.arange(6), np.arange(6)))
        vals = area[:, None, None] * (block + 6.0 * np.eye(6))
        rows = np.repeat(dofs, 6, axis=1).ravel()
        cols = np.tile(dofs, (1, 6)).ravel()
        a = sp.csr_matrix((vals.ravel(), (rows, cols)), shape=(n, n))
        lu = splu(a[2:, 2:].tocsc())
        x = lu.solve(np.ones(n - 2))
        acc = np.zeros(len(self.verts))
        np.add.at(acc, self.tris.ravel(), np.repeat(area, 3))
        # text parse and write, as in mesh and VTK I/O
        parsed = np.loadtxt(io.StringIO(self.text), skiprows=2,
                            max_rows=len(self.verts))
        text = meshgen.off_text(parsed, self.tris)
        return float(x.sum() + acc.sum()) + len(text)

    def seconds(self):
        """Wall seconds of one round."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0
