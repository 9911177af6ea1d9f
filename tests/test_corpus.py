"""A corpus of small solves beyond the fixtures, drawn by ``hypothesis``.

Every solve holds its constrained edges at (1, 0): the boundary edges of a
polygon, or one seed-drawn edge of a closed surface.  An exit 0 must carry a
certified field whose windings, on a closed surface, sum to N times its
Euler characteristic.  The one other outcome is exit 5 at N = 6 on a
polygon with right angles: each such corner is a winding tie that rounding
breaks, not always to a consistent index sum (see
``test_relabelling_keeps_singularities_at_tied_corners``).  Some do round
consistently: the random Delaunay square of 50 points drawn from seed 126
certifies at N = 6.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.spatial import ConvexHull

from crossfield import constraint_dofs, newton_solve, topology_report
from crossfield import cli

import meshes


def unit_vector_hull(n_points, seed):
    """Convex hull of random unit vectors, triangles oriented outward."""
    pts = np.random.default_rng(seed).standard_normal((n_points, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    tris = ConvexHull(pts).simplices.copy()
    p = pts[tris]
    normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    flip = (normal * p.mean(axis=1)).sum(axis=1) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return pts, tris


#: Mesh families by name: vertices and triangles from a size ``k`` in 2..8
#: and a seed.
CLOSED = {
    "octahedron": lambda k, seed: meshes.octahedron(),
    "torus": lambda k, seed: meshes.torus_tri(4 * k, 2 * k),
    "sphere": lambda k, seed: meshes.golden_spiral_sphere(20 * k),
    "hull": lambda k, seed: unit_vector_hull(20 * k, seed),
}
BOUNDED = {
    "disk": lambda k, seed: meshes.disk_hex(k),
    "square": lambda k, seed: meshes.square_grid_tri(2 * k),
    "lshape": lambda k, seed: meshes.lshape_tri(k),
    "delaunay": lambda k, seed: meshes.random_planar_delaunay(10 * k, seed),
}
RIGHT_ANGLED = {"square", "lshape", "delaunay"}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


@settings(derandomize=True, max_examples=120, deadline=None,
          phases=[Phase.generate])
@given(name=st.sampled_from(sorted(CLOSED) + sorted(BOUNDED)),
       k=st.integers(2, 8), seed=st.integers(0, 2**16),
       order=st.sampled_from([4, 6]))
def test_solve_corpus_certifies(corpus_dir, name, k, seed, order):
    verts, tris = {**CLOSED, **BOUNDED}[name](k, seed)
    path = corpus_dir / f"{name}.off"
    meshes.write_off(path, verts, tris)
    solved = []

    def recorded(mesh, order, options):
        field, log = newton_solve(mesh, order, options)
        solved.append((mesh, options, field))
        return field, log
    with mock.patch.object(cli, "newton_solve", recorded):
        code, report = cli.run_solve(str(path), symmetry=order, seed=seed)
    (mesh, options, field), = solved
    mask, values, pinned = constraint_dofs(mesh, options)
    assert (pinned is None) == (name in BOUNDED)
    held = np.concatenate([field.values[:, 0], field.values[:, 1]])[mask]
    assert held.tobytes() == values[mask].tobytes()
    assert report["convergence"]["converged"]
    if code == 5 and name in RIGHT_ANGLED and order == 6:
        return
    assert code == 0 and report["poincare_hopf"]["pass"]
    if name in CLOSED:
        total = meshes.winding_sum(mesh, field)
        assert total == order * topology_report(mesh).chi
