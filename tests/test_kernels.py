"""The component-form geometry kernels against the NumPy forms they replace.

``SurfaceMesh``, ``build_edge_frames``, ``triangle_frames`` and
``Discretization`` compute dot products, cross products and norms of
3-vectors one component array at a time (``mesh._dot``, ``_cross`` and
``_norm``).  The references below are the stacked-array NumPy code those
kernels replaced (``np.cross``, ``np.linalg.norm``, axis sums, ``einsum``).
Sphere solves are chaotic, so a last-bit change in any of these arrays moves
their Newton paths; every array must keep its bits, signs of zero included.
The real stiffness is the full rotation of its element blocks, with a zero
off-diagonal block.  The assembly that left that block's products out is
kept as its reference: on a closed surface the two keep the same bits,
signs of zero included, and with a boundary the same values.
"""

import numpy as np
from hypothesis import Phase, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.spatial import ConvexHull

from crossfield import (CR_GRADIENTS, Discretization, NewtonOptions,
                        SurfaceMesh, build_edge_frames, constraint_dofs)
from crossfield.solver import _FreeSystem

import meshes


def reference_triangle_geometry(vertices, triangles):
    """Normals, areas and angle defects as ``SurfaceMesh`` built them from
    the stacked corner array."""
    p = vertices[triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    two_area = np.linalg.norm(cross, axis=1)
    sides = np.roll(p, -1, axis=1) - p
    lengths = np.linalg.norm(sides, axis=2)
    cosine = -(sides * np.roll(sides, 1, axis=1)).sum(axis=2) / (
        lengths * np.roll(lengths, 1, axis=1))
    corners = np.arccos(np.clip(cosine, -1.0, 1.0))
    defect = 2.0 * np.pi - np.bincount(
        triangles.T.ravel(), corners.T.ravel(), minlength=len(vertices))
    return cross / two_area[:, None], 0.5 * two_area, defect


def reference_edge_frames(mesh, normals):
    """``(e_hat, t_hat, n_hat)`` from the stacked (n_edges, 3) arrays."""
    n_sum = normals[mesh.edge_facets[:, 0]].copy()
    interior = mesh.edge_facets[:, 1] >= 0
    n_sum[interior] += normals[mesh.edge_facets[interior, 1]]
    n_hat = n_sum / np.linalg.norm(n_sum, axis=1)[:, None]
    e = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    e_hat = e / np.linalg.norm(e, axis=1)[:, None]
    n_hat = n_hat - (n_hat * e_hat).sum(axis=1)[:, None] * e_hat
    n_hat = n_hat / np.linalg.norm(n_hat, axis=1)[:, None]
    return e_hat, np.cross(n_hat, e_hat), n_hat


def reference_triangle_frames(mesh, normals, e_hat, order):
    """``(cos, sin)`` from the stacked (m, 3, 3) edge directions."""
    e = e_hat[mesh.facet_edges]
    proj = e - (e * normals[:, None, :]).sum(axis=2)[:, :, None] * normals[:, None, :]
    u = proj / np.linalg.norm(proj, axis=2)[:, :, None]
    ref = u[:, 0, :]
    sin_a = (np.cross(u, ref[:, None, :]) * normals[:, None, :]).sum(axis=2)
    cos_a = (u * ref[:, None, :]).sum(axis=2)
    alpha = np.arctan2(sin_a, cos_a)
    alpha[:, 0] = 0.0
    return np.cos(order * alpha), np.sin(order * alpha)


def reference_stiffness_blocks(mesh, normals, areas):
    """The CR stiffness of each triangle's 2-d chart, through ``einsum``."""
    p = mesh.vertices[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    u = e1 / np.linalg.norm(e1, axis=1)[:, None]
    v = np.cross(normals, u)
    q1x = np.linalg.norm(e1, axis=1)
    q2x = (e2 * u).sum(axis=1)
    q2y = (e2 * v).sum(axis=1)
    det = q1x * q2y
    inv_t = np.zeros((len(p), 2, 2))
    inv_t[:, 0, 0] = q2y / det
    inv_t[:, 1, 0] = -q2x / det
    inv_t[:, 1, 1] = q1x / det
    gradients = np.einsum("tab,mb->tma", inv_t, CR_GRADIENTS)
    return areas[:, None, None] * np.einsum("tma,tna->tmn", gradients, gradients)


def rotated_without_zero_block(blocks, cos, sin):
    """``TriangleFrames.blocks_to_edges(blocks, 0.0, blocks)`` with the
    products of its zero off-diagonal block left out: ``[[Re h, u], [Im h,
    Re h]]``, the real stiffness's element matrices before it took the full
    rotation."""
    ci, si = cos[:, :, None], sin[:, :, None]
    cj, sj = cos[:, None, :], sin[:, None, :]
    k = np.empty((len(cos), 6, 6))
    k[:, :3, :3] = ci * blocks * cj + si * blocks * sj
    k[:, :3, 3:] = ci * blocks * sj - si * blocks * cj
    k[:, 3:, :3] = si * blocks * cj - ci * blocks * sj
    k[:, 3:, 3:] = si * blocks * sj + ci * blocks * cj
    return k


def assembled(disc, k):
    """The (m, 6, 6) element matrices ``k`` assembled by COO to CSR."""
    rows = np.repeat(disc.tri_dofs, 6, axis=1).ravel()
    cols = np.tile(disc.tri_dofs, (1, 6)).ravel()
    return coo_matrix((k.ravel(), (rows, cols)),
                      shape=(disc.n_dofs, disc.n_dofs)).tocsr()


def anisotropic_hull(n_points, seed):
    """Convex hull of a Gaussian cloud stretched along random axes,
    triangles oriented outward; unused points are pruned by the mesh."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n_points, 3)) * 10.0 ** rng.uniform(-2, 1, 3)
    tris = ConvexHull(pts).simplices.copy()
    p = pts[tris]
    normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    flip = (normal * (p.mean(axis=1) - pts.mean(axis=0))).sum(axis=1) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return pts, tris


def rigid_rotation(seed):
    """A random rotation matrix (orthogonal, determinant +1)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


#: Mesh families by name: vertices and triangles from a size ``k`` in 2..6
#: and a seed.
FAMILIES = {
    "hull": lambda k, seed: anisotropic_hull(10 * k, seed),
    "torus": lambda k, seed: meshes.torus_tri(3 * k, 2 * k),
    "sphere": lambda k, seed: meshes.golden_spiral_sphere(20 * k),
    "delaunay": lambda k, seed: meshes.random_planar_delaunay(8 * k, seed),
    "lshape": lambda k, seed: meshes.lshape_tri(k),
    "disk": lambda k, seed: meshes.disk_hex(k),
    "saddle": lambda k, seed: meshes.saddle_tri(k),
}


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@settings(derandomize=True, max_examples=300, deadline=None,
          phases=[Phase.generate])
@given(name=st.sampled_from(sorted(FAMILIES)), k=st.integers(2, 6),
       seed=st.integers(0, 2**16), rotate=st.booleans(),
       order=st.sampled_from([1, 2, 4, 6]))
def test_component_kernels_keep_every_bit(name, k, seed, rotate, order):
    verts, tris = FAMILIES[name](k, seed)
    if rotate:  # without it, the planar meshes keep their exact zeros
        verts = verts @ rigid_rotation(seed).T
    mesh = SurfaceMesh(verts, tris)
    normals, areas, defect = reference_triangle_geometry(mesh.vertices,
                                                         mesh.triangles)
    assert same_bits(mesh.triangle_normals, normals)
    assert same_bits(mesh.triangle_areas, areas)
    assert same_bits(mesh.angle_defect, defect)

    frames = build_edge_frames(mesh)
    e_hat, t_hat, n_hat = reference_edge_frames(mesh, normals)
    for got, want in zip((frames.e_hat, frames.t_hat, frames.n_hat),
                         (e_hat, t_hat, n_hat)):
        assert same_bits(got, want)

    disc = Discretization(mesh, order)
    tf = disc.tri_frames
    cos, sin = reference_triangle_frames(mesh, normals, e_hat, order)
    for got, want in zip((tf.cos, tf.sin), (cos, sin)):
        assert same_bits(got, want)
    blocks = reference_stiffness_blocks(mesh, normals, areas)
    assert same_bits(disc.stiffness_blocks, blocks)

    stiffness = disc.stiffness
    full = assembled(disc, tf.blocks_to_edges(blocks, 0.0, blocks))
    for attr in ("data", "indices", "indptr"):
        assert same_bits(getattr(stiffness, attr), getattr(full, attr))
    want = assembled(disc, rotated_without_zero_block(blocks, cos, sin))
    assert np.array_equal(stiffness.data, want.data)
    if mesh.is_closed():
        assert same_bits(stiffness.data, want.data)

    mask, values, _ = constraint_dofs(mesh, NewtonOptions(rng_seed=seed))
    free = ~mask
    system = _FreeSystem(disc._pattern, mask, values)
    for positions, sliced in ((system.free_free, full[free][:, free].tocsc()),
                              (system.free_fixed, full[free][:, mask])):
        # the entries of the stiffness at the system's positions, as its
        # factor gathers them
        got = type(positions)((stiffness.data[positions.data],
                               positions.indices, positions.indptr),
                              shape=positions.shape)
        for attr in ("data", "indices", "indptr"):
            assert same_bits(getattr(got, attr), getattr(sliced, attr))
