import numpy as np
import pytest

from crossfield import (InvalidMeshError, SurfaceMesh, TriangleFrames,
                        build_edge_frames, triangle_frames)

import meshes


def test_planar_mesh_normals_and_orthonormality():
    mesh = meshes.surface(meshes.square_grid_tri, 5)
    frames = build_edge_frames(mesh)
    assert np.allclose(frames.n_hat, [0.0, 0.0, 1.0], atol=1e-14)
    assert np.abs((frames.e_hat * frames.t_hat).sum(axis=1)).max() < 1e-12
    assert np.abs((frames.e_hat * frames.n_hat).sum(axis=1)).max() < 1e-12
    assert np.abs(np.linalg.norm(frames.t_hat, axis=1) - 1).max() < 1e-12


def test_boundary_edge_uses_single_normal():
    mesh = meshes.surface(meshes.disk_hex, 3)
    frames = build_edge_frames(mesh)
    normals = mesh.triangle_normals
    for e in np.flatnonzero(mesh.boundary_edge):
        t = mesh.edge_facets[e, 0]
        assert np.allclose(frames.n_hat[e], normals[t], atol=1e-12)


def test_octahedron_edge_normal_is_average():
    mesh = meshes.surface(meshes.octahedron)
    frames = build_edge_frames(mesh)
    normals = mesh.triangle_normals
    e = 0
    ta, tb = mesh.edge_facets[e]
    avg = normals[ta] + normals[tb]
    avg /= np.linalg.norm(avg)
    assert np.allclose(frames.n_hat[e], avg, atol=1e-12)


def test_orthonormality_on_curved_meshes():
    for mesh in (meshes.surface(meshes.golden_spiral_sphere, 300),
                 meshes.surface(meshes.torus_tri, 10, 8)):
        frames = build_edge_frames(mesh)
        dots = np.stack([
            (frames.e_hat * frames.t_hat).sum(axis=1),
            (frames.e_hat * frames.n_hat).sum(axis=1),
            (frames.t_hat * frames.n_hat).sum(axis=1),
        ])
        assert np.abs(dots).max() < 1e-12


def test_fold_over_rejected():
    # the second triangle lies flat on top of the first one's half plane,
    # so the two normals along the shared edge cancel exactly
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 0.1, 0], [0.5, 0.1, 0]],
                     dtype=float)
    verts[3, 1] = 0.2
    tris = np.array([[0, 1, 2], [1, 0, 3]])
    mesh = SurfaceMesh(verts, tris)
    with pytest.raises(InvalidMeshError, match="fold-over"):
        build_edge_frames(mesh)


def phases(alpha, order):
    """Triangle frames of one or more triangles with the given offsets."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    return TriangleFrames(np.cos(order * alpha), np.sin(order * alpha))


def test_rotation_matrix_quarter_turn_invisible():
    tf = phases([0.0, np.pi / 2, 0.0], order=4)
    assert np.abs(tf.cos - 1.0).max() < 1e-15
    assert np.abs(tf.sin).max() < 1e-15


def test_rotation_matrix_eighth_turn_block():
    tf = phases([0.0, np.pi / 8, 0.0], order=4)
    one, zero = np.array([[0.0, 1.0, 0.0]]), np.zeros((1, 3))
    g1, g2 = tf.to_shared(one, zero)
    assert (g1[0, 1], g2[0, 1]) == pytest.approx((0.0, -1.0), abs=1e-15)
    g1, g2 = tf.to_shared(zero, one)
    assert (g1[0, 1], g2[0, 1]) == pytest.approx((1.0, 0.0), abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 4, 6])
def test_rotation_matrix_orthogonal_and_periodic(order):
    rng = np.random.default_rng(11)
    alpha = rng.uniform(-np.pi, np.pi, size=(20, 3))
    alpha[:, 0] = 0.0
    tf = phases(alpha, order)
    a, b = rng.normal(size=(2, 20, 3))
    g1, g2 = tf.to_shared(a, b)
    assert np.abs(np.hypot(g1, g2) - np.hypot(a, b)).max() < 1e-12
    back = tf.to_edges(g1, g2)
    assert np.abs(back[0] - a).max() < 1e-12
    assert np.abs(back[1] - b).max() < 1e-12
    shifted = phases(alpha + 2 * np.pi / order, order)
    assert np.abs(tf.cos - shifted.cos).max() < 1e-12
    assert np.abs(tf.sin - shifted.sin).max() < 1e-12


def test_triangle_frames_reference_is_zero():
    mesh = meshes.surface(meshes.golden_spiral_sphere, 200)
    tf = triangle_frames(mesh, 4)
    assert np.all(tf.cos[:, 0] == 1.0)
    assert np.all(tf.sin[:, 0] == 0.0)
    a, b = np.random.default_rng(3).normal(size=(2,) + tf.cos.shape)
    back = tf.to_edges(*tf.to_shared(a, b))
    assert np.abs(back[0] - a).max() < 1e-12
    assert np.abs(back[1] - b).max() < 1e-12


def test_blocks_to_edges_agrees_with_to_shared():
    """The edge-frame element matrix is the shared-frame bilinear form
    pulled back through ``to_shared``, and stays symmetric."""
    rng = np.random.default_rng(21)
    tf = phases(rng.uniform(-np.pi, np.pi, size=(50, 3)), order=4)
    p, q, v = rng.normal(size=(3, 50, 3, 3))
    x, y = rng.normal(size=(2, 50, 6))
    x1, x2 = tf.to_shared(x[:, :3], x[:, 3:])
    y1, y2 = tf.to_shared(y[:, :3], y[:, 3:])

    def form(a, m, b):
        return np.einsum("tm,tmn,tn->t", a, m, b)

    shared = form(y1, p, x1) + form(y1, q, x2) + form(y2, q, x1) + form(y2, v, x2)
    edge = np.einsum("ti,tij,tj->t", y, tf.blocks_to_edges(p, q, v), x)
    assert np.abs(edge - shared).max() < 1e-12

    def sym(m):
        return m + m.transpose(0, 2, 1)

    k = tf.blocks_to_edges(sym(p), sym(q), sym(v))
    assert np.abs(k - k.transpose(0, 2, 1)).max() < 1e-12


@pytest.mark.parametrize("order", [1, 2, 4, 6])
def test_planar_transport_of_constant_direction(order):
    """A constant global direction expressed per edge frame must map to
    identical values in each element's shared frame."""
    verts, tris = meshes.random_planar_delaunay(40, seed=5)
    mesh = SurfaceMesh(verts, tris)
    tf = triangle_frames(mesh, order)

    theta_global = 0.8137
    e_hat = mesh.edge_frames.e_hat
    phi = np.arctan2(e_hat[:, 1], e_hat[:, 0])
    values = np.stack([np.cos(order * (theta_global - phi)),
                       np.sin(order * (theta_global - phi))], axis=1)
    corner = values[mesh.facet_edges]
    g1, g2 = tf.to_shared(corner[..., 0], corner[..., 1])
    for i in (1, 2):
        assert np.abs(g1[:, i] - g1[:, 0]).max() < 1e-12
        assert np.abs(g2[:, i] - g2[:, 0]).max() < 1e-12
    # and the shared value is the direction seen from the first edge's frame
    ref_edges = mesh.facet_edges[:, 0]
    expected = np.cos(order * (theta_global - phi[ref_edges]))
    assert np.abs(g1[:, 0] - expected).max() < 1e-12
