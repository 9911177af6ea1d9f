import logging
from math import factorial

import numpy as np
import pytest
from scipy.sparse import csr_matrix, diags

from crossfield import (CR_GRADIENTS, Discretization, FieldSolution,
                        InvalidMeshError, NewtonOptions, SingularFactorError,
                        SurfaceMesh, TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS,
                        build_edge_frames,
                        constraint_dofs, cr_shapes, gl_energy, gl_residual,
                        newton_solve,
                        extract_singularities, triangle_frames)
from crossfield.solver import _factor_free

import meshes


def aligned_square_case(n=8):
    mesh = meshes.surface(meshes.square_grid_tri, n)
    frames = build_edge_frames(mesh)
    return mesh, frames


def transported_constant(mesh, frames, order, theta_global=0.0):
    phi = np.arctan2(frames.e_hat[:, 1], frames.e_hat[:, 0])
    return np.stack([np.cos(order * (theta_global - phi)),
                     np.sin(order * (theta_global - phi))], axis=1)


# -- shape functions and quadrature -----------------------------------------

def test_cr_shapes_edge_midpoints_and_opposite_vertices():
    mids = [(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]
    opposite = [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]
    for i, (xi, eta) in enumerate(mids):
        assert cr_shapes(xi, eta)[i] == pytest.approx(1.0, abs=1e-15)
    for i, (xi, eta) in enumerate(opposite):
        assert cr_shapes(xi, eta)[i] == pytest.approx(-1.0, abs=1e-15)


def test_cr_shapes_partition_of_unity():
    rng = np.random.default_rng(0)
    xi = rng.uniform(0, 1, 50)
    eta = rng.uniform(0, 1, 50) * (1 - xi)
    values = cr_shapes(xi, eta)
    assert np.abs(values.sum(axis=-1) - 1.0).max() < 1e-14


def test_cr_gradients_are_the_documented_constants():
    assert np.array_equal(CR_GRADIENTS, [[0, -2], [2, 2], [-2, 0]])
    h = 1e-7
    for m in range(3):
        gx = (cr_shapes(0.3 + h, 0.2)[m] - cr_shapes(0.3 - h, 0.2)[m]) / (2 * h)
        ge = (cr_shapes(0.3, 0.2 + h)[m] - cr_shapes(0.3, 0.2 - h)[m]) / (2 * h)
        assert gx == pytest.approx(CR_GRADIENTS[m, 0], abs=1e-7)
        assert ge == pytest.approx(CR_GRADIENTS[m, 1], abs=1e-7)


def test_quadrature_exact_to_degree_four():
    # reference-triangle monomial integrals: a! b! / (a + b + 2)!
    for a in range(5):
        for b in range(5 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            approx = 0.5 * (TRI_QUAD_WEIGHTS
                            * TRI_QUAD_POINTS[:, 0]**a
                            * TRI_QUAD_POINTS[:, 1]**b).sum()
            assert approx == pytest.approx(exact, abs=1e-15), (a, b)


# -- element systems ---------------------------------------------------------

def test_element_stiffness_entry_on_reference_triangle():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    disc = Discretization(mesh, build_edge_frames(mesh), 4)
    assert disc.stiffness[0, 0] == pytest.approx(2.0, abs=1e-13)
    _, rhs = disc.newton_system(np.zeros(disc.n_dofs), 0.5)
    assert np.abs(rhs).max() == 0.0


def test_element_zero_field_reduces_to_stiffness():
    """About the zero field the Hessian is ``K - M / eps^2``: no f1/f2
    coupling, and the element mass matrix is exactly diagonal."""
    mesh, frames = aligned_square_case(2)
    disc = Discretization(mesh, frames, 4)
    eps = 0.3
    matrix, rhs = disc.newton_system(np.zeros(disc.n_dofs), eps)
    expected = disc.stiffness - diags(disc.lumped_mass()) / eps**2
    assert np.abs((matrix - expected).toarray()).max() < 1e-12 / eps**2
    assert np.abs(rhs).max() == 0.0


def test_newton_matrix_symmetry():
    verts, tris = meshes.random_planar_delaunay(30, seed=6)
    mesh = SurfaceMesh(verts, tris)
    frames = build_edge_frames(mesh)
    disc = Discretization(mesh, frames, 4)
    rng = np.random.default_rng(8)
    x = rng.normal(size=disc.n_dofs)
    matrix, _ = disc.newton_system(x, 0.3)
    gap = matrix - matrix.T
    scale = np.abs(matrix.data).max()
    assert (np.abs(gap.data).max() if gap.nnz else 0.0) < 1e-12 * scale


def test_newton_rhs_is_full_newton_step():
    verts, tris = meshes.random_planar_delaunay(20, seed=9)
    mesh = SurfaceMesh(verts, tris)
    frames = build_edge_frames(mesh)
    disc = Discretization(mesh, frames, 4)
    rng = np.random.default_rng(10)
    x = rng.normal(size=disc.n_dofs)
    matrix, rhs = disc.newton_system(x, 0.5)
    assert np.abs(matrix @ x - disc.residual(x, 0.5) - rhs).max() < 1e-12


# -- energies and gradients ---------------------------------------------------

def test_energy_of_constant_unit_field_is_zero():
    mesh, frames = aligned_square_case(6)
    values = transported_constant(mesh, frames, 4)
    field = FieldSolution(order=4, values=values, epsilon=0.2)
    energy = gl_energy(mesh, frames, field)
    assert energy.smoothing == pytest.approx(0.0, abs=1e-13)
    assert energy.penalty == pytest.approx(0.0, abs=1e-13)
    assert energy.total == pytest.approx(0.0, abs=1e-13)


def test_energy_of_zero_field_is_area_over_4_eps2():
    mesh, frames = aligned_square_case(6)
    eps = 0.3
    field = FieldSolution(order=4, values=np.zeros((mesh.n_edges, 2)), epsilon=eps)
    energy = gl_energy(mesh, frames, field)
    assert energy.smoothing == 0.0
    assert energy.penalty == pytest.approx(1.0 / (4 * eps**2), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_gradient_matches_finite_differences(seed):
    verts, tris = meshes.random_planar_delaunay(30, seed=100 + seed)
    mesh = SurfaceMesh(verts, tris)
    frames = build_edge_frames(mesh)
    disc = Discretization(mesh, frames, 4)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=disc.n_dofs) * 0.8
    eps = 0.4
    grad = disc.residual(x, eps)
    h = 1e-6
    for dof in rng.integers(0, disc.n_dofs, size=8):
        xp = x.copy()
        xp[dof] += h
        xm = x.copy()
        xm[dof] -= h
        fd = (disc.energy(xp, eps).total - disc.energy(xm, eps).total) / (2 * h)
        assert abs(fd - grad[dof]) <= 1e-5 * max(1.0, abs(fd))


def test_energy_perturbation_matches_directional_derivative():
    mesh, frames = aligned_square_case(5)
    disc = Discretization(mesh, frames, 4)
    x0 = disc.vector_from_values(transported_constant(mesh, frames, 4))
    rng = np.random.default_rng(3)
    direction = rng.normal(size=disc.n_dofs)
    direction /= np.linalg.norm(direction)
    eps = 0.25
    h = 1e-6
    fd = (disc.energy(x0 + h * direction, eps).total
          - disc.energy(x0 - h * direction, eps).total) / (2 * h)
    assert fd == pytest.approx(float(disc.residual(x0, eps) @ direction), abs=1e-6)


# -- smoothing-only start -----------------------------------------------------
# A huge coherence length switches the penalty off, so the solve returns the
# smoothing-only solution under the boundary or pin constraints.

SMOOTHING_ONLY = NewtonOptions(epsilon=1e9, warmup_rounds=0)


def test_laplacian_square_is_exact_constant():
    mesh, frames = aligned_square_case(8)
    field, _ = newton_solve(mesh, frames, 4, SMOOTHING_ONLY)
    exact = transported_constant(mesh, frames, 4)
    assert np.abs(field.values - exact).max() < 1e-10


def test_laplacian_disk_norm_sags_inside():
    mesh = meshes.surface(meshes.disk_hex, 10)
    frames = build_edge_frames(mesh)
    field, _ = newton_solve(mesh, frames, 4, SMOOTHING_ONLY)
    norms = field.norms()
    assert norms[mesh.boundary_edge].min() > 0.9
    assert norms.min() < 0.5


def test_laplacian_closed_sphere_with_pin_is_finite():
    mesh = meshes.surface(meshes.golden_spiral_sphere, 200)
    frames = build_edge_frames(mesh)
    field, _ = newton_solve(mesh, frames, 4, SMOOTHING_ONLY)
    assert np.isfinite(field.values).all()


def test_no_constraints_raises():
    mesh = meshes.surface(meshes.octahedron)
    frames = build_edge_frames(mesh)
    options = NewtonOptions(epsilon=0.5)
    mask, values, pinned = constraint_dofs(mesh, options)
    assert pinned is not None  # closed surface pins one edge automatically
    with pytest.raises(InvalidMeshError, match="component"):
        disconnected = meshes.surface(meshes.octahedron)
        verts = np.vstack([disconnected.vertices,
                           disconnected.vertices + [10, 0, 0]])
        tris = np.vstack([disconnected.triangles,
                          disconnected.triangles + disconnected.n_vertices])
        both = SurfaceMesh(verts, tris)
        newton_solve(both, build_edge_frames(both), 4, options)


def test_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(tol=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(max_iter=0)
    with pytest.raises(ValueError):
        NewtonOptions(epsilon=-0.1)
    with pytest.raises(ValueError):
        NewtonOptions(warmup_rounds=-1)


# -- the nonlinear solve ------------------------------------------------------

def test_square_converges_immediately(square_cross):
    log = square_cross.log
    assert log.converged
    assert log.iterations <= 2
    assert log.residuals[-1] <= 1e-12
    exact = transported_constant(square_cross.mesh, square_cross.edge_frames, 4)
    assert np.abs(square_cross.field.values - exact).max() < 1e-9
    sings = extract_singularities(square_cross.mesh, square_cross.tri_frames,
                                  square_cross.field)
    assert sings == []


def test_huge_epsilon_recovers_smoothing_solution():
    mesh = meshes.surface(meshes.disk_hex, 8)
    frames = build_edge_frames(mesh)
    field, log = newton_solve(mesh, frames, 4, SMOOTHING_ONLY)
    assert log.converged
    disc = Discretization(mesh, frames, 4)
    mask, _, _ = constraint_dofs(mesh, SMOOTHING_ONLY)
    x = disc.vector_from_values(field.values)
    assert np.abs((disc.stiffness @ x)[~mask]).max() < 1e-9


def test_convergence_log_shape(square_cross):
    log = square_cross.log
    assert log.iterations == len(log.residuals)
    assert log.converged
    assert log.residuals[-1] <= 1e-12


def test_non_convergence_reported(caplog):
    mesh = meshes.surface(meshes.golden_spiral_sphere, 300)
    frames = build_edge_frames(mesh)
    options = NewtonOptions(epsilon=0.25, max_iter=1, warmup_rounds=0)
    with caplog.at_level(logging.WARNING, logger="crossfield.solver"):
        field, log = newton_solve(mesh, frames, 4, options)
    assert not log.converged
    assert log.iterations == 1
    assert any("no convergence" in rec.message for rec in caplog.records)


def test_triangle_reordering_leaves_solution(disk_cross):
    mesh = disk_cross.mesh
    rng = np.random.default_rng(12)
    shuffled = SurfaceMesh(mesh.vertices, mesh.triangles[rng.permutation(mesh.n_triangles)])
    frames = build_edge_frames(shuffled)
    field, log = newton_solve(shuffled, frames, 4, disk_cross.options)
    assert log.converged
    # identical vertex set, so the derived edge table and ids coincide
    assert np.array_equal(shuffled.edges, mesh.edges)
    assert np.abs(field.values - disk_cross.field.values).max() < 1e-9


def test_vertex_relabel_leaves_directions(square_cross):
    mesh = square_cross.mesh
    rng = np.random.default_rng(13)
    perm = rng.permutation(mesh.n_vertices)
    inverse = np.argsort(perm)
    relabeled = SurfaceMesh(mesh.vertices[inverse], perm[mesh.triangles])
    frames = build_edge_frames(relabeled)
    field, log = newton_solve(relabeled, frames, 4, square_cross.options)
    assert log.converged

    def edge_key(mesh_, e):
        a, b = mesh_.edges[e]
        pa, pb = mesh_.vertices[a], mesh_.vertices[b]
        return tuple(np.round(np.minimum(pa, pb), 9)) + tuple(np.round(np.maximum(pa, pb), 9))

    original = {edge_key(mesh, e): square_cross.field.values[e]
                for e in range(mesh.n_edges)}
    for e in range(relabeled.n_edges):
        match = original[edge_key(relabeled, e)]
        # even symmetry order: flipping an edge moves the frame by a half
        # turn, which the representation pair cannot see
        assert np.abs(field.values[e] - match).max() < 1e-9


def test_residual_vector_is_energy_gradient_of_converged(disk_cross):
    r = gl_residual(disk_cross.mesh, disk_cross.edge_frames, disk_cross.field)
    mask, _, _ = constraint_dofs(disk_cross.mesh, disk_cross.options)
    assert np.linalg.norm(r[~mask]) <= 1e-11


def test_converged_norm_band(sphere_cross):
    """Away from the extracted cores the field norm stays near one."""
    mesh = sphere_cross.mesh
    sings = extract_singularities(mesh, sphere_cross.tri_frames,
                                  sphere_cross.field)
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                       + mesh.vertices[mesh.edges[:, 1]])
    eps = sphere_cross.field.epsilon
    far = np.ones(mesh.n_edges, dtype=bool)
    for s in sings:
        far &= np.linalg.norm(midpoints - s.position, axis=1) > 3 * eps
    assert far.sum() > mesh.n_edges // 2
    norms = sphere_cross.field.norms()[far]
    assert norms.min() >= 0.2
    assert norms.max() <= 1.2


# -- the step factorisation ---------------------------------------------------

def test_factor_takes_diagonal_pivots_on_indefinite_newton_matrix():
    mesh = meshes.surface(meshes.golden_spiral_sphere, 300)
    frames = build_edge_frames(mesh)
    disc = Discretization(mesh, frames, 4)
    options = NewtonOptions(epsilon=0.25)
    mask, values, _ = constraint_dofs(mesh, options)
    x = np.random.default_rng(3).uniform(-0.3, 0.3, size=disc.n_dofs)
    x[mask] = values[mask]
    matrix, rhs = disc.newton_system(x, 0.25)
    lu, bound = _factor_free(matrix, mask, values)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert (lu.U.diagonal() < 0).sum() > 0   # an indefinite Hessian
    free = ~mask
    b = rhs[free] - bound
    y = lu.solve(b)
    reduced = matrix[free][:, free]
    assert np.linalg.norm(reduced @ y - b) <= 1e-12 * np.linalg.norm(b)


def test_exactly_singular_system_raises_typed_error():
    matrix = csr_matrix(np.array([[1.0, 1.0, 0.0],
                                  [1.0, 1.0, 0.5],
                                  [0.0, 0.5, 2.0]]))
    mask = np.array([False, False, True])
    with pytest.raises(SingularFactorError, match="singular"):
        _factor_free(matrix, mask, np.zeros(3))


def test_asterisk_sphere_ends_at_a_minimum(sphere_mesh):
    """From pin 1, undamped Newton converges to a saddle (energy 57.75872,
    one negative Hessian pivot); the capped step reaches the minimum near
    57.1421."""
    frames = build_edge_frames(sphere_mesh)
    options = NewtonOptions(epsilon=0.1, tol=1e-12, rng_seed=1)
    field, log = newton_solve(sphere_mesh, frames, 6, options)
    assert log.converged
    disc = Discretization(sphere_mesh, frames, 6)
    x = disc.vector_from_values(field.values)
    mask, values, _ = constraint_dofs(sphere_mesh, options)
    lu, _ = _factor_free(disc.newton_system(x, 0.1)[0], mask, values)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert (lu.U.diagonal() < 0).sum() == 0
    assert disc.energy(x, 0.1).total < 57.2
