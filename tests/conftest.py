import time

import numpy as np
import pytest

from crossfield import NewtonOptions, newton_solve

import meshes


class SolvedCase:
    """A mesh with a converged field, shared across tests."""

    def __init__(self, mesh, order, options):
        self.mesh = mesh
        self.order = order
        self.options = options
        start = time.perf_counter()
        self.field, self.log = newton_solve(mesh, order, options)
        self.solve_seconds = time.perf_counter() - start


@pytest.fixture(scope="session")
def sphere_mesh():
    return meshes.surface(meshes.golden_spiral_sphere, 1482)


@pytest.fixture(scope="session")
def sphere_cross(sphere_mesh):
    return SolvedCase(sphere_mesh, 4, NewtonOptions(epsilon=0.1, tol=1e-12))


@pytest.fixture(scope="session")
def sphere_asterisk(sphere_mesh):
    return SolvedCase(sphere_mesh, 6, NewtonOptions(epsilon=0.1, tol=1e-12))


@pytest.fixture(scope="session")
def square_cross():
    mesh = meshes.surface(meshes.square_grid_tri, 24)
    return SolvedCase(mesh, 4, NewtonOptions(epsilon=0.2, tol=1e-12))


@pytest.fixture(scope="session")
def disk_cross():
    mesh = meshes.surface(meshes.disk_hex, 16)
    return SolvedCase(mesh, 4, NewtonOptions(epsilon=0.25, tol=1e-12))


@pytest.fixture(scope="session")
def lshape_cross():
    mesh = meshes.surface(meshes.lshape_tri, 12)
    return SolvedCase(mesh, 4, NewtonOptions(epsilon=0.2, tol=1e-12))


@pytest.fixture(scope="session")
def torus_cross():
    mesh = meshes.surface(meshes.torus_tri, 32, 16)
    return SolvedCase(mesh, 4, NewtonOptions(epsilon=0.3, tol=1e-12))
