import dataclasses
import importlib
import inspect
import pkgutil
from unittest import mock

import numpy as np
import pytest

import crossfield
from crossfield import cli
from crossfield import frames as frames_module
from crossfield.mesh import _FacetMesh

import meshes


def test_package_exports_are_the_submodule_exports():
    """The package re-exports every library submodule's ``__all__``; the
    command-line module is used as ``crossfield.cli`` and stays apart."""
    exported = set(crossfield.__all__) - {"__version__"}
    union = set()
    for info in pkgutil.iter_modules(crossfield.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"crossfield.{info.name}")
        union |= set(getattr(module, "__all__", ()))
    assert exported == union
    assert len(crossfield.__all__) == len(set(crossfield.__all__))


def test_every_exported_name_resolves():
    for name in crossfield.__all__:
        assert hasattr(crossfield, name), name


@pytest.mark.parametrize("module, name", [
    ("crossfield", "element_newton"),
    ("crossfield", "laplacian_init"),
    ("crossfield", "triangle_winding"),
    ("crossfield", "rotation_matrix"),
    ("crossfield.solver", "element_newton"),
    ("crossfield.solver", "laplacian_init"),
    ("crossfield.analysis", "triangle_winding"),
    ("crossfield.frames", "rotation_matrix"),
    ("crossfield", "angle_defects"),
    ("crossfield.analysis", "angle_defects"),
    ("crossfield", "winding_total"),
    ("crossfield.analysis", "winding_total"),
    ("crossfield", "regular_mesh_feasible"),
    ("crossfield.audit", "regular_mesh_feasible"),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_the_audit_reports_and_certifies_nothing():
    """The index sum equals chi on every valid mesh, so an audit holds the
    indices and no verdict; a quad mesh has ``facets`` and ``n_facets``
    like every mesh, and no names of its own for them."""
    fields = [field.name for field in dataclasses.fields(crossfield.IndexAudit)]
    assert fields == ["per_vertex", "index_sum", "chi"]
    for name in ("quads", "n_quads"):
        assert not hasattr(crossfield.QuadMesh, name)


def test_solve_settings_are_the_ones_callers_set():
    """Every constrained edge is (1, 0), the warm start runs at most
    ``WARMUP_ROUNDS`` sweeps, the extension names a mesh file's format and a
    field carries its own coherence length: no setting overrides these."""
    fields = [field.name for field in dataclasses.fields(crossfield.NewtonOptions)]
    assert fields == ["tol", "max_iter", "epsilon", "rng_seed"]
    assert list(inspect.signature(crossfield.load_mesh).parameters) == ["path"]
    for function in (crossfield.gl_energy, crossfield.gl_residual):
        assert list(inspect.signature(function).parameters) == [
            "mesh", "field"]


def test_the_mesh_owns_its_edge_frames(tmp_path, monkeypatch):
    """Solve, energy, transport and export take the mesh alone: the mesh
    builds its edge frames once, on first use, for every caller."""
    for function in (crossfield.Discretization, crossfield.newton_solve,
                     crossfield.gl_energy, crossfield.gl_residual,
                     crossfield.triangle_frames, crossfield.write_field_vtk):
        assert "edge_frames" not in inspect.signature(function).parameters
    verts, tris = meshes.golden_spiral_sphere(60)
    mesh = crossfield.SurfaceMesh(verts, tris)
    assert mesh.edge_frames is mesh.edge_frames
    built = crossfield.build_edge_frames(mesh)
    for got, want in zip(dataclasses.astuple(mesh.edge_frames),
                         dataclasses.astuple(built)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    builds = []
    build = frames_module.build_edge_frames

    def counted(mesh):
        builds.append(mesh)
        return build(mesh)

    monkeypatch.setattr(frames_module, "build_edge_frames", counted)
    path = tmp_path / "sphere.off"
    meshes.write_off(path, verts, tris)
    cli.run_solve(str(path), out_field=str(tmp_path / "field.vtk"))
    assert len(builds) == 1


def test_analysis_takes_the_mesh_and_the_field():
    """Extraction and the windings build the transport phases of the
    field's own order, so no caller can pass phases of another order."""
    for function in (crossfield.extract_singularities,
                     crossfield.triangle_windings,
                     crossfield.vertex_windings):
        assert list(inspect.signature(function).parameters) == [
            "mesh", "field"]
    verts, tris = meshes.golden_spiral_sphere(60)
    mesh = crossfield.SurfaceMesh(verts, tris)
    values = np.random.default_rng(0).standard_normal((mesh.n_edges, 2))
    for order in (4, 6):
        field = crossfield.FieldSolution(order=order, values=values,
                                         epsilon=0.1)
        assert meshes.winding_sum(mesh, field) == 2 * order


def test_solve_state_is_the_state_callers_read(tmp_path):
    """Frames hold their phases, the mesh its arrays and the log its pinned
    edge id; no object keeps a copy of what another one holds."""
    assert [f.name for f in dataclasses.fields(crossfield.TriangleFrames)] == [
        "cos", "sin"]
    verts, tris = meshes.golden_spiral_sphere(60)
    mesh = crossfield.SurfaceMesh(verts, tris)
    disc = crossfield.Discretization(mesh)
    for obj, attr in ((disc, "edge_frames"), (disc, "order"),
                      (_FacetMesh, "edge_vectors"),
                      (crossfield.IrregularVertex, "mismatch")):
        assert not hasattr(obj, attr), attr
    with pytest.raises(TypeError):
        crossfield.PointConfiguration(points=np.eye(3), spherical=False)
    for arr in (mesh.triangle_normals, mesh.triangle_areas):
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
    path = tmp_path / "sphere.off"
    meshes.write_off(path, verts, tris)
    solves = []

    def recorded(*args, **kwargs):
        solves.append(crossfield.newton_solve(*args, **kwargs))
        return solves[-1]

    with mock.patch.object(cli, "newton_solve", recorded):
        _, report = cli.run_solve(str(path), seed=2)
    (_, log), = solves
    pinned = report["options"]["pinned_edge"]
    assert type(pinned) is int and type(log.pinned_edge) is int
    assert pinned == log.pinned_edge
