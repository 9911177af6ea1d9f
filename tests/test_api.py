import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import crossfield


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
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_solve_settings_are_the_ones_callers_set():
    """Every constrained edge is (1, 0), the warm start runs at most
    ``WARMUP_ROUNDS`` sweeps, the extension names a mesh file's format and a
    field carries its own coherence length: no setting overrides these."""
    fields = [field.name for field in dataclasses.fields(crossfield.NewtonOptions)]
    assert fields == ["tol", "max_iter", "epsilon", "rng_seed"]
    assert list(inspect.signature(crossfield.load_mesh).parameters) == ["path"]
    for function in (crossfield.gl_energy, crossfield.gl_residual):
        assert list(inspect.signature(function).parameters) == [
            "mesh", "edge_frames", "field"]
