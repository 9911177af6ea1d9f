import contextlib
import importlib.metadata as md
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crossfield
from crossfield import cli

import meshes


@pytest.fixture()
def octa_off(tmp_path):
    verts, tris = meshes.octahedron()
    path = tmp_path / "octa.off"
    meshes.write_off(path, verts, tris)
    return path


@pytest.fixture()
def square_off(tmp_path):
    verts, tris = meshes.square_grid_tri(12)
    path = tmp_path / "square.off"
    meshes.write_off(path, verts, tris)
    return path


@pytest.fixture(scope="module")
def sphere_off(tmp_path_factory):
    verts, tris = meshes.golden_spiral_sphere(742)
    path = tmp_path_factory.mktemp("meshes") / "sphere.off"
    meshes.write_off(path, verts, tris)
    return path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_topology_octahedron(capsys, octa_off):
    code, out, _ = run_cli(capsys, "topology", str(octa_off))
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 2
    assert payload["genus"] == 0


def test_topology_disk_msh(capsys, tmp_path):
    verts, tris = meshes.disk_hex(5)
    path = tmp_path / "disk.msh"
    meshes.write_msh22(path, verts, tris)
    code, out, _ = run_cli(capsys, "topology", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 1
    assert payload["boundary_loops"] == 1


def test_aligned_lshape_solve_takes_no_step(tmp_path):
    """The warm start of an aligned cross field on an L-shape is already
    stationary: the report has the start's residual and no step."""
    verts, tris = meshes.lshape_tri(6)
    path = tmp_path / "lshape.msh"
    meshes.write_msh22(path, verts, tris)
    code, report = cli.run_solve(str(path))
    conv = report["convergence"]
    assert code == 0
    assert conv["converged"] and conv["iterations"] == 0
    assert conv["residuals"] == [conv["final_residual"]]
    assert conv["final_residual"] <= report["options"]["tol"]
    assert report["singularities"] == []


def test_topology_torus_obj(capsys, tmp_path):
    verts, tris = meshes.torus_tri(16, 10)
    path = tmp_path / "torus.obj"
    meshes.write_obj(path, verts, tris)
    code, out, _ = run_cli(capsys, "topology", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 0
    assert payload["genus"] == 1


def test_topology_corrupt_file(capsys, tmp_path):
    path = tmp_path / "broken.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n")
    code, _, err = run_cli(capsys, "topology", str(path))
    assert code == 2
    assert "error" in err


MSH_HEAD = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
MSH_NODES = "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"


@pytest.mark.parametrize("body, message", [
    ("$Nodes\n3\n1 0 0 0\n2 1 0 0\n", "malformed MSH file"),
    ("$Nodes\nthree\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n",
     "malformed MSH file"),
    (MSH_NODES + "$Elements\n1\n1 2 2 0 1 1 2 9\n$EndElements\n",
     "undefined node 9"),
    ("$Nodes\n3\n1 0 0 0\n2 1 0 0\n2 0 1 0\n$EndNodes\n"
     "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndElements\n", "node 2 is defined twice"),
    ("$Nodes\n3\n1 0 0\n2 1 0\n3 0 1\n$EndNodes\n"
     "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndElements\n",
     "fewer than three coordinates"),
    ("$Nodes\n3\n1 0 0 0\n2 1 0\n3 0 1 0\n$EndNodes\n"
     "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndElements\n",
     "fewer than three coordinates"),
], ids=["truncated-nodes", "non-integer-count", "undefined-node",
        "duplicate-node-id", "two-coordinate-nodes", "one-short-node"])
def test_malformed_msh_exits_2(capsys, tmp_path, body, message):
    path = tmp_path / "broken.msh"
    path.write_text(MSH_HEAD + body)
    with pytest.raises(crossfield.MeshLoadError, match="broken.msh") as info:
        crossfield.load_mesh(path)
    assert message in str(info.value)
    for argv in (["topology", str(path)], ["solve", "--mesh", str(path)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "broken.msh" in err and message in err


def test_non_finite_coordinates_exit_2(capsys, tmp_path):
    verts, tris = meshes.square_grid_tri(3)
    verts[5, 1] = np.nan
    path = tmp_path / "nan.off"
    meshes.write_off(path, verts, tris)
    with pytest.raises(crossfield.InvalidMeshError, match="non-finite"):
        crossfield.load_mesh(path)
    for argv in (["topology", str(path)], ["solve", "--mesh", str(path)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "non-finite" in err


@pytest.mark.parametrize("order", [0, -4])
def test_invalid_symmetry_exits_2(capsys, tmp_path, order):
    verts, tris = meshes.square_grid_tri(1)
    path = tmp_path / "square.off"
    meshes.write_off(path, verts, tris)
    code, _, err = run_cli(capsys, "solve", "--mesh", str(path),
                           "--symmetry", str(order))
    assert code == 2
    assert "symmetry order must be at least 1" in err


@pytest.mark.parametrize("order", [1, 3])
def test_odd_symmetry_on_a_bounded_mesh_exits_2(capsys, square_off, order):
    """A boundary edge is held along its direction from the lower to the
    higher vertex id; at odd orders the reverse is another field, so the
    solve would depend on the vertex labels."""
    code, out, err = run_cli(capsys, "solve", "--mesh", str(square_off),
                             "--symmetry", str(order))
    assert code == 2 and out == ""
    assert f"symmetry order {order} is odd" in err


def test_odd_symmetry_on_a_closed_surface_solves(capsys, octa_off):
    code, out, _ = run_cli(capsys, "solve", "--mesh", str(octa_off),
                           "--symmetry", "3")
    assert code == 0
    payload = json.loads(out)
    assert [s["index"] for s in payload["singularities"]] == [
        {"num": 1, "den": 3}] * 6
    assert payload["poincare_hopf"]["pass"] is True


@pytest.mark.parametrize("name, text, where", [
    ("short.off", "OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", "short.off"),
    ("short.obj", "v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n", "short.obj:2"),
], ids=["off", "obj"])
def test_short_vertex_record_exits_2(capsys, tmp_path, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(crossfield.MeshLoadError, match=where):
        crossfield.load_mesh(path)
    code, _, err = run_cli(capsys, "topology", str(path))
    assert code == 2
    assert where in err


@pytest.mark.parametrize("name, text, where", [
    ("high.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "high.obj:4"),
    ("zero.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 0\n", "zero.obj:4"),
    ("high.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", "high.off"),
], ids=["obj-high", "obj-zero", "off-high"])
def test_face_index_out_of_range_exits_2(capsys, tmp_path, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(crossfield.MeshLoadError, match=where):
        crossfield.load_mesh(path)
    code, _, err = run_cli(capsys, "topology", str(path))
    assert code == 2
    assert where in err


def test_audit_square_grid(capsys, tmp_path):
    verts, quads = meshes.square_grid_quads(6)
    path = tmp_path / "grid.off"
    meshes.write_off(path, verts, quads)
    code, out, _ = run_cli(capsys, "audit", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["index_sum"] == {"num": 1, "den": 1}
    assert len(payload["irregular"]) == 4


def test_audit_ogrid_disk(capsys, tmp_path):
    verts, quads = meshes.ogrid_disk_quads(5, 4)
    path = tmp_path / "ogrid.off"
    meshes.write_off(path, verts, quads)
    code, out, _ = run_cli(capsys, "audit", str(path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["irregular"]) == 4
    assert all(not r["boundary"] for r in payload["irregular"])


def test_audit_exit_codes(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "audit", str(tmp_path / "missing.off"))
    assert code == 2


def test_solve_square(capsys, square_off, tmp_path):
    out_field = tmp_path / "field.vtk"
    out_report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "solve", "--mesh", str(square_off), "--epsilon", "0.2",
        "--out-field", str(out_field), "--out-report", str(out_report))
    assert code == 0
    payload = json.loads(out)
    assert payload["singularities"] == []
    assert payload["poincare_hopf"]["pass"] is True
    assert payload["convergence"]["converged"] is True
    assert payload["options"]["epsilon"] == 0.2
    assert out_field.exists() and out_report.exists()


def test_solve_field_vtk_roundtrip(capsys, square_off, tmp_path):
    out_field = tmp_path / "field.vtk"
    code, _, _ = run_cli(capsys, "solve", "--mesh", str(square_off),
                         "--epsilon", "0.2", "--out-field", str(out_field))
    assert code == 0
    lines = out_field.read_text().splitlines()

    def section(tag):
        for i, line in enumerate(lines):
            if line.startswith(tag):
                return i, line
        raise AssertionError(f"missing {tag}")

    i, header = section("POINTS")
    n_pts = int(header.split()[1])
    for j in range(n_pts):
        assert len(lines[i + 1 + j].split()) == 3

    i, header = section("CELLS")
    n_cells, n_ints = int(header.split()[1]), int(header.split()[2])
    assert n_ints == 4 * n_cells
    for j in range(n_cells):
        record = lines[i + 1 + j].split()
        assert len(record) == 4 and record[0] == "3"
        assert all(0 <= int(tok) < n_pts for tok in record[1:])

    i, header = section("CELL_TYPES")
    assert all(lines[i + 1 + j] == "5" for j in range(n_cells))

    i, _ = section("VECTORS direction_branch")
    assert len(lines[i + 1].split()) == 3
    section("SCALARS norm")
    section("SCALARS theta")
    i, _ = section("CELL_DATA")
    i, _ = section("SCALARS winding")
    values = lines[i + 2:i + 2 + n_cells]
    assert len(values) == n_cells
    assert all(v.lstrip("-").isdigit() for v in values)


def test_solve_reports_byte_identical(capsys, square_off, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(capsys, "solve", "--mesh", str(square_off),
                             "--epsilon", "0.2", "--seed", "0",
                             "--out-report", str(p))
        assert code == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_times_the_export(capsys, square_off, tmp_path):
    """``timings`` holds the field export, with or without a field file,
    and the written report is the printed one."""
    path = tmp_path / "report.json"
    for extra in ((), ("--out-field", str(tmp_path / "field.vtk"))):
        code, out, _ = run_cli(capsys, "solve", "--mesh", str(square_off),
                               "--out-report", str(path), *extra)
        assert code == 0
        printed = strict_json(out)
        assert set(printed["timings"]) == {"load", "solve", "analysis",
                                           "export"}
        assert printed["timings"]["export"] >= 0.0
        assert strict_json(path.read_text(encoding="utf-8")) == printed


def test_solve_sphere_cross(capsys, sphere_off):
    code, out, _ = run_cli(capsys, "solve", "--mesh", str(sphere_off),
                           "--symmetry", "4", "--epsilon", "0.15")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["singularities"]) == 8
    assert all(s["index"] == {"num": 1, "den": 4}
               for s in payload["singularities"])
    assert payload["poincare_hopf"]["pass"] is True
    assert payload["options"]["pinned_edge"] is not None


def _count_calls(monkeypatch, name, *modules):
    """The argument tuples of every call of ``name``, wherever ``modules``
    look it up; the function counted is the first module's."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_run_solve_draws_the_pinned_edge_once(monkeypatch, sphere_off,
                                              square_off, tmp_path):
    """The report's pinned edge is the one the solve held at (1, 0): one
    ``constraint_dofs`` call per solve, wherever it is looked up."""
    from crossfield import solver

    solves = []
    newton_solve = cli.newton_solve

    def recorded(*args, **kwargs):
        solves.append(newton_solve(*args, **kwargs))
        return solves[-1]

    calls = _count_calls(monkeypatch, "constraint_dofs", solver, cli)
    monkeypatch.setattr(cli, "newton_solve", recorded)
    for seed in (0, 3):
        calls.clear()
        code, report = cli.run_solve(str(sphere_off), epsilon=0.15, seed=seed,
                                     out_field=str(tmp_path / "f.vtk"))
        (field, log), = solves[-1:]
        edge = report["options"]["pinned_edge"]
        assert code == 0 and len(calls) == 1
        assert log.pinned_edge == edge and type(edge) is int
        assert field.values[edge].tolist() == [1.0, 0.0]
    calls.clear()
    code, report = cli.run_solve(str(square_off), epsilon=0.2)
    assert code == 0 and len(calls) == 1
    assert report["options"]["pinned_edge"] is None
    assert solves[-1][1].pinned_edge is None


def test_run_solve_makes_one_angle_pass(monkeypatch, sphere_off,
                                        square_off, tmp_path):
    """Extraction and the VTK cells share one pass over the edge angles:
    one ``_common_frame_angles`` call and no ``triangle_windings`` call per
    solve, on a pinned sphere and on an aligned square."""
    from crossfield import analysis

    angles = _count_calls(monkeypatch, "_common_frame_angles", analysis)
    windings = _count_calls(monkeypatch, "triangle_windings", analysis,
                            crossfield, cli)
    for path, epsilon in ((sphere_off, 0.15), (square_off, 0.2)):
        angles.clear()
        code, _ = cli.run_solve(str(path), epsilon=epsilon,
                                out_field=str(tmp_path / "f.vtk"))
        assert code == 0
        assert len(angles) == 1 and windings == []


def test_solve_non_convergence_exit(capsys, sphere_off):
    code, out, _ = run_cli(capsys, "solve", "--mesh", str(sphere_off),
                           "--epsilon", "0.15", "--max-iter", "1")
    assert code == 4
    payload = json.loads(out)
    assert payload["convergence"]["converged"] is False


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN or infinity."""
    def reject(literal):
        raise ValueError(f"non-finite number {literal} in the report")
    return json.loads(text, parse_constant=reject)


def test_non_finite_report_numbers_are_null(capsys, square_off, tmp_path,
                                            monkeypatch):
    """With a gradient and an energy that are not finite, the printed and
    the written report are strict JSON, with ``null`` for every residual
    and energy part, and both hold the values that ``run_solve`` returns."""
    monkeypatch.setattr(crossfield.Discretization, "residual",
                        lambda self, x, epsilon: np.full(self.n_dofs, np.nan))
    monkeypatch.setattr(crossfield.Discretization, "energy",
                        lambda self, x, epsilon: crossfield.EnergyBreakdown(
                            np.inf, -np.inf, np.nan))
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "solve", "--mesh", str(square_off),
                           "--max-iter", "2", "--out-report", str(path))
    assert code == 4
    printed = strict_json(out)
    written = strict_json(path.read_text(encoding="utf-8"))
    conv = written["convergence"]
    assert conv["final_residual"] is None
    assert conv["residuals"] == [None, None, None]
    assert written["energy"] == dict.fromkeys(
        ("smoothing", "penalty", "total"))
    _, returned = cli.run_solve(str(square_off), max_iter=2)
    for report in (printed, returned):
        del report["timings"]
    del written["timings"]
    assert printed == written == returned


def test_singular_newton_system_exits_4(capsys, square_off, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(crossfield.solver, "splu", singular)
    code, out, err = run_cli(capsys, "solve", "--mesh", str(square_off),
                             "--epsilon", "0.2")
    assert code == 4
    assert out == ""
    assert "singular" in err


def test_singular_real_warm_start_exits_4(capsys, octa_off, monkeypatch):
    """The closed-surface twin of the test above: a closed surface's warm
    start factors the real stiffness block, a bounded one's the complex
    Hermitian block, and an exactly zero pivot in either exits 4."""
    kinds = []

    def singular(block, *args, **kwargs):
        kinds.append(block.dtype.kind)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(crossfield.solver, "splu", singular)
    code, out, err = run_cli(capsys, "solve", "--mesh", str(octa_off),
                             "--epsilon", "0.5")
    assert code == 4
    assert out == ""
    assert "singular" in err
    assert kinds == ["f"]


@pytest.mark.parametrize("epsilon", ["1e155", "1e200", "inf", "nan", "1e-160",
                                     "1e-170"])
def test_unrepresentable_epsilon_exits_2(capsys, square_off, tmp_path, epsilon):
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", "--mesh", str(square_off),
                             "--epsilon", epsilon, "--out-report", str(report))
    assert code == 2
    assert out == ""
    assert "epsilon" in err
    assert not report.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_2(capsys, square_off, tmp_path, tol):
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", "--mesh", str(square_off),
                             "--tol", tol, "--out-report", str(report))
    assert code == 2
    assert out == ""
    assert "tol" in err
    assert not report.exists()


@pytest.mark.parametrize("mesh", ["sphere_off", "square_off"])
def test_negative_seed_exits_2(capsys, request, tmp_path, mesh):
    """A negative seed is refused by name, on a closed surface, where it
    would draw the pinned edge, and on a bounded one, where it draws none."""
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", "--mesh",
                             str(request.getfixturevalue(mesh)), "--seed",
                             "-1", "--out-report", str(report))
    assert code == 2
    assert out == ""
    assert "rng_seed must be non-negative" in err
    assert not report.exists()


def test_pinched_boundary_exits_2(capsys, tmp_path):
    """A mesh error past the load names the file once, as a load error
    does."""
    path = tmp_path / "bowtie.off"
    path.write_text("OFF\n5 2 0\n0 0 0\n1 0 0\n1 1 0\n-1 0 0\n-1 -1 0\n"
                    "3 0 1 2\n3 0 3 4\n")
    for argv in (["topology", str(path)], ["audit", str(path)],
                 ["solve", "--mesh", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: boundary does not close")
        assert err.count(str(path)) == 1


def test_two_components_exit_2_naming_the_file(capsys, tmp_path):
    path = tmp_path / "two.off"
    path.write_text("OFF\n6 2 0\n0 0 0\n1 0 0\n0 1 0\n5 0 0\n6 0 0\n5 1 0\n"
                    "3 0 1 2\n3 3 4 5\n")
    code, out, err = run_cli(capsys, "solve", "--mesh", str(path))
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}: solver requires a single connected "
                   "component, found 2\n")


@pytest.mark.parametrize("scale", [1e150, 1e-160])
def test_out_of_range_coordinate_scale_exits_2(capsys, tmp_path, scale):
    verts, tris = meshes.square_grid_tri(4)
    path = tmp_path / "scaled.off"
    meshes.write_off(path, verts * scale, tris)
    for argv in (["topology", str(path)], ["solve", "--mesh", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: coordinate scale")


def test_solve_rejects_quads_and_bad_flags(capsys, tmp_path):
    verts, quads = meshes.square_grid_quads(3)
    path = tmp_path / "grid.off"
    meshes.write_off(path, verts, quads)
    code, _, err = run_cli(capsys, "solve", "--mesh", str(path))
    assert code == 2

    code, _, err = run_cli(capsys, "solve", "--mesh", str(path),
                           "--epsilon", "banana")
    assert code == 2
    code, _, err = run_cli(capsys, "solve", "--mesh", str(path),
                           "--epsilon", "-0.5")
    assert code == 2


def test_solve_topology_failure_exit(capsys, square_off, monkeypatch):
    # the certificate holds for every converged field, so force a failing
    # report to exercise the exit path
    from fractions import Fraction
    from crossfield import PoincareHopfReport

    def failing_check(mesh, singularities, field):
        return PoincareHopfReport(interior_sum=Fraction(0),
                                  corner_sum=Fraction(0), chi=1,
                                  discrepancy=Fraction(-1), passed=False)

    monkeypatch.setattr(cli, "poincare_hopf_check", failing_check)
    code, out, _ = run_cli(capsys, "solve", "--mesh", str(square_off),
                           "--epsilon", "0.2")
    assert code == 5
    payload = json.loads(out)
    assert payload["poincare_hopf"]["pass"] is False


def test_solve_rejects_disconnected(capsys, tmp_path):
    verts, tris = meshes.octahedron()
    far = verts + np.array([5.0, 0, 0])
    path = tmp_path / "two.off"
    meshes.write_off(path, np.vstack([verts, far]),
                     np.vstack([tris, tris + len(verts)]))
    code, _, err = run_cli(capsys, "solve", "--mesh", str(path))
    assert code == 2
    assert "component" in err


def test_sweep_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--samples", "91", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "angle,energy"
    assert len(lines) == 92
    rows = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    best = rows[np.argmin(rows[:, 1]), 0]
    step = rows[1, 0] - rows[0, 0]
    assert abs(best - np.pi / 4) <= step + 1e-12


@pytest.mark.parametrize("argv", [
    ("sweep", "--samples", "5"),
    ("fekete", "--count", "4", "--seed", "1"),
], ids=["sweep", "fekete"])
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.txt"
    code, printed, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert printed == ""
    assert path.read_bytes() == out.encode()


def test_sweep_sample_validation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--samples", "1")
    assert code == 2


def test_fekete_icosahedron_json(capsys):
    code, out, _ = run_cli(capsys, "fekete", "--count", "12", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    pts = np.array(payload["points"])
    assert pts.shape == (12, 3)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-9
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    dist[np.diag_indices(12)] = np.inf
    nearest = np.sort(dist, axis=1)[:, :5]
    assert (nearest.max() - nearest.min()) / nearest.mean() < 1e-3


def test_fekete_count_validation(capsys):
    code, _, err = run_cli(capsys, "fekete", "--count", "1")
    assert code == 2


def test_cli_entry_point_installed():
    tomllib = pytest.importorskip("tomllib")
    # The tests import the package from the source tree without installing
    # it, so the declaration is read from pyproject.toml, not site-packages.
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"crossfield": "crossfield.cli:main"}

    target = scripts["crossfield"]
    entry = md.EntryPoint(name="crossfield", value=target,
                          group="console_scripts")
    assert entry.load() is cli.main

    # The console script an installer generates for the declared target.
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    for argv, expected in ((["fekete", "--count", "2", "--seed", "0"], 0),
                           (["fekete", "--count", "1"], 2)):
        proc = subprocess.run([sys.executable, "-c", wrapper, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == expected, proc.stderr

    try:
        dist = md.distribution("crossfield")
    except md.PackageNotFoundError:
        return
    installed = {e.name: e.value for e in dist.entry_points
                 if e.group == "console_scripts"}
    assert installed == scripts
    assert dist.version == crossfield.__version__


#: Small fixture files of each format, as ``tests/meshes.py`` writes them.
FUZZ_FIXTURES = {
    "square.off": (meshes.write_off, meshes.square_grid_tri(3)),
    "octa.obj": (meshes.write_obj, meshes.octahedron()),
    "disk.msh": (meshes.write_msh22, meshes.disk_hex(2)),
}


@pytest.fixture(scope="module")
def fuzz_texts(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    texts = {}
    for name, (write, (verts, faces)) in FUZZ_FIXTURES.items():
        write(folder / name, verts, faces)
        texts[name] = (folder / name).read_text().splitlines(keepends=True)
    return folder, texts


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(FUZZ_FIXTURES)))
    kind = draw(st.sampled_from(["truncate", "drop", "duplicate", "token"]))
    line = draw(st.integers(0, 10**6))
    token = draw(st.integers(0, 10))
    value = draw(st.sampled_from(["nan", "-1", "1e999", "x", ""]))
    return name, kind, line, token, value


def mutate(lines, kind, line, token, value):
    i = line % len(lines)
    if kind == "truncate":
        return lines[:i]
    if kind == "drop":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines[:i + 1] + lines[i:]
    words = lines[i].split()
    if words:
        words[token % len(words)] = value
    return lines[:i] + [" ".join(words) + "\n"] + lines[i + 1:]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=mutations())
def test_fuzzed_mesh_files_exit_with_a_documented_code(fuzz_texts, case):
    """A truncated file, a dropped or repeated line, or one token replaced
    by ``nan``, ``-1``, ``1e999``, ``x`` or nothing never raises out of
    ``main``; ``topology`` and ``audit`` load it or exit 2, and ``solve``
    exits 2 or ends in a documented solve code."""
    folder, texts = fuzz_texts
    name, kind, line, token, value = case
    path = folder / f"fuzzed-{name}"
    path.write_text("".join(mutate(texts[name], kind, line, token, value)))
    for argv, allowed in ((["topology", str(path)], (0, 2)),
                          (["audit", str(path)], (0, 2)),
                          (["solve", "--mesh", str(path), "--max-iter", "3"],
                           (0, 2, 4, 5))):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in allowed, argv
