"""Tests of the benchmark's own logic: mesh generation, self-time
arithmetic, the tracer's wrappers and the output check.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import meshgen  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


# -- mesh generation ---------------------------------------------------------

def test_rotation_is_proper_and_seeded():
    q = meshgen.random_rotation(7)
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-14)
    assert np.linalg.det(q) == pytest.approx(1.0)
    assert np.array_equal(q, meshgen.random_rotation(7))
    assert not np.allclose(q, meshgen.random_rotation(8))


@pytest.mark.parametrize("suffix", ["off", "msh"])
def test_written_meshes_load_with_workload_counts(tmp_path, suffix):
    from crossfield import load_mesh
    cases = [(meshgen.golden_spiral_sphere(1482), 2960, 4440),
             (meshgen.lshape(48), 13824, 20928)]
    for (verts, tris), n_tri, n_edges in cases:
        path = tmp_path / f"mesh.{suffix}"
        write = meshgen.write_off if suffix == "off" else meshgen.write_msh22
        write(path, meshgen.rotated(verts, 3), tris)
        mesh = load_mesh(path)
        assert (mesh.n_triangles, mesh.n_edges) == (n_tri, n_edges)
        assert np.array_equal(mesh.vertices, meshgen.rotated(verts, 3))


# -- self-time arithmetic ----------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 10.0) == 0.0
    assert tracing.covered([(5, 6), (1, 3), (2, 4)], 0.0, 10.0) == 4.0
    assert tracing.covered([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert tracing.covered([(1, 9), (2, 3)], 0.0, 10.0) == 8.0


def test_self_times_subtract_child_cover_and_add_up_to_root():
    spans = [Span(0, "root", 0.0, 10.0, None, 1),
             Span(1, "a", 1.0, 4.0, 0, 1),
             Span(2, "b", 2.0, 3.0, 1, 1),
             Span(3, "a", 5.0, 6.5, 0, 1),
             Span(4, "root", 20.0, 21.0, None, 2)]
    own = tracing.self_times(spans)
    assert own == {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0}
    by_layer = tracing.layer_self_times(spans)
    assert by_layer[1] == {"root": 5.5, "a": 3.5, "b": 1.0}
    assert sum(by_layer[1].values()) == 10.0
    assert by_layer[2] == {"root": 1.0}


# -- timing at the reference speed ---------------------------------------

class _FixedReference:
    """Reference work whose rounds take the listed seconds, in turn."""

    def __init__(self, seconds):
        self._seconds = iter(seconds)

    def seconds(self):
        return next(self._seconds)


def test_bracketed_scales_by_the_median_reference_round(monkeypatch):
    import run
    monkeypatch.setattr(run, "REFERENCE_ROUNDS", 2)
    monkeypatch.setattr(run.calibrate, "REFERENCE_S", 0.5)
    timed = run.Bracketed(
        _FixedReference([1.0, 1.0, 2.0, 2.0, 2.0, 4.0, 2.0, 2.0]))
    timed.measure(lambda: 3.0)
    timed.measure(lambda: 6.0)
    timed.measure(lambda: 5.0)
    assert timed.times == [3.0, 6.0, 5.0]
    timed.close()
    assert timed.rounds == [[1.0, 1.0], [2.0, 2.0], [2.0, 4.0], [2.0, 2.0]]
    assert timed.reference_median() == 2.0
    assert timed.scale() == 0.25
    assert timed.scaled_median() == 5.0 * 0.25


def test_reference_work_is_fixed():
    import calibrate
    ref = calibrate.Reference(92)
    assert ref.work() == ref.work()
    assert ref.seconds() > 0


def test_tracer_nests_spans_and_rejects_out_of_order_close():
    tracer = tracing.Tracer()
    with tracer.span("outer") as outer:
        inner = tracer.begin("inner")
        with pytest.raises(RuntimeError):
            tracer.end(outer)
        tracer.end(inner)
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_instrument_accounts_for_a_solve_and_restores_the_package(tmp_path):
    import crossfield.cli as cli
    import crossfield.solver as solver
    originals = (cli.load_mesh, solver.newton_solve,
                 solver.Discretization.__init__, solver.splu)
    verts, tris = meshgen.golden_spiral_sphere(92)
    mesh_path = tmp_path / "s.off"
    meshgen.write_off(mesh_path, verts, tris)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.span("cli") as root:
        code, report = cli.run_solve(str(mesh_path),
                                     out_field=str(tmp_path / "f.vtk"))
    assert (cli.load_mesh, solver.newton_solve, solver.Discretization.__init__,
            solver.splu) == originals

    selfs = tracing.layer_self_times(tracer.spans)[0]
    assert sum(selfs.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    assert {"mesh.load", "solver.warm_start", "solver.assemble",
            "solver.linsolve", "analysis.certify", "vtk.write"} <= set(selfs)
    counts = tracer.counts[0]
    assert counts["solver.disc_builds"] == 2
    assert counts["frames.triangle_calls"] == 3
    assert counts["solver.newton_iters"] == report["convergence"]["iterations"]
    assert counts["solver.linsolve_calls"] == counts["solver.newton_iters"] + 1
    assert counts["solver.warm_lu_nnz"] > 0
    assert counts["mesh.input_bytes"] == mesh_path.stat().st_size
    assert counts["vtk.output_bytes"] == (tmp_path / "f.vtk").stat().st_size
    warm = [s for s in tracer.spans if s.name == "solver.warm_start"][0]
    first_step = min(s.start for s in tracer.spans if s.name == "solver.assemble")
    assert warm.end <= first_step


# -- output check --------------------------------------------------------------

N_EDGES, N_TRI = 12, 8


def _report(indices, converged=True, residual=1e-13, passed=True, iterations=5):
    return {
        "convergence": {"iterations": iterations, "converged": converged,
                        "final_residual": residual,
                        "residuals": [residual] * iterations},
        "singularities": [{"index": {"num": q.numerator, "den": q.denominator}}
                          for q in indices],
        "poincare_hopf": {"pass": passed},
    }


def _judge(tmp_path, code, report, expected=None, vtk=True):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    vtk_path = tmp_path / "field.vtk"
    if vtk:
        vtk_path.write_text(
            "# vtk DataFile Version 2.0\nfield\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            f"POINTS {N_EDGES} double\nCELLS {N_TRI} {4 * N_TRI}\n"
            f"CELL_TYPES {N_TRI}\nPOINT_DATA {N_EDGES}\nCELL_DATA {N_TRI}\n")
    return checks.check_solve(
        code, report, report_path, vtk_path,
        expected={Fraction(1, 4): 8} if expected is None else expected,
        tol=1e-12, max_iter=100, n_edges=N_EDGES, n_triangles=N_TRI)


def test_check_accepts_the_expected_certified_field(tmp_path):
    verdict = _judge(tmp_path, 0, _report([Fraction(1, 4)] * 8))
    assert not verdict.failed and verdict.failures == verdict.errors == []
    assert not _judge(tmp_path, 0, _report([]), expected={}).failed


@pytest.mark.parametrize("indices", [
    [Fraction(1, 4)] * 7,
    [Fraction(1, 4)] * 9 + [Fraction(-1, 4)],
    [Fraction(1, 2)] * 4,
])
def test_check_rejects_a_wrong_singularity_set(tmp_path, indices):
    verdict = _judge(tmp_path, 0, _report(indices))
    assert verdict.failed
    assert any("singularities" in f for f in verdict.failures)
    assert "success reported for a failing field" in verdict.errors


def test_check_rejects_a_failed_certification(tmp_path):
    verdict = _judge(tmp_path, 5, _report([Fraction(1, 4)] * 7, passed=False))
    assert verdict.failed
    assert "Poincare-Hopf certification failed" in verdict.failures
    assert verdict.errors == []
    lying = _judge(tmp_path, 0, _report([Fraction(1, 4)] * 8, passed=False))
    assert lying.failed and lying.errors


def test_check_keeps_an_honest_non_convergence_as_failed_not_wrong(tmp_path):
    report = _report([Fraction(1, 4)] * 8, converged=False, residual=1.7e-6,
                     iterations=100)
    verdict = _judge(tmp_path, 4, report)
    assert verdict.failed and verdict.errors == []
    assert "exit code 4" in verdict.failures
    early = _report([Fraction(1, 4)] * 8, converged=False, residual=1.7e-6,
                    iterations=40)
    assert _judge(tmp_path, 4, early).errors


def test_check_rejects_missing_or_mismatched_outputs(tmp_path):
    assert _judge(tmp_path, 0, _report([Fraction(1, 4)] * 8), vtk=False).errors
    report = _report([Fraction(1, 4)] * 8)
    assert not _judge(tmp_path, 0, report).failed
    (tmp_path / "report.json").write_text(json.dumps(_report([])))
    verdict = checks.check_solve(
        0, report, tmp_path / "report.json", tmp_path / "field.vtk",
        expected={Fraction(1, 4): 8}, tol=1e-12, max_iter=100,
        n_edges=N_EDGES, n_triangles=N_TRI)
    assert "report file differs in 'singularities'" in verdict.errors
    assert _judge(tmp_path, 0, _report([Fraction(1, 4)] * 8, residual=1e-9)).errors
