"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

from fractions import Fraction

import numpy as np
import pytest

from crossfield import (Discretization, QuadMesh, SurfaceMesh, audit,
                        constraint_dofs,
                        extract_singularities, fekete_optimize, gl_residual,
                        align_point_sets, mean_edge_length, newton_solve,
                        poincare_hopf_check, tilt_sweep, topology_report)

import meshes


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def aligned_gap(singularities, count, seed=0):
    positions = np.array([s.position for s in singularities])
    positions /= np.linalg.norm(positions, axis=1)[:, None]
    reference = fekete_optimize(count, seed=seed)
    _, dists = align_point_sets(reference.points, positions)
    return dists.max()


def test_criterion_1_sphere_cross_field(sphere_cross):
    log = sphere_cross.log
    sings, _ = extract_singularities(sphere_cross.mesh, sphere_cross.field)
    index_sum = sum((s.index for s in sings), Fraction(0))
    chi = topology_report(sphere_cross.mesh).chi
    ok = (log.converged
          and log.iterations <= 60
          and log.residuals[-1] <= 1e-12
          and len(sings) == 8
          and all(s.index == Fraction(1, 4) for s in sings)
          and index_sum == 2 == chi
          and sphere_cross.solve_seconds <= 60.0)
    report("1 sphere cross field", ok,
           f"iterations={log.iterations} residual={log.residuals[-1]:.2e} "
           f"singularities={len(sings)} index_sum={index_sum} "
           f"solve={sphere_cross.solve_seconds:.1f}s")


def test_criterion_2_anticube_geometry(sphere_cross):
    sings, _ = extract_singularities(sphere_cross.mesh, sphere_cross.field)
    tolerance = 2 * mean_edge_length(sphere_cross.mesh)
    gap = aligned_gap(sings, 8)

    angles = np.linspace(0.0, np.pi / 2, 91)
    rows = tilt_sweep(angles=angles)
    best = rows[np.argmin(rows[:, 1]), 0]
    step = angles[1] - angles[0]
    ok = gap <= tolerance and abs(best - np.pi / 4) <= step + 1e-12
    report("2 anticube geometry", ok,
           f"max aligned gap={gap:.3f} (tol {tolerance:.3f}), "
           f"sweep minimum at {best:.4f} (quarter turn {np.pi/4:.4f})")


def test_criterion_3_asterisk_field(sphere_asterisk):
    log = sphere_asterisk.log
    sings, _ = extract_singularities(sphere_asterisk.mesh,
                                     sphere_asterisk.field)
    index_sum = sum((s.index for s in sings), Fraction(0))
    tolerance = 2 * mean_edge_length(sphere_asterisk.mesh)
    gap = aligned_gap(sings, 12)
    ok = (log.converged
          and len(sings) == 12
          and all(s.index == Fraction(1, 6) for s in sings)
          and index_sum == 2
          and gap <= tolerance)
    report("3 asterisk field", ok,
           f"iterations={log.iterations} singularities={len(sings)} "
           f"index_sum={index_sum} max aligned gap={gap:.3f} (tol {tolerance:.3f})")


def test_criterion_4_bounded_domains(square_cross, lshape_cross, disk_cross):
    square_sings, _ = extract_singularities(square_cross.mesh,
                                            square_cross.field)
    square_ph = poincare_hopf_check(square_cross.mesh, square_sings,
                                    square_cross.field)
    square_ok = (square_sings == [] and square_ph.passed
                 and square_ph.corner_sum == 1)

    lshape_sings, _ = extract_singularities(lshape_cross.mesh,
                                            lshape_cross.field)
    lshape_ph = poincare_hopf_check(lshape_cross.mesh, lshape_sings,
                                    lshape_cross.field)
    lshape_ok = lshape_ph.interior_sum + lshape_ph.corner_sum == 1

    disk_sings, _ = extract_singularities(disk_cross.mesh, disk_cross.field)
    disk_sum = sum((s.index for s in disk_sings), Fraction(0))
    # disk diameter 2; the coherence length used is within the stated bound
    disk_ok = (disk_cross.field.epsilon <= 0.15 * 2.0
               and disk_sum == 1
               and len(disk_sings) == 4
               and all(s.index == Fraction(1, 4) for s in disk_sings))

    ok = square_ok and lshape_ok and disk_ok
    report("4 bounded domains", ok,
           f"square corners={square_ph.corner_sum} "
           f"lshape sum={lshape_ph.interior_sum + lshape_ph.corner_sum} "
           f"disk: {len(disk_sings)} x 1/4 (sum {disk_sum})")


def test_criterion_5_quad_audits():
    quad_meshes = {
        "structured square": QuadMesh(*meshes.square_grid_quads(8)),
        "subdivided lshape": QuadMesh(*meshes.subdivide_quads(
            *meshes.lshape_quads(3))),
        "cylinder": QuadMesh(*meshes.cylinder_quads(10, 6)),
        "random refinement 1": QuadMesh(*meshes.catmull_quads_from_tri(
            *meshes.random_planar_delaunay(60, seed=1))),
        "random refinement 2": QuadMesh(*meshes.catmull_quads_from_tri(
            *meshes.random_planar_delaunay(80, seed=2))),
        "ogrid disk": QuadMesh(*meshes.ogrid_disk_quads(6, 4)),
    }
    failures = []
    for name, mesh in quad_meshes.items():
        result = audit(mesh)
        if result.index_sum != result.chi:
            failures.append(f"{name}: {result.index_sum} != {result.chi}")
        rep = topology_report(mesh)
        if 4 * rep.n_f != 2 * (rep.n_e - rep.n_b) + rep.n_b:
            failures.append(f"{name}: facet/edge identity")
        if 2 * rep.n - rep.n_b - 2 * rep.n_f != 2 * rep.chi:
            failures.append(f"{name}: count identity")

    tri_meshes = [
        SurfaceMesh(*meshes.octahedron()),
        SurfaceMesh(*meshes.square_grid_tri(6)),
        SurfaceMesh(*meshes.disk_hex(6)),
        SurfaceMesh(*meshes.torus_tri(10, 6)),
        SurfaceMesh(*meshes.lshape_tri(4)),
    ]
    for mesh in tri_meshes:
        rep = topology_report(mesh)
        if 3 * rep.n_f != 2 * (rep.n_e - rep.n_b) + rep.n_b:
            failures.append("triangle mesh facet/edge identity")
        if 2 * rep.n - rep.n_b - rep.n_f != 2 * rep.chi:
            failures.append("triangle mesh count identity")

    report("5 quad audits", not failures,
           f"{len(quad_meshes)} quadrangulations + {len(tri_meshes)} "
           f"triangulations checked" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_6_numerical_properties(sphere_cross, sphere_asterisk,
                                          torus_cross, square_cross, disk_cross):
    failures = []

    # energy gradient against central differences on twenty random meshes
    rng = np.random.default_rng(606)
    worst = 0.0
    for case in range(20):
        verts, tris = meshes.random_planar_delaunay(25, seed=1000 + case)
        mesh = SurfaceMesh(verts, tris)
        disc = Discretization(mesh, 4)
        x = rng.normal(size=disc.n_dofs) * 0.9
        eps = 0.4
        grad = disc.residual(x, eps)
        h = 1e-6
        for dof in rng.integers(0, disc.n_dofs, size=5):
            xp = x.copy()
            xp[dof] += h
            xm = x.copy()
            xm[dof] -= h
            fd = (disc.energy(xp, eps).total - disc.energy(xm, eps).total) / (2 * h)
            rel = abs(fd - grad[dof]) / max(1.0, abs(fd))
            worst = max(worst, rel)
    if worst > 1e-5:
        failures.append(f"gradient mismatch {worst:.1e}")

    # assembled matrix symmetry
    verts, tris = meshes.random_planar_delaunay(40, seed=77)
    mesh = SurfaceMesh(verts, tris)
    disc = Discretization(mesh, 4)
    x = rng.normal(size=disc.n_dofs)
    matrix, _ = disc.newton_system(x, 0.3)
    gap = matrix - matrix.T
    asym = (np.abs(gap.data).max() if gap.nnz else 0.0) / np.abs(matrix.data).max()
    if asym > 1e-12:
        failures.append(f"asymmetry {asym:.1e}")

    # element reordering invariance of the converged field
    base = square_cross
    shuffled_mesh = SurfaceMesh(
        base.mesh.vertices,
        base.mesh.triangles[np.random.default_rng(5).permutation(base.mesh.n_triangles)])
    sfield, slog = newton_solve(shuffled_mesh, 4, base.options)
    drift = np.abs(sfield.values - base.field.values).max()
    if not slog.converged or drift > 1e-9:
        failures.append(f"reorder drift {drift:.1e}")

    # integer winding identity on every converged closed-surface run
    for case, expected in ((sphere_cross, 8), (sphere_asterisk, 12),
                           (torus_cross, 0)):
        total = meshes.winding_sum(case.mesh, case.field)
        if total != expected:
            failures.append(f"winding total {total} != {expected}")

    report("6 numerical correctness", not failures,
           f"worst gradient error {worst:.1e}; asymmetry {asym:.1e}; "
           f"reorder drift {drift:.1e}" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_7_pde_residual(sphere_cross, sphere_asterisk, square_cross,
                                  lshape_cross, disk_cross, torus_cross):
    failures = []
    details = []
    for name, case in (("sphere4", sphere_cross), ("sphere6", sphere_asterisk),
                       ("square", square_cross), ("lshape", lshape_cross),
                       ("disk", disk_cross), ("torus", torus_cross)):
        residual = gl_residual(case.mesh, case.field)
        mask, _, _ = constraint_dofs(case.mesh, case.options)
        norm = float(np.linalg.norm(residual[~mask]))
        details.append(f"{name}={norm:.1e}")
        if norm > 10 * case.options.tol:
            failures.append(name)
    report("7 exact weak residual", not failures, " ".join(details))
