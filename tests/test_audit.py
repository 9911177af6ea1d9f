import json
from fractions import Fraction

import numpy as np
import pytest

from crossfield import QuadMesh, audit, topology_report

import meshes


def test_structured_grid_corners():
    mesh = meshes.quad(meshes.square_grid_quads, 8)
    result = audit(mesh)
    assert len(result.per_vertex) == 4
    assert all(v.valence == 1 and v.boundary for v in result.per_vertex)
    assert all(v.index == Fraction(1, 4) for v in result.per_vertex)
    assert result.index_sum == 1 == result.chi
    assert result.index_sum == result.chi


def test_ogrid_disk_interior_irregulars():
    mesh = meshes.quad(meshes.ogrid_disk_quads, 6, 4)
    result = audit(mesh)
    assert len(result.per_vertex) == 4
    assert all(not v.boundary for v in result.per_vertex)
    assert all(v.valence == 3 for v in result.per_vertex)
    assert all(v.index == Fraction(1, 4) for v in result.per_vertex)
    assert result.index_sum == 1
    assert result.index_sum == result.chi


def test_regular_torus_triangulation_is_empty():
    mesh = meshes.surface(meshes.torus_tri, 12, 8)
    result = audit(mesh)
    assert result.per_vertex == ()
    assert result.index_sum == 0 == result.chi
    assert result.index_sum == result.chi


def test_regular_torus_quads_is_empty():
    mesh = meshes.quad(meshes.torus_quads, 12, 8)
    result = audit(mesh)
    assert result.per_vertex == ()
    assert result.index_sum == result.chi


def test_cylinder_quads_regular():
    mesh = meshes.quad(meshes.cylinder_quads, 12, 6)
    result = audit(mesh)
    assert result.chi == 0
    assert result.index_sum == 0
    assert result.index_sum == result.chi


def test_triangle_audit_structured_square():
    mesh = meshes.surface(meshes.square_grid_tri, 6)
    result = audit(mesh)
    # two corners are covered by one triangle (mismatch 2), two by two
    indices = sorted(v.index for v in result.per_vertex)
    assert indices == [Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)]
    assert result.index_sum == 1 == result.chi
    assert result.index_sum == result.chi


def test_catmull_split_consistency():
    verts, tris = meshes.octahedron()
    qverts, quads = meshes.catmull_quads_from_tri(verts, tris)
    mesh = QuadMesh(qverts, quads)
    result = audit(mesh)
    assert result.chi == 2
    assert result.index_sum == 2
    assert result.index_sum == result.chi


@pytest.mark.parametrize("builder", [
    lambda: meshes.square_grid_quads(5),
    lambda: meshes.lshape_quads(3),
    lambda: meshes.ogrid_disk_quads(4, 3),
    lambda: meshes.cylinder_quads(8, 4),
])
def test_subdivision_preserves_index_sum(builder):
    verts, quads = builder()
    base = audit(QuadMesh(verts, quads))
    refined = audit(QuadMesh(*meshes.subdivide_quads(verts, quads)))
    assert refined.index_sum == base.index_sum
    assert refined.index_sum == refined.chi


def test_reordering_invariance():
    verts, quads = meshes.lshape_quads(4)
    base = audit(QuadMesh(verts, quads))
    rng = np.random.default_rng(7)
    shuffled = audit(QuadMesh(verts, quads[rng.permutation(len(quads))]))
    assert shuffled.index_sum == base.index_sum
    assert shuffled.chi == base.chi


def test_randomized_quadrangulations_consistent():
    for seed in (1, 2):
        verts, tris = meshes.random_planar_delaunay(60, seed)
        qverts, quads = meshes.catmull_quads_from_tri(verts, tris)
        result = audit(QuadMesh(qverts, quads))
        assert result.index_sum == result.chi, (
            f"seed {seed}: {result.index_sum} != {result.chi}")


def test_counts_reproduce_facet_identity():
    mesh = meshes.quad(meshes.ogrid_disk_quads, 5, 4)
    report = topology_report(mesh)
    assert 2 * report.n - report.n_b - 2 * report.n_f == 2 * report.chi


def test_audit_json_schema():
    mesh = meshes.quad(meshes.square_grid_quads, 4)
    payload = audit(mesh).to_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["chi"] == 1
    assert back["index_sum"] == {"num": 1, "den": 1}
    assert len(back["irregular"]) == 4
    row = back["irregular"][0]
    assert set(row) == {"vertex", "valence", "boundary", "index"}
    assert row["index"] == {"num": 1, "den": 4}
