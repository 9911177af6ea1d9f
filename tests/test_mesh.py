import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from crossfield import (InvalidMeshError, MeshLoadError, QuadMesh,
                        SurfaceMesh, boundary_loops, load_mesh,
                        mean_edge_length, topology_report)
from crossfield.mesh import _build_edge_tables

import meshes


def test_octahedron_off_load(tmp_path):
    verts, tris = meshes.octahedron()
    path = tmp_path / "octa.off"
    meshes.write_off(path, verts, tris)
    mesh = load_mesh(path)
    assert isinstance(mesh, SurfaceMesh)
    assert mesh.n_vertices == 6
    assert mesh.n_triangles == 8
    assert mesh.n_edges == 12
    assert not mesh.boundary_edge.any()
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 2


def test_single_triangle_obj(tmp_path):
    verts, tris = meshes.single_triangle()
    path = tmp_path / "tri.obj"
    meshes.write_obj(path, verts, tris)
    mesh = load_mesh(path)
    assert mesh.n_edges == 3
    assert mesh.boundary_edge.all()


def test_mixed_elements_rejected(tmp_path):
    path = tmp_path / "mixed.off"
    with open(path, "w") as fh:
        fh.write("OFF\n5 2 0\n")
        fh.write("0 0 0\n1 0 0\n1 1 0\n0 1 0\n2 0 0\n")
        fh.write("4 0 1 2 3\n")
        fh.write("3 1 4 2\n")
    with pytest.raises(MeshLoadError, match="mixed"):
        load_mesh(path)


def test_quad_off_loads_as_quad_mesh(tmp_path):
    verts, quads = meshes.square_grid_quads(3)
    path = tmp_path / "grid.off"
    meshes.write_off(path, verts, quads)
    mesh = load_mesh(path)
    assert isinstance(mesh, QuadMesh)
    assert mesh.n_quads == 9


def test_msh_load_ignores_lines(tmp_path):
    verts, tris = meshes.disk_hex(4)
    boundary_pairs = [(1, 2), (2, 3)]
    path = tmp_path / "disk.msh"
    meshes.write_msh22(path, verts, tris, lines=boundary_pairs)
    mesh = load_mesh(path)
    report = topology_report(mesh)
    assert report.chi == 1
    assert report.boundary_loops == 1


def test_msh_rejects_unknown_elements(tmp_path):
    path = tmp_path / "bad.msh"
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write("$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 1 1 0\n4 0 1 0\n$EndNodes\n")
        fh.write("$Elements\n1\n1 3 2 0 1 1 2 3 4\n$EndElements\n")
    with pytest.raises(MeshLoadError, match="element type"):
        load_mesh(path)


def test_missing_file_and_unknown_format(tmp_path):
    with pytest.raises(MeshLoadError):
        load_mesh(tmp_path / "nope.off")
    path = tmp_path / "mesh.xyz"
    path.write_text("junk")
    with pytest.raises(MeshLoadError, match="format"):
        load_mesh(path)


def test_format_hint_overrides_extension(tmp_path):
    verts, tris = meshes.single_triangle()
    path = tmp_path / "tri.dat"
    meshes.write_obj(path, verts, tris)
    mesh = load_mesh(path, format_hint="obj")
    assert mesh.n_triangles == 1


def test_non_manifold_edge_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]],
                     dtype=float)
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(InvalidMeshError, match="non-manifold"):
        SurfaceMesh(verts, tris)


def test_inconsistent_orientation_rejected():
    verts, tris = meshes.octahedron()
    tris = tris.copy()
    tris[0] = tris[0][::-1]
    with pytest.raises(InvalidMeshError, match="orient"):
        SurfaceMesh(verts, tris)


def test_degenerate_triangle_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    with pytest.raises(InvalidMeshError, match="degenerate"):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))


def test_repeated_vertex_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(InvalidMeshError, match="repeat"):
        SurfaceMesh(verts, np.array([[0, 1, 1]]))


def test_unreferenced_vertices_pruned(caplog):
    verts, tris = meshes.single_triangle()
    verts = np.vstack([verts, [[5.0, 5.0, 5.0]]])
    with caplog.at_level(logging.WARNING, logger="crossfield.mesh"):
        mesh = SurfaceMesh(verts, tris)
    assert mesh.n_vertices == 3
    assert any("pruned" in rec.message for rec in caplog.records)


def test_topology_sphere_disk_torus():
    sphere = meshes.surface(meshes.octahedron)
    assert topology_report(sphere).chi == 2
    assert topology_report(sphere).genus == 0

    disk = meshes.surface(meshes.disk_hex, 5)
    report = topology_report(disk)
    assert (report.chi, report.genus, report.boundary_loops) == (1, 0, 1)

    torus = meshes.surface(meshes.torus_tri, 12, 8)
    report = topology_report(torus)
    assert (report.chi, report.genus, report.boundary_loops) == (0, 1, 0)


def test_topology_counts_match_definition():
    mesh = meshes.surface(meshes.lshape_tri, 4)
    report = topology_report(mesh)
    assert report.chi == report.n - report.n_e + report.n_f
    assert report.chi == 2 - 2 * report.genus - report.boundary_loops


def test_boundary_loop_partition_square_with_hole():
    verts, quads = meshes.square_grid_quads(6)
    keep = []
    for q in quads:
        centre = verts[q].mean(axis=0)[:2]
        if not (0.3 < centre[0] < 0.7 and 0.3 < centre[1] < 0.7):
            keep.append(q)
    mesh = QuadMesh(verts, np.array(keep))
    loops = boundary_loops(mesh)
    assert len(loops) == 2
    all_edges = np.concatenate(loops)
    assert len(all_edges) == len(set(all_edges.tolist()))
    assert set(all_edges.tolist()) == set(np.flatnonzero(mesh.boundary_edge).tolist())
    for loop in loops:
        # one closed cycle: every vertex has two of the loop's edges, and a
        # walk from the first edge uses them all and ends where it began
        pairs = [tuple(p) for p in mesh.edges[loop].tolist()]
        _, degree = np.unique(pairs, return_counts=True)
        assert (degree == 2).all()
        start, vertex = pairs[0]
        rest = pairs[1:]
        while rest:
            step = next(p for p in rest if vertex in p)
            rest.remove(step)
            vertex = step[0] if step[1] == vertex else step[1]
        assert vertex == start
    report = topology_report(mesh)
    assert report.chi == 0
    assert report.boundary_loops == 2


def test_boundary_pinched_at_a_vertex_rejected():
    # a bow-tie: two triangles sharing only vertex 0, which then has four
    # boundary edges
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]],
                     dtype=float)
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2], [0, 3, 4]]))
    with pytest.raises(InvalidMeshError, match=r"boundary does not close at vertices \[0\]"):
        boundary_loops(mesh)


def test_disconnected_components_reported():
    verts, tris = meshes.octahedron()
    verts2 = verts + np.array([10.0, 0.0, 0.0])
    both = SurfaceMesh(np.vstack([verts, verts2]),
                       np.vstack([tris, tris + len(verts)]))
    report = topology_report(both)
    assert len(report.components) == 2
    assert report.chi == 4
    assert all(c.chi == 2 for c in report.components)


def test_topology_components_are_the_pieces_alone():
    pieces = [meshes.octahedron(), meshes.disk_hex(3), meshes.torus_tri(8, 6)]
    verts, tris, offset = [], [], 0
    for k, (v, t) in enumerate(pieces):
        verts.append(v + np.array([5.0 * k, 0.0, 0.0]))
        tris.append(np.asarray(t) + offset)
        offset += len(v)
    report = topology_report(SurfaceMesh(np.vstack(verts), np.vstack(tris)))
    alone = [topology_report(SurfaceMesh(v, t)) for v, t in pieces]
    assert report.components == tuple(alone)
    for name in ("chi", "genus", "boundary_loops", "n", "n_e", "n_f", "n_b"):
        assert getattr(report, name) == sum(getattr(r, name) for r in alone), name


@pytest.mark.parametrize("mesh", [
    meshes.surface(meshes.octahedron),
    meshes.surface(meshes.disk_hex, 3),
    meshes.quad(meshes.cylinder_quads, 8, 5),
], ids=["octahedron", "disk", "cylinder-quads"])
def test_connected_mesh_reports_no_components(mesh):
    report = topology_report(mesh)
    assert report.components == ()
    assert "components" not in report.to_dict()


@pytest.mark.parametrize("mesh", [
    meshes.surface(meshes.octahedron),
    meshes.surface(meshes.square_grid_tri, 5),
    meshes.surface(meshes.disk_hex, 4),
    meshes.surface(meshes.torus_tri, 8, 6),
    meshes.surface(meshes.lshape_tri, 3),
    meshes.surface(meshes.golden_spiral_sphere, 200),
], ids=["octahedron", "square", "disk", "torus", "lshape", "sphere"])
def test_triangle_geometry_is_stored_once(mesh):
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    two_area = np.linalg.norm(cross, axis=1)
    normals, areas = mesh.triangle_normals(), mesh.triangle_areas()
    assert np.array_equal(normals, cross / two_area[:, None])
    assert np.array_equal(areas, 0.5 * two_area)
    assert normals is mesh.triangle_normals() and areas is mesh.triangle_areas()
    for arr in (normals, areas):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("mesh,n_evf", [
    (meshes.surface(meshes.octahedron), 3),
    (meshes.surface(meshes.square_grid_tri, 5), 3),
    (meshes.surface(meshes.disk_hex, 4), 3),
    (meshes.surface(meshes.torus_tri, 8, 6), 3),
    (meshes.surface(meshes.lshape_tri, 3), 3),
    (meshes.quad(meshes.square_grid_quads, 5), 4),
    (meshes.quad(meshes.cylinder_quads, 8, 5), 4),
    (meshes.quad(meshes.torus_quads, 8, 6), 4),
    (meshes.quad(meshes.ogrid_disk_quads, 4, 3), 4),
])
def test_edge_and_facet_count_identities(mesh, n_evf):
    report = topology_report(mesh)
    n, n_e, n_f, n_b = report.n, report.n_e, report.n_f, report.n_b
    assert n_evf * n_f == 2 * (n_e - n_b) + n_b
    assert 2 * n - n_b + (2 - n_evf) * n_f == 2 * report.chi


def test_closed_mesh_even_characteristic():
    for mesh in (meshes.surface(meshes.octahedron),
                 meshes.surface(meshes.torus_tri, 10, 6),
                 meshes.surface(meshes.golden_spiral_sphere, 200)):
        report = topology_report(mesh)
        assert report.n_b == 0
        assert report.chi % 2 == 0


def test_mean_edge_length_values():
    verts, tris = meshes.single_triangle()
    mesh = SurfaceMesh(verts, tris)
    assert mean_edge_length(mesh) == pytest.approx((1 + 1 + np.sqrt(2)) / 3, abs=1e-15)

    grid = meshes.surface(meshes.square_grid_quads, 4)
    assert mean_edge_length(grid) == pytest.approx(0.25, abs=1e-15)

    octa = meshes.surface(meshes.octahedron)
    assert mean_edge_length(octa) == pytest.approx(np.sqrt(2), abs=1e-14)


def test_edge_table_independent_of_triangle_order():
    verts, tris = meshes.disk_hex(4)
    mesh_a = SurfaceMesh(verts, tris)
    rng = np.random.default_rng(3)
    mesh_b = SurfaceMesh(verts, tris[rng.permutation(len(tris))])
    assert np.array_equal(mesh_a.edges, mesh_b.edges)
    assert np.array_equal(mesh_a.boundary_edge, mesh_b.boundary_edge)


def _row_unique_edge_tables(facets):
    """Edge tables by a row-wise ``np.unique`` of the sorted vertex pairs,
    with each edge's adjacent facets gathered by a plain loop."""
    tails = facets.ravel()
    heads = np.roll(facets, -1, axis=1).ravel()
    undirected = np.stack([np.minimum(tails, heads), np.maximum(tails, heads)], axis=1)
    edges, inverse = np.unique(undirected, axis=0, return_inverse=True)
    facet_edges = inverse.reshape(facets.shape)
    adjacent = [[] for _ in edges]
    for t, row in enumerate(facet_edges):
        for e in row:
            adjacent[e].append(t)
    edge_facets = np.array([a + [-1] * (2 - len(a)) for a in adjacent])
    boundary_edge = np.array([len(a) == 1 for a in adjacent])
    return edges, facet_edges, edge_facets, boundary_edge


EDGE_TABLE_FIXTURES = [
    (meshes.octahedron, ()),
    (meshes.square_grid_tri, (5,)),
    (meshes.disk_hex, (4,)),
    (meshes.torus_tri, (8, 6)),
    (meshes.lshape_tri, (3,)),
    (meshes.golden_spiral_sphere, (200,)),
    (meshes.square_grid_quads, (5,)),
    (meshes.lshape_quads, (3,)),
    (meshes.cylinder_quads, (8, 5)),
    (meshes.torus_quads, (8, 6)),
    (meshes.ogrid_disk_quads, (4, 3)),
]


@pytest.mark.parametrize("generator, args", EDGE_TABLE_FIXTURES,
                         ids=[g.__name__ for g, _ in EDGE_TABLE_FIXTURES])
def test_edge_tables_match_row_unique_reference(generator, args):
    verts, facets = generator(*args)
    facets = np.asarray(facets, dtype=np.int64)
    base = _build_edge_tables(facets, len(verts))
    rng = np.random.default_rng(11)
    perms = [np.arange(len(facets))] + [rng.permutation(len(facets)) for _ in range(3)]
    for perm in perms:
        got = _build_edge_tables(facets[perm], len(verts))
        for name, g, w in zip(("edges", "facet_edges", "edge_facets", "boundary_edge"),
                              got, _row_unique_edge_tables(facets[perm])):
            assert g.dtype == w.dtype, name
            assert np.array_equal(g, w), name
        # relabelling the facets keeps every edge id
        assert np.array_equal(got[0], base[0])
        assert np.array_equal(got[1], base[1][perm])
        assert np.array_equal(got[3], base[3])


def _min_inradius(verts, tris):
    p = verts[tris]
    sides = np.linalg.norm(p - np.roll(p, 1, axis=1), axis=2)
    area = 0.5 * np.linalg.norm(
        np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    return float((2.0 * area / sides.sum(axis=1)).min())


@st.composite
def jittered_triangle_meshes(draw):
    """A fixture triangulation whose vertices move by less than a quarter of
    the smallest inradius (so no triangle degenerates), then scaled and
    shifted; its triangles are shuffled and cyclically rotated."""
    generator, args = draw(st.sampled_from([
        (meshes.octahedron, ()),
        (meshes.square_grid_tri, (3,)),
        (meshes.disk_hex, (2,)),
        (meshes.lshape_tri, (2,)),
        (meshes.torus_tri, (6, 4)),
        (meshes.golden_spiral_sphere, (40,)),
    ]))
    verts, tris = generator(*args)
    jitter = draw(arrays(np.float64, verts.shape, elements=st.floats(-1.0, 1.0)))
    verts = verts + jitter * (0.25 / np.sqrt(3.0)) * _min_inradius(verts, tris)
    scale = draw(st.floats(1e-3, 1e3))
    shift = draw(arrays(np.float64, 3, elements=st.floats(-100.0, 100.0)))
    order = draw(st.permutations(range(len(tris))))
    turns = draw(arrays(np.int64, len(tris), elements=st.integers(0, 2)))
    tris = np.array([np.roll(tris[t], k) for t, k in zip(order, turns)])
    return verts * scale + shift, tris


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mesh=jittered_triangle_meshes())
def test_mesh_files_round_trip_exactly(mesh):
    verts, tris = mesh
    with tempfile.TemporaryDirectory() as tmp:
        for suffix, write in (("off", meshes.write_off), ("obj", meshes.write_obj),
                              ("msh", meshes.write_msh22)):
            path = Path(tmp) / f"mesh.{suffix}"
            write(path, verts, tris)
            loaded = load_mesh(path)
            assert isinstance(loaded, SurfaceMesh), suffix
            assert np.array_equal(loaded.vertices, verts), suffix
            assert np.array_equal(loaded.triangles, tris), suffix
