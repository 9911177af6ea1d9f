import logging
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from crossfield import (InvalidMeshError, MeshLoadError, QuadMesh,
                        SurfaceMesh, boundary_loops, load_mesh,
                        mean_edge_length, topology_report)
from crossfield import mesh as mesh_module
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
    assert mesh.n_facets == 9


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


def test_surface_mesh_accepts_only_triangles():
    with pytest.raises(InvalidMeshError, match="3 vertices each, not 4"):
        SurfaceMesh(*meshes.square_grid_quads(4))
    with pytest.raises(InvalidMeshError, match="4 vertices each, not 3"):
        QuadMesh(*meshes.square_grid_tri(4))


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
    normals, areas = mesh.triangle_normals, mesh.triangle_areas
    assert np.array_equal(normals, cross / two_area[:, None])
    assert np.array_equal(areas, 0.5 * two_area)
    assert normals is mesh.triangle_normals and areas is mesh.triangle_areas
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

    grid = meshes.quad(meshes.square_grid_quads, 4)
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


# --- the NumPy block readers against the per-line parsers they replaced ---

def _reference_off(text):
    """Vertices and faces of an OFF text, parsed line by line."""
    lines = [s for s in (l.split("#", 1)[0].strip() for l in text.splitlines())
             if s]
    header = lines[0].split()
    counts, body = ((header[1:4], lines[1:]) if len(header) >= 4
                    else (lines[1].split(), lines[2:]))
    n_v, n_f = int(counts[0]), int(counts[1])
    vertices = [tuple(float(t) for t in body[i].split()[:3]) for i in range(n_v)]
    faces = []
    for i in range(n_v, n_v + n_f):
        tokens = body[i].split()
        faces.append(tuple(int(t) for t in tokens[1:1 + int(tokens[0])]))
    return np.array(vertices), np.array(faces, dtype=np.int64)


def _reference_msh(text):
    """Vertices (in node order) and triangles of an MSH 2.2 text, parsed
    line by line through a node dict."""
    lines = text.splitlines()
    i, nodes, faces = 0, {}, []
    while i < len(lines):
        tag = lines[i].strip()
        if tag in ("$Nodes", "$Elements"):
            count = int(lines[i + 1])
            for line in lines[i + 2:i + 2 + count]:
                tok = line.split()
                if tag == "$Nodes":
                    nodes[int(tok[0])] = tuple(float(t) for t in tok[1:4])
                elif int(tok[1]) == 2:
                    faces.append(tuple(int(t) for t in tok[3 + int(tok[2]):]))
            i += count + 3
        else:
            i += 1
    remap = {nid: k for k, nid in enumerate(nodes)}
    return (np.array(list(nodes.values())),
            np.array([[remap[n] for n in f] for f in faces], dtype=np.int64))


coordinates = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def msh_texts(draw):
    """An MSH 2.2 text with shuffled node ids that may have gaps, triangles
    with 0 to 4 tags, and line (type 1) and point (type 15) elements
    interleaved with them."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(1, 10**12), min_size=n, max_size=n,
                        unique=True))
    xyz = draw(st.lists(st.tuples(coordinates, coordinates, coordinates),
                        min_size=n, max_size=n))
    nodes = [f"{i} {x!r} {y!r} {z!r}" for i, (x, y, z) in zip(ids, xyz)]
    node = st.sampled_from(ids)
    tags = st.lists(st.integers(-5, 99), max_size=4)
    elements = draw(st.lists(st.one_of(
        st.tuples(st.just(2), tags, st.lists(node, min_size=3, max_size=3)),
        st.tuples(st.just(1), tags, st.lists(node, min_size=2, max_size=2)),
        st.tuples(st.just(15), tags, st.lists(node, min_size=1, max_size=1))),
        max_size=20))
    rows = [" ".join(map(str, [k, etype, len(t), *t, *conn]))
            for k, (etype, t, conn) in enumerate(elements, start=1)]
    return ("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
            f"$Nodes\n{n}\n" + "".join(f"{r}\n" for r in nodes) + "$EndNodes\n"
            f"$Elements\n{len(rows)}\n" + "".join(f"{r}\n" for r in rows)
            + "$EndElements\n")


@st.composite
def off_texts(draw):
    """An OFF text of triangles or of quadrangles, its counts on the header
    line or the next, with comment and blank lines among the records."""
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from([3, 4]))
    xyz = draw(st.lists(st.tuples(coordinates, coordinates, coordinates),
                        min_size=n, max_size=n))
    faces = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k,
                                   max_size=k), max_size=20))
    counts = f"{n} {len(faces)} 0"
    lines = ([f"OFF {counts}"] if draw(st.booleans()) else ["OFF", counts])
    for record in ([f"{x!r} {y!r} {z!r}" for x, y, z in xyz]
                   + [" ".join(map(str, [k, *f])) for f in faces]):
        lines.append(record + draw(st.sampled_from(["", "  # note", "\t"])))
        lines.extend(draw(st.lists(st.sampled_from(["", "# comment", "   "]),
                                   max_size=2)))
    return "\n".join(lines) + "\n"


#: A failing text is reported as generated, unshrunk: under pytest each
#: failing attempt renders a traceback through NumPy's parser frames (about
#: 0.15 s), and shrinking a broken reader's example ran for minutes.
READER_PROPERTY = settings(derandomize=True, max_examples=100, deadline=None,
                           phases=[Phase.generate])


def _assert_reads_as_reference(reader, text, reference, suffix):
    vertices, faces = reader(Path(f"mesh.{suffix}"), text.splitlines())
    want_vertices, want_faces = reference(text)
    assert vertices.dtype == want_vertices.dtype == np.float64
    assert vertices.tobytes() == want_vertices.tobytes()
    assert faces.dtype == np.int64 and len(faces) == len(want_faces)
    assert np.array_equal(faces.ravel(), want_faces.ravel())


@READER_PROPERTY
@given(text=msh_texts())
def test_msh_reader_matches_per_line_parse(text):
    _assert_reads_as_reference(mesh_module._read_msh, text, _reference_msh, "msh")


@READER_PROPERTY
@given(text=off_texts())
def test_off_reader_matches_per_line_parse(text):
    _assert_reads_as_reference(mesh_module._read_off, text, _reference_off, "off")


MSH_START = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
THREE_NODES = "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
ONE_TRIANGLE = "$Elements\n1\n1 2 2 0 1 1 2 3\n$EndElements\n"


@pytest.mark.parametrize("body, message", [
    (THREE_NODES + "$Elements\n1\n1 2 2 0 1 1 2 3 1\n$EndElements\n",
     "triangle element 1 has 4 nodes"),
    (THREE_NODES + "$Elements\n2\n1 2 2 0 1 1 2 3\n2 2 0 3 2\n$EndElements\n",
     "triangle element 2 has 2 nodes"),
    ("$Nodes\n3\n1 0 0 0\n2 1 # 0 0\n3 0 1 0\n$EndNodes\n" + ONE_TRIANGLE,
     "malformed MSH file"),
    ("$Nodes\n3\n1 0 0 0\n2 1 0 0 #\n3 0 1 0 #\n$EndNodes\n" + ONE_TRIANGLE
     .replace("1 2 3", "1 2 #"), "malformed MSH file"),
    ("$Nodes\n3\n1 0 0 0\n99999999999999999999 1 0 0\n3 0 1 0\n$EndNodes\n"
     + ONE_TRIANGLE, "malformed MSH file"),
    ("$Nodes\n0\n$EndNodes\n" + ONE_TRIANGLE, "MSH file has no nodes"),
    ("$Nodes\n-2\n1 0 0 0\n$EndNodes\n" + ONE_TRIANGLE, "malformed MSH file"),
    ("$Nodes\n2\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n" + ONE_TRIANGLE,
     "$Nodes block does not end after 2 rows"),
    (THREE_NODES + "$Elements\n2\n1 2 2 0 1 1 2 3\n$EndElements\n",
     "IndexError"),
    (THREE_NODES + "$Elements\n1\n1 2 -1 1 2 3\n$EndElements\n",
     "triangle element 1 has 4 nodes"),
], ids=["fourth-node", "two-nodes", "hash-in-node", "hash-in-element",
        "id-overflow", "no-nodes", "negative-count", "count-below-rows",
        "count-above-rows", "negative-tags"])
def test_msh_reader_rejects_with_the_file_name(tmp_path, body, message):
    path = tmp_path / "bad.msh"
    path.write_text(MSH_START + body)
    with pytest.raises(MeshLoadError, match="bad.msh") as info:
        load_mesh(path)
    assert message in str(info.value)


@pytest.mark.parametrize("text, message", [
    ("OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 # 1 0\n3 0 1 2\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n5 0 1 2 0 1\n", "facets with [5] vertices"),
    ("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "contains no facets"),
], ids=["negative-count", "cut-vertex", "short-face", "pentagon", "no-faces"])
def test_off_reader_rejects_with_the_file_name(tmp_path, text, message):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(MeshLoadError, match="bad.off") as info:
        load_mesh(path)
    assert message in str(info.value)


def test_readers_return_facet_arrays(tmp_path):
    verts, tris = meshes.disk_hex(2)
    for suffix, write in (("off", meshes.write_off), ("obj", meshes.write_obj),
                          ("msh", meshes.write_msh22)):
        path = tmp_path / f"disk.{suffix}"
        write(path, verts, tris)
        lines = path.read_text(encoding="utf-8").splitlines()
        vertices, faces = mesh_module._READERS[suffix](path, lines)
        assert vertices.dtype == np.float64 and vertices.shape == verts.shape
        assert faces.dtype == np.int64 and np.array_equal(faces, tris)


#: One triangle per format, with the word "note" in a comment (OFF), an
#: object name (OBJ) or a section that the reader skips (MSH).
NOTED_TRIANGLE = {
    "off": b"OFF\n# note\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "obj": b"o note\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "msh": (MSH_START + "$Comment\nnote\n$EndComment\n" + THREE_NODES
            + ONE_TRIANGLE).encode(),
}


def _load_bytes(path, data):
    path.write_bytes(data)
    return load_mesh(path)


# the first three are not UTF-8; the last is, and its letters hold the bytes
# 0x85 and 0xa0, which latin-1 would read as a line break and a space
@pytest.mark.parametrize("stray", [b"caf\xe9", b"\xff\xfe", b"\x85end",
                                   "\u00c5land \u0445\u00e0".encode()],
                         ids=["latin-1", "ff-fe", "lone-85", "utf-8"])
@pytest.mark.parametrize("fmt", sorted(NOTED_TRIANGLE))
def test_any_byte_outside_the_records_loads(tmp_path, fmt, stray):
    clean = _load_bytes(tmp_path / f"clean.{fmt}", NOTED_TRIANGLE[fmt])
    noted = NOTED_TRIANGLE[fmt].replace(b"note", b"note " + stray)
    mesh = _load_bytes(tmp_path / f"stray.{fmt}", noted)
    assert mesh.vertices.tobytes() == clean.vertices.tobytes()
    assert np.array_equal(mesh.triangles, clean.triangles)


BOM = "\ufeff".encode()


@pytest.mark.parametrize("fmt, write", [
    ("off", meshes.write_off), ("obj", meshes.write_obj),
    ("msh", meshes.write_msh22)])
def test_a_byte_order_mark_is_dropped(tmp_path, fmt, write):
    verts, tris = meshes.disk_hex(2)
    plain = tmp_path / f"plain.{fmt}"
    write(plain, verts, tris)
    clean = load_mesh(plain)
    mesh = _load_bytes(tmp_path / f"marked.{fmt}", BOM + plain.read_bytes())
    assert mesh.vertices.tobytes() == clean.vertices.tobytes()
    assert np.array_equal(mesh.triangles, clean.triangles)


def test_a_marked_binary_msh_is_rejected(tmp_path):
    data = BOM + (MSH_START.replace("2.2 0 8", "2.2 1 8") + THREE_NODES
                  + ONE_TRIANGLE).encode()
    with pytest.raises(MeshLoadError, match="binary.msh: binary MSH"):
        _load_bytes(tmp_path / "binary.msh", data)


@pytest.mark.parametrize("fmt, message", [
    ("msh", "could not convert string"), ("obj", ":3: bad vertex record"),
    ("off", "could not convert string")])
def test_a_byte_inside_a_coordinate_names_the_file(tmp_path, fmt, message):
    # the message names the field, not the file's bytes: a failed decode
    # once echoed all of them
    data = NOTED_TRIANGLE[fmt].replace(b"1 0 0\n", b"1\xe9 0 0\n", 1)
    path = tmp_path / f"bad.{fmt}"
    with pytest.raises(MeshLoadError, match=f"bad.{fmt}") as info:
        _load_bytes(path, data)
    assert message in str(info.value)
    assert len(str(info.value)) < len(str(path)) + 200


@pytest.mark.parametrize("fmt", sorted(NOTED_TRIANGLE))
def test_degenerate_triangle_names_the_file(tmp_path, fmt):
    data = NOTED_TRIANGLE[fmt].replace(b"0 1 0\n", b"2 0 0\n")
    with pytest.raises(InvalidMeshError, match=f"flat.{fmt}: degenerate"):
        _load_bytes(tmp_path / f"flat.{fmt}", data)


def test_unreadable_file_names_the_file(tmp_path):
    with pytest.raises(MeshLoadError, match="nope.off: No such file"):
        load_mesh(tmp_path / "nope.off")
    directory = tmp_path / "dir.obj"
    directory.mkdir()
    with pytest.raises(MeshLoadError, match="dir.obj: Is a directory"):
        load_mesh(directory)


@pytest.mark.parametrize("mesh", [
    meshes.surface(meshes.octahedron),
    meshes.surface(meshes.lshape_tri, 3),
    meshes.surface(meshes.golden_spiral_sphere, 200),
    meshes.surface(meshes.random_planar_delaunay, 40, 3),
], ids=["octahedron", "lshape", "sphere", "delaunay"])
def test_angle_defects_are_stored_once(mesh):
    p = mesh.vertices[mesh.triangles]
    total = np.zeros(mesh.n_vertices)
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosine = (a * b).sum(axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        np.add.at(total, mesh.triangles[:, i],
                  np.arccos(np.clip(cosine, -1.0, 1.0)))
    defects = mesh.angle_defect
    assert defects.tobytes() == (2.0 * np.pi - total).tobytes()
    assert not defects.flags.writeable


def test_coincident_vertices_are_degenerate():
    with pytest.raises(InvalidMeshError, match="degenerate"):
        SurfaceMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-160])
def test_out_of_range_coordinate_scale_is_rejected(scale):
    """A mesh whose edge lengths have fourth powers outside the normal
    doubles is rejected by its coordinate scale, before any product of the
    geometry overflows or underflows: not as a fold-over or as degenerate,
    and with no warning."""
    verts, tris = meshes.golden_spiral_sphere(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMeshError, match="coordinate scale"):
            SurfaceMesh(verts * scale, tris)


@pytest.mark.parametrize("n", range(20, 81, 15))
def test_random_planar_delaunay_covers_the_square(n):
    for seed in range(50):
        for size in (1.0, 2.0):
            mesh = meshes.surface(meshes.random_planar_delaunay, n, seed, size)
            assert len(boundary_loops(mesh)) == 1, (n, seed, size)
            assert mesh.triangle_areas.sum() == pytest.approx(size**2,
                                                                rel=1e-12)
