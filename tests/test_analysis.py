import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossfield import (FieldSolution, SurfaceMesh, edge_angles,
                        extract_singularities, poincare_hopf_check,
                        singularities_to_json,
                        triangle_frames, triangle_windings,
                        vertex_windings)
from crossfield import analysis
from crossfield.mesh import _components

import meshes


def test_edge_angles_examples():
    field = FieldSolution(order=4,
                          values=np.array([[1.0, 0.0], [0.0, 1.0]]),
                          epsilon=0.1)
    theta, defined = edge_angles(field)
    assert defined.all()
    assert theta[0] == pytest.approx(0.0, abs=1e-15)
    assert theta[1] == pytest.approx(np.pi / 8, abs=1e-15)

    field6 = FieldSolution(order=6, values=np.array([[-1.0, 0.0]]), epsilon=0.1)
    theta6, _ = edge_angles(field6)
    assert theta6[0] == pytest.approx(np.pi / 6, abs=1e-15)


def test_edge_angles_range_and_undefined():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(40, 2))
    values[7] = (1e-13, -1e-13)
    field = FieldSolution(order=4, values=values, epsilon=0.1)
    theta, defined = edge_angles(field)
    assert not defined[7]
    assert np.isnan(theta[7])
    ok = theta[defined]
    assert (ok > -np.pi / 4 - 1e-15).all() and (ok <= np.pi / 4 + 1e-15).all()


def one_triangle_setup():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    mesh = SurfaceMesh(verts, np.array([[0, 1, 2]]))
    return mesh, triangle_frames(mesh, 4)


def test_constant_field_has_zero_winding():
    mesh, _ = one_triangle_setup()
    e_hat = mesh.edge_frames.e_hat
    phi = np.arctan2(e_hat[:, 1], e_hat[:, 0])
    values = np.stack([np.cos(4 * -phi), np.sin(4 * -phi)], axis=1)
    field = FieldSolution(order=4, values=values, epsilon=0.1)
    assert triangle_windings(mesh, field)[0][0] == 0


def test_prescribed_common_frame_angles_give_full_turn():
    mesh, tf = one_triangle_setup()
    target = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    local1, local2 = tf.to_edges(np.cos(target)[None], np.sin(target)[None])
    values = np.zeros((mesh.n_edges, 2))
    values[mesh.facet_edges[0], 0] = local1[0]
    values[mesh.facet_edges[0], 1] = local2[0]
    field = FieldSolution(order=4, values=values, epsilon=0.1)
    assert triangle_windings(mesh, field)[0][0] == 1


def synthetic_sphere_field(mesh, order, roots):
    """Representation field with prescribed unit-winding zeros on the
    sphere, built in a single conformal chart."""
    mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    mid /= np.linalg.norm(mid, axis=1)[:, None]
    zeta = (mid[:, 0] + 1j * mid[:, 1]) / (1 - mid[:, 2])
    zr = (roots[:, 0] + 1j * roots[:, 1]) / (1 - roots[:, 2])
    psi = np.ones(len(zeta), dtype=complex)
    for z0 in zr:
        psi *= zeta - z0
    u, v = zeta.real, zeta.imag
    s = 1 + u**2 + v**2
    d_du = np.column_stack([2 * s - 4 * u**2, -4 * u * v, 4 * u]) / s[:, None]**2
    d_dv = np.column_stack([-4 * u * v, 2 * s - 4 * v**2, 4 * v]) / s[:, None]**2
    u_c = d_du / np.linalg.norm(d_du, axis=1)[:, None]
    v_c = d_dv / np.linalg.norm(d_dv, axis=1)[:, None]
    beta = np.angle(psi) / order
    direction = np.cos(beta)[:, None] * u_c + np.sin(beta)[:, None] * v_c
    frames = mesh.edge_frames
    theta = np.arctan2((direction * frames.t_hat).sum(1),
                       (direction * frames.e_hat).sum(1))
    values = np.stack([np.cos(order * theta), np.sin(order * theta)], axis=1)
    return FieldSolution(order=order, values=values, epsilon=0.1)


def anticube_points(height=1 / np.sqrt(3), tilt=np.pi / 4):
    r = np.sqrt(1 - height**2)
    az = np.arange(4) * np.pi / 2
    top = np.column_stack([np.full(4, height), r * np.cos(az), r * np.sin(az)])
    bot = np.column_stack([np.full(4, -height), r * np.cos(az + tilt),
                           r * np.sin(az + tilt)])
    return np.vstack([top, bot])


def test_synthetic_field_charge_bookkeeping():
    """Eight prescribed zeros must register as exactly eight unit charges
    split between triangle loops and vertex loops."""
    mesh = meshes.surface(meshes.golden_spiral_sphere, 1482)
    roots = anticube_points()
    field = synthetic_sphere_field(mesh, 4, roots)

    w_tri, flagged = triangle_windings(mesh, field)
    w_vert, resid = vertex_windings(mesh, field)
    assert resid < 0.1
    assert meshes.winding_sum(mesh, field) == 8
    assert not flagged.any()

    positions = [mesh.triangle_centroids()[t] for t in np.flatnonzero(w_tri)]
    positions += [mesh.vertices[v] for v in np.flatnonzero(w_vert)]
    positions = np.array(positions)
    positions /= np.linalg.norm(positions, axis=1)[:, None]
    gaps = np.linalg.norm(positions[:, None, :] - roots[None, :, :], axis=2)
    assert gaps.min(axis=1).max() < 0.08

    # a vertex-seated charge is reported on its lowest-numbered triangle
    seated = [s for s in extract_singularities(mesh, field)[0]
              if s.vertex is not None]
    assert len(seated) == np.count_nonzero(w_vert) > 0
    for s in seated:
        incident = np.flatnonzero((mesh.triangles == s.vertex).any(axis=1))
        assert s.triangle == incident.min()
        assert s.cluster == (s.triangle,)


def test_windings_invariant_under_global_rotation(disk_cross):
    base, _ = triangle_windings(disk_cross.mesh, disk_cross.field)
    base_v, _ = vertex_windings(disk_cross.mesh, disk_cross.field)
    delta = 0.37
    c, s = np.cos(delta), np.sin(delta)
    rotated = disk_cross.field.values @ np.array([[c, s], [-s, c]])
    field = FieldSolution(order=4, values=rotated, epsilon=disk_cross.field.epsilon)
    w, _ = triangle_windings(disk_cross.mesh, field)
    wv, _ = vertex_windings(disk_cross.mesh, field)
    assert np.array_equal(w, base)
    assert np.array_equal(wv, base_v)


def test_sphere_cross_extraction(sphere_cross):
    sings, _ = extract_singularities(sphere_cross.mesh, sphere_cross.field)
    assert len(sings) == 8
    assert all(s.index == Fraction(1, 4) for s in sings)
    assert meshes.winding_sum(sphere_cross.mesh, sphere_cross.field) == 8
    report = poincare_hopf_check(sphere_cross.mesh, sings, sphere_cross.field)
    assert report.passed
    assert report.interior_sum == 2 == report.chi
    assert report.corner_sum == 0

    norms = sphere_cross.field.norms()
    median = float(np.median(norms))
    for s in sings:
        assert s.local_min_norm < median


def test_sphere_asterisk_extraction(sphere_asterisk):
    sings, _ = extract_singularities(sphere_asterisk.mesh,
                                     sphere_asterisk.field)
    assert len(sings) == 12
    assert all(s.index == Fraction(1, 6) for s in sings)
    assert meshes.winding_sum(sphere_asterisk.mesh,
                              sphere_asterisk.field) == 12
    report = poincare_hopf_check(sphere_asterisk.mesh, sings,
                                 sphere_asterisk.field)
    assert report.passed
    assert report.corner_sum == 0


def test_torus_charge_balance(torus_cross):
    assert torus_cross.log.converged
    assert meshes.winding_sum(torus_cross.mesh, torus_cross.field) == 0
    sings, _ = extract_singularities(torus_cross.mesh, torus_cross.field)
    report = poincare_hopf_check(torus_cross.mesh, sings, torus_cross.field)
    assert report.passed
    assert report.chi == 0
    assert report.corner_sum == 0


@pytest.mark.parametrize("order", [1, 4, 6])
@pytest.mark.parametrize("generator, args", [
    (meshes.golden_spiral_sphere, (400,)), (meshes.torus_tri, (24, 10)),
    (meshes.disk_hex, (6,)), (meshes.random_planar_delaunay, (200, 3))],
    ids=["sphere", "torus", "disk", "delaunay"])
def test_triangle_turns_are_integers(generator, args, order):
    """The three wrapped hops of a triangle loop sum to a multiple of 2*pi
    up to rounding, on random fields with 5% of their edges exactly zero."""
    mesh = meshes.surface(generator, *args)
    rng = np.random.default_rng(order)
    for _ in range(20):
        values = rng.normal(size=(mesh.n_edges, 2))
        values[rng.random(mesh.n_edges) < 0.05] = 0.0
        field = FieldSolution(order=order, epsilon=0.1, values=values)
        phi = analysis._common_frame_angles(mesh, field)
        turns = analysis._wrap(np.roll(phi, -1, axis=1) - phi).sum(axis=1) / (
            2.0 * np.pi)
        assert np.abs(turns - np.rint(turns)).max() <= 1e-12


def test_square_corner_accounting(square_cross):
    sings, _ = extract_singularities(square_cross.mesh, square_cross.field)
    assert sings == []
    report = poincare_hopf_check(square_cross.mesh, sings, square_cross.field)
    assert report.corner_sum == 1
    assert report.interior_sum == 0
    assert report.passed


def test_lshape_corner_accounting(lshape_cross):
    sings, _ = extract_singularities(lshape_cross.mesh, lshape_cross.field)
    report = poincare_hopf_check(lshape_cross.mesh, sings, lshape_cross.field)
    assert report.passed
    assert report.interior_sum + report.corner_sum == 1
    # five convex corners at +1/4 and one reflex corner at -1/4
    assert report.corner_sum == Fraction(5, 4) - Fraction(1, 4)
    assert report.interior_sum == 0


def test_disk_extraction(disk_cross):
    sings, _ = extract_singularities(disk_cross.mesh, disk_cross.field)
    assert len(sings) == 4
    assert all(s.index == Fraction(1, 4) for s in sings)
    report = poincare_hopf_check(disk_cross.mesh, sings, disk_cross.field)
    assert report.passed
    assert report.interior_sum == 1
    assert report.corner_sum == 0


def test_zero_norm_edge_merges_cluster(disk_cross):
    mesh = disk_cross.mesh
    # edge 1267 is an interior edge of triangle 730, the representative of a
    # +1/4 charge; with the edge zeroed its two triangles carry net winding
    edge = 1267
    pair = sorted(mesh.edge_facets[edge].tolist())
    assert 730 in pair and pair[0] >= 0
    values = disk_cross.field.values.copy()
    values[edge] = 0.0
    field = FieldSolution(order=4, values=values, epsilon=disk_cross.field.epsilon)
    w_tri, _ = triangle_windings(mesh, field)
    total = int(w_tri[pair].sum())
    assert total != 0

    merged = [s for s in extract_singularities(mesh, field)[0]
              if len(s.cluster) > 1]
    assert len(merged) == 1
    s = merged[0]
    assert s.cluster == tuple(pair)
    assert s.flagged
    assert s.triangle == pair[0]
    assert s.index == Fraction(total, 4)
    assert s.local_min_norm == 0.0
    areas = mesh.triangle_areas[pair]
    centroids = mesh.triangle_centroids()[pair]
    expected = (centroids * areas[:, None]).sum(axis=0) / areas.sum()
    np.testing.assert_allclose(s.position, expected, rtol=0, atol=1e-15)


def test_zero_edges_keep_the_index_sum(disk_cross):
    """A zeroed interior edge has no angle, but its two triangle loops and
    its two end vertex loops each read one; folded into one cluster, their
    charges keep the index sum, also beside the boundary, where the end
    vertex's open fan otherwise drops its share."""
    mesh = disk_cross.mesh
    interior = np.flatnonzero(~mesh.boundary_edge)
    edges = np.random.default_rng(0).choice(interior, 300, replace=False)
    beside_boundary = 0
    for edge in edges:
        values = disk_cross.field.values.copy()
        values[edge] = 0.0
        field = FieldSolution(order=4, values=values,
                              epsilon=disk_cross.field.epsilon)
        sings, _ = extract_singularities(mesh, field)
        assert sum(s.index for s in sings) == 1, edge
        assert poincare_hopf_check(mesh, sings, field).passed, edge
        pair = set(mesh.edge_facets[edge].tolist())
        assert [s.flagged for s in sings
                if s.vertex is None and pair & set(s.cluster)] in ([], [True])
        beside_boundary += bool(mesh.boundary_vertex[mesh.edges[edge]].any())
    assert beside_boundary >= 16


def reference_extraction(mesh, field):
    """The singularities of ``extract_singularities`` as the whole-mesh code
    found them: the centroids of every triangle, and each vertex's first
    triangle by ``np.minimum.at``."""
    phi = analysis._common_frame_angles(mesh, field)
    w_tri, touches_zero = analysis._triangle_windings(mesh, phi, field)
    turns = analysis._vertex_turns(mesh, phi, field.order)
    norms = field.norms()
    centroids = mesh.triangle_centroids()
    areas = mesh.triangle_areas

    near_zero = (norms < analysis.NORM_FLOOR) & ~mesh.boundary_edge
    facets = mesh.edge_facets[near_zero]
    ends = mesh.edges[near_zero]
    counted = ~mesh.boundary_vertex
    counted[ends] = True
    ends = ends + mesh.n_triangles
    count, labels = _components(
        np.concatenate([facets, ends, np.stack([facets[:, 0], ends[:, 0]], 1)]),
        mesh.n_triangles + mesh.n_vertices)
    charge = np.zeros(count)
    np.add.at(charge, labels,
              np.concatenate([w_tri, np.where(counted, turns, 0.0)]))
    charge = np.rint(charge).astype(np.int64)
    by_label = np.argsort(labels, kind="stable")
    size = np.bincount(labels)
    start = np.cumsum(size) - size

    first_tri = np.full(mesh.n_vertices, mesh.n_triangles)
    np.minimum.at(first_tri, mesh.triangles,
                  np.arange(mesh.n_triangles)[:, None])
    out = []
    for c in np.flatnonzero(charge):
        members = by_label[start[c]:start[c] + size[c]]
        cluster = members[members < mesh.n_triangles].tolist()
        vertex = None
        if cluster:
            t, near = cluster[0], mesh.facet_edges[cluster]
            flagged = bool(touches_zero[cluster].any())
            weights = areas[cluster]
            position = ((centroids[cluster] * weights[:, None]).sum(axis=0)
                        / weights.sum()) if flagged else centroids[t]
        else:
            vertex = int(members[0]) - mesh.n_triangles
            t = int(first_tri[vertex])
            near = np.flatnonzero((mesh.edges == vertex).any(axis=1))
            flagged = bool((norms[near] < analysis.NORM_FLOOR).any())
            position = mesh.vertices[vertex]
            cluster = [t]
        out.append(analysis.Singularity(
            triangle=t, position=position,
            index=Fraction(int(charge[c]), field.order),
            local_min_norm=float(norms[near].min()), vertex=vertex,
            cluster=tuple(cluster), flagged=flagged))
    out.sort(key=lambda s: (s.index, s.triangle))
    return out


def zeroed(field, edges):
    values = field.values.copy()
    values[edges] = 0.0
    return FieldSolution(order=field.order, values=values,
                         epsilon=field.epsilon)


def extraction_cases(request):
    """Converged sphere fields, a disk field with zeroed interior edges
    (flagged clusters, some beside the boundary, some of several edges) and
    a sphere field with vertex-seated charges."""
    for name in ("sphere_cross", "sphere_asterisk"):
        case = request.getfixturevalue(name)
        yield name, case.mesh, case.field
    disk = request.getfixturevalue("disk_cross")
    mesh = disk.mesh
    interior = np.flatnonzero(~mesh.boundary_edge)
    rng = np.random.default_rng(1)
    picks = [[1267]] + [[e] for e in rng.choice(interior, 40, replace=False)]
    picks += [rng.choice(interior, 60, replace=False)]
    # a chain of edges around one vertex: the whole fan merges
    picks += [np.flatnonzero((mesh.edges == mesh.triangles[730, 0]).any(1))]
    for edges in picks:
        yield (f"disk-{edges[0]}", mesh, zeroed(disk.field, edges))
    sphere = request.getfixturevalue("sphere_cross")
    yield ("synthetic", sphere.mesh,
           synthetic_sphere_field(sphere.mesh, 4, anticube_points()))


def test_extraction_matches_the_whole_mesh_reference(request):
    """Every field of every singularity equals the whole-mesh code's, the
    position bit for bit, and the returned windings are the bytes of
    ``triangle_windings``."""
    kinds = set()
    for name, mesh, field in extraction_cases(request):
        sings, windings = extract_singularities(mesh, field)
        expected = reference_extraction(mesh, field)
        assert len(sings) == len(expected), name
        for got, want in zip(sings, expected):
            for f in dataclasses.fields(analysis.Singularity):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name == "position":
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    assert a.tobytes() == b.tobytes(), name
                else:
                    assert type(a) is type(b) and a == b, (name, f.name)
            kinds.add("vertex" if got.vertex is not None
                      else "cluster" if got.flagged else "triangle")
        reference, _ = triangle_windings(mesh, field)
        assert windings.dtype == reference.dtype
        assert windings.tobytes() == reference.tobytes(), name
    assert kinds == {"vertex", "cluster", "triangle"}


def test_singularity_sorting_and_json(disk_cross):
    sings, _ = extract_singularities(disk_cross.mesh, disk_cross.field)
    keys = [(s.index, s.triangle) for s in sings]
    assert keys == sorted(keys)
    payload = singularities_to_json(sings)
    assert len(payload) == len(sings)
    for row in payload:
        assert set(row) == {"triangle", "position", "index", "min_norm"}
        assert row["index"]["den"] in (1, 2, 4)
        assert len(row["position"]) == 3


def test_boundary_corner_rounding():
    # right-angle corners contribute 1/4, straight boundary vertices 0,
    # and the reflex corner of the l-shape -1/4
    mesh = meshes.surface(meshes.square_grid_tri, 4)
    field = FieldSolution(order=4, values=np.ones((mesh.n_edges, 2)), epsilon=0.1)
    report = poincare_hopf_check(mesh, [], field)
    assert report.corner_sum == 1

    lmesh = meshes.surface(meshes.lshape_tri, 4)
    lfield = FieldSolution(order=4, values=np.ones((lmesh.n_edges, 2)), epsilon=0.1)
    lreport = poincare_hopf_check(lmesh, [], lfield)
    assert lreport.corner_sum == 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(4, 300), order=st.sampled_from([1, 2, 4, 6]),
       seed=st.integers(0, 2**32 - 1))
def test_random_hull_windings_sum_to_order_times_chi(n, order, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    mesh = meshes.convex_hull_mesh(points)
    angle = rng.uniform(-np.pi, np.pi, mesh.n_edges)
    radius = rng.uniform(0.5, 1.5, mesh.n_edges)
    field = FieldSolution(order=order, epsilon=0.1, values=np.stack(
        [radius * np.cos(angle), radius * np.sin(angle)], axis=1))
    assert meshes.winding_sum(mesh, field) == 2 * order
    sings, _ = extract_singularities(mesh, field)
    assert poincare_hopf_check(mesh, sings, field).passed
