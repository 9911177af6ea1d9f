"""Mesh generators, file writers and the winding sum shared by the test
suite."""

import numpy as np
from scipy.spatial import ConvexHull, Delaunay

from crossfield import (QuadMesh, SurfaceMesh, triangle_windings,
                        vertex_windings)


def octahedron():
    verts = np.array([
        [1, 0, 0], [-1, 0, 0],
        [0, 1, 0], [0, -1, 0],
        [0, 0, 1], [0, 0, -1],
    ], dtype=float)
    tris = np.array([
        [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
        [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
    ])
    return verts, tris


def single_triangle():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    tris = np.array([[0, 1, 2]])
    return verts, tris


def square_grid_tri(n, size=1.0):
    """Structured triangulation of [0, size]^2, axis-aligned boundary."""
    xs = np.linspace(0.0, size, n + 1)
    verts = np.array([[x, y, 0.0] for x in xs for y in xs])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            tris.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            tris.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return verts, np.array(tris)


def saddle_tri(n):
    """``square_grid_tri(n)`` lifted onto the saddle
    ``z = 0.3 * ((x - 1/2)^2 - (y - 1/2)^2)``: a curved mesh with boundary."""
    verts, tris = square_grid_tri(n)
    verts[:, 2] = 0.3 * ((verts[:, 0] - 0.5) ** 2 - (verts[:, 1] - 0.5) ** 2)
    return verts, tris


def square_grid_quads(n, size=1.0):
    xs = np.linspace(0.0, size, n + 1)
    verts = np.array([[x, y, 0.0] for x in xs for y in xs])

    def vid(i, j):
        return i * (n + 1) + j

    quads = []
    for i in range(n):
        for j in range(n):
            quads.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return verts, np.array(quads)


def lshape_tri(n):
    """[0,2]^2 minus the open quadrant (1,2)x(1,2); n cells per unit."""
    xs = np.linspace(0.0, 2.0, 2 * n + 1)
    idx = {}
    verts = []
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            if x > 1 + 1e-12 and y > 1 + 1e-12:
                continue
            idx[(i, j)] = len(verts)
            verts.append([x, y, 0.0])
    tris = []
    for i in range(2 * n):
        for j in range(2 * n):
            corner = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if not all(c in idx for c in corner):
                continue
            v = [idx[c] for c in corner]
            tris.append([v[0], v[1], v[2]])
            tris.append([v[0], v[2], v[3]])
    return np.array(verts), np.array(tris)


def lshape_quads(n):
    xs = np.linspace(0.0, 2.0, 2 * n + 1)
    idx = {}
    verts = []
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            if x > 1 + 1e-12 and y > 1 + 1e-12:
                continue
            idx[(i, j)] = len(verts)
            verts.append([x, y, 0.0])
    quads = []
    for i in range(2 * n):
        for j in range(2 * n):
            corner = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if not all(c in idx for c in corner):
                continue
            quads.append([idx[c] for c in corner])
    return np.array(verts), np.array(quads)


def disk_hex(rings, radius=1.0):
    """Disk triangulation from concentric rings of 6j vertices."""
    verts = [(0.0, 0.0, 0.0)]
    ring_start = [0]
    for j in range(1, rings + 1):
        k = 6 * j
        ang = 2 * np.pi * np.arange(k) / k
        rad = radius * j / rings
        ring_start.append(len(verts))
        verts.extend(np.column_stack(
            [rad * np.cos(ang), rad * np.sin(ang), np.zeros(k)]))
    tris = []
    for j in range(1, rings + 1):
        outer_n, outer0 = 6 * j, ring_start[j]
        if j == 1:
            for s in range(outer_n):
                tris.append([0, outer0 + s, outer0 + (s + 1) % outer_n])
            continue
        inner_n, inner0 = 6 * (j - 1), ring_start[j - 1]
        ia = 2 * np.pi * np.arange(inner_n) / inner_n
        oa = 2 * np.pi * np.arange(outer_n) / outer_n
        i = o = 0
        while i < inner_n or o < outer_n:
            next_i = ia[(i + 1) % inner_n] + (2 * np.pi if i + 1 >= inner_n else 0)
            next_o = oa[(o + 1) % outer_n] + (2 * np.pi if o + 1 >= outer_n else 0)
            if o < outer_n and (i >= inner_n or next_o <= next_i):
                tris.append([inner0 + i % inner_n, outer0 + o % outer_n,
                             outer0 + (o + 1) % outer_n])
                o += 1
            else:
                tris.append([inner0 + i % inner_n, outer0 + o % outer_n,
                             inner0 + (i + 1) % inner_n])
                i += 1
    return np.array(verts), np.array(tris)


def golden_spiral_sphere(n_points):
    """Quasi-uniform unit-sphere triangulation via a spiral and its hull."""
    k = np.arange(n_points)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    z = 1.0 - (2.0 * k + 1.0) / n_points
    r = np.sqrt(1.0 - z**2)
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    hull = ConvexHull(pts)
    tris = hull.simplices.copy()
    p = pts[tris]
    normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    flip = (normal * p.mean(axis=1)).sum(axis=1) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return pts, tris


def convex_hull_mesh(points):
    """Triangulated convex hull, each face counterclockwise seen from outside."""
    tris = ConvexHull(points).simplices.copy()
    p = points[tris]
    normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    # orient against the hull's own centroid: on small hulls the origin can
    # lie outside or on a face plane
    outward = p.mean(axis=1) - points[np.unique(tris)].mean(axis=0)
    inward = (normal * outward).sum(axis=1) < 0
    tris[inward] = tris[inward][:, ::-1]
    return SurfaceMesh(points, tris)


def ellipsoid_hull(n_points, seed):
    """Convex hull of ``n_points`` random unit vectors scaled by (1, 0.6,
    0.35): a closed ellipsoid with no symmetry."""
    points = np.random.default_rng(seed).standard_normal((n_points, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    return convex_hull_mesh(points * np.array([1.0, 0.6, 0.35]))


def torus_tri(nu, nv, ring_radius=1.0, tube_radius=0.4):
    verts = []
    for i in range(nu):
        for j in range(nv):
            th = 2 * np.pi * i / nu
            ph = 2 * np.pi * j / nv
            verts.append([(ring_radius + tube_radius * np.cos(ph)) * np.cos(th),
                          (ring_radius + tube_radius * np.cos(ph)) * np.sin(th),
                          tube_radius * np.sin(ph)])

    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    tris = []
    for i in range(nu):
        for j in range(nv):
            tris.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            tris.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return np.array(verts), np.array(tris)


def torus_quads(nu, nv, ring_radius=1.0, tube_radius=0.4):
    verts, _ = torus_tri(nu, nv, ring_radius, tube_radius)

    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    quads = []
    for i in range(nu):
        for j in range(nv):
            quads.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return verts, np.array(quads)


def cylinder_quads(nu, nv, radius=1.0, height=2.0):
    verts = []
    for j in range(nv + 1):
        for i in range(nu):
            th = 2 * np.pi * i / nu
            verts.append([radius * np.cos(th), radius * np.sin(th),
                          height * j / nv])

    def vid(i, j):
        return j * nu + (i % nu)

    quads = []
    for j in range(nv):
        for i in range(nu):
            quads.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return np.array(verts), np.array(quads)


def ogrid_disk_quads(k, layers, radius=1.0):
    """Disk quadrangulation: central k-by-k block plus blended outer layers.

    The four corners of the central block are interior vertices with three
    adjacent quads each; everything else is regular.
    """
    side = radius * 0.9
    xs = np.linspace(-side / 2, side / 2, k + 1)
    verts = []
    idx = {}
    for i in range(k + 1):
        for j in range(k + 1):
            idx[(i, j)] = len(verts)
            verts.append([xs[i], xs[j], 0.0])
    quads = []
    for i in range(k):
        for j in range(k):
            quads.append([idx[(i, j)], idx[(i + 1, j)],
                          idx[(i + 1, j + 1)], idx[(i, j + 1)]])

    # block boundary walked counterclockwise from corner (0, 0)
    ring0 = []
    for i in range(k):
        ring0.append(idx[(i, 0)])
    for j in range(k):
        ring0.append(idx[(k, j)])
    for i in range(k, 0, -1):
        ring0.append(idx[(i, k)])
    for j in range(k, 0, -1):
        ring0.append(idx[(0, j)])
    n_ring = len(ring0)

    square_pts = np.array([verts[v][:2] for v in ring0])
    ang0 = np.arctan2(square_pts[:, 1], square_pts[:, 0])
    circle_pts = radius * np.column_stack([np.cos(ang0), np.sin(ang0)])

    rings = [ring0]
    for layer in range(1, layers + 1):
        t = layer / layers
        pts = (1 - t) * square_pts + t * circle_pts
        ring = []
        for p in pts:
            ring.append(len(verts))
            verts.append([p[0], p[1], 0.0])
        rings.append(ring)
    for a, b in zip(rings[:-1], rings[1:]):
        for s in range(n_ring):
            quads.append([a[s], b[s], b[(s + 1) % n_ring], a[(s + 1) % n_ring]])
    return np.array(verts), np.array(quads)


def catmull_quads_from_tri(verts, tris):
    """Split every triangle into three quads at edge midpoints and centroid."""
    verts = np.asarray(verts, dtype=float)
    tris = np.asarray(tris)
    edge_mid = {}
    out = list(map(list, verts))

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in edge_mid:
            edge_mid[key] = len(out)
            out.append(list(0.5 * (verts[a] + verts[b])))
        return edge_mid[key]

    quads = []
    for a, b, c in tris:
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        centroid = len(out)
        out.append(list(verts[[a, b, c]].mean(axis=0)))
        quads.append([a, mab, centroid, mca])
        quads.append([b, mbc, centroid, mab])
        quads.append([c, mca, centroid, mbc])
    return np.array(out), np.array(quads)


def subdivide_quads(verts, quads):
    """Split every quad 2x2 at edge midpoints and centre."""
    verts = np.asarray(verts, dtype=float)
    quads = np.asarray(quads)
    out = list(map(list, verts))
    edge_mid = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in edge_mid:
            edge_mid[key] = len(out)
            out.append(list(0.5 * (verts[a] + verts[b])))
        return edge_mid[key]

    refined = []
    for a, b, c, d in quads:
        mab, mbc = midpoint(a, b), midpoint(b, c)
        mcd, mda = midpoint(c, d), midpoint(d, a)
        centre = len(out)
        out.append(list(verts[[a, b, c, d]].mean(axis=0)))
        refined.append([a, mab, centre, mda])
        refined.append([b, mbc, centre, mab])
        refined.append([c, mcd, centre, mbc])
        refined.append([d, mda, centre, mcd])
    return np.array(out), np.array(refined)


def random_planar_delaunay(n_interior, seed, size=1.0):
    """Random Delaunay triangulation of a square.

    Interior points that make a sliver (a triangle of area at most 1e-4)
    are dropped and the rest triangulated again, so every triangle of the
    result is kept and the triangles cover the whole square."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, size - 0.05, size=(n_interior, 2))
    border = np.linspace(0.0, size, 5)
    frame = [(x, y) for x in border for y in (0.0, size)]
    frame += [(x, y) for y in border[1:-1] for x in (0.0, size)]
    while True:
        all_pts = np.vstack([pts, np.array(frame)])
        simplices = Delaunay(all_pts).simplices
        p = all_pts[simplices]
        area = 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
        corners = simplices[area <= 1e-4]
        drop = np.unique(corners[corners < len(pts)])
        if len(drop) == 0:
            break
        pts = np.delete(pts, drop, axis=0)
    used = np.unique(simplices)
    remap = -np.ones(len(all_pts), dtype=int)
    remap[used] = np.arange(len(used))
    verts = np.column_stack([all_pts[used], np.zeros(len(used))])
    return verts, remap[simplices]


# --- file writers -----------------------------------------------------------

def write_off(path, verts, faces):
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(verts)} {len(faces)} 0\n")
        for v in verts:
            fh.write(f"{v[0]} {v[1]} {v[2]}\n")
        for f in faces:
            fh.write(f"{len(f)} " + " ".join(str(int(i)) for i in f) + "\n")


def write_obj(path, verts, faces):
    with open(path, "w") as fh:
        for v in verts:
            fh.write(f"v {v[0]} {v[1]} {v[2]}\n")
        for f in faces:
            fh.write("f " + " ".join(str(int(i) + 1) for i in f) + "\n")


def write_msh22(path, verts, tris, lines=()):
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{len(verts)}\n")
        for i, v in enumerate(verts, start=1):
            fh.write(f"{i} {v[0]} {v[1]} {v[2]}\n")
        fh.write("$EndNodes\n")
        fh.write(f"$Elements\n{len(tris) + len(lines)}\n")
        eid = 1
        for a, b in lines:
            fh.write(f"{eid} 1 2 0 1 {a + 1} {b + 1}\n")
            eid += 1
        for t in tris:
            fh.write(f"{eid} 2 2 0 1 {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
            eid += 1
        fh.write("$EndElements\n")


def surface(generator, *args, **kwargs):
    verts, tris = generator(*args, **kwargs)
    return SurfaceMesh(verts, tris)


def quad(generator, *args, **kwargs):
    verts, quads = generator(*args, **kwargs)
    return QuadMesh(verts, quads)


def winding_sum(mesh, field):
    """Sum of all triangle and interior-vertex windings.  On a closed
    surface it is the symmetry order times the Euler characteristic for any
    field with no midpoint hop of exactly ±pi."""
    w_tri, _ = triangle_windings(mesh, field)
    w_vert, _ = vertex_windings(mesh, field)
    return int(w_tri.sum() + w_vert.sum())
