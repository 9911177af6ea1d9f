"""Surface mesh loading, connectivity tables, and topology reports.

Reads ASCII OFF, Wavefront OBJ (``v``/``f`` records) and Gmsh MSH 2.2 files
containing either pure triangle or pure quadrangle meshes.  Vertex indices
are normalised to 0-based internally regardless of the input format.

Edge identity is the unordered vertex pair; the stored pair is sorted
ascending, which also fixes the edge direction used by the tangent frames.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

logger = logging.getLogger(__name__)

__all__ = [
    "MeshLoadError",
    "InvalidMeshError",
    "SurfaceMesh",
    "QuadMesh",
    "TopologyReport",
    "load_mesh",
    "topology_report",
    "boundary_loops",
    "mean_edge_length",
]


class MeshLoadError(ValueError):
    """A mesh file cannot be read or violates the format assumptions."""


class InvalidMeshError(ValueError):
    """Mesh connectivity is unusable (non-manifold, degenerate, unoriented)."""


def _prune_unreferenced(vertices, facets):
    """Drop vertices not referenced by any facet, remapping facet indices."""
    used = np.zeros(len(vertices), dtype=bool)
    used[facets.ravel()] = True
    if used.all():
        return vertices, facets
    remap = np.cumsum(used) - 1
    logger.warning("pruned %d unreferenced vertices", int((~used).sum()))
    return vertices[used], remap[facets]


def _build_edge_tables(facets, n_vertices):
    """Derive the unique-edge table and facet adjacency of a facet array.

    Returns ``(edges, facet_edges, edge_facets, boundary_edge)``.  Edges are
    sorted ascending within each row and lexicographically overall, so edge
    ids do not depend on facet ordering.  ``facet_edges[t, i]`` is the edge
    between local vertices ``i`` and ``i+1`` of facet ``t``; ``edge_facets``
    holds 1 or 2 adjacent facet ids (-1 padding).

    Raises
    ------
    InvalidMeshError
        If an edge has three or more adjacent facets, or the two adjacent
        facets of an interior edge traverse it in the same direction
        (inconsistent orientation).
    """
    m, k = facets.shape
    tails = facets.ravel()
    heads = np.roll(facets, -1, axis=1).ravel()
    undirected = np.stack([np.minimum(tails, heads), np.maximum(tails, heads)], axis=1)
    edges, inverse = np.unique(undirected, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    n_e = len(edges)

    counts = np.bincount(inverse, minlength=n_e)
    if counts.max(initial=0) > 2:
        bad = edges[np.flatnonzero(counts > 2)[:5]]
        raise InvalidMeshError(
            f"non-manifold edges with 3+ adjacent facets: {bad.tolist()}"
        )

    signs = np.where(tails < heads, 1, -1)
    sign_sum = np.zeros(n_e, dtype=np.int64)
    np.add.at(sign_sum, inverse, signs)
    misoriented = (counts == 2) & (sign_sum != 0)
    if misoriented.any():
        bad = edges[np.flatnonzero(misoriented)[:5]]
        raise InvalidMeshError(
            f"adjacent facets traverse edges {bad.tolist()} in the same "
            "direction; the mesh is not consistently oriented"
        )

    facet_edges = inverse.reshape(m, k)
    order = np.argsort(inverse, kind="stable")
    facet_of_entry = np.repeat(np.arange(m), k)[order]
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    edge_facets = np.full((n_e, 2), -1, dtype=np.int64)
    edge_facets[:, 0] = facet_of_entry[starts]
    second = counts == 2
    edge_facets[second, 1] = facet_of_entry[starts[second] + 1]
    boundary_edge = counts == 1
    return edges, facet_edges, edge_facets, boundary_edge


class _FacetMesh:
    """Shared connectivity machinery of triangle and quad meshes."""

    def __init__(self, vertices, facets, facet_name):
        vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        facets = np.ascontiguousarray(np.asarray(facets, dtype=np.int64))
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise InvalidMeshError("vertices must be an (n, 3) array")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if len(bad):
            raise InvalidMeshError(
                f"vertices {bad[:5].tolist()} have non-finite coordinates")
        if facets.ndim != 2:
            raise InvalidMeshError(f"{facet_name} must be a 2-d index array")
        if len(facets) == 0:
            raise InvalidMeshError(f"mesh has no {facet_name}")
        if facets.min(initial=0) < 0 or facets.max(initial=-1) >= len(vertices):
            raise InvalidMeshError(f"{facet_name} reference vertices out of range")
        for i in range(facets.shape[1]):
            for j in range(i + 1, facets.shape[1]):
                dup = facets[:, i] == facets[:, j]
                if dup.any():
                    bad = np.flatnonzero(dup)[:5]
                    raise InvalidMeshError(
                        f"{facet_name} {bad.tolist()} repeat a vertex"
                    )

        vertices, facets = _prune_unreferenced(vertices, facets)
        self.vertices = vertices
        self.facets = facets
        (self.edges, self.facet_edges, self.edge_facets,
         self.boundary_edge) = _build_edge_tables(facets, len(vertices))
        self.boundary_vertex = np.zeros(len(vertices), dtype=bool)
        self.boundary_vertex[self.edges[self.boundary_edge].ravel()] = True
        for arr in (self.vertices, self.facets, self.edges, self.facet_edges,
                    self.edge_facets, self.boundary_edge, self.boundary_vertex):
            arr.setflags(write=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_facets(self):
        return len(self.facets)

    def edge_vectors(self):
        """Vector along each edge, from the lower- to the higher-index vertex."""
        return self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]

    def edge_lengths(self):
        return np.linalg.norm(self.edge_vectors(), axis=1)

    def is_closed(self):
        return not self.boundary_edge.any()

    def vertex_component_labels(self):
        """Connected-component label per vertex (edges as graph links)."""
        n = self.n_vertices
        ones = np.ones(len(self.edges))
        graph = coo_matrix((ones, (self.edges[:, 0], self.edges[:, 1])), shape=(n, n))
        count, labels = connected_components(graph, directed=False)
        return count, labels


class SurfaceMesh(_FacetMesh):
    """Indexed triangle mesh with derived edge table and boundary flags.

    Triangles must be counterclockwise with respect to the outward normal
    and consistently oriented; construction validates orientability,
    manifoldness, and rejects degenerate (zero-area) triangles.  All arrays
    are immutable after construction, so instances are safe to share across
    threads.

    Parameters
    ----------
    vertices : array_like, shape (n, 3)
        Vertex positions.
    triangles : array_like, shape (m, 3)
        Vertex index triples.
    """

    def __init__(self, vertices, triangles):
        super().__init__(vertices, triangles, "triangles")
        areas = self.triangle_areas()
        longest = np.zeros(len(self.facets))
        for i in range(3):
            a = self.vertices[self.facets[:, i]]
            b = self.vertices[self.facets[:, (i + 1) % 3]]
            longest = np.maximum(longest, np.linalg.norm(b - a, axis=1))
        degenerate = areas < 1e-12 * longest**2
        if degenerate.any():
            bad = np.flatnonzero(degenerate)[:10]
            raise InvalidMeshError(f"degenerate (zero-area) triangles: {bad.tolist()}")

    @property
    def triangles(self):
        return self.facets

    @property
    def n_triangles(self):
        return len(self.facets)

    def triangle_corner_vectors(self):
        """(m, 2, 3) arrays: the two edge vectors leaving each first vertex."""
        p = self.vertices[self.facets]
        return np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=1)

    def triangle_normals(self):
        """Unit outward normals, from the counterclockwise vertex order."""
        e = self.triangle_corner_vectors()
        cr = np.cross(e[:, 0], e[:, 1])
        nrm = np.linalg.norm(cr, axis=1)
        return cr / nrm[:, None]

    def triangle_areas(self):
        e = self.triangle_corner_vectors()
        return 0.5 * np.linalg.norm(np.cross(e[:, 0], e[:, 1]), axis=1)

    def triangle_centroids(self):
        return self.vertices[self.facets].mean(axis=1)


class QuadMesh(_FacetMesh):
    """Indexed quadrangle mesh with derived edge table and boundary flags."""

    def __init__(self, vertices, quads):
        super().__init__(vertices, quads, "quads")

    @property
    def quads(self):
        return self.facets

    @property
    def n_quads(self):
        return len(self.facets)


@dataclass(frozen=True)
class TopologyReport:
    """Global topological invariants of a surface mesh.

    ``chi = n - n_e + n_f``; for a connected orientable surface
    ``chi = 2 - 2*genus - boundary_loops``.  For disconnected input the
    top-level numbers are sums over components and ``components`` holds one
    report per connected component.
    """

    chi: int
    genus: int
    boundary_loops: int
    n: int
    n_e: int
    n_f: int
    n_b: int
    components: tuple["TopologyReport", ...] = field(default=())

    def to_dict(self):
        d = {
            "chi": self.chi,
            "genus": self.genus,
            "boundary_loops": self.boundary_loops,
            "n": self.n,
            "n_e": self.n_e,
            "n_f": self.n_f,
            "n_b": self.n_b,
        }
        if self.components:
            d["components"] = [c.to_dict() for c in self.components]
        return d


def boundary_loops(mesh):
    """Trace the closed loops formed by the boundary edges.

    Returns a list of arrays of edge ids; every boundary edge appears in
    exactly one loop.

    Raises
    ------
    InvalidMeshError
        If a boundary chain does not close (a boundary vertex with other
        than two incident boundary edges).
    """
    edge_ids = np.flatnonzero(mesh.boundary_edge)
    if len(edge_ids) == 0:
        return []
    pairs = mesh.edges[edge_ids]
    incident = {}
    for eid, (a, b) in zip(edge_ids, pairs):
        incident.setdefault(int(a), []).append(int(eid))
        incident.setdefault(int(b), []).append(int(eid))
    bad = [v for v, es in incident.items() if len(es) != 2]
    if bad:
        raise InvalidMeshError(
            f"boundary does not close at vertices {bad[:5]} (non-manifold input)"
        )
    loops = []
    seen = set()
    edge_pairs = {int(e): (int(a), int(b)) for e, (a, b) in zip(edge_ids, pairs)}
    for start in edge_ids:
        start = int(start)
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        a, b = edge_pairs[start]
        vertex = b
        while True:
            nxt = [e for e in incident[vertex] if e not in seen]
            if not nxt:
                break
            e = nxt[0]
            seen.add(e)
            loop.append(e)
            u, v = edge_pairs[e]
            vertex = v if u == vertex else u
        if vertex != a:
            raise InvalidMeshError("boundary chain does not close (non-manifold input)")
        loops.append(np.array(loop))
    return loops


def _component_report(n, n_e, n_f, n_b, loops):
    chi = n - n_e + n_f
    handles_twice = 2 - loops - chi
    if handles_twice < 0 or handles_twice % 2:
        raise InvalidMeshError(
            f"chi={chi} with {loops} boundary loops is not an orientable surface"
        )
    return TopologyReport(chi=chi, genus=handles_twice // 2, boundary_loops=loops,
                          n=n, n_e=n_e, n_f=n_f, n_b=n_b)


def topology_report(mesh):
    """Euler characteristic, genus, and boundary-loop count of a mesh.

    ``chi`` is computed from the vertex/edge/facet counts; the genus is
    resolved from ``chi = 2 - 2g - b`` per connected component.
    """
    loops = boundary_loops(mesh)
    count, labels = mesh.vertex_component_labels()
    if count == 1:
        return _component_report(mesh.n_vertices, mesh.n_edges, mesh.n_facets,
                                 int(mesh.boundary_edge.sum()), len(loops))

    edge_labels = labels[mesh.edges[:, 0]]
    facet_labels = labels[mesh.facets[:, 0]]
    loop_labels = np.array([labels[mesh.edges[loop[0], 0]] for loop in loops],
                           dtype=np.int64)
    components = []
    for c in range(count):
        components.append(_component_report(
            int((labels == c).sum()),
            int((edge_labels == c).sum()),
            int((facet_labels == c).sum()),
            int((edge_labels[mesh.boundary_edge] == c).sum()),
            int((loop_labels == c).sum()),
        ))
    return TopologyReport(
        chi=sum(c.chi for c in components),
        genus=sum(c.genus for c in components),
        boundary_loops=len(loops),
        n=mesh.n_vertices,
        n_e=mesh.n_edges,
        n_f=mesh.n_facets,
        n_b=int(mesh.boundary_edge.sum()),
        components=tuple(components),
    )


def mean_edge_length(mesh):
    """Arithmetic mean of the Euclidean edge lengths."""
    if mesh.n_edges == 0:
        raise InvalidMeshError("mesh has no edges")
    return float(mesh.edge_lengths().mean())


# ---------------------------------------------------------------------------
# file readers

def _strip_comment(line):
    return line.split("#", 1)[0].strip()


def _coords(tokens):
    """The first three tokens as floats; fewer raise ``ValueError``."""
    if len(tokens) < 3:
        raise ValueError("vertex record has fewer than three coordinates")
    return tuple(float(t) for t in tokens[:3])


def _read_off(path):
    lines = [s for s in (_strip_comment(l) for l in path.read_text().splitlines()) if s]
    if not lines:
        raise MeshLoadError(f"{path}: empty OFF file")
    header = lines[0].split()
    if header[0] != "OFF":
        raise MeshLoadError(f"{path}: missing OFF header")
    if len(header) >= 4:
        counts = header[1:4]
        body = lines[1:]
    else:
        if len(lines) < 2:
            raise MeshLoadError(f"{path}: truncated OFF file")
        counts = lines[1].split()
        body = lines[2:]
    try:
        n_v, n_f = int(counts[0]), int(counts[1])
    except (ValueError, IndexError) as exc:
        raise MeshLoadError(f"{path}: bad OFF count line") from exc
    if len(body) < n_v + n_f:
        raise MeshLoadError(f"{path}: truncated OFF file")
    try:
        vertices = [_coords(body[i].split()) for i in range(n_v)]
        faces = []
        for i in range(n_v, n_v + n_f):
            tokens = body[i].split()
            k = int(tokens[0])
            faces.append(tuple(int(t) for t in tokens[1:1 + k]))
    except (ValueError, IndexError) as exc:
        raise MeshLoadError(f"{path}: malformed OFF record") from exc
    for k, face in enumerate(faces):
        if any(not 0 <= i < n_v for i in face):
            raise MeshLoadError(
                f"{path}: face {k} references a vertex outside 0..{n_v - 1}")
    return np.array(vertices), faces


def _read_obj(path):
    vertices = []
    faces = []
    face_lines = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "v":
            try:
                vertices.append(_coords(tokens[1:]))
            except ValueError as exc:
                raise MeshLoadError(f"{path}:{lineno}: bad vertex record") from exc
        elif tokens[0] == "f":
            idx = []
            for tok in tokens[1:]:
                try:
                    i = int(tok.split("/")[0])
                except ValueError as exc:
                    raise MeshLoadError(f"{path}:{lineno}: bad face record") from exc
                if i == 0:
                    raise MeshLoadError(
                        f"{path}:{lineno}: face index 0 (OBJ indices start at 1)")
                idx.append(i - 1 if i > 0 else len(vertices) + i)
            faces.append(tuple(idx))
            face_lines.append(lineno)
    n_v = len(vertices)
    for lineno, face in zip(face_lines, faces):
        if any(not 0 <= i < n_v for i in face):
            raise MeshLoadError(
                f"{path}:{lineno}: face references a vertex outside 1..{n_v}")
    return np.array(vertices, dtype=float).reshape(-1, 3), faces


def _read_msh(path):
    try:
        return _parse_msh(path, path.read_text().splitlines())
    except MeshLoadError:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        raise MeshLoadError(f"{path}: malformed MSH file ({exc!r})") from exc


def _parse_msh(path, lines):
    i = 0
    nodes = {}
    faces = []
    node_order = []
    while i < len(lines):
        tag = lines[i].strip()
        if tag == "$MeshFormat":
            version = lines[i + 1].split()
            if not version or not version[0].startswith("2."):
                raise MeshLoadError(f"{path}: only MSH 2.x ASCII is supported")
            if len(version) > 1 and version[1] != "0":
                raise MeshLoadError(f"{path}: binary MSH is not supported")
            i += 3
        elif tag == "$Nodes":
            count = int(lines[i + 1])
            for j in range(count):
                tok = lines[i + 2 + j].split()
                nodes[int(tok[0])] = tuple(float(t) for t in tok[1:4])
                node_order.append(int(tok[0]))
            i += count + 3
        elif tag == "$Elements":
            count = int(lines[i + 1])
            for j in range(count):
                tok = lines[i + 2 + j].split()
                etype = int(tok[1])
                n_tags = int(tok[2])
                conn = [int(t) for t in tok[3 + n_tags:]]
                if etype == 2:
                    faces.append(tuple(conn))
                elif etype in (1, 15):
                    continue  # boundary lines and points carry no surface facets
                else:
                    raise MeshLoadError(
                        f"{path}: unsupported MSH element type {etype}"
                    )
            i += count + 3
        elif tag.startswith("$"):
            end = "$End" + tag[1:]
            while i < len(lines) and lines[i].strip() != end:
                i += 1
            i += 1
        else:
            i += 1
    if not nodes:
        raise MeshLoadError(f"{path}: MSH file has no nodes")
    remap = {nid: k for k, nid in enumerate(node_order)}
    vertices = np.array([nodes[nid] for nid in node_order])
    faces = [tuple(remap[n] for n in f) for f in faces]
    return vertices, faces


_READERS = {"off": _read_off, "obj": _read_obj, "msh": _read_msh}


def load_mesh(path, format_hint=None):
    """Load a triangle or quadrangle surface mesh from a file.

    Parameters
    ----------
    path : str or Path
        Mesh file; format detected from the extension unless ``format_hint``
        (``"off"``, ``"obj"`` or ``"msh"``) is given.

    Returns
    -------
    SurfaceMesh or QuadMesh
        Connectivity-complete mesh with the edge table built and boundary
        flags set; the class depends on whether the file holds triangles or
        quadrangles.

    Raises
    ------
    MeshLoadError
        Unreadable file, unknown format, or a mix of triangles and
        quadrangles (mixed-element meshes are excluded).
    InvalidMeshError
        Structurally broken connectivity (non-manifold edge, degenerate
        triangle, inconsistent orientation).
    """
    path = Path(path)
    if not path.is_file():
        raise MeshLoadError(f"{path}: no such file")
    fmt = (format_hint or path.suffix.lstrip(".")).lower()
    reader = _READERS.get(fmt)
    if reader is None:
        raise MeshLoadError(f"{path}: cannot detect mesh format {fmt!r}")
    try:
        vertices, faces = reader(path)
    except OSError as exc:
        raise MeshLoadError(f"{path}: {exc}") from exc
    if not faces:
        raise MeshLoadError(f"{path}: mesh file contains no facets")
    sizes = {len(f) for f in faces}
    if sizes == {3}:
        return SurfaceMesh(vertices, np.array(faces, dtype=np.int64))
    if sizes == {4}:
        return QuadMesh(vertices, np.array(faces, dtype=np.int64))
    if sizes <= {3, 4}:
        raise MeshLoadError(
            f"{path}: mixed triangle/quadrangle mesh is not supported"
        )
    raise MeshLoadError(f"{path}: facets with {sorted(sizes - {3, 4})} vertices")
