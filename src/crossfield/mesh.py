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
    # One int64 key per undirected edge, ordered as the (lo, hi) rows are
    # lexicographically; it needs n_vertices**2 < 2**63.
    lo = np.minimum(tails, heads)
    hi = np.maximum(tails, heads)
    keys, inverse = np.unique(lo * n_vertices + hi, return_inverse=True)
    edges = np.stack(np.divmod(keys, n_vertices), axis=1)
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


def _components(pairs, n):
    """Connected components of the graph on ``n`` nodes linked by ``pairs``.

    ``pairs`` is an (m, 2) array of node ids; returns ``(count, labels)``
    as ``scipy.sparse.csgraph.connected_components`` does.
    """
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    return connected_components(graph, directed=False)


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
        return _components(self.edges, self.n_vertices)


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
        p = self.vertices[self.facets]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        two_area = np.linalg.norm(cross, axis=1)
        sides = np.roll(p, -1, axis=1) - p  # side i runs from corner i to i+1
        lengths = np.linalg.norm(sides, axis=2)
        self._areas = 0.5 * two_area
        degenerate = self._areas <= 1e-12 * lengths.max(axis=1)**2
        if degenerate.any():
            bad = np.flatnonzero(degenerate)[:10]
            raise InvalidMeshError(f"degenerate (zero-area) triangles: {bad.tolist()}")
        self._normals = cross / two_area[:, None]
        # corner i lies between side i and side i-1 reversed
        cosine = -(sides * np.roll(sides, 1, axis=1)).sum(axis=2) / (
            lengths * np.roll(lengths, 1, axis=1))
        corners = np.arccos(np.clip(cosine, -1.0, 1.0))
        self.angle_defect = 2.0 * np.pi - np.bincount(
            self.facets.T.ravel(), corners.T.ravel(), minlength=self.n_vertices)
        for arr in (self._normals, self._areas, self.angle_defect):
            arr.setflags(write=False)

    @property
    def triangles(self):
        return self.facets

    @property
    def n_triangles(self):
        return len(self.facets)

    def triangle_normals(self):
        """Unit outward normals, from the counterclockwise vertex order."""
        return self._normals

    def triangle_areas(self):
        return self._areas

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
    """Group the boundary edges into their closed loops.

    Returns a list of arrays of edge ids, one per connected component of
    the boundary-edge graph, in ascending edge-id order within each loop;
    every boundary edge appears in exactly one loop.

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
    degree = np.bincount(pairs.ravel(), minlength=mesh.n_vertices)
    bad = np.flatnonzero((degree != 0) & (degree != 2))
    if len(bad):
        raise InvalidMeshError(
            f"boundary does not close at vertices {bad[:5].tolist()} "
            "(non-manifold input)"
        )
    _, labels = _components(pairs, mesh.n_vertices)
    edge_labels = labels[pairs[:, 0]]
    order = np.argsort(edge_labels, kind="stable")
    cuts = np.flatnonzero(np.diff(edge_labels[order])) + 1
    return np.split(edge_ids[order], cuts)


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
    resolved from ``chi = 2 - 2g - b`` per connected component.  A
    connected mesh gets its one component's report.
    """
    loops = boundary_loops(mesh)
    count, labels = mesh.vertex_component_labels()
    edge_labels = labels[mesh.edges[:, 0]]
    loop_labels = edge_labels[np.array([loop[0] for loop in loops], dtype=np.int64)]
    counts = [np.bincount(x, minlength=count) for x in (
        labels, edge_labels, labels[mesh.facets[:, 0]],
        edge_labels[mesh.boundary_edge], loop_labels)]
    components = tuple(_component_report(*map(int, c)) for c in zip(*counts))
    if count == 1:
        return components[0]
    return TopologyReport(
        chi=sum(c.chi for c in components),
        genus=sum(c.genus for c in components),
        boundary_loops=len(loops),
        n=mesh.n_vertices,
        n_e=mesh.n_edges,
        n_f=mesh.n_facets,
        n_b=int(mesh.boundary_edge.sum()),
        components=components,
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


def _rows(lines, dtype, usecols=None):
    """The ``usecols`` columns (default all) of a file block, one row per line."""
    if not lines:
        return np.empty((0, len(usecols)), dtype=dtype)
    return np.loadtxt(lines, dtype=dtype, usecols=usecols, comments=None,
                      ndmin=2)


def _facet_size(path, sizes):
    """The vertex count, 3 or 4, that all facets of a file share (3 when
    it has none), from the count of each facet."""
    found = set(np.unique(sizes).tolist())
    if len(found) > 1 or not found <= {3, 4}:
        raise MeshLoadError(f"{path}: facets with {sorted(found)} vertices; "
                            "mixed or other than 3 or 4 are not supported")
    return max(found, default=3)


def _read_off(path):
    lines = [s for s in (_strip_comment(l) for l in path.read_text().splitlines()) if s]
    if not lines or lines[0].split()[0] != "OFF":
        raise MeshLoadError(f"{path}: missing OFF header")
    # the counts follow the keyword on its own line or on the next one
    inline = len(lines[0].split()) >= 4
    counts = lines[0].split()[1:] if inline else " ".join(lines[1:2]).split()
    body = lines[1 if inline else 2:]
    try:
        n_v, n_f = int(counts[0]), int(counts[1])
        if min(n_v, n_f) < 0 or len(body) < n_v + n_f:
            raise ValueError(f"counts {n_v} {n_f} for {len(body)} records")
        faces = body[n_v:n_v + n_f]
        vertices = _rows(body[:n_v], float, (0, 1, 2))
        k = _facet_size(path, _rows(faces, np.int64, (0,)))
        faces = _rows(faces, np.int64, range(1, 1 + k))
    except MeshLoadError:
        raise
    except (IndexError, ValueError) as exc:
        raise MeshLoadError(f"{path}: malformed OFF file ({exc!r})") from exc
    outside = np.flatnonzero(((faces < 0) | (faces >= n_v)).any(axis=1))
    if len(outside):
        raise MeshLoadError(
            f"{path}: face {outside[0]} references a vertex outside 0..{n_v - 1}")
    return vertices, faces


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
                x, y, z = map(float, tokens[1:4])
            except ValueError as exc:
                raise MeshLoadError(f"{path}:{lineno}: bad vertex record") from exc
            vertices.append((x, y, z))
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
    k = _facet_size(path, [len(f) for f in faces])
    return (np.array(vertices, dtype=float).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, k))


def _read_msh(path):
    try:
        return _parse_msh(path, path.read_text().splitlines())
    except MeshLoadError:
        raise
    except (IndexError, ValueError) as exc:
        raise MeshLoadError(f"{path}: malformed MSH file ({exc!r})") from exc


#: A ``$Nodes`` row: the node id and its three coordinates.
_NODE_ROW = np.dtype([("id", np.int64), ("xyz", float, 3)])


def _msh_nodes(block):
    """The rows of a ``$Nodes`` block as ``_NODE_ROW`` records."""
    try:
        return _rows(block, _NODE_ROW, (0, 1, 2, 3))[:, 0]
    except ValueError:
        if min(len(line.split()) for line in block) < 4:
            raise ValueError("node record has fewer than three coordinates")
        raise


def _msh_triangles(path, block):
    """Node ids of the triangles of an ``$Elements`` block, in file order,
    read with one parse per tag count (each such row has ``6 + tags``
    fields); boundary lines and points carry no surface facets."""
    etype, n_tags = _rows(block, np.int64, (1, 2)).T
    unsupported = etype[~np.isin(etype, (1, 2, 15))]
    if len(unsupported):
        raise MeshLoadError(f"{path}: unsupported MSH element type {unsupported[0]}")
    rows = np.flatnonzero(etype == 2)
    faces = np.empty((len(rows), 3), dtype=np.int64)
    for tags in np.unique(n_tags[rows]).tolist():
        group = n_tags[rows] == tags
        fields = _rows([block[k] for k in rows[group].tolist()], np.int64)
        if tags < 0 or fields.shape[1] != 6 + tags:
            raise MeshLoadError(f"{path}: triangle element {fields[0, 0]} "
                                f"has {fields.shape[1] - 3 - tags} nodes")
        faces[group] = fields[:, 3 + tags:]
    return faces


def _parse_msh(path, lines):
    i = 0
    nodes = [np.empty(0, dtype=_NODE_ROW)]
    faces = [np.empty((0, 3), dtype=np.int64)]
    while i < len(lines):
        tag = lines[i].strip()
        if tag == "$MeshFormat":
            version = lines[i + 1].split()
            if not version or not version[0].startswith("2."):
                raise MeshLoadError(f"{path}: only MSH 2.x ASCII is supported")
            if len(version) > 1 and version[1] != "0":
                raise MeshLoadError(f"{path}: binary MSH is not supported")
            i += 3
        elif tag in ("$Nodes", "$Elements"):
            count = int(lines[i + 1])
            block = lines[i + 2:i + 2 + count]
            if count < 0 or lines[i + 2 + count].strip() != "$End" + tag[1:]:
                raise ValueError(f"{tag} block does not end after {count} rows")
            if tag == "$Nodes":
                nodes.append(_msh_nodes(block))
            else:
                faces.append(_msh_triangles(path, block))
            i += count + 3
        elif tag.startswith("$"):
            end = "$End" + tag[1:]
            while i < len(lines) and lines[i].strip() != end:
                i += 1
            i += 1
        else:
            i += 1
    nodes, faces = np.concatenate(nodes), np.concatenate(faces)
    if len(nodes) == 0:
        raise MeshLoadError(f"{path}: MSH file has no nodes")
    # vertices keep the nodes' file order; ids map to it through a sort
    order = np.argsort(nodes["id"], kind="stable")
    ids = nodes["id"][order]
    repeats = order[1:][ids[1:] == ids[:-1]]
    if len(repeats):
        raise MeshLoadError(
            f"{path}: node {nodes['id'][repeats.min()]} is defined twice")
    where = np.searchsorted(ids, faces)
    undefined = faces[ids[np.minimum(where, len(ids) - 1)] != faces]
    if len(undefined):
        raise MeshLoadError(
            f"{path}: element names undefined node {undefined.min()}")
    return nodes["xyz"], order[where]


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
    if len(faces) == 0:
        raise MeshLoadError(f"{path}: mesh file contains no facets")
    return (SurfaceMesh if faces.shape[1] == 3 else QuadMesh)(vertices, faces)
