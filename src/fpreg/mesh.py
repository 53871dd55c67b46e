"""Conforming triangular meshes of rectangles with an optional circular hole.

The mesh generator triangulates a structured grid, carves out the triangles
that intersect the hole disk, snaps the rim vertices onto the circle and
relaxes the neighbouring interior vertices with one guarded Laplacian pass.
Point location walks all query points through the neighbour table at once;
the walks that stall at the boundary or run out of steps are settled
together by one blocked exhaustive scan. Boundary distances, nearest facets
and inward normals are batched the same way. The single-point functions
(`locate_point`, `boundary_distance`, `nearest_boundary_facet`,
`inward_normal`, `barycentric`) are thin wrappers over the batched ones, so
each geometric kernel exists once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometry

OUTER = "outer"
HOLE = "hole"

# barycentric slack used to accept a point as inside a triangle
_BARY_TOL = 1e-12


@dataclass
class PointLocation:
    """A point inside the mesh: owning triangle plus barycentric coordinates."""

    triangle: int
    bary: np.ndarray  # shape (3,), nonnegative, sums to 1


@dataclass
class OutsideDomain:
    """Marker for a query point outside the mesh, with its closest boundary point."""

    nearest: np.ndarray  # shape (2,)
    distance: float


class TriangleMesh:
    """Immutable conforming triangulation with tagged boundary facets.

    vertices        : (nv, 2) float array
    triangles       : (nt, 3) int array, counter-clockwise
    boundary_edges  : (nb, 2) int array, directed so the domain lies on the left
    boundary_tags   : (nb,) array of strings in {"outer", "hole"}
    neighbors       : (nt, 3) int array, entry i is the triangle across the edge
                      opposite local vertex i, or -1 on the boundary
    """

    def __init__(self, vertices, triangles, edge_tags=None, validate=True):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise InvalidGeometry("vertices must be an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise InvalidGeometry("triangles must be an (nt, 3) array")

        # enforce counter-clockwise orientation
        areas = _signed_areas(vertices, triangles)
        flip = areas < 0
        if np.any(flip):
            triangles = triangles.copy()
            triangles[flip] = triangles[flip][:, ::-1]
            areas = np.abs(areas)

        self.vertices = vertices
        self.triangles = triangles
        self.areas = areas
        self.neighbors, self.boundary_edges = _build_adjacency(triangles)
        self.boundary_tags = _assign_tags(self.boundary_edges, edge_tags)
        if validate:
            self.validate()

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def triangle_diameters(self):
        """Longest edge of each triangle."""
        p = self.vertices[self.triangles]  # (nt, 3, 2)
        e = np.stack(
            [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1
        )
        return np.linalg.norm(e, axis=2).max(axis=1)

    def total_area(self):
        return float(self.areas.sum())

    def boundary_segments(self, tag=None):
        """(nb, 2, 2) array of boundary segment endpoints, optionally by tag."""
        edges = self.boundary_edges
        if tag is not None:
            edges = edges[self.boundary_tags == tag]
        return self.vertices[edges]

    def validate(self):
        """Check the mesh invariants, raising InvalidGeometry on violation."""
        if np.any(self.areas <= 0):
            bad = int(np.argmin(self.areas))
            raise InvalidGeometry(
                f"triangle {bad} has nonpositive area {self.areas[bad]:.3e}"
            )
        # every interior edge shared by exactly 2 triangles, boundary by 1
        edges = np.sort(
            self.triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1
        )
        _, counts = np.unique(edges, axis=0, return_counts=True)
        if np.any(counts > 2):
            raise InvalidGeometry("an edge is shared by more than two triangles")
        n_boundary = int((counts == 1).sum())
        if n_boundary != len(self.boundary_edges):
            raise InvalidGeometry("boundary facet count mismatch")
        # boundary loops are closed: each boundary vertex has exactly 2 facets
        idx, deg = np.unique(self.boundary_edges.ravel(), return_counts=True)
        if np.any(deg != 2):
            raise InvalidGeometry("boundary is not a union of closed loops")
        # all triangle vertex indices valid
        if self.triangles.min() < 0 or self.triangles.max() >= self.num_vertices:
            raise InvalidGeometry("triangle refers to a missing vertex")


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def _build_adjacency(triangles):
    """Neighbor table plus directed boundary edges (domain on the left)."""
    nt = len(triangles)
    # local edge i is opposite local vertex i
    local = [(1, 2), (2, 0), (0, 1)]
    owner = {}
    neighbors = -np.ones((nt, 3), dtype=np.int64)
    boundary = []
    for t in range(nt):
        tri = triangles[t]
        for i, (a, b) in enumerate(local):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            if key in owner:
                s, j = owner.pop(key)
                neighbors[t, i] = s
                neighbors[s, j] = t
            else:
                owner[key] = (t, i)
    for (t, i) in owner.values():
        a, b = local[i]
        boundary.append((triangles[t][a], triangles[t][b]))
    boundary = np.array(sorted(boundary), dtype=np.int64).reshape(-1, 2)
    return neighbors, boundary


def _assign_tags(boundary_edges, edge_tags):
    n = len(boundary_edges)
    if edge_tags is None:
        return np.array([OUTER] * n, dtype=object)
    tags = []
    for a, b in boundary_edges:
        tags.append(edge_tags.get((min(a, b), max(a, b)), OUTER))
    return np.array(tags, dtype=object)


# ---------------------------------------------------------------------------
# generation


def generate_rect_with_hole(x_range, y_range, hole_center, hole_radius, target_h):
    """Mesh the rectangle x_range x y_range minus a circular hole.

    A zero hole_radius disables the hole. Hole-rim vertices are snapped
    exactly onto the circle; one guarded Laplacian smoothing pass relaxes the
    interior vertices next to the rim.
    """
    x0, x1 = map(float, x_range)
    y0, y1 = map(float, y_range)
    if not (x1 > x0 and y1 > y0):
        raise InvalidGeometry("empty rectangle")
    if target_h <= 0:
        raise InvalidGeometry("target_h must be positive")
    cx, cy = map(float, hole_center)
    r = float(hole_radius)
    if r < 0:
        raise InvalidGeometry("hole_radius must be nonnegative")
    if r > 0:
        if not (x0 < cx - r and cx + r < x1 and y0 < cy - r and cy + r < y1):
            raise InvalidGeometry("hole touches or leaves the rectangle")
        if r < 2.0 * target_h:
            raise InvalidGeometry(
                "hole_radius must be at least 2*target_h to resolve the circle"
            )

    nx = max(1, int(np.ceil((x1 - x0) / target_h)))
    ny = max(1, int(np.ceil((y1 - y0) / target_h)))
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            bl, br = vid(i, j), vid(i + 1, j)
            tl, tr = vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                tris.append((bl, br, tr))
                tris.append((bl, tr, tl))
            else:
                tris.append((bl, br, tl))
                tris.append((br, tr, tl))
    triangles = np.array(tris, dtype=np.int64)

    if r == 0.0:
        return TriangleMesh(vertices, triangles)

    h = max((x1 - x0) / nx, (y1 - y0) / ny)
    center = np.array([cx, cy])

    keep = _triangle_disk_distances(vertices, triangles, center) > r
    keep, rim = _carve_fixpoint(triangles, keep)

    # snap rim vertices radially onto the circle
    vertices = vertices.copy()
    d = vertices[rim] - center
    norm = np.linalg.norm(d, axis=1)
    if np.any(norm < 1e-14):
        raise InvalidGeometry("degenerate rim vertex at the hole center")
    vertices[rim] = center + r * (d / norm[:, None])

    triangles = triangles[keep]
    vertices, triangles, rim_mask = _compact(vertices, triangles, rim)
    _smooth_near_hole(vertices, triangles, rim_mask, center, r, h)

    # tag boundary edges whose endpoints both sit on the circle
    on_circle = np.abs(np.linalg.norm(vertices - center, axis=1) - r) <= 1e-9
    mesh = TriangleMesh(vertices, triangles, validate=False)
    tags = {}
    for a, b in mesh.boundary_edges:
        if on_circle[a] and on_circle[b]:
            tags[(min(a, b), max(a, b))] = HOLE
    mesh = TriangleMesh(vertices, triangles, edge_tags=tags)
    return mesh


def _triangle_disk_distances(vertices, triangles, center):
    """Distance from `center` to each closed triangle (0 when inside)."""
    p = vertices[triangles]  # (nt, 3, 2)
    c = center[None, :]
    # inside test via signed areas against each edge
    def cross(o, a, b):
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    s0 = cross(p[:, 0], p[:, 1], c)
    s1 = cross(p[:, 1], p[:, 2], c)
    s2 = cross(p[:, 2], p[:, 0], c)
    inside = (s0 >= 0) & (s1 >= 0) & (s2 >= 0)

    dist = np.full(len(triangles), np.inf)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        a, b = p[:, i], p[:, j]
        ab = b - a
        t = np.clip(
            ((c - a) * ab).sum(axis=1) / np.maximum((ab * ab).sum(axis=1), 1e-300),
            0.0,
            1.0,
        )
        closest = a + t[:, None] * ab
        dist = np.minimum(dist, np.linalg.norm(closest - c, axis=1))
    dist[inside] = 0.0
    return dist


def _carve_fixpoint(triangles, keep):
    """Extend the carved set until no kept triangle has all vertices on the rim."""
    for _ in range(32):
        removed_verts = np.unique(triangles[~keep])
        kept_verts = np.unique(triangles[keep])
        rim = np.intersect1d(removed_verts, kept_verts)
        rim_mask = np.zeros(triangles.max() + 1, dtype=bool)
        rim_mask[rim] = True
        all_rim = rim_mask[triangles].all(axis=1) & keep
        if not np.any(all_rim):
            return keep, rim
        keep = keep & ~all_rim
    raise InvalidGeometry("hole carving did not stabilize")


def _compact(vertices, triangles, rim):
    used = np.unique(triangles)
    remap = -np.ones(len(vertices), dtype=np.int64)
    remap[used] = np.arange(len(used))
    rim_mask = np.zeros(len(used), dtype=bool)
    rim_mask[remap[rim[remap[rim] >= 0]]] = True
    return vertices[used], remap[triangles], rim_mask


def _smooth_near_hole(vertices, triangles, rim_mask, center, r, h):
    """One guarded Laplacian pass on interior vertices close to the rim.

    Moves are rejected when they would shrink an incident triangle below 20%
    of its previous area, which keeps the mesh valid by construction.
    """
    nv = len(vertices)
    mesh_edges = np.sort(
        triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1
    )
    uniq, counts = np.unique(mesh_edges, axis=0, return_counts=True)
    on_boundary = np.zeros(nv, dtype=bool)
    on_boundary[uniq[counts == 1].ravel()] = True

    dist = np.abs(np.linalg.norm(vertices - center, axis=1) - r)
    candidates = np.where(~on_boundary & ~rim_mask & (dist <= 2.0 * h))[0]
    if len(candidates) == 0:
        return

    adj = [[] for _ in range(nv)]
    for a, b in uniq:
        adj[a].append(b)
        adj[b].append(a)
    tri_of_vertex = [[] for _ in range(nv)]
    for t, tri in enumerate(triangles):
        for v in tri:
            tri_of_vertex[v].append(t)

    for v in candidates:
        new = vertices[adj[v]].mean(axis=0)
        old = vertices[v].copy()
        before = _signed_areas(vertices, triangles[tri_of_vertex[v]])
        vertices[v] = new
        after = _signed_areas(vertices, triangles[tri_of_vertex[v]])
        if np.any(after < 0.2 * before):
            vertices[v] = old


# ---------------------------------------------------------------------------
# point location

# elements per (points x triangles) or (points x facets) block: the batched
# scans and distance passes stay a few MB whatever the number of points
_BLOCK_ELEMS = 1 << 18


def _blocks(n, width):
    """Slices of at most _BLOCK_ELEMS // width rows covering range(n)."""
    rows = max(1, _BLOCK_ELEMS // max(width, 1))
    return [slice(s, s + rows) for s in range(0, n, rows)]


def _barycentrics(mesh, t, x, y):
    """Barycentric coordinates (l0, l1, l2) of the points (x, y) in triangles t.

    Broadcasts: `t` holds one triangle per point, or `slice(None)` with
    (m, 1) coordinates gives the (m, triangles) coordinates of every pair.
    """
    p = mesh.vertices[mesh.triangles[t]]
    area2 = 2.0 * mesh.areas[t]
    l0 = ((p[..., 1, 0] - x) * (p[..., 2, 1] - y)
          - (p[..., 2, 0] - x) * (p[..., 1, 1] - y)) / area2
    l1 = ((p[..., 2, 0] - x) * (p[..., 0, 1] - y)
          - (p[..., 0, 0] - x) * (p[..., 2, 1] - y)) / area2
    return l0, l1, 1.0 - l0 - l1


def barycentric(mesh, triangle, x):
    """Barycentric coordinates of x in the given triangle (may be negative)."""
    x = np.asarray(x, dtype=float)
    return np.array([l[0] for l in _barycentrics(mesh, [triangle], x[0], x[1])])


def locate_point(mesh, x, hint=None):
    """Locate x in the mesh: PointLocation inside, OutsideDomain otherwise.

    The single-point form of `locate_points`, starting the walk at `hint`
    (triangle 0 when absent).
    """
    x = np.asarray(x, dtype=float).reshape(1, 2)
    tri, bary = locate_points(mesh, x, [0 if hint is None else int(hint)])
    if tri[0] < 0:
        _, nearest, dist = nearest_boundary_facets(mesh, x)
        return OutsideDomain(nearest=nearest[0], distance=float(dist[0]))
    return PointLocation(triangle=int(tri[0]), bary=bary[0])


def locate_points(mesh, points, hints=None):
    """Vectorized walk-based location of many points at once.

    Returns (triangle, bary) with triangle = -1 for points outside; the
    barycentric rows of outside points are zero. All points walk through the
    neighbor table together. The walks that stall at the boundary (the hole
    makes the domain non-convex) or run out of steps are settled by one
    exhaustive scan over every triangle, done in blocks of points.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    cur = np.zeros(n, dtype=np.int64) if hints is None else np.asarray(
        hints, dtype=np.int64
    ).copy()
    np.clip(cur, 0, mesh.num_triangles - 1, out=cur)
    tri_out = -np.ones(n, dtype=np.int64)
    bary_out = np.zeros((n, 3))
    active = np.arange(n)

    max_iter = 4 * int(np.sqrt(mesh.num_triangles)) + 64
    for _ in range(max_iter):
        if len(active) == 0:
            break
        t = cur[active]
        x = points[active]
        bary = np.column_stack(_barycentrics(mesh, t, x[:, 0], x[:, 1]))
        worst = bary.argmin(axis=1)
        inside = bary[np.arange(len(active)), worst] >= -_BARY_TOL
        _store(tri_out, bary_out, active[inside], t[inside], bary[inside])
        nxt = mesh.neighbors[t, worst]
        moving = ~inside & (nxt >= 0)
        cur[active[moving]] = nxt[moving]
        active = active[moving]

    unresolved = np.where(tri_out < 0)[0]
    for block in _blocks(len(unresolved), mesh.num_triangles):
        idx = unresolved[block]
        x = points[idx]
        lam = _barycentrics(mesh, slice(None), x[:, :1], x[:, 1:])
        worst = np.minimum(np.minimum(lam[0], lam[1]), lam[2])
        best = worst.argmax(axis=1)
        rows = np.arange(len(idx))
        inside = worst[rows, best] >= -_BARY_TOL
        bary = np.column_stack([l[rows, best] for l in lam])
        _store(tri_out, bary_out, idx[inside], best[inside], bary[inside])
    return tri_out, bary_out


def _store(tri_out, bary_out, idx, tri, bary):
    """Record located points, with their barycentrics clipped and renormalized."""
    tri_out[idx] = tri
    b = np.clip(bary, 0.0, None)
    bary_out[idx] = b / b.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# boundary distance


def _segment_distances(points, segments, closest=False):
    """(np, ns) matrix of point-to-segment distances.

    With `closest`, also the (np, ns) x and y coordinates of the closest
    point on each segment.
    """
    px, py = points[:, 0:1], points[:, 1:2]
    ax, ay = segments[:, 0, 0], segments[:, 0, 1]
    abx = segments[:, 1, 0] - ax
    aby = segments[:, 1, 1] - ay
    denom = np.maximum(abx * abx + aby * aby, 1e-300)
    t = np.clip(((px - ax) * abx + (py - ay) * aby) / denom, 0.0, 1.0)
    cx = ax + t * abx
    cy = ay + t * aby
    dx = px - cx
    dy = py - cy
    d = np.sqrt(dx * dx + dy * dy)
    if closest:
        return d, cx, cy
    return d


def boundary_distance(mesh, x, tag=None):
    """Euclidean distance from x to the nearest boundary facet.

    With `tag` given, only facets carrying that tag are considered.
    """
    return float(boundary_distances(mesh, x, tag)[0])


def boundary_distances(mesh, points, tag=None):
    """Vectorized boundary_distance for an (n, 2) array of points.

    `tag` may also be a tuple of tags (None standing for every facet): the
    result is then one distance array per entry, all from a single pass
    over the facets.
    """
    tags = tag if isinstance(tag, tuple) else (tag,)
    columns = []
    for t in tags:
        if t is None:
            columns.append(slice(None))
            continue
        cols = np.where(mesh.boundary_tags == t)[0]
        if len(cols) == 0:
            raise InvalidGeometry(f"mesh has no boundary facets with tag {t!r}")
        columns.append(cols)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    segs = mesh.boundary_segments()
    out = [np.empty(len(points)) for _ in tags]
    for block in _blocks(len(points), len(segs)):
        d = _segment_distances(points[block], segs)
        for o, cols in zip(out, columns):
            o[block] = d[:, cols].min(axis=1)
    return tuple(out) if isinstance(tag, tuple) else out[0]


def nearest_boundary_facets(mesh, points):
    """Nearest boundary facet of each point: (facets, closest points, distances)."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    d, cx, cy = _segment_distances(points, mesh.boundary_segments(), closest=True)
    j = d.argmin(axis=1)
    rows = np.arange(len(points))
    return j, np.column_stack([cx[rows, j], cy[rows, j]]), d[rows, j]


def nearest_boundary_facet(mesh, x):
    """Index of the boundary facet closest to x, with the closest point."""
    j, p, _ = nearest_boundary_facets(mesh, x)
    return int(j[0]), p[0]


def inward_normals(mesh, facets):
    """(m, 2) unit normals of boundary facets, pointing into the domain."""
    edges = mesh.boundary_edges[facets]
    t = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    # boundary edges are directed with the domain on the left
    return np.column_stack([-t[:, 1], t[:, 0]])


def inward_normal(mesh, facet):
    """Unit normal of a boundary facet pointing into the domain."""
    return inward_normals(mesh, [facet])[0]


# ---------------------------------------------------------------------------
# serialization


def save_mesh_json(mesh, path):
    doc = {
        "version": 1,
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "boundary": [
            {"edge": [int(a), int(b)], "tag": str(tag)}
            for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags)
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_mesh_json(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("version") != 1:
        raise InvalidGeometry(f"unsupported mesh file version {doc.get('version')!r}")
    tags = {}
    for item in doc.get("boundary", []):
        a, b = item["edge"]
        tags[(min(a, b), max(a, b))] = item["tag"]
    return TriangleMesh(doc["vertices"], doc["triangles"], edge_tags=tags)


def load_gmsh(path, tag_names=None):
    """Read a minimal ASCII Gmsh v2 file: $Nodes plus line/triangle $Elements.

    Only element types 1 (2-node line) and 2 (3-node triangle) are accepted.
    Physical ids of line elements map to facet tags: by default the smallest
    id becomes "outer" and every other id becomes "hole"; pass `tag_names`
    as {physical_id: name} to override.
    """
    with open(path) as f:
        lines = [ln.strip() for ln in f]
    nodes = {}
    tris = []
    line_elems = []
    i = 0
    while i < len(lines):
        if lines[i] == "$Nodes":
            count = int(lines[i + 1])
            for k in range(count):
                parts = lines[i + 2 + k].split()
                nodes[int(parts[0])] = (float(parts[1]), float(parts[2]))
            i += 2 + count
        elif lines[i] == "$Elements":
            count = int(lines[i + 1])
            for k in range(count):
                parts = [int(p) for p in lines[i + 2 + k].split()]
                etype, ntags = parts[1], parts[2]
                tags = parts[3 : 3 + ntags]
                conn = parts[3 + ntags :]
                phys = tags[0] if tags else 0
                if etype == 1:
                    line_elems.append((conn[0], conn[1], phys))
                elif etype == 2:
                    tris.append(conn)
                else:
                    raise InvalidGeometry(f"unsupported gmsh element type {etype}")
            i += 2 + count
        else:
            i += 1
    if not nodes or not tris:
        raise InvalidGeometry("gmsh file lacks nodes or triangles")
    ids = sorted(nodes)
    remap = {nid: j for j, nid in enumerate(ids)}
    vertices = np.array([nodes[nid] for nid in ids])
    triangles = np.array([[remap[a] for a in tri] for tri in tris])

    phys_ids = sorted({phys for _, _, phys in line_elems})
    if tag_names is None:
        tag_names = {}
        for j, pid in enumerate(phys_ids):
            tag_names[pid] = OUTER if j == 0 else HOLE
    edge_tags = {}
    for a, b, phys in line_elems:
        a, b = remap[a], remap[b]
        edge_tags[(min(a, b), max(a, b))] = tag_names.get(phys, OUTER)
    return TriangleMesh(vertices, triangles, edge_tags=edge_tags)
