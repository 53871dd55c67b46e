import json

import numpy as np
import pytest

from fpreg import fem, mesh as meshmod
from fpreg.errors import InvalidGeometry
from fpreg.mesh import (
    TriangleMesh, boundary_distances, generate_rect_with_hole, inward_normals,
    load_gmsh, load_mesh_json, locate_points, nearest_boundary_facets,
    save_mesh_json,
)

HOLE_EXACT_AREA = 64.0 - np.pi * 0.25

# the unit square as two triangles, with its four sides as line elements
GMSH_SQUARE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
6
1 1 2 7 1 1 2
2 1 2 7 1 2 3
3 1 2 7 1 3 4
4 1 2 7 1 4 1
5 2 2 9 1 1 2 3
6 2 2 9 1 1 3 4
$EndElements
"""


@pytest.fixture(scope="module")
def desk_mesh():
    return generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, 0.2)


def reference_adjacency(triangles):
    """Neighbour table and boundary edges from a walk over every side.

    A dict pairs each side with the first earlier side on the same vertex
    pair; the unpaired sides, directed as their triangle walks them, are the
    boundary, in lexicographic order.
    """
    local = [(1, 2), (2, 0), (0, 1)]
    owner = {}
    neighbors = -np.ones((len(triangles), 3), dtype=np.int64)
    for t, tri in enumerate(triangles):
        for i, (a, b) in enumerate(local):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            if key in owner:
                s, j = owner.pop(key)
                neighbors[t, i] = s
                neighbors[s, j] = t
            else:
                owner[key] = (t, i)
    boundary = sorted((triangles[t][local[i][0]], triangles[t][local[i][1]])
                      for t, i in owner.values())
    return neighbors, np.array(boundary, dtype=np.int64).reshape(-1, 2)


def reference_p2_numbering(mesh):
    """P2 connectivity, edge list and boundary dofs numbered edge by edge.

    The midpoint dofs 3, 4, 5 of a triangle sit on its sides (0, 1), (1, 2),
    (2, 0); edges are numbered in the order of np.unique, and a midpoint is
    on the boundary when its vertex pair is a boundary edge.
    """
    tris, nv = mesh.triangles, mesh.num_vertices
    sides = np.sort(tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    edges, inverse = np.unique(sides, axis=0, return_inverse=True)
    conn = np.hstack([tris, nv + inverse.reshape(-1, 3)])
    pairs = {tuple(sorted(e)) for e in mesh.boundary_edges}
    emid = [nv + i for i, e in enumerate(edges) if (e[0], e[1]) in pairs]
    bdofs = np.sort(np.concatenate([np.unique(mesh.boundary_edges),
                                    np.array(emid, dtype=np.int64)]))
    return conn, edges, bdofs


def reference_grid(nx, ny):
    """Triangles of the structured grid, cell by cell."""
    tris = []
    for i in range(nx):
        for j in range(ny):
            bl, br = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            tl, tr = bl + 1, br + 1
            if (i + j) % 2 == 0:
                tris += [(bl, br, tr), (bl, tr, tl)]
            else:
                tris += [(bl, br, tl), (br, tr, tl)]
    return np.array(tris, dtype=np.int64)


def brute_force_locate(mesh, x):
    """Independent point-in-triangle scan used as the location oracle."""
    p = mesh.vertices[mesh.triangles]
    d0 = (p[:, 1] - p[:, 0])
    d1 = (p[:, 2] - p[:, 0])
    r = np.asarray(x) - p[:, 0]
    det = d0[:, 0] * d1[:, 1] - d0[:, 1] * d1[:, 0]
    u = (r[:, 0] * d1[:, 1] - r[:, 1] * d1[:, 0]) / det
    v = (d0[:, 0] * r[:, 1] - d0[:, 1] * r[:, 0]) / det
    inside = (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1 + 1e-12)
    hits = np.where(inside)[0]
    return int(hits[0]) if len(hits) else -1


class TestGeneration:
    def test_desk_mesh_invariants(self, desk_mesh):
        desk_mesh.validate()
        assert np.all(desk_mesh.areas > 0)
        assert set(desk_mesh.boundary_tags) == {"outer", "hole"}

    def test_hole_vertices_on_circle(self, desk_mesh):
        hole_edges = desk_mesh.boundary_edges[desk_mesh.boundary_tags == "hole"]
        hv = np.unique(hole_edges)
        r = np.linalg.norm(desk_mesh.vertices[hv], axis=1)
        assert np.abs(r - 0.5).max() <= 1e-12

    def test_max_diameter(self, desk_mesh):
        assert desk_mesh.triangle_diameters().max() <= 2 * 0.2

    def test_square_without_hole(self):
        m = generate_rect_with_hole((0, 1), (0, 1), (0.5, 0.5), 0.0, 0.25)
        m.validate()
        assert set(m.boundary_tags) == {"outer"}
        assert abs(m.total_area() - 1.0) < 1e-12

    def test_area_second_order_convergence(self):
        errs = []
        hs = (0.2, 0.1, 0.05)
        for h in hs:
            m = generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, h)
            errs.append(abs(m.total_area() - HOLE_EXACT_AREA) / HOLE_EXACT_AREA)
        # overall rate across two halvings, and error below the empirical
        # second-order envelope fitted at the coarsest resolution
        rate = np.log2(errs[0] / errs[2]) / 2.0
        assert rate >= 1.5
        c = errs[0] / hs[0] ** 2
        for h, e in zip(hs, errs):
            assert e <= 2.0 * c * h**2

    def test_refinement_quadruples_triangles(self):
        m1 = generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, 0.25)
        m2 = generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, 0.125)
        m2.validate()
        assert m2.num_triangles >= 4 * m1.num_triangles

    def test_grid_triangles_match_cell_loop(self):
        m = generate_rect_with_hole((0, 3), (0, 2), (0, 0), 0.0, 0.5)
        want = reference_grid(6, 4)
        assert m.triangles.dtype == want.dtype
        assert np.array_equal(m.triangles, want)

    def test_mesh_built_once(self, monkeypatch):
        built = []

        class Counting(TriangleMesh):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(meshmod, "TriangleMesh", Counting)
        m = generate_rect_with_hole((-2, 2), (-2, 2), (0, 0), 0.5, 0.25)
        assert len(built) == 1
        assert set(m.boundary_tags) == {"outer", "hole"}

    def test_hole_touching_rectangle_rejected(self):
        with pytest.raises(InvalidGeometry):
            generate_rect_with_hole((-1, 1), (-1, 1), (0.8, 0), 0.5, 0.1)
        with pytest.raises(InvalidGeometry):
            generate_rect_with_hole((-1, 1), (-1, 1), (3, 0), 0.5, 0.1)


@pytest.fixture(scope="module",
                params=["h0.2", "h0.125", "no_hole", "json", "gmsh"])
def table_mesh(request, desk_mesh, tmp_path_factory):
    if request.param == "h0.2":
        return desk_mesh
    if request.param == "h0.125":
        return generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, 0.125)
    if request.param == "no_hole":
        return generate_rect_with_hole((0, 3), (0, 2), (0, 0), 0.0, 0.3)
    path = tmp_path_factory.mktemp("table")
    if request.param == "json":
        save_mesh_json(desk_mesh, path / "mesh.json")
        m = load_mesh_json(path / "mesh.json")
        assert np.array_equal(m.boundary_tags, desk_mesh.boundary_tags)
        return m
    (path / "square.msh").write_text(GMSH_SQUARE)
    return load_gmsh(path / "square.msh")


class TestEdgeTable:
    def test_adjacency_matches_side_walk(self, table_mesh):
        neighbors, boundary = reference_adjacency(table_mesh.triangles)
        assert table_mesh.neighbors.dtype == neighbors.dtype
        assert np.array_equal(table_mesh.neighbors, neighbors)
        assert table_mesh.boundary_edges.dtype == boundary.dtype
        assert np.array_equal(table_mesh.boundary_edges, boundary)

    def test_p2_numbering_matches_edge_walk(self, table_mesh):
        conn, edges, bdofs = reference_p2_numbering(table_mesh)
        space = fem.build_space(table_mesh, 2)
        for got, want in ((space.conn, conn), (space.edges, edges),
                          (space.boundary_dofs(), bdofs)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        p1 = fem.build_space(table_mesh, 1)
        assert np.array_equal(p1.boundary_dofs(),
                              np.unique(table_mesh.boundary_edges))

    def test_table_is_consistent(self, table_mesh):
        m = table_mesh
        sides = m.triangles[:, [[1, 2], [2, 0], [0, 1]]]
        assert np.array_equal(m.edges[m.side_edges], np.sort(sides, axis=2))
        owners = m.edge_sides
        assert np.array_equal(m.side_edges.ravel()[owners[:, 0]],
                              np.arange(len(m.edges)))
        pair = owners[:, 1] >= 0
        assert np.all(owners[pair, 0] < owners[pair, 1])
        assert np.array_equal(m.side_edges.ravel()[owners[pair, 1]],
                              np.where(pair)[0])
        # the two owners of an interior edge walk it in opposite directions
        walks = sides.reshape(-1, 2)
        assert np.array_equal(walks[owners[pair, 0]],
                              walks[owners[pair, 1]][:, ::-1])

    def test_edge_of_three_triangles_rejected(self):
        # a fan of three triangles around the edge (0, 1)
        verts = [[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 2]]
        with pytest.raises(InvalidGeometry, match="more than two"):
            TriangleMesh(verts, [[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        with pytest.raises(InvalidGeometry, match="more than two"):
            TriangleMesh(verts, [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
                         validate=False)

    @pytest.mark.parametrize("triangles", [
        [[0, 1, 2], [0, 1, 2]],
        [[0, 1, 2], [2, 1, 0]],
        [[0, 1, 2], [0, 1, 3]],
    ], ids=["doubled", "doubled_clockwise", "folded"])
    def test_overlapping_triangles_rejected(self, triangles):
        verts = [[0, 0], [1, 0], [0, 1], [0.4, 0.4]]
        with pytest.raises(InvalidGeometry, match="overlap"):
            TriangleMesh(verts, triangles)
        with pytest.raises(InvalidGeometry, match="overlap"):
            TriangleMesh(verts, triangles, validate=False)

    @pytest.mark.parametrize("tri", [[0, 1, 5], [0, -1, 2]])
    def test_missing_vertex_rejected(self, tri):
        with pytest.raises(InvalidGeometry, match="missing vertex"):
            TriangleMesh([[0, 0], [1, 0], [0, 1]], [tri], validate=False)


class TestLocate:
    def test_centroid_of_first_triangle(self, desk_mesh):
        c = desk_mesh.vertices[desk_mesh.triangles[0]].mean(axis=0)
        tri, bary = locate_points(desk_mesh, c)
        assert tri[0] == 0
        assert np.allclose(bary[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_shared_vertex(self, desk_mesh):
        v = desk_mesh.triangles[10][0]
        tri, bary = locate_points(desk_mesh, desk_mesh.vertices[v])
        assert tri[0] >= 0
        assert v in desk_mesh.triangles[tri[0]]
        assert bary[0].max() >= 1.0 - 1e-12

    def test_barycentric_sum_and_reconstruction(self, desk_mesh):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3.9, 3.9, size=(50, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.8]
        tri, bary = locate_points(desk_mesh, pts)
        assert np.all(tri >= 0)
        assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-12
        rec = np.einsum("ni,nid->nd", bary,
                        desk_mesh.vertices[desk_mesh.triangles[tri]])
        assert np.linalg.norm(rec - pts, axis=1).max() <= 1e-10

    def test_against_exhaustive_oracle(self, desk_mesh):
        rng = np.random.default_rng(123)
        pts = rng.uniform(-4.2, 4.2, size=(1000, 2))
        tri, _ = locate_points(desk_mesh, pts)
        inside = tri >= 0
        for p, t in zip(pts, tri):
            expected = brute_force_locate(desk_mesh, p)
            if expected == -1:
                assert t == -1
            else:
                # any containing triangle is acceptable on shared edges
                assert t >= 0
        # started at the triangle found, each walk stays there
        again, _ = locate_points(desk_mesh, pts[inside], tri[inside])
        assert np.array_equal(again, tri[inside])

    def test_hint_independence(self, desk_mesh):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3.9, 3.9, size=(60, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.8]
        a, _ = locate_points(desk_mesh, pts, np.zeros(len(pts)))
        b, _ = locate_points(desk_mesh, pts,
                             np.full(len(pts), desk_mesh.num_triangles - 1))
        assert np.all(a >= 0) and np.all(b >= 0)
        assert np.array_equal(a, b)

    def test_stalled_walks_match_oracle_without_scalar_fallback(
            self, desk_mesh, monkeypatch):
        # a few points per block, so the exhaustive pass runs in several
        monkeypatch.setattr(meshmod, "_BLOCK_ELEMS", 7 * desk_mesh.num_triangles)
        rng = np.random.default_rng(31)
        # walks from the left of the hole toward its shadow stall on the rim
        shadow = np.column_stack([rng.uniform(0.6, 3.9, 60),
                                  rng.uniform(-0.45, 0.45, 60)])
        in_hole = 0.45 * rng.uniform(-1, 1, size=(20, 2)) / np.sqrt(2)
        beyond = rng.uniform(4.05, 5.0, size=(20, 2)) * rng.choice([-1, 1],
                                                                    (20, 2))
        pts = np.vstack([shadow, in_hole, beyond])
        start = brute_force_locate(desk_mesh, (-3.0, 0.0))
        tri, bary = locate_points(desk_mesh, pts,
                                  np.full(len(pts), start))
        for p, t, b in zip(pts, tri, bary):
            if brute_force_locate(desk_mesh, p) == -1:
                assert t == -1 and not b.any()
            else:
                verts = desk_mesh.vertices[desk_mesh.triangles[t]]
                assert brute_force_locate(TriangleMesh(verts, [[0, 1, 2]]), p) == 0
                assert np.linalg.norm(b @ verts - p) <= 1e-10
        assert (tri[:60] >= 0).all() and (tri[60:] == -1).all()

    def test_outside_returns_marker(self, desk_mesh):
        pts = np.array([[0.0, 0.0], [5.0, 0.0]])  # inside the hole; beyond
        tri, bary = locate_points(desk_mesh, pts)
        assert np.array_equal(tri, [-1, -1]) and not bary.any()
        facets, nearest, dist = nearest_boundary_facets(desk_mesh, pts)
        # the nearest point of the first sits on a hole chord: within the
        # sagitta of the circle
        assert desk_mesh.boundary_tags[facets[0]] == "hole"
        assert abs(np.linalg.norm(nearest[0]) - 0.5) <= 0.2**2 / (2 * 0.5)
        assert np.allclose(nearest[1], [4.0, 0.0], atol=1e-12)
        assert np.allclose(dist, np.linalg.norm(pts - nearest, axis=1))


class TestNearestFacet:
    def test_matches_distance_pass(self, desk_mesh):
        pts = np.random.default_rng(12).uniform(-4.5, 4.5, size=(200, 2))
        facets, nearest, dist = nearest_boundary_facets(desk_mesh, pts)
        assert np.array_equal(dist, boundary_distances(desk_mesh, pts))
        segs = desk_mesh.boundary_segments()[facets]
        # the closest point lies on its facet
        ab = segs[:, 1] - segs[:, 0]
        ap = nearest - segs[:, 0]
        assert np.abs(ab[:, 0] * ap[:, 1] - ab[:, 1] * ap[:, 0]).max() <= 1e-12

    def test_inward_normals_point_into_domain(self, desk_mesh):
        facets = np.arange(len(desk_mesh.boundary_edges))
        n = inward_normals(desk_mesh, facets)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0)
        mid = desk_mesh.boundary_segments().mean(axis=1)
        tri, _ = locate_points(desk_mesh, mid + 1e-3 * n)
        assert np.all(tri >= 0)
        tri, _ = locate_points(desk_mesh, mid - 1e-3 * n)
        assert np.all(tri == -1)


class TestBoundaryDistance:
    def test_above_hole(self, desk_mesh):
        h, r = 0.2, 0.5
        d = 0.2
        got = boundary_distances(desk_mesh, (0.0, r + d))
        assert abs(got[0] - d) <= h**2 / (2 * r)

    def test_boundary_vertex_zero(self, desk_mesh):
        v = desk_mesh.boundary_edges[0][0]
        assert boundary_distances(desk_mesh, desk_mesh.vertices[v])[0] == 0.0

    def test_straight_wall_exact(self, desk_mesh):
        assert abs(boundary_distances(desk_mesh, (0.0, 3.7))[0] - 0.3) < 1e-12

    def test_lipschitz(self, desk_mesh):
        rng = np.random.default_rng(2)
        a = rng.uniform(-3.9, 3.9, size=(300, 2))
        b = a + rng.normal(0, 0.2, size=a.shape)
        keep = (np.linalg.norm(a, axis=1) > 0.7) & (
            np.linalg.norm(b, axis=1) > 0.7
        ) & (np.abs(b).max(axis=1) < 4)
        da = boundary_distances(desk_mesh, a[keep])
        db = boundary_distances(desk_mesh, b[keep])
        gap = np.linalg.norm(a[keep] - b[keep], axis=1)
        assert np.all(np.abs(da - db) <= gap + 1e-12)

    def test_matches_dense_reference_bitwise(self, desk_mesh):
        def dense(points, segs):
            a, b = segs[None, :, 0], segs[None, :, 1]
            p = points[:, None, :]
            ab = b - a
            denom = np.maximum((ab * ab).sum(axis=2), 1e-300)
            t = np.clip(((p - a) * ab).sum(axis=2) / denom, 0.0, 1.0)
            return np.linalg.norm(p - (a + t[:, :, None] * ab), axis=2)

        pts = np.random.default_rng(8).uniform(-4.5, 4.5, size=(400, 2))
        for tag in (None, "outer", "hole"):
            want = dense(pts, desk_mesh.boundary_segments(tag)).min(axis=1)
            assert np.array_equal(boundary_distances(desk_mesh, pts, tag), want)
        d_all, d_hole = boundary_distances(desk_mesh, pts, tag=(None, "hole"))
        assert np.array_equal(d_all, boundary_distances(desk_mesh, pts))
        assert np.array_equal(d_hole, boundary_distances(desk_mesh, pts, "hole"))

    def test_missing_tag_rejected(self):
        square = generate_rect_with_hole((0, 2), (0, 2), (1, 1), 0.0, 0.5)
        pts = np.array([[0.5, 0.5], [1.0, 1.5]])
        with pytest.raises(InvalidGeometry):
            boundary_distances(square, pts, tag="hole")
        with pytest.raises(InvalidGeometry):
            boundary_distances(square, pts, tag=(None, "hole"))

    def test_tag_filter(self, desk_mesh):
        p = (0.0, 0.7)
        d_hole = boundary_distances(desk_mesh, p, tag="hole")[0]
        d_any = boundary_distances(desk_mesh, p)[0]
        assert abs(d_hole - d_any) < 1e-12  # hole is closest here
        d_outer = boundary_distances(desk_mesh, p, tag="outer")[0]
        assert d_outer > d_hole


class TestSerialization:
    def test_json_roundtrip(self, desk_mesh, tmp_path):
        path = tmp_path / "mesh.json"
        save_mesh_json(desk_mesh, path)
        m2 = load_mesh_json(path)
        assert np.allclose(m2.vertices, desk_mesh.vertices)
        assert np.array_equal(m2.triangles, desk_mesh.triangles)
        assert sorted(m2.boundary_tags) == sorted(desk_mesh.boundary_tags)

    def test_json_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "vertices": [], "triangles": []}))
        with pytest.raises(InvalidGeometry):
            load_mesh_json(path)

    def test_gmsh_reader(self, tmp_path):
        path = tmp_path / "square.msh"
        path.write_text(GMSH_SQUARE)
        m = load_gmsh(path)
        m.validate()
        assert m.num_vertices == 4
        assert m.num_triangles == 2
        assert set(m.boundary_tags) == {"outer"}

    def test_gmsh_rejects_other_elements(self, tmp_path):
        text = """$Nodes
1
1 0 0 0
$EndNodes
$Elements
1
1 15 2 0 0 1
$EndElements
"""
        path = tmp_path / "bad.msh"
        path.write_text(text)
        with pytest.raises(InvalidGeometry):
            load_gmsh(path)


def test_constructor_fixes_orientation():
    m = TriangleMesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    assert m.areas[0] > 0
