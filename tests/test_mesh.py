import json

import numpy as np
import pytest

from fpreg import mesh as meshmod
from fpreg.errors import InvalidGeometry
from fpreg.mesh import (
    OutsideDomain, PointLocation, TriangleMesh, boundary_distance,
    boundary_distances, generate_rect_with_hole, load_gmsh, load_mesh_json,
    locate_point, locate_points, save_mesh_json,
)

HOLE_EXACT_AREA = 64.0 - np.pi * 0.25


@pytest.fixture(scope="module")
def desk_mesh():
    return generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, 0.2)


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

    def test_hole_touching_rectangle_rejected(self):
        with pytest.raises(InvalidGeometry):
            generate_rect_with_hole((-1, 1), (-1, 1), (0.8, 0), 0.5, 0.1)
        with pytest.raises(InvalidGeometry):
            generate_rect_with_hole((-1, 1), (-1, 1), (3, 0), 0.5, 0.1)


class TestLocate:
    def test_centroid_of_first_triangle(self, desk_mesh):
        c = desk_mesh.vertices[desk_mesh.triangles[0]].mean(axis=0)
        loc = locate_point(desk_mesh, c)
        assert isinstance(loc, PointLocation)
        assert loc.triangle == 0
        assert np.allclose(loc.bary, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_shared_vertex(self, desk_mesh):
        v = desk_mesh.triangles[10][0]
        loc = locate_point(desk_mesh, desk_mesh.vertices[v])
        assert isinstance(loc, PointLocation)
        assert v in desk_mesh.triangles[loc.triangle]
        assert loc.bary.max() >= 1.0 - 1e-12

    def test_barycentric_sum_and_reconstruction(self, desk_mesh):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3.9, 3.9, size=(50, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.8]
        for p in pts:
            loc = locate_point(desk_mesh, p)
            assert isinstance(loc, PointLocation)
            assert abs(loc.bary.sum() - 1.0) <= 1e-12
            rec = loc.bary @ desk_mesh.vertices[desk_mesh.triangles[loc.triangle]]
            assert np.linalg.norm(rec - p) <= 1e-10

    def test_against_exhaustive_oracle(self, desk_mesh):
        rng = np.random.default_rng(123)
        pts = rng.uniform(-4.2, 4.2, size=(1000, 2))
        tri, _ = locate_points(desk_mesh, pts)
        for p, t in zip(pts, tri):
            expected = brute_force_locate(desk_mesh, p)
            if expected == -1:
                assert t == -1
            else:
                # any containing triangle is acceptable on shared edges
                assert t >= 0
                loc = locate_point(desk_mesh, p, hint=int(t))
                assert isinstance(loc, PointLocation)

    def test_hint_independence(self, desk_mesh):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3.9, 3.9, size=(60, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.8]
        for p in pts:
            a = locate_point(desk_mesh, p, hint=0)
            b = locate_point(desk_mesh, p, hint=desk_mesh.num_triangles - 1)
            assert isinstance(a, PointLocation) and isinstance(b, PointLocation)
            assert a.triangle == b.triangle

    def test_stalled_walks_match_oracle_without_scalar_fallback(
            self, desk_mesh, monkeypatch):
        def scalar_fallback(*args, **kwargs):
            raise AssertionError("locate_points fell back to locate_point")

        monkeypatch.setattr(meshmod, "locate_point", scalar_fallback)
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
        out = locate_point(desk_mesh, (0.0, 0.0))  # inside the hole
        assert isinstance(out, OutsideDomain)
        # nearest point sits on a hole chord: within sagitta of the circle
        assert abs(np.linalg.norm(out.nearest) - 0.5) <= 0.2**2 / (2 * 0.5)
        out = locate_point(desk_mesh, (5.0, 0.0))
        assert isinstance(out, OutsideDomain)


class TestBoundaryDistance:
    def test_above_hole(self, desk_mesh):
        h, r = 0.2, 0.5
        d = 0.2
        got = boundary_distance(desk_mesh, (0.0, r + d))
        assert abs(got - d) <= h**2 / (2 * r)

    def test_boundary_vertex_zero(self, desk_mesh):
        v = desk_mesh.boundary_edges[0][0]
        assert boundary_distance(desk_mesh, desk_mesh.vertices[v]) == 0.0

    def test_straight_wall_exact(self, desk_mesh):
        assert abs(boundary_distance(desk_mesh, (0.0, 3.7)) - 0.3) < 1e-12

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
        with pytest.raises(InvalidGeometry):
            boundary_distance(square, pts[0], tag="hole")

    def test_tag_filter(self, desk_mesh):
        d_hole = boundary_distance(desk_mesh, (0.0, 0.7), tag="hole")
        d_any = boundary_distance(desk_mesh, (0.0, 0.7))
        assert abs(d_hole - d_any) < 1e-12  # hole is closest here
        d_outer = boundary_distance(desk_mesh, (0.0, 0.7), tag="outer")
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
        text = """$MeshFormat
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
        path = tmp_path / "square.msh"
        path.write_text(text)
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
