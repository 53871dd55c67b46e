import numpy as np
import pytest
import scipy.sparse as sp

from fpreg import fem
from fpreg.boundary import (
    SmootherParams, assemble_smoother, gradient_jump_seminorm,
    raw_distance_field, regularized_potential, smooth_distance,
)
from fpreg.density import Gmm
from fpreg.errors import InvalidDistanceField, UnsupportedDegree
from fpreg.mesh import TriangleMesh, generate_rect_with_hole, locate_points


def reference_interior_facets(space):
    """Interior facets found by a walk over every triangle side.

    A dict pairs each side with the first earlier side on the same vertex
    pair. That earlier triangle is "plus": the facet runs a -> b as plus
    walks it, and the unit normal points out of plus.
    """
    tris, verts = space.mesh.triangles, space.mesh.vertices
    local = [(1, 2), (2, 0), (0, 1)]
    seen, facets = {}, []
    for t, tri in enumerate(tris):
        for i, (a, b) in enumerate(local):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            if key not in seen:
                seen[key] = (t, i)
                continue
            s, j = seen.pop(key)
            va, vb = tris[s][local[j][0]], tris[s][local[j][1]]
            tp = verts[vb] - verts[va]
            length = float(np.linalg.norm(tp))
            facets.append(dict(verts=(va, vb), plus=s, minus=t, length=length,
                               normal=np.array([tp[1], -tp[0]]) / length))
    return facets


def reference_normal_grads(space, elem, facet, s):
    """(Q, ndl) normal gradients of elem's basis at the points a + s (b - a)."""
    a, b = facet["verts"]
    tri = space.mesh.triangles[elem]
    lam = np.zeros((len(s), 3))
    lam[:, int(np.where(tri == a)[0][0])] = 1.0 - s
    lam[:, int(np.where(tri == b)[0][0])] = s
    dn = fem.shape_grads_bary(space.degree, lam)
    grads = np.einsum("qni,id->qnd", dn, space.grad_lambda[elem])
    return grads @ facet["normal"]


def reference_smoother(space, params):
    """The C0-IP form with its facet terms assembled facet by facet.

    Each facet block lives on the union of the two sides' dofs, with the
    jumps and averages summed per dof before the products.
    """
    kappa = params.kappa if params.kappa is not None else space.degree
    lap = space.shape_laplacians()
    local = space.areas[:, None, None] * np.einsum("ei,ej->eij", lap, lap)
    A = fem._assemble(space, local)
    A.data += fem.assemble_mass(space).data / params.delta
    s, wq = fem.edge_quadrature(3)
    rows, cols, vals = [], [], []
    for facet in reference_interior_facets(space):
        sides = ((facet["plus"], 1.0), (facet["minus"], -1.0))
        union = np.unique(space.conn[[facet["plus"], facet["minus"]]])
        col = {d: i for i, d in enumerate(union)}
        jump = np.zeros((len(s), len(union)))
        avg = np.zeros(len(union))
        for elem, sign in sides:
            gn = reference_normal_grads(space, elem, facet, s)
            for loc, d in enumerate(space.conn[elem]):
                jump[:, col[d]] += sign * gn[:, loc]
                avg[col[d]] += 0.5 * lap[elem, loc]
        ds = facet["length"] * wq
        beta = params.sigma_beta * kappa**2 / facet["length"]
        blk = beta * np.einsum("q,qi,qj->ij", ds, jump, jump)
        blk += (ds.sum() / beta) * np.outer(avg, avg)
        rows.append(np.repeat(union, len(union)))
        cols.append(np.tile(union, len(union)))
        vals.append(blk.ravel())
    if rows:
        F = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=A.shape)
        A = A + F.tocsr()
    return (0.5 * (A + A.T)).tocsr()


def reference_seminorm(field):
    """Sum over interior facets of the squared L2 norm of [grad field . n]."""
    space = field.space
    s, wq = fem.edge_quadrature(3)
    total = 0.0
    for facet in reference_interior_facets(space):
        jump = np.zeros(len(s))
        for elem, sign in ((facet["plus"], 1.0), (facet["minus"], -1.0)):
            gn = reference_normal_grads(space, elem, facet, s)
            jump += sign * (gn @ field.coeffs[space.conn[elem]])
        total += facet["length"] * float(wq @ jump**2)
    return total


@pytest.fixture(scope="module")
def hole_space():
    mesh = generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, 0.25)
    return fem.build_space(mesh, 2)


@pytest.fixture(scope="module")
def params():
    return SmootherParams(delta=1e-2, tol=1e-2)


@pytest.fixture(scope="module")
def smoothed(hole_space, params):
    w = raw_distance_field(hole_space, params.tol)
    return w, smooth_distance(hole_space, w, params)


class TestRawDistance:
    def test_boundary_dofs_at_tol(self, hole_space, params):
        w = raw_distance_field(hole_space, params.tol)
        bd = hole_space.boundary_dofs()
        assert np.all(w.coeffs[bd] == params.tol)

    def test_interior_point_near_hole(self, hole_space, params):
        w = raw_distance_field(hole_space, params.tol)
        # dof on the x axis left of the hole: closest boundary is the hole
        coords = hole_space.dof_coords
        target = np.array([-1.5, 0.0])
        i = int(np.argmin(np.linalg.norm(coords - target, axis=1)))
        d_exact = np.linalg.norm(coords[i]) - 0.5
        assert abs(w.coeffs[i] - d_exact) <= 0.25**2 / (2 * 0.5) + 1e-12

    def test_floor_everywhere(self, hole_space, params):
        w = raw_distance_field(hole_space, params.tol)
        assert np.all(w.coeffs >= params.tol)


class TestSmoother:
    def test_constant_reproduction(self, hole_space, params):
        wc = fem.FeField(hole_space, np.full(hole_space.n_dofs, params.tol))
        out = smooth_distance(hole_space, wc, params)
        assert np.abs(out.coeffs - params.tol).max() <= 1e-8

    def test_boundary_values_exact(self, smoothed, hole_space, params):
        _, wd = smoothed
        bd = hole_space.boundary_dofs()
        assert np.all(wd.coeffs[bd] == params.tol)

    def test_jump_seminorm_not_increased(self, smoothed):
        w, wd = smoothed
        assert gradient_jump_seminorm(wd) <= gradient_jump_seminorm(w)

    def test_bilinear_form_symmetric(self, hole_space, params):
        A = assemble_smoother(hole_space, params)
        assert abs(A - A.T).max() <= 1e-12

    @pytest.mark.parametrize("case", ["hole", "square", "triangle"])
    def test_matches_facet_by_facet_assembly(self, case, hole_space, params):
        if case == "hole":
            space = hole_space
        elif case == "square":
            space = fem.build_space(TriangleMesh(
                [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]), 2)
        else:
            space = fem.build_space(
                TriangleMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]]), 2)
        A = assemble_smoother(space, params).sorted_indices()
        ref = reference_smoother(space, params).sorted_indices()
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        scale = np.abs(ref.data).max()
        assert np.abs(A.data - ref.data).max() <= 1e-14 * scale

    def test_seminorm_matches_facet_by_facet_sum(self, smoothed):
        for field in smoothed:
            want = reference_seminorm(field)
            assert want > 0
            assert abs(gradient_jump_seminorm(field) - want) <= 1e-13 * want

    def test_degree_one_rejected(self, params):
        mesh = generate_rect_with_hole((0, 1), (0, 1), (0, 0), 0.0, 0.25)
        sp1 = fem.build_space(mesh, 1)
        w = raw_distance_field(sp1, params.tol)
        with pytest.raises(UnsupportedDegree):
            smooth_distance(sp1, w, params)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SmootherParams(delta=0.0, tol=1e-2)


class TestRegularizedPotential:
    @pytest.fixture(scope="class")
    def gmm(self):
        return Gmm([1.0], [[2.0, 0.0]], [0.2 * np.eye(2)])

    def test_eps_zero_is_plain_potential(self, hole_space, smoothed, gmm):
        from fpreg.density import gmm_logpdf
        _, wd = smoothed
        V, _ = regularized_potential(gmm, wd, 0.0)
        want = -gmm_logpdf(gmm, hole_space.dof_coords)
        assert np.array_equal(V.coeffs, want)

    def test_floor_dof_additive_term(self, hole_space, params, gmm):
        wd = fem.FeField(hole_space, np.full(hole_space.n_dofs, params.tol))
        V0, _ = regularized_potential(gmm, wd, 0.0)
        V1, _ = regularized_potential(gmm, wd, 1e-2)
        add = V1.coeffs - V0.coeffs
        assert np.allclose(add, 1.0, atol=1e-12)  # eps/tol = 1e-2/1e-2

    def test_repulsive_force_points_away_from_hole(self, hole_space, smoothed,
                                                   gmm):
        _, wd = smoothed
        _, g0 = regularized_potential(gmm, wd, 0.0)
        _, g1 = regularized_potential(gmm, wd, 1e-2)
        mesh = hole_space.mesh
        rng = np.random.default_rng(4)
        angles = rng.uniform(0, 2 * np.pi, 24)
        pts = 0.62 * np.column_stack([np.cos(angles), np.sin(angles)])
        tri, bary = locate_points(mesh, pts)
        assert np.all(tri >= 0)
        extra = g1.at(tri, bary) - g0.at(tri, bary)
        # -extra is the added force; it should push outward (same
        # direction as p, which points away from the hole center)
        assert np.all(np.einsum("nd,nd->n", -extra, pts) > 0)

    def test_monotone_in_eps(self, hole_space, smoothed, gmm):
        _, wd = smoothed
        coords = hole_space.dof_coords
        i = int(np.argmin(np.abs(np.linalg.norm(coords, axis=1) - 0.7)))
        vals = []
        for eps in (0.0, 1e-3, 1e-2, 1e-1):
            V, _ = regularized_potential(gmm, wd, eps)
            vals.append(V.coeffs[i])
        assert np.all(np.diff(vals) >= 0)

    def test_nonpositive_distance_rejected(self, hole_space, gmm):
        bad = fem.FeField(hole_space, np.full(hole_space.n_dofs, 1e-2))
        bad.coeffs[17] = 0.0
        with pytest.raises(InvalidDistanceField):
            regularized_potential(gmm, bad, 1e-2)

    def test_negative_eps_rejected(self, hole_space, smoothed, gmm):
        _, wd = smoothed
        with pytest.raises(ValueError):
            regularized_potential(gmm, wd, -1.0)
