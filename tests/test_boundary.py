import numpy as np
import pytest

from fpreg import fem
from fpreg.boundary import (
    SmootherParams, assemble_smoother, gradient_jump_seminorm,
    raw_distance_field, regularized_potential, smooth_distance,
)
from fpreg.density import Gmm
from fpreg.errors import InvalidDistanceField, UnsupportedDegree
from fpreg.mesh import generate_rect_with_hole, locate_point


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
        for p in pts:
            loc = locate_point(mesh, p)
            extra = (g1.at([loc.triangle], loc.bary[None, :])
                     - g0.at([loc.triangle], loc.bary[None, :]))[0]
            # -extra is the added force; it should push outward (same
            # direction as p, which points away from the hole center)
            assert -extra @ p > 0

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
