import numpy as np
import pytest

from fpreg import analytic, density, fem
from fpreg.fpsolve import make_time_grid, solve_fp
from fpreg.mesh import (
    HOLE, boundary_distances, generate_rect_with_hole, locate_points,
)
from fpreg.particles import (
    DENSITY_FLOOR, ParticleSet, _Advector, _velocities, advect_euler,
    advect_gf, advect_rk2, gf_potential, hausdorff, write_summary_json,
    write_trajectory_csv,
)


def velocities(points, rho, grad_V, floor=DENSITY_FLOOR, formula="theorem"):
    """Transport velocities at points inside the domain."""
    tri, bary = locate_points(rho.space.mesh, points)
    assert np.all(tri >= 0)
    return _velocities(rho, grad_V, tri, bary, floor, formula)


@pytest.fixture(scope="module")
def big_square():
    mesh = generate_rect_with_hole((-6, 6), (-6, 6), (0, 0), 0.0, 0.3)
    return fem.build_space(mesh, 2)


@pytest.fixture(scope="module")
def gaussian_traj(big_square):
    """Free-space Gaussian transport solved once for the particle tests."""
    space = big_square
    g_inf = density.Gmm([1.0], [[0.0, 0.0]], [0.2 * np.eye(2)])
    g_0 = density.Gmm([1.0], [[-2.0, 0.0]], [0.2 * np.eye(2)])
    V = fem.interpolate(space, lambda p: -density.gmm_logpdf(g_inf, p))
    grad_V = fem.VectorField.from_gradient(V)
    rho0 = fem.interpolate(space, lambda p: density.gmm_pdf(g_0, p))
    grid = make_time_grid(0.5, 120, 1.5)
    traj = solve_fp(space, rho0, grad_V, grid, supg=True, store_every=1)
    return traj, grad_V, g_0, g_inf


class TestVelocity:
    def test_drift_only(self, big_square):
        space = big_square
        rho = fem.interpolate(space, lambda p: np.ones(len(p)))
        V = fem.interpolate(space, lambda p: p[:, 0])
        grad_V = fem.VectorField.from_gradient(V)
        u = velocities((0.3, 0.4), rho, grad_V)
        assert np.allclose(u, [[-1.0, 0.0]], atol=1e-10)

    def test_floor_guard(self, big_square):
        space = big_square
        rho = fem.FeField(space, np.zeros(space.n_dofs))
        V = fem.interpolate(space, lambda p: p[:, 0])
        grad_V = fem.VectorField.from_gradient(V)
        u = velocities((0.3, 0.4), rho, grad_V, floor=1e-12)
        assert np.all(np.isfinite(u))
        assert np.allclose(u, [[-1.0, 0.0]], atol=1e-9)  # zero grad / floor

    def test_literal_formula(self, big_square):
        space = big_square
        rho = fem.interpolate(space, lambda p: p[:, 0])
        V = fem.interpolate(space, lambda p: 2.0 * p[:, 1])
        grad_V = fem.VectorField.from_gradient(V)
        u = velocities((0.5, 0.5), rho, grad_V, formula="literal_eq16")
        assert np.allclose(u, [[1.0, 2.0]], atol=1e-10)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_stationary_pair_velocity_vanishes_with_rate(self, degree):
        g = density.Gmm([1.0], [[0.5, 0.5]], [0.05 * np.eye(2)])
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.3, 0.7, size=(50, 2))
        norms = []
        for h in (0.1, 0.05, 0.025):
            mesh = generate_rect_with_hole((0, 1), (0, 1), (0, 0), 0.0, h)
            space = fem.build_space(mesh, degree)
            rho = fem.interpolate(space, lambda p: density.gmm_pdf(g, p))
            V = fem.interpolate(space, lambda p: -density.gmm_logpdf(g, p))
            grad_V = fem.VectorField.from_gradient(V)
            u = velocities(pts, rho, grad_V)
            norms.append(np.max(np.linalg.norm(u, axis=1)))
        rate = np.log2(norms[0] / norms[2]) / 2.0
        assert rate >= degree - 0.3
        assert norms[2] < norms[0]


class TestEuler:
    def test_single_step_shift(self, big_square):
        space = big_square
        # constant density, linear potential: u = (-1, 0) everywhere
        rho = fem.interpolate(space, lambda p: np.ones(len(p)))
        V = fem.interpolate(space, lambda p: p[:, 0])
        grad_V = fem.VectorField.from_gradient(V)
        grid = make_time_grid(0.1, 1, 1.0)
        traj = solve_fp(space, rho, grad_V, grid, supg=False, store_every=1,
                        renormalize=False)
        # overwrite both snapshots with the constant so velocity is exact
        traj.snapshots[:] = rho.coeffs
        pset = ParticleSet(np.array([[0.5, 0.5]]))
        log = advect_euler(pset, traj, grad_V)
        assert np.allclose(log.positions[-1][0], [0.4, 0.5], atol=1e-9)

    def test_zero_step_range_returns_input(self, gaussian_traj):
        traj, grad_V, g_0, _ = gaussian_traj
        pts = density.sample(g_0, 20, seed=3)
        log = advect_euler(ParticleSet(pts), traj, grad_V, k_end=0)
        assert np.array_equal(log.positions[0], pts)
        assert len(log.ks) == 1

    def test_gaussian_benchmark_moments(self, gaussian_traj):
        traj, grad_V, g_0, _ = gaussian_traj
        n = 1500
        pts = density.sample(g_0, n, seed=11)
        log = advect_euler(ParticleSet(pts), traj, grad_V,
                           track_distances=False)
        px = analytic.GaussianParams1D(-2.0, 0.2, 0.2)
        py = analytic.GaussianParams1D(0.0, 0.2, 0.2)
        mean, var = analytic.fp_gaussian_product2d(px, py, 0.5)
        final = log.positions[-1]
        se_mean = np.sqrt(var / n)
        assert np.all(np.abs(final.mean(axis=0) - mean) <= 3 * se_mean + 5e-3)
        cov = np.cov(final.T, bias=True)
        se_var = var * np.sqrt(2.0 / n)
        assert np.all(np.abs(np.diag(cov) - var) <= 3 * se_var + 5e-3)

    def test_containment(self, gaussian_traj):
        traj, grad_V, g_0, _ = gaussian_traj
        pts = density.sample(g_0, 100, seed=5)
        log = advect_euler(ParticleSet(pts), traj, grad_V)
        tri, _ = locate_points(traj.space.mesh, log.positions[-1])
        assert np.all(tri[log.alive[-1]] >= 0)

    def test_determinism(self, gaussian_traj):
        traj, grad_V, g_0, _ = gaussian_traj
        pts = density.sample(g_0, 40, seed=2)
        a = advect_euler(ParticleSet(pts.copy()), traj, grad_V)
        b = advect_euler(ParticleSet(pts.copy()), traj, grad_V)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.min_boundary_distance, b.min_boundary_distance)


class TestRk2:
    def test_exact_for_time_affine_velocity(self, big_square):
        # with the literal formula and constant-gradient snapshots the
        # velocity is affine in time, where one Heun step is exact
        space = big_square
        rho_a = fem.interpolate(space, lambda p: 1.0 + 0.0 * p[:, 0])
        V = fem.interpolate(space, lambda p: -p[:, 0])  # grad V = (-1, 0)
        grad_V = fem.VectorField.from_gradient(V)
        grid = make_time_grid(0.2, 1, 1.0)
        traj = solve_fp(space, rho_a, grad_V, grid, supg=False, store_every=1)
        # snapshots: rho_0 with slope 1, rho_1 with slope 3 along x
        sp_ = space
        f0 = fem.interpolate(sp_, lambda p: 1.0 * p[:, 0])
        f1 = fem.interpolate(sp_, lambda p: 3.0 * p[:, 0])
        traj.snapshots[0] = f0.coeffs
        traj.snapshots[1] = f1.coeffs
        pset = ParticleSet(np.array([[0.0, 0.0]]))
        log = advect_rk2(pset, traj, grad_V, substeps=1,
                         formula="literal_eq16")
        # u(t) = grad V + grad rho(t) = (-1 + 1 + 2 t/dt, 0); exact integral
        # over the step is dt * (-1 + 2) = dt * 1... spelled out:
        dt = 0.2
        # u_x(tau) = -1 + (1 + 2 * tau/dt); integral = dt * (0 + 1) = 0.2
        want = np.array([0.2, 0.0])
        assert np.allclose(log.positions[-1][0], want, atol=1e-12)

    def test_substeps_one_matches_manual_heun(self, gaussian_traj):
        traj, grad_V, g_0, _ = gaussian_traj
        x0 = np.array([[-2.1, 0.05]])
        log = advect_rk2(ParticleSet(x0.copy()), traj, grad_V, substeps=1,
                         k_end=1, track_distances=False)
        # manual Heun over the first interval
        rho0 = traj.field(0)
        rho1 = traj.field(1)
        dt = traj.grid.dt(0)
        u1 = velocities(x0, rho0, grad_V)
        u2 = velocities(x0 + dt * u1, rho1, grad_V)
        want = (x0 + 0.5 * dt * (u1 + u2))[0]
        assert np.allclose(log.positions[-1][0], want, atol=1e-12)

    def test_self_convergence_order(self, big_square):
        # quadratic density/potential are P2-exact, so the velocity has no
        # element-interface kinks and the study isolates the scheme order
        # (on rough FE data the observed order degrades toward one, which
        # is a property of the data, not of the integrator)
        space = big_square
        rho_a = fem.interpolate(
            space, lambda p: 1.0 + 0.02 * (p[:, 0] ** 2 + p[:, 1] ** 2)
        )
        rho_b = fem.interpolate(
            space, lambda p: 1.0 + 0.05 * p[:, 0] ** 2 + 0.01 * p[:, 1] ** 2
        )
        V = fem.interpolate(space, lambda p: 0.5 * (p[:, 0] ** 2
                                                    + 0.6 * p[:, 1] ** 2))
        grad_V = fem.VectorField.from_gradient(V)
        grid = make_time_grid(1.0, 4, 1.0)
        traj = solve_fp(space, rho_a, grad_V, grid, supg=False, store_every=1)
        for i, k in enumerate(traj.ks):
            traj.snapshots[i] = rho_a.coeffs if k % 2 == 0 else rho_b.coeffs
        pts = np.array([[1.3, 0.7], [-0.4, 1.9], [2.0, -1.0], [0.3, 0.2]])
        finals = {}
        for sub in (1, 2, 4, 16):
            log = advect_rk2(ParticleSet(pts.copy()), traj, grad_V,
                             substeps=sub, track_distances=False)
            finals[sub] = log.positions[-1]
        e1 = np.linalg.norm(finals[1] - finals[16], axis=1).max()
        e4 = np.linalg.norm(finals[4] - finals[16], axis=1).max()
        rate = np.log2(e1 / e4) / 2.0
        assert rate >= 1.8

    def test_moments_match_closed_form(self, gaussian_traj):
        traj, grad_V, g_0, _ = gaussian_traj
        n = 1000
        pts = density.sample(g_0, n, seed=13)
        log = advect_rk2(ParticleSet(pts), traj, grad_V, substeps=2,
                         track_distances=False)
        px = analytic.GaussianParams1D(-2.0, 0.2, 0.2)
        py = analytic.GaussianParams1D(0.0, 0.2, 0.2)
        mean, var = analytic.fp_gaussian_product2d(px, py, 0.5)
        final = log.positions[-1]
        assert np.all(np.abs(final.mean(axis=0) - mean)
                      <= 3 * np.sqrt(var / n) + 5e-3)


    def test_midpoint_exits_counted(self, big_square, tmp_path):
        # grad V = (-1, 0) under the literal formula moves every particle by
        # (-0.2, 0) per step: only the particle at the wall has its Heun
        # midpoint outside, and it takes the Euler step to the same place
        space = big_square
        rho = fem.interpolate(space, lambda p: np.ones(len(p)))
        V = fem.interpolate(space, lambda p: -p[:, 0])
        grad_V = fem.VectorField.from_gradient(V)
        grid = make_time_grid(0.2, 1, 1.0)
        traj = solve_fp(space, rho, grad_V, grid, supg=False, store_every=1)
        traj.snapshots[:] = rho.coeffs
        pts = np.array([[0.0, 0.0], [-5.9, 1.0]])
        log = advect_rk2(ParticleSet(pts.copy()), traj, grad_V, substeps=1,
                         formula="literal_eq16", boundary="kill",
                         track_distances=False)
        assert log.midpoint_exits == 1
        assert np.allclose(log.positions[-1], pts - [0.2, 0.0], atol=1e-12)
        write_summary_json(log, tmp_path / "summary.json")
        import json
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["midpoint_exits"] == 1


class TestGf:
    def test_zero_rhs_gives_zero_potential(self, big_square):
        space = big_square
        rho = fem.interpolate(space, lambda p: np.ones(len(p)) / 144.0)
        psi = gf_potential(rho, rho, 1e-10)
        assert np.abs(psi.coeffs).max() <= 1e-8

    def test_mass_compatibility(self, gaussian_traj):
        traj, _, _, _ = gaussian_traj
        r0 = traj.field(0)
        r1 = traj.field(1)
        assert abs(fem.integrate(r1) - fem.integrate(r0)) <= 1e-8

    def test_manufactured_neumann_solution(self):
        # rho = 1: the equation is -lap psi + eps psi = f with
        # f = cos(pi x) cos(pi y), hence psi = f / (2 pi^2 + eps) up to a
        # constant at the eps-regularization scale (only grad psi acts on
        # particles, so the comparison is mean-adjusted)
        errs = []
        for h in (0.1, 0.05):
            mesh = generate_rect_with_hole((0, 1), (0, 1), (0, 0), 0.0, h)
            space = fem.build_space(mesh, 2)
            one = fem.interpolate(space, lambda p: np.ones(len(p)))

            def f(p):
                return np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])

            rho1 = fem.FeField(space, one.coeffs + fem.interpolate(space, f).coeffs)
            eps = 1e-10
            psi = gf_potential(one, rho1, eps)
            centered = fem.FeField(space, psi.coeffs - fem.integrate(psi))
            want = lambda p: f(p) / (2 * np.pi**2 + eps)
            errs.append(analytic.l2_error(centered, want))
        assert errs[1] < errs[0] / 4  # at least second order
        assert errs[1] < 2e-4

    def test_stationary_zero_displacement(self, big_square):
        space = big_square
        g = density.Gmm([1.0], [[0.0, 0.0]], [0.2 * np.eye(2)])
        rho = fem.interpolate(space, lambda p: density.gmm_pdf(g, p))
        grid = make_time_grid(0.1, 2, 1.0)
        traj = solve_fp(space, rho, fem.VectorField.zero(space), grid,
                        supg=False, store_every=1)
        traj.snapshots[:] = rho.coeffs  # force exact stationarity
        pts = density.sample(g, 30, seed=1)
        log = advect_gf(ParticleSet(pts), traj, eps_gf=1e-10)
        moved = np.linalg.norm(log.positions[-1] - log.positions[0], axis=1)
        assert moved.max() <= 1e-7

    def test_moments_match_closed_form(self, gaussian_traj):
        traj, _, g_0, _ = gaussian_traj
        n = 1000
        pts = density.sample(g_0, n, seed=17)
        log = advect_gf(ParticleSet(pts), traj, eps_gf=1e-10,
                        track_distances=False)
        px = analytic.GaussianParams1D(-2.0, 0.2, 0.2)
        py = analytic.GaussianParams1D(0.0, 0.2, 0.2)
        mean, var = analytic.fp_gaussian_product2d(px, py, 0.5)
        final = log.positions[-1]
        assert np.all(np.abs(final.mean(axis=0) - mean)
                      <= 3 * np.sqrt(var / n) + 8e-3)


def _contains(mesh, t, x, tol=1e-12):
    """Whether triangle t holds x, from its own edge-function test."""
    a, b, c = mesh.vertices[mesh.triangles[t]]

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    area2 = cross(a, b, c)
    return min(cross(b, c, x), cross(c, a, x), cross(a, b, x)) >= -tol * area2


def _project_oracle(mesh, x, tol):
    """Where the project policy puts one escaped particle, or None if killed."""
    best = []
    for j, (a, b) in enumerate(mesh.boundary_segments()):
        ab = b - a
        s = np.clip(np.dot(x - a, ab) / np.dot(ab, ab), 0.0, 1.0)
        best.append((float(np.hypot(*(x - a - s * ab))), j, a + s * ab, ab))
    best.sort(key=lambda item: item[:2])
    assert best[1][0] - best[0][0] > 1e-9  # no tie to break
    _, _, p, ab = best[0]
    normal = np.array([-ab[1], ab[0]]) / np.hypot(*ab)
    for scale in (1.0, 0.5, 0.25, 0.1):
        cand = p + scale * tol * normal
        if any(_contains(mesh, t, cand) for t in range(mesh.num_triangles)):
            return cand
    return None


class TestProjectPolicy:
    def test_escapees_match_per_particle_oracle(self):
        mesh = generate_rect_with_hole((-2, 2), (-2, 2), (0, 0), 0.5, 0.25)
        space = fem.build_space(mesh, 1)
        grid = make_time_grid(1.0, 1, 1.0)
        rng = np.random.default_rng(4)
        start = rng.uniform(-1.8, 1.8, size=(40, 2))
        start = start[np.linalg.norm(start, axis=1) > 0.7][:24]
        adv = _Advector(ParticleSet(start), space, grid, project_tol=0.05)
        assert not adv.exit_counts.any()
        # past each outer wall, into the hole near its rim, and staying put
        angles = np.array([0.3, 1.9, 2.6, 4.1, 5.5])
        target = np.vstack([
            [[2.3, 0.7], [-2.1, -1.3], [0.4, 2.05], [-0.9, -2.6]],
            0.4 * np.column_stack([np.cos(angles), np.sin(angles)]),
            start[9:],
        ])
        pushed = np.arange(9)
        adv.step_to(target, np.arange(len(target)))
        assert np.array_equal(adv.exit_counts, np.arange(len(start)) < 9)
        assert adv.alive.all()
        for i in pushed:
            want = _project_oracle(mesh, target[i], 0.05)
            assert np.allclose(adv.x[i], want, rtol=0, atol=1e-12)
        assert np.allclose(boundary_distances(mesh, adv.x[pushed]), 0.05,
                           rtol=0, atol=1e-12)
        assert np.array_equal(adv.x[9:], start[9:])
        idx, tri, bary = adv.located()
        assert np.array_equal(idx, np.arange(len(start)))
        for i, t, b in zip(idx, tri, bary):
            assert _contains(mesh, t, adv.x[i])
            verts = mesh.vertices[mesh.triangles[t]]
            assert np.linalg.norm(b @ verts - adv.x[i]) <= 1e-12

    def test_wedged_particle_killed(self):
        # every offset of a strip 0.05 wide leaves it for project_tol = 1
        strip = generate_rect_with_hole((0, 1), (0, 0.05), (0, 0), 0.0, 0.05)
        space = fem.build_space(strip, 1)
        adv = _Advector(ParticleSet([[0.52, 0.02], [0.33, 0.03]]), space,
                        make_time_grid(1.0, 1, 1.0), project_tol=1.0)
        adv.step_to(np.array([[0.52, 0.08], [0.33, 0.01]]), np.arange(2))
        assert _project_oracle(strip, np.array([0.52, 0.08]), 1.0) is None
        assert adv.exit_counts.tolist() == [1, 0]
        assert adv.alive.tolist() == [False, True]
        idx, _, _ = adv.located()
        assert idx.tolist() == [1]


def test_distance_minima_are_per_step_minima():
    mesh = generate_rect_with_hole((-2, 2), (-2, 2), (0, 0), 0.5, 0.25)
    space = fem.build_space(mesh, 1)
    rho = fem.interpolate(space, lambda p: np.ones(len(p)))
    # u = -(x - c) with c = (-0.3, 0) inside the hole: many particles
    # leave through the rim and are projected back
    V = fem.interpolate(space, lambda p: 0.5 * ((p[:, 0] + 0.3) ** 2
                                                + p[:, 1] ** 2))
    grad_V = fem.VectorField.from_gradient(V)
    grid = make_time_grid(2.0, 8, 1.0)
    traj = solve_fp(space, rho, fem.VectorField.zero(space), grid,
                    supg=False, store_every=1)
    traj.snapshots[:] = rho.coeffs
    pts = np.random.default_rng(12).uniform(-1.9, 1.9, size=(60, 2))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.6]
    log = advect_euler(ParticleSet(pts), traj, grad_V)
    assert log.exit_counts.sum() > 0
    for got, tag in ((log.min_boundary_distance, None),
                     (log.min_hole_distance, HOLE)):
        per_step = np.array([boundary_distances(mesh, x, tag=tag)
                             for x in log.positions])
        per_step[~log.alive] = np.inf
        want = per_step.min(axis=0)
        want[np.isinf(want)] = np.nan
        assert np.array_equal(got, want, equal_nan=True)


class TestHausdorff:
    def test_identical_sets(self):
        a = np.array([[0, 0], [1, 2], [3, 1]])
        assert hausdorff(a, a) == 0.0

    def test_three_four_five(self):
        assert hausdorff([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(40, 2))
        b = rng.normal(size=(55, 2))

        def oracle(s, t):
            best = 0.0
            for p in s:
                d = min(float(np.hypot(*(p - q))) for q in t)
                best = max(best, d)
            return best

        want = max(oracle(a, b), oracle(b, a))
        assert hausdorff(a, b) == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff(np.empty((0, 2)), [[1.0, 1.0]])


class TestLogsAndIO:
    def test_csv_and_summary(self, gaussian_traj, tmp_path):
        traj, grad_V, g_0, _ = gaussian_traj
        pts = density.sample(g_0, 10, seed=4)
        log = advect_euler(ParticleSet(pts), traj, grad_V, k_end=5)
        write_trajectory_csv(log, tmp_path / "traj.csv")
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "k,t,particle_id,x,y,alive"
        assert len(lines) == 1 + 6 * 10
        write_summary_json(log, tmp_path / "summary.json")
        import json
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["n_particles"] == 10
        assert len(doc["min_boundary_distance"]) == 10
        assert doc["total_exits"] == int(log.exit_counts.sum())

    def test_kill_policy(self, big_square):
        space = big_square
        rho = fem.interpolate(space, lambda p: np.ones(len(p)))
        V = fem.interpolate(space, lambda p: 100.0 * p[:, 0])
        grad_V = fem.VectorField.from_gradient(V)
        grid = make_time_grid(1.0, 3, 1.0)
        traj = solve_fp(space, rho, fem.VectorField.zero(space), grid,
                        supg=False, store_every=1)
        traj.snapshots[:] = rho.coeffs
        pts = np.array([[-5.9, 0.0]])  # pushed through the left wall
        log = advect_euler(ParticleSet(pts), traj, grad_V, boundary="kill")
        assert log.alive[-1].sum() == 0
        assert log.exit_counts.sum() >= 1
