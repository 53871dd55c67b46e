import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fpreg import analytic, boundary, density, fem
from fpreg.errors import SolveFailure
from fpreg.fpsolve import (
    DensityTrajectory, TimeGrid, diagnostics_report, make_time_grid,
    solve_fp, write_diagnostics_csv,
)
from fpreg.mesh import generate_rect_with_hole


class TestTimeGrid:
    def test_endpoint(self):
        grid = make_time_grid(5.0, 3000, 1.5)
        assert grid.times[-1] == 5.0
        assert grid.times[0] == 0.0

    def test_midpoint_value(self):
        grid = make_time_grid(5.0, 3000, 1.5)
        assert abs(grid.times[1500] - 5.0 * 0.5**1.5) < 1e-12
        assert abs(grid.times[1500] - 1.7677669529663687) < 1e-10

    def test_power_one_uniform(self):
        grid = make_time_grid(2.0, 10, 1.0)
        assert np.allclose(np.diff(grid.times), 0.2)

    def test_strictly_increasing(self):
        grid = make_time_grid(1.0, 500, 1.5)
        assert np.all(np.diff(grid.times) > 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_time_grid(0.0, 10, 1.5)
        with pytest.raises(ValueError):
            make_time_grid(1.0, 0, 1.5)


@pytest.fixture(scope="module")
def gaussian_setup():
    """Small free-space transport problem with a closed-form solution."""
    g_inf = density.Gmm([1.0], [[0.0, 0.0]], [0.2 * np.eye(2)])
    g_0 = density.Gmm([1.0], [[-2.0, 0.0]], [0.2 * np.eye(2)])
    mesh = generate_rect_with_hole((-6, 6), (-6, 6), (0, 0), 0.0, 0.3)
    space = fem.build_space(mesh, 2)
    V = fem.interpolate(space, lambda p: -density.gmm_logpdf(g_inf, p))
    grad_V = fem.VectorField.from_gradient(V)
    rho0 = fem.interpolate(space, lambda p: density.gmm_pdf(g_0, p))
    return space, rho0, grad_V, g_0, g_inf


@pytest.fixture(scope="module")
def gaussian_run(gaussian_setup):
    space, rho0, grad_V, g_0, g_inf = gaussian_setup
    grid = make_time_grid(1.0, 150, 1.5)
    traj = solve_fp(
        space, rho0, grad_V, grid, supg=True,
        rho_inf=lambda p: density.gmm_pdf(g_inf, p),
        store_every=1, snapshot_times=[0.1, 0.5, 1.0],
    )
    return traj


class TestSolve:
    def test_mass_conservation(self, gaussian_run):
        mass = gaussian_run.diagnostics["mass"]
        assert np.abs(mass - mass[0]).max() <= 1e-8

    def test_matches_closed_form(self, gaussian_run):
        px = analytic.GaussianParams1D(-2.0, 0.2, 0.2)
        py = analytic.GaussianParams1D(0.0, 0.2, 0.2)
        for t in (0.1, 0.5, 1.0):
            k, fld = gaussian_run.field_nearest_time(t)
            mean, var = analytic.fp_gaussian_product2d(
                px, py, gaussian_run.grid.times[k]
            )
            err = analytic.l2_error(
                fld, lambda p: analytic.gaussian2d_pdf(mean, var, p),
                relative=True,
            )
            assert err <= 0.02

    def test_kl_nonincreasing(self, gaussian_run):
        kl = gaussian_run.diagnostics["kl"]
        assert np.all(np.diff(kl) <= 1e-8)

    def test_snapshot_bookkeeping(self, gaussian_run):
        assert gaussian_run.has_step(0)
        assert gaussian_run.has_step(150)
        k, _ = gaussian_run.field_nearest_time(0.5)
        assert abs(gaussian_run.grid.times[k] - 0.5) <= np.diff(
            gaussian_run.grid.times
        ).max()
        with pytest.raises(KeyError):
            DensityTrajectory(
                gaussian_run.space, gaussian_run.grid, [0],
                gaussian_run.snapshots[:1], gaussian_run.diagnostics, 0.0
            ).field(3)

    def test_mass_conservation_without_supg(self, gaussian_setup):
        space, rho0, grad_V, _, _ = gaussian_setup
        grid = make_time_grid(0.5, 60, 1.5)
        traj = solve_fp(space, rho0, grad_V, grid, supg=False, store_every=0)
        mass = traj.diagnostics["mass"]
        assert np.abs(mass - mass[0]).max() <= 1e-8

    def test_renormalize_option(self, gaussian_setup):
        space, rho0, grad_V, _, _ = gaussian_setup
        grid = make_time_grid(0.1, 10, 1.5)
        traj = solve_fp(space, rho0, grad_V, grid, renormalize=True,
                        store_every=0)
        assert abs(traj.diagnostics["mass"][0] - 1.0) < 1e-12
        assert traj.mass_deficit > 0

    def test_nan_detection(self, gaussian_setup):
        space, rho0, grad_V, _, _ = gaussian_setup
        bad = fem.FeField(space, rho0.coeffs.copy())
        bad.coeffs[0] = np.nan
        grid = make_time_grid(0.1, 5, 1.0)
        with pytest.raises(SolveFailure) as err:
            solve_fp(space, bad, grad_V, grid, store_every=0)
        assert err.value.step is not None


class TestLaggedFactor:
    def test_uniform_grid_factors_once(self, gaussian_setup, count_splu):
        space, rho0, grad_V, _, _ = gaussian_setup
        solve_fp(space, rho0, grad_V, make_time_grid(1.0, 20, 1.0),
                 store_every=0)
        assert len(count_splu) == 1

    def test_power_law_grid_reuses_factor(self, gaussian_setup, count_splu):
        space, rho0, grad_V, _, _ = gaussian_setup
        grid = make_time_grid(1.0, 40, 1.5)
        tol = 1e-10
        traj = solve_fp(space, rho0, grad_V, grid, store_every=1, tol=tol)
        assert len(count_splu) < grid.K
        # every step meets its residual target on the CN step matrices
        st, ss = fem.assemble_supg(space, grad_V)
        P = fem.assemble_mass(space) + st
        Q = fem.assemble_fp_form(space, grad_V) + ss
        for k in range(grid.K):
            dt = grid.dt(k)
            rhs = (P - 0.5 * dt * Q) @ traj.snapshots[k]
            r = rhs - (P + 0.5 * dt * Q) @ traj.snapshots[k + 1]
            assert np.linalg.norm(r) <= tol * np.linalg.norm(rhs)

    def test_step_record_matches_splu_calls(self, gaussian_setup, count_splu):
        space, rho0, grad_V, _, _ = gaussian_setup
        tol = 1e-10
        traj = solve_fp(space, rho0, grad_V, make_time_grid(1.0, 40, 1.5),
                        store_every=0, tol=tol)
        d = traj.diagnostics
        assert d["refactored"].sum() == len(count_splu)
        assert d["refactored"][0] == d["lu_solves"][0] == 0
        assert np.isnan(d["residual"][0])
        assert np.all(d["lu_solves"][1:] >= 1)
        assert np.nanmax(d["residual"]) <= tol

    def test_last_sweep_is_accepted(self, gaussian_setup, count_splu):
        space, rho0, grad_V, _, _ = gaussian_setup
        grid = make_time_grid(1.0, 40, 1.5)
        d = solve_fp(space, rho0, grad_V, grid, store_every=0).diagnostics
        # one LU solve plus 5 sweeps on an earlier step's factor
        last_sweep = np.flatnonzero((d["lu_solves"] == 6)
                                    & (d["refactored"] == 0))
        assert len(last_sweep) > 0
        j = int(last_sweep[0])

        def factorizations(K):
            before = len(count_splu)
            sub = TimeGrid(T=grid.times[K], K=K, power=grid.power,
                           times=grid.times[:K + 1])
            solve_fp(space, rho0, grad_V, sub, store_every=0)
            return len(count_splu) - before

        # the step to state j adds no factorization to the steps before it
        assert factorizations(j) == factorizations(j - 1)

    def test_failed_factorization_is_a_solve_failure(self, gaussian_setup,
                                                     monkeypatch):
        space, rho0, grad_V, _, _ = gaussian_setup

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", singular)
        with pytest.raises(SolveFailure) as err:
            solve_fp(space, rho0, grad_V, make_time_grid(0.1, 5, 1.0),
                     store_every=0)
        assert err.value.step == 0


class TestOrdering:
    """LinearSolver's ordering against SuperLU's default (COLAMD)."""

    @staticmethod
    def fills(A):
        ours = fem.LinearSolver(A)._lu
        default = spla.splu(sp.csc_matrix(A))
        return ours.L.nnz + ours.U.nnz, default.L.nnz + default.U.nnz

    def test_cn_step_matrix_fill_is_lower(self, gaussian_setup):
        space, _, grad_V, _, _ = gaussian_setup
        st, ss = fem.assemble_supg(space, grad_V)
        A = (fem.assemble_mass(space) + st
             + 0.005 * (fem.assemble_fp_form(space, grad_V) + ss))
        ours, default = self.fills(A)
        assert ours < default

    def test_smoother_fill_is_not_higher(self, gaussian_setup):
        # full partial pivoting on the minimum-degree ordering more than
        # doubles this fill; the pivoting threshold keeps it below COLAMD's
        space = gaussian_setup[0]
        A = boundary.assemble_smoother(
            space, boundary.SmootherParams(delta=1e-2, tol=1e-2))
        keep = np.ones(space.n_dofs, dtype=bool)
        keep[space.boundary_dofs()] = False
        ours, default = self.fills(A[keep][:, keep])
        assert ours <= default


class TestStationary:
    @pytest.fixture(scope="class")
    def stationary_run(self):
        g = density.Gmm([1.0], [[0.5, 0.5]], [0.05 * np.eye(2)])
        mesh = generate_rect_with_hole((0, 1), (0, 1), (0, 0), 0.0, 1 / 120)
        space = fem.build_space(mesh, 2)
        V = fem.interpolate(space, lambda p: -density.gmm_logpdf(g, p))
        grad_V = fem.VectorField.from_gradient(V)
        rho0 = fem.interpolate(space, lambda p: density.gmm_pdf(g, p))
        grid = make_time_grid(1e-2, 100, 1.0)
        traj = solve_fp(space, rho0, grad_V, grid, supg=True,
                        rho_inf=lambda p: density.gmm_pdf(g, p),
                        store_every=1)
        return space, rho0, traj

    def test_near_stationarity(self, stationary_run):
        space, rho0, traj = stationary_run
        M = fem.assemble_mass(space)
        ref = np.sqrt(rho0.coeffs @ (M @ rho0.coeffs))
        worst = 0.0
        for k in traj.ks:
            d = traj.field(int(k)).coeffs - rho0.coeffs
            worst = max(worst, np.sqrt(d @ (M @ d)) / ref)
        assert worst <= 1e-6

    def test_flat_l1_column(self, stationary_run):
        _, _, traj = stationary_run
        l1 = traj.diagnostics["l1_error"]
        assert np.nanmax(l1) - np.nanmin(l1) <= 1e-6


class TestDiagnostics:
    def test_report_uses_recorded_metrics(self, gaussian_run):
        table = diagnostics_report(gaussian_run)
        assert set(table) == {"k", "t", "mass", "l1_error", "kl", "min_nodal"}
        assert len(table["t"]) == gaussian_run.grid.K + 1
        assert np.all(np.isfinite(table["l1_error"]))

    def test_report_requires_recorded_metrics(self, gaussian_setup):
        space, rho0, grad_V, _, _ = gaussian_setup
        grid = make_time_grid(0.2, 20, 1.5)
        traj = solve_fp(space, rho0, grad_V, grid, store_every=1)
        with pytest.raises(ValueError, match="rho_inf"):
            diagnostics_report(traj)  # solved without a target

    def test_csv_format(self, gaussian_run, tmp_path):
        table = diagnostics_report(gaussian_run)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(table, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,t,mass,l1_error,kl,min_nodal"
        assert len(lines) == gaussian_run.grid.K + 2
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert np.allclose(rows["mass"], table["mass"])

    def test_mass_column_constant(self, gaussian_run):
        table = diagnostics_report(gaussian_run)
        assert np.abs(table["mass"] - table["mass"][0]).max() <= 1e-8
