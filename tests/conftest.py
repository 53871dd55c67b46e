"""Session-scoped fixtures for the desk-scale scenario runs.

The two experiment scenarios (Gaussian transport across a cylinder; arc
point-set registration across a cylinder) are solved once per session and
shared between the acceptance criteria.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from fpreg import boundary, density, fem, fpsolve, particles
from fpreg.cli import arc_cloud_from_spec
from fpreg.mesh import generate_rect_with_hole

T1 = dict(T=5.0, K=400, h=0.2)
T2 = dict(T=15.0, K=1000, h=0.125)
ARC = dict(n=141, theta0=np.pi / 2, theta_inf=3 * np.pi / 2, dtheta=np.pi,
           noise=0.1, seed=7, target_seed=1007, fit_seed=3)


@pytest.fixture
def count_splu(monkeypatch):
    """Counts the LU factorizations made through scipy's splu."""
    calls = []
    splu = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


@pytest.fixture(scope="session")
def test1_setup():
    mesh = generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, T1["h"])
    space = fem.build_space(mesh, 2)
    params = boundary.SmootherParams(delta=1e-2, tol=1e-2)
    w = boundary.raw_distance_field(space, params.tol)
    w_delta = boundary.smooth_distance(space, w, params)
    g0 = density.Gmm([1.0], [[-2.0, 0.0]], [0.2 * np.eye(2)])
    g_inf = density.Gmm([1.0], [[2.0, 0.0]], [0.2 * np.eye(2)])
    rho0 = fem.interpolate(space, lambda p: density.gmm_pdf(g0, p))
    return dict(space=space, w_delta=w_delta, g0=g0, g_inf=g_inf, rho0=rho0,
                raw_w=w, params=params)


def _solve_test1(setup, eps, supg):
    space = setup["space"]
    _, grad_V = boundary.regularized_potential(setup["g_inf"],
                                               setup["w_delta"], eps)
    grid = fpsolve.make_time_grid(T1["T"], T1["K"], 1.5)
    traj = fpsolve.solve_fp(
        space, setup["rho0"], grad_V, grid, supg=supg,
        rho_inf=lambda p: density.gmm_pdf(setup["g_inf"], p),
        store_every=1,
    )
    return traj, grad_V


@pytest.fixture(scope="session")
def test1_eps_runs(test1_setup):
    """Galerkin desk runs of scenario 1 for eps in {0, 1e-3, 1e-2},
    each with the same 100-particle cloud advected by explicit Euler."""
    cloud = density.sample(test1_setup["g0"], 100, seed=7)
    out = {}
    for eps in (0.0, 1e-3, 1e-2):
        traj, grad_V = _solve_test1(test1_setup, eps, supg=False)
        log = particles.advect_euler(
            particles.ParticleSet(cloud.copy()), traj, grad_V
        )
        out[eps] = dict(traj=traj, grad_V=grad_V, log=log)
    return out


@pytest.fixture(scope="session")
def test1_supg_run(test1_setup):
    traj, _ = _solve_test1(test1_setup, 0.0, supg=True)
    return traj


@pytest.fixture(scope="session")
def test2_setup():
    ref = arc_cloud_from_spec(
        dict(n=ARC["n"], theta0=ARC["theta0"], dtheta=ARC["dtheta"],
             noise=ARC["noise"], seed=ARC["seed"])
    )
    tgt = arc_cloud_from_spec(
        dict(n=ARC["n"], theta0=ARC["theta_inf"], dtheta=ARC["dtheta"],
             noise=ARC["noise"], seed=ARC["target_seed"])
    )
    g0, rep0 = density.select_by_aic(ref, (1, 8), cov_reg=1e-2,
                                     seed=ARC["fit_seed"])
    g_inf, rep_inf = density.select_by_aic(tgt, (1, 8), cov_reg=1e-2,
                                           seed=ARC["fit_seed"])
    mesh = generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, T2["h"])
    space = fem.build_space(mesh, 2)
    rho0 = fem.interpolate(space, lambda p: density.gmm_pdf(g0, p))
    return dict(ref=ref, tgt=tgt, g0=g0, g_inf=g_inf, rep0=rep0,
                rep_inf=rep_inf, space=space, rho0=rho0)


def _solve_test2(setup, supg, store_every):
    space = setup["space"]
    w_tol = fem.FeField(space, np.full(space.n_dofs, 1e-2))
    _, grad_V = boundary.regularized_potential(setup["g_inf"], w_tol, 0.0)
    grid = fpsolve.make_time_grid(T2["T"], T2["K"], 1.5)
    traj = fpsolve.solve_fp(
        space, setup["rho0"], grad_V, grid, supg=supg,
        rho_inf=lambda p: density.gmm_pdf(setup["g_inf"], p),
        store_every=store_every, renormalize=True,
    )
    return traj, grad_V


@pytest.fixture(scope="session")
def test2_run(test2_setup):
    """Galerkin desk run of scenario 2 with every step stored."""
    traj, grad_V = _solve_test2(test2_setup, supg=False, store_every=1)
    return dict(traj=traj, grad_V=grad_V, **test2_setup)


@pytest.fixture(scope="session")
def test2_supg_run(test2_setup):
    traj, _ = _solve_test2(test2_setup, supg=True, store_every=0)
    return traj


BENCH = dict(h=0.1, K=500, T=1.0)


@pytest.fixture(scope="session")
def bench_setup():
    """Free-space Gaussian benchmark domain (-8, 8)^2 at h = 0.1, P1."""
    g_inf = density.Gmm([1.0], [[0.0, 0.0]], [0.2 * np.eye(2)])
    g0 = density.Gmm([1.0], [[-2.0, 0.0]], [0.2 * np.eye(2)])
    mesh = generate_rect_with_hole((-8, 8), (-8, 8), (0, 0), 0.0, BENCH["h"])
    space = fem.build_space(mesh, 1)
    V = fem.interpolate(space, lambda p: -density.gmm_logpdf(g_inf, p))
    grad_V = fem.VectorField.from_gradient(V)
    rho0 = fem.interpolate(space, lambda p: density.gmm_pdf(g0, p))
    return dict(space=space, grad_V=grad_V, rho0=rho0, g0=g0, g_inf=g_inf)


@pytest.fixture(scope="session")
def bench_run(bench_setup):
    grid = fpsolve.make_time_grid(BENCH["T"], BENCH["K"], 1.5)
    traj = fpsolve.solve_fp(
        bench_setup["space"], bench_setup["rho0"], bench_setup["grad_V"],
        grid, supg=False, store_every=1, snapshot_times=[0.1, 0.5, 1.0],
    )
    return dict(traj=traj, **bench_setup)
