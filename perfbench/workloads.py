"""Workload definitions and the registration pipeline the benchmark times.

A registration drives the public library API in the order of
`fpreg solve` followed by `fpreg trace`: set-up (mesh, space, mixtures,
boundary potential, rho0 interpolation), `fpsolve.solve_fp`, one
`particles.advect_*` call, then the output checks. Config parsing and
snapshot files, the only extra work of the CLI, are left out.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from fpreg import boundary, density, fem, fpsolve, particles
from fpreg import mesh as meshmod
from fpreg.cli import arc_cloud_from_spec
from fpreg.errors import CollapseFailure, SolveFailure

DOMAIN = dict(x_range=(-4.0, 4.0), y_range=(-4.0, 4.0), hole_center=(0.0, 0.0),
              hole_radius=0.5)
SMOOTHER = boundary.SmootherParams(delta=1e-2, tol=1e-2, sigma_beta=10.0)
PROJECT_TOL = 1e-2
EPS_GF = 1e-10
FIT_SEED = 3  # EM seed of configs/test2_psr_cylinder.json
MASS_DRIFT_MAX = 1e-8

# scenario 1 densities (configs/test1_gaussian_cylinder.json)
GAUSS_RHO0 = density.Gmm([1.0], [[-2.0, 0.0]], [0.2 * np.eye(2)])
GAUSS_RHO_INF = density.Gmm([1.0], [[2.0, 0.0]], [0.2 * np.eye(2)])
# scenario 2 arcs (configs/test2_psr_cylinder.json); only the noise seeds vary
ARC = dict(n=141, dtheta=np.pi, noise=0.1)
ARC_THETA0 = np.pi / 2
ARC_THETA_INF = 3 * np.pi / 2


@dataclass(frozen=True)
class Workload:
    """One registration scenario; `steps` runs a prefix of the K-step grid."""

    name: str
    scenario: str  # "gauss" or "arc"
    h: float
    T: float
    K: int
    steps: int
    eps: float  # wall repulsion strength
    n_particles: int
    integrator: str  # "euler", "rk2" or "gf"
    substeps: int = 1
    renormalize: bool = False


# BENCHMARK.json says why each workload is there. The step prefixes keep a
# registration near 10 s, so that a run times at least two: arc-gf keeps the
# desk mesh and step sizes (coarser ones diverge or fail the GF solve) for
# its first 20 steps; cloud-rk2 stops at step 200 of 400 (t = 1.77 of 5),
# where L1 to the target is 0.0033 against 0.0030 at t = 5.
WORKLOADS = {
    w.name: w for w in (
        Workload("gauss-repulse", "gauss", h=0.2, T=5.0, K=400, steps=400,
                 eps=1e-3, n_particles=100, integrator="euler"),
        Workload("arc-gf", "arc", h=0.125, T=15.0, K=1000, steps=20,
                 eps=0.0, n_particles=ARC["n"], integrator="gf",
                 renormalize=True),
        Workload("cloud-rk2", "gauss", h=0.2, T=5.0, K=400, steps=200,
                 eps=0.0, n_particles=500, integrator="rk2", substeps=2),
    )
}


def warmup_copy(w):
    """The same code paths on a coarse mesh and a few steps."""
    return dataclasses.replace(w, h=0.25, steps=4)


@dataclass
class Inputs:
    """Everything the seed decides: the point clouds handed to the library."""

    particles: np.ndarray  # transported cloud
    target: np.ndarray  # cloud the transported one is compared with
    reference: np.ndarray | None = None  # arc cloud rho0 is fitted to


def make_inputs(w, seed):
    s_source, s_target = np.random.SeedSequence(seed).generate_state(2)
    if w.scenario == "gauss":
        return Inputs(
            particles=density.sample(GAUSS_RHO0, w.n_particles, int(s_source)),
            target=density.sample(GAUSS_RHO_INF, w.n_particles, int(s_target)),
        )
    ref = arc_cloud_from_spec(dict(ARC, theta0=ARC_THETA0), int(s_source))
    tgt = arc_cloud_from_spec(dict(ARC, theta0=ARC_THETA_INF), int(s_target))
    return Inputs(particles=ref.copy(), target=tgt, reference=ref)


@dataclass
class Setup:
    space: fem.FeSpace
    grid: fpsolve.TimeGrid
    g_inf: density.Gmm
    grad_V: fem.VectorField
    rho0: fem.FeField


def setup(w, inputs):
    """Mesh, space, mixtures, boundary potential and rho0 interpolation."""
    mesh = meshmod.generate_rect_with_hole(
        DOMAIN["x_range"], DOMAIN["y_range"], DOMAIN["hole_center"],
        DOMAIN["hole_radius"], w.h,
    )
    space = fem.build_space(mesh, 2)
    full = fpsolve.make_time_grid(w.T, w.K, 1.5)
    grid = fpsolve.TimeGrid(T=float(full.times[w.steps]), K=w.steps,
                            power=full.power,
                            times=full.times[:w.steps + 1].copy())
    if w.scenario == "arc":
        g0, _ = density.select_by_aic(inputs.reference, (1, 8), cov_reg=1e-2,
                                      seed=FIT_SEED)
        g_inf, _ = density.select_by_aic(inputs.target, (1, 8), cov_reg=1e-2,
                                         seed=FIT_SEED)
    else:
        g0, g_inf = GAUSS_RHO0, GAUSS_RHO_INF
    if w.eps > 0:
        raw = boundary.raw_distance_field(space, SMOOTHER.tol)
        w_delta = boundary.smooth_distance(space, raw, SMOOTHER)
    else:
        w_delta = fem.FeField(space, np.full(space.n_dofs, SMOOTHER.tol))
    _, grad_V = boundary.regularized_potential(g_inf, w_delta, w.eps)
    rho0 = fem.interpolate(space, lambda p: density.gmm_pdf(g0, p))
    return Setup(space, grid, g_inf, grad_V, rho0)


def solve(w, s):
    return fpsolve.solve_fp(
        s.space, s.rho0, s.grad_V, s.grid, supg=True,
        rho_inf=lambda p: density.gmm_pdf(s.g_inf, p),
        store_every=1, renormalize=w.renormalize,
    )


def transport(w, s, traj, cloud):
    pset = particles.ParticleSet(cloud.copy())
    common = dict(boundary="project", project_tol=PROJECT_TOL)
    if w.integrator == "euler":
        return particles.advect_euler(pset, traj, s.grad_V, s.grid, **common)
    if w.integrator == "rk2":
        return particles.advect_rk2(pset, traj, s.grad_V, s.grid,
                                    substeps=w.substeps, **common)
    return particles.advect_gf(pset, traj, eps_gf=EPS_GF, grid=s.grid,
                               **common)


def check_outputs(traj, log, target):
    """Output checks; returns (list of failed checks, quality figures)."""
    diag = traj.diagnostics
    failures = []
    drift = float(np.max(np.abs(diag["mass"] - diag["mass"][0])))
    if not drift <= MASS_DRIFT_MAX:
        failures.append(f"mass drift {drift:.3e} > {MASS_DRIFT_MAX:.0e}")
    if not np.all(np.isfinite(traj.snapshots)):
        failures.append("non-finite density")
    if not np.all(np.isfinite(log.positions)):
        failures.append("non-finite positions")
    l1 = diag["l1_error"]
    if not l1[-1] < l1[0]:
        failures.append(f"final L1 {l1[-1]:.4g} not below initial {l1[0]:.4g}")
    alive = log.alive[-1]
    quality = dict(final_l1=float(l1[-1]), mass_drift=drift,
                   lost_frac=1.0 - float(alive.mean()))
    if not alive.any():
        failures.append("no particle alive at the end")
    elif np.all(np.isfinite(log.positions)):
        quality["hausdorff"] = particles.hausdorff(log.final_positions(), target)
    return failures, quality


def failure(exc):
    return f"{type(exc).__name__}: {exc}"


def register(w, inputs, span=None):
    """One timed registration. `span(name)` opens a trace span, if given.

    Returns the phase times, the quality figures, the exact transport
    counts, `error` (the solver's or fitter's failure, if one was raised)
    and `failed_checks`.
    """
    span = span or (lambda name: nullcontext())
    out = dict(error=None, failed_checks=[])
    clock = time.perf_counter
    t0 = clock()
    try:
        with span("bench.registration"):
            with span("bench.setup"):
                s = setup(w, inputs)
            t1 = clock()
            with span("bench.solve"):
                traj = solve(w, s)
            t2 = clock()
            with span("bench.transport"):
                log = transport(w, s, traj, inputs.particles)
            t3 = clock()
            with span("bench.checks"):
                failures, quality = check_outputs(traj, log, inputs.target)
    except (SolveFailure, CollapseFailure) as exc:
        out["error"] = failure(exc)
        return out
    t4 = clock()
    out.update(
        registration_s=t4 - t0, setup_s=t1 - t0, solve_s=t2 - t1,
        transport_s=t3 - t2, checks_s=t4 - t3, **quality,
        steps=int(s.grid.K),
        particle_steps=int(log.alive[:-1].sum()),
        exits=int(log.exit_counts.sum()),
        capped_steps=int(log.capped_steps), failed_checks=failures,
    )
    return out


def time_setup(w, inputs):
    """The set-up of a registration on its own, with the same failures."""
    t0 = time.perf_counter()
    try:
        setup(w, inputs)
    except (SolveFailure, CollapseFailure) as exc:
        return dict(error=failure(exc), failed_checks=[])
    return dict(error=None, failed_checks=[],
                setup_s=time.perf_counter() - t0)
