"""One registration from one configuration document: `setup` builds the
mesh, space, time grid, mixtures, potential and initial density, `solve`
runs the CN Fokker-Planck solve, and `transport` advects the points of
`particle_cloud` along it. The `fpreg` command and the test fixtures run
these steps.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import boundary, density, fem, fpsolve, mesh as meshmod, particles


class ConfigError(Exception):
    pass


class RunConfig:
    """Validated view of the configuration document."""

    def __init__(self, doc, base_dir="."):
        if not isinstance(doc, dict):
            raise ConfigError("configuration root must be a JSON object")
        self.doc = doc
        self.base_dir = base_dir

    @classmethod
    def load(cls, path):
        try:
            with open(path) as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
        return cls(doc, base_dir=os.path.dirname(os.path.abspath(path)))

    def path(self, rel):
        p = rel if os.path.isabs(rel) else os.path.join(self.base_dir, rel)
        if not os.path.exists(p):
            raise ConfigError(f"referenced file does not exist: {rel}")
        return p

    def section(self, name, required=True):
        sec = self.doc.get(name)
        if sec is None:
            if required:
                raise ConfigError(f"config is missing the '{name}' section")
            return {}
        return sec

    # --- builders ---------------------------------------------------------

    def build_mesh(self):
        dom = self.section("domain")
        if "mesh_file" in dom:
            return meshmod.load_mesh_json(self.path(dom["mesh_file"]))
        try:
            return meshmod.generate_rect_with_hole(
                dom["x_range"], dom["y_range"],
                dom.get("hole_center", (0.0, 0.0)),
                dom.get("hole_radius", 0.0),
                dom["target_h"],
            )
        except KeyError as exc:
            raise ConfigError(f"domain section is missing {exc}") from exc

    def build_space(self, mesh):
        degree = self.section("fe").get("degree", 2)
        return fem.build_space(mesh, degree)

    def build_grid(self):
        t = self.section("time")
        try:
            return fpsolve.make_time_grid(t["T"], t["K"], t.get("power", 1.5))
        except KeyError as exc:
            raise ConfigError(f"time section is missing {exc}") from exc

    def resolve_density(self, name):
        spec = self.section(name)
        if "gaussian" in spec:
            g = spec["gaussian"]
            cov = np.asarray(g.get("cov", 1.0), dtype=float)
            if cov.ndim == 0:
                cov = float(cov) * np.eye(2)
            return density.Gmm([1.0], [g["mean"]], [cov])
        if "gmm_file" in spec:
            return density.gmm_from_json(self.path(spec["gmm_file"]))
        if "fit_cloud" in spec:
            pts = density.load_points_csv(self.path(spec["fit_cloud"]))
        elif "arc" in spec:
            pts = arc_cloud_from_spec(spec["arc"])
        else:
            raise ConfigError(
                f"'{name}' must give gaussian, gmm_file, fit_cloud or arc"
            )
        g, _ = density.select_by_aic(
            pts, spec.get("k_range", (1, 8)),
            cov_reg=spec.get("cov_reg", 1e-2), seed=spec.get("fit_seed", 0),
        )
        return g


def arc_cloud_from_spec(spec, seed=None):
    """Point cloud on a noisy circular arc (uniform noise in [0, scale]^2)."""
    n = int(spec["n"])
    theta0 = float(spec["theta0"])
    dtheta = float(spec["dtheta"])
    noise = float(spec.get("noise", 0.1))
    s = seed if seed is not None else spec.get("seed", 0)
    i = np.arange(n)
    denom = max(n - 1, 1)
    ang = theta0 + dtheta * i / denom
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(int(s))
    return pts + noise * rng.uniform(0.0, 1.0, size=(n, 2))


def target_arc_spec(cloud):
    """The arc spec of the target cloud described by a `cloud` section.

    The target has `m` points (default `n`), starts at `theta_inf` and uses
    `target_seed` (default `seed` + 1000).
    """
    spec = dict(cloud)
    spec["n"] = spec.get("m", spec["n"])
    spec["theta0"] = spec["theta_inf"]
    spec["seed"] = spec.get("target_seed", spec.get("seed", 0) + 1000)
    return spec


# ---------------------------------------------------------------------------
# the registration


@dataclass
class Setup:
    """Everything the solve needs, built from the configuration."""

    mesh: meshmod.TriangleMesh
    space: fem.FeSpace
    grid: fpsolve.TimeGrid
    g0: density.Gmm
    g_inf: density.Gmm
    V: fem.FeField
    grad_V: fem.VectorField
    rho0: fem.FeField


def _potential_fields(cfg, space, g_inf):
    """V and its drift; only eps > 0 needs the smoothed wall distance."""
    bnd = cfg.section("boundary", required=False)
    eps = float(bnd.get("eps", 0.0))
    params = boundary.SmootherParams(
        delta=float(bnd.get("delta", 1e-2)),
        tol=float(bnd.get("tol", 1e-2)),
        sigma_beta=float(bnd.get("sigma_beta", 10.0)),
    )
    if eps > 0:
        w = boundary.raw_distance_field(space, params.tol)
        w_delta = boundary.smooth_distance(space, w, params)
    else:
        w_delta = fem.FeField(space, np.full(space.n_dofs, params.tol))
    return boundary.regularized_potential(g_inf, w_delta, eps)


def setup(cfg):
    mesh = cfg.build_mesh()
    space = cfg.build_space(mesh)
    grid = cfg.build_grid()
    g0 = cfg.resolve_density("rho0")
    g_inf = cfg.resolve_density("rho_inf")
    V, grad_V = _potential_fields(cfg, space, g_inf)
    rho0 = fem.interpolate(space, lambda p: density.gmm_pdf(g0, p))
    return Setup(mesh, space, grid, g0, g_inf, V, grad_V, rho0)


def solve(cfg, s):
    return fpsolve.solve_fp(
        s.space, s.rho0, s.grad_V, s.grid,
        supg=bool(cfg.doc.get("supg", True)),
        rho_inf=lambda p: density.gmm_pdf(s.g_inf, p),
        store_every=int(cfg.doc.get("store_every", 1)),
        snapshot_times=cfg.doc.get("snapshot_times"),
        renormalize=bool(cfg.doc.get("renormalize_rho0", False)),
    )


def particle_cloud(cfg, g0, seed=None):
    """The points of the `particles` section; `seed` overrides its seed."""
    spec = cfg.section("particles")
    if "cloud_file" in spec:
        return density.load_points_csv(cfg.path(spec["cloud_file"]))
    if "from_rho0" in spec:
        sub = spec["from_rho0"]
        return density.sample(
            g0, int(sub["n"]), seed if seed is not None else sub.get("seed", 0)
        )
    if "arc" in spec:
        return arc_cloud_from_spec(spec["arc"], seed)
    raise ConfigError("'particles' must give cloud_file, from_rho0 or arc")


def transport(cfg, traj, grad_V, cloud):
    """Advect `cloud` along `traj` by the `integrator` section (Euler and
    RK2 follow the drift `grad_V`; GF needs only the densities)."""
    integ = cfg.section("integrator", required=False)
    method = integ.get("method", "euler")
    pset = particles.ParticleSet(cloud)
    common = dict(
        boundary=integ.get("boundary_policy", "project"),
        project_tol=float(integ.get("project_tol", 1e-2)),
    )
    if method in ("euler", "rk2"):
        kw = dict(common, formula=integ.get("velocity_formula", "theorem"))
        if method == "euler":
            return particles.advect_euler(pset, traj, grad_V, **kw)
        return particles.advect_rk2(
            pset, traj, grad_V, substeps=int(integ.get("rk2_substeps", 1)), **kw,
        )
    if method == "gf":
        max_speed = integ.get("max_speed")
        return particles.advect_gf(
            pset, traj, eps_gf=float(integ.get("eps_gf", 1e-10)),
            max_speed=None if max_speed is None else float(max_speed),
            **common,
        )
    raise ConfigError(f"unknown integrator method {method!r}")
