"""Configuration-driven pipeline runner.

    fpreg <meshgen|fitgmm|gencloud|solve|trace|report> --config <path>
          [--out <dir>] [--seed <u64>]

All commands read one JSON configuration document. Exit codes: 0 on
success, 2 on usage/configuration errors, 3 on numerical failures; errors
are reported as a single JSON line on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import _svg, boundary, density, fem, fpsolve, mesh as meshmod
from . import particles as particlesmod
from .errors import CollapseFailure, FpregError, SolveFailure


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration


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

    def resolve_density(self, name, seed=None):
        spec = self.section(name)
        if "gaussian" in spec:
            g = spec["gaussian"]
            cov = g.get("cov", 1.0)
            cov = np.asarray(cov, dtype=float)
            if cov.ndim == 0:
                cov = float(cov) * np.eye(2)
            return density.Gmm([1.0], [g["mean"]], [cov])
        if "gmm_file" in spec:
            return density.gmm_from_json(self.path(spec["gmm_file"]))
        if "fit_cloud" in spec:
            pts = density.load_points_csv(self.path(spec["fit_cloud"]))
            kr = spec.get("k_range", (1, 8))
            g, _ = density.select_by_aic(
                pts, kr, cov_reg=spec.get("cov_reg", 1e-2),
                seed=seed if seed is not None else spec.get("seed", 0),
            )
            return g
        if "arc" in spec:
            pts = arc_cloud_from_spec(spec["arc"], seed)
            kr = spec.get("k_range", (1, 8))
            g, _ = density.select_by_aic(
                pts, kr, cov_reg=spec.get("cov_reg", 1e-2),
                seed=spec.get("fit_seed", 0),
            )
            return g
        raise ConfigError(
            f"'{name}' must give gaussian, gmm_file, fit_cloud or arc"
        )


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


# ---------------------------------------------------------------------------
# commands


def _outdir(cfg, args):
    out = args.out or cfg.doc.get("out_dir") or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_meshgen(cfg, args):
    mesh = cfg.build_mesh()
    out = _outdir(cfg, args)
    path = os.path.join(out, "mesh.json")
    meshmod.save_mesh_json(mesh, path)
    print(json.dumps({
        "mesh": path,
        "vertices": mesh.num_vertices,
        "triangles": mesh.num_triangles,
        "tags": sorted(set(mesh.boundary_tags.tolist())),
    }, sort_keys=True))
    return 0


def cmd_fitgmm(cfg, args):
    sec = cfg.section("fitgmm")
    pts = density.load_points_csv(cfg.path(sec["points"]))
    if len(pts) == 0:
        raise ConfigError("point cloud is empty")
    seed = args.seed if args.seed is not None else sec.get("seed", 0)
    g, report = density.select_by_aic(
        pts, sec.get("k_range", (1, 8)),
        cov_reg=sec.get("cov_reg", 1e-2), seed=seed,
    )
    out = _outdir(cfg, args)
    density.gmm_to_json(g, os.path.join(out, "gmm.json"))
    with open(os.path.join(out, "fit_report.json"), "w") as f:
        json.dump({
            "k": g.k,
            "aic": report.aic,
            "iterations": report.iterations,
            "converged": report.converged,
            "seed": report.seed,
            "loglik_final": report.loglik_trace[-1],
        }, f, sort_keys=True, indent=2)
    print(json.dumps({"k": g.k, "aic": report.aic}, sort_keys=True))
    return 0


def _target_arc_spec(cloud):
    """The arc spec of the target cloud described by a `cloud` section.

    The target has `m` points (default `n`), starts at `theta_inf` and uses
    `target_seed` (default `seed` + 1000).
    """
    spec = dict(cloud)
    spec["n"] = spec.get("m", spec["n"])
    spec["theta0"] = spec["theta_inf"]
    spec["seed"] = spec.get("target_seed", spec.get("seed", 0) + 1000)
    return spec


def cmd_gencloud(cfg, args):
    spec = cfg.section("cloud")
    if spec.get("which", "reference") == "target":
        spec = _target_arc_spec(spec)
    pts = arc_cloud_from_spec(spec, args.seed)
    out = _outdir(cfg, args)
    path = os.path.join(out, "points.csv")
    density.save_points_csv(pts, path)
    print(json.dumps({"points": path, "n": len(pts)}, sort_keys=True))
    return 0


def _potential_fields(cfg, space, g_inf):
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


def cmd_solve(cfg, args):
    out = _outdir(cfg, args)
    mesh = cfg.build_mesh()
    space = cfg.build_space(mesh)
    grid = cfg.build_grid()
    g0 = cfg.resolve_density("rho0")
    g_inf = cfg.resolve_density("rho_inf")
    V, grad_V = _potential_fields(cfg, space, g_inf)
    rho0 = fem.interpolate(space, lambda p: density.gmm_pdf(g0, p))

    traj = fpsolve.solve_fp(
        space, rho0, grad_V, grid,
        supg=bool(cfg.doc.get("supg", True)),
        rho_inf=lambda p: density.gmm_pdf(g_inf, p),
        store_every=int(cfg.doc.get("store_every", 1)),
        snapshot_times=cfg.doc.get("snapshot_times"),
        renormalize=bool(cfg.doc.get("renormalize_rho0", False)),
    )

    meshmod.save_mesh_json(mesh, os.path.join(out, "mesh.json"))
    density.gmm_to_json(g0, os.path.join(out, "gmm_rho0.json"))
    density.gmm_to_json(g_inf, os.path.join(out, "gmm_rhoinf.json"))
    fem.save_field_binary(V, os.path.join(out, "V.fpfld"))
    table = fpsolve.diagnostics_report(traj)
    fpsolve.write_diagnostics_csv(table, os.path.join(out, "diagnostics.csv"))
    for k in traj.ks:
        fem.save_field_binary(
            traj.field(int(k)), os.path.join(out, f"rho_{int(k):06d}.fpfld")
        )
    with open(os.path.join(out, "run.json"), "w") as f:
        json.dump({
            "n_hf": space.n_dofs,
            "degree": space.degree,
            "grid": {"T": grid.T, "K": grid.K, "power": grid.power},
            "supg": bool(cfg.doc.get("supg", True)),
            "mass_deficit": traj.mass_deficit,
            "stored_steps": [int(k) for k in traj.ks],
            "solver": {
                "factorizations": int(traj.diagnostics["refactored"].sum()),
                "lu_solves": int(traj.diagnostics["lu_solves"].sum()),
                "max_residual": float(np.nanmax(traj.diagnostics["residual"])),
            },
        }, f, sort_keys=True, indent=2)
    print(json.dumps({
        "out": out,
        "n_hf": space.n_dofs,
        "final_l1": table["l1_error"][-1],
        "final_kl": table["kl"][-1],
    }, sort_keys=True))
    return 0


def _load_run(cfg, run_dir):
    mesh = meshmod.load_mesh_json(os.path.join(run_dir, "mesh.json"))
    space = cfg.build_space(mesh)
    with open(os.path.join(run_dir, "run.json")) as f:
        meta = json.load(f)
    grid = fpsolve.make_time_grid(**meta["grid"])
    ks = meta["stored_steps"]
    snaps = np.empty((len(ks), space.n_dofs))
    for i, k in enumerate(ks):
        snaps[i] = fem.load_field_binary(
            os.path.join(run_dir, f"rho_{int(k):06d}.fpfld"), space
        ).coeffs
    diag = {"k": np.arange(grid.K + 1), "t": grid.times.copy()}
    traj = fpsolve.DensityTrajectory(space, grid, ks, snaps, diag,
                                     meta.get("mass_deficit", 0.0))
    return mesh, space, grid, traj


def _particle_cloud(cfg, run_dir, args):
    spec = cfg.section("particles")
    if "cloud_file" in spec:
        return density.load_points_csv(cfg.path(spec["cloud_file"]))
    if "from_rho0" in spec:
        sub = spec["from_rho0"]
        g0 = density.gmm_from_json(os.path.join(run_dir, "gmm_rho0.json"))
        seed = args.seed if args.seed is not None else sub.get("seed", 0)
        return density.sample(g0, int(sub["n"]), seed)
    if "arc" in spec:
        return arc_cloud_from_spec(spec["arc"], args.seed)
    raise ConfigError("'particles' must give cloud_file, from_rho0 or arc")


def cmd_trace(cfg, args):
    run_dir = args.run or cfg.doc.get("out_dir") or "."
    if not os.path.exists(os.path.join(run_dir, "run.json")):
        raise ConfigError(f"{run_dir} does not contain a solve run")
    out = args.out or run_dir
    os.makedirs(out, exist_ok=True)
    _, space, grid, traj = _load_run(cfg, run_dir)

    integ = cfg.section("integrator", required=False)
    method = integ.get("method", "euler")
    pts = _particle_cloud(cfg, run_dir, args)
    pset = particlesmod.ParticleSet(pts)
    common = dict(
        boundary=integ.get("boundary_policy", "project"),
        project_tol=float(integ.get("project_tol", 1e-2)),
    )
    if method in ("euler", "rk2"):
        # the drift of the solve, whatever the config says now
        V = fem.load_field_binary(os.path.join(run_dir, "V.fpfld"), space)
        grad_V = fem.VectorField.from_gradient(V)
        kw = dict(common, formula=integ.get("velocity_formula", "theorem"))
        if method == "euler":
            log = particlesmod.advect_euler(pset, traj, grad_V, grid, **kw)
        else:
            log = particlesmod.advect_rk2(
                pset, traj, grad_V, grid,
                substeps=int(integ.get("rk2_substeps", 1)), **kw,
            )
    elif method == "gf":
        max_speed = integ.get("max_speed")
        log = particlesmod.advect_gf(
            pset, traj, eps_gf=float(integ.get("eps_gf", 1e-10)),
            max_speed=None if max_speed is None else float(max_speed),
            **common,
        )
    else:
        raise ConfigError(f"unknown integrator method {method!r}")

    particlesmod.write_trajectory_csv(log, os.path.join(out, "trajectories.csv"))
    particlesmod.write_summary_json(
        log, os.path.join(out, "summary.json"), extra={"integrator": method}
    )
    print(json.dumps({
        "out": out,
        "integrator": method,
        "exits": int(log.exit_counts.sum()),
        "alive": int(log.alive[-1].sum()),
    }, sort_keys=True))
    return 0


def _read_diagnostics(path):
    rows = np.genfromtxt(path, delimiter=",", names=True)
    return rows


def cmd_report(cfg, args):
    run_dir = args.run or cfg.doc.get("out_dir") or "."
    diag_path = os.path.join(run_dir, "diagnostics.csv")
    if not os.path.exists(diag_path):
        raise ConfigError(f"{run_dir} has no diagnostics.csv")
    out = args.out or run_dir
    os.makedirs(out, exist_ok=True)
    d = _read_diagnostics(diag_path)
    t = np.atleast_1d(d["t"])
    l1 = np.atleast_1d(d["l1_error"])
    kl = np.atleast_1d(d["kl"])
    mass = np.atleast_1d(d["mass"])

    report = {
        "final_l1": float(l1[-1]),
        "final_kl": float(kl[-1]),
        "initial_l1": float(l1[0]),
        "mass_drift": float(np.nanmax(np.abs(mass - mass[0]))),
        "steps": int(len(t) - 1),
    }

    # error curves
    pos = l1 > 0
    fig = _svg.Figure(
        (float(t[0]), float(t[-1])),
        (float(np.log10(l1[pos].min())) - 0.2, float(np.log10(l1[pos].max())) + 0.2),
        title="distance to target over time",
        xlabel="t", ylabel="log10 error",
    )
    fig.polyline(t[pos], np.log10(l1[pos]), color="#1f77b4")
    klpos = kl > 0
    if klpos.any():
        fig.polyline(t[klpos], np.log10(kl[klpos]), color="#d62728")
    fig.legend([("L1 to target", "#1f77b4"), ("KL to target", "#d62728")])
    fig.save(os.path.join(out, "error_curves.svg"))

    # final density contours
    run_meta_path = os.path.join(run_dir, "run.json")
    if os.path.exists(run_meta_path):
        mesh_, space, grid, traj = _load_run(cfg, run_dir)
        kfin = int(traj.ks[-1])
        fig = _svg.field_contour_figure(
            space, traj.field(kfin).coeffs, title=f"density at step {kfin}"
        )
        fig.save(os.path.join(out, "density_final.svg"))

    # particle figures
    traj_path = os.path.join(run_dir, "trajectories.csv")
    if os.path.exists(traj_path):
        rows = np.genfromtxt(traj_path, delimiter=",", names=True)
        ks = np.atleast_1d(rows["k"])
        xs = np.atleast_1d(rows["x"])
        ys = np.atleast_1d(rows["y"])
        pid = np.atleast_1d(rows["particle_id"]).astype(int)
        kfin = ks.max()
        final = np.column_stack([xs[ks == kfin], ys[ks == kfin]])
        first = np.column_stack([xs[ks == ks.min()], ys[ks == ks.min()]])
        xlim = (min(xs.min(), -1.0), max(xs.max(), 1.0))
        ylim = (min(ys.min(), -1.0), max(ys.max(), 1.0))
        fig = _svg.Figure(xlim, ylim, title="point clouds", xlabel="x", ylabel="y")
        fig.scatter(first, color="#d62728", r=2.0)
        fig.scatter(final, color="#1f77b4", r=2.0)
        target = None
        cloud = cfg.doc.get("cloud")
        if cloud and "theta_inf" in cloud:
            target = arc_cloud_from_spec(_target_arc_spec(cloud))
        rep = cfg.section("report", required=False)
        if target is None and "target_cloud" in rep:
            target = density.load_points_csv(cfg.path(rep["target_cloud"]))
        legend = [("initial", "#d62728"), ("final", "#1f77b4")]
        if target is not None:
            fig.scatter(target, color="#2ca02c", r=2.0)
            legend.append(("target", "#2ca02c"))
            report["hausdorff_final_to_target"] = particlesmod.hausdorff(
                final, target
            )
        fig.legend(legend)
        fig.save(os.path.join(out, "clouds.svg"))

        fig = _svg.Figure(xlim, ylim, title="trajectories", xlabel="x", ylabel="y")
        n_show = min(40, pid.max() + 1)
        for i in range(n_show):
            sel = pid == i
            fig.polyline(xs[sel], ys[sel],
                         color=_svg.ramp_color(i / max(n_show - 1, 1)), width=0.8)
        fig.save(os.path.join(out, "trajectories.svg"))

        summary_path = os.path.join(run_dir, "summary.json")
        if os.path.exists(summary_path):
            with open(summary_path) as f:
                summary = json.load(f)
            report["total_exits"] = summary.get("total_exits")
            report["integrator"] = summary.get("integrator")

    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
    print(json.dumps({"out": out, "report": report}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "meshgen": cmd_meshgen,
    "fitgmm": cmd_fitgmm,
    "gencloud": cmd_gencloud,
    "solve": cmd_solve,
    "trace": cmd_trace,
    "report": cmd_report,
}


def _fail(kind, message, code):
    sys.stderr.write(json.dumps(
        {"error": kind, "message": str(message)}, sort_keys=True
    ) + "\n")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fpreg",
        description="Fokker-Planck point-set registration pipeline",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--run", default=None,
                        help="existing run directory (trace/report)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = RunConfig.load(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        return _fail("config", exc, 2)
    except (SolveFailure, CollapseFailure) as exc:
        return _fail("numerical", exc, 3)
    except FpregError as exc:
        # invalid geometry, invalid fits and the like are input problems
        return _fail("config", f"{type(exc).__name__}: {exc}", 2)
    except (KeyError, ValueError, OSError) as exc:
        return _fail("config", f"{type(exc).__name__}: {exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
