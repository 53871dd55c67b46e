"""The `fpreg` command: runs the steps of `fpreg.pipeline` and keeps their
results in a run directory.

    fpreg <meshgen|fitgmm|gencloud|solve|trace|report> --config <path>
          [--out <dir>] [--run <dir>] [--seed <u64>]

All commands read one JSON configuration document. `--seed` overrides the
configured seed of `gencloud`, `fitgmm` and `trace`, the commands that draw
or fit points; the others reject it. Exit codes: 0 on success, 2 on
usage/configuration errors, 3 on numerical failures; errors are reported as
a single JSON line on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import _svg, density, fem, fpsolve, mesh as meshmod, pipeline
from . import particles as particlesmod
from .errors import CollapseFailure, FpregError, SolveFailure
from .pipeline import (
    ConfigError, RunConfig, arc_cloud_from_spec, target_arc_spec,
)


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


def cmd_gencloud(cfg, args):
    spec = cfg.section("cloud")
    if spec.get("which", "reference") == "target":
        spec = target_arc_spec(spec)
    pts = arc_cloud_from_spec(spec, args.seed)
    out = _outdir(cfg, args)
    path = os.path.join(out, "points.csv")
    density.save_points_csv(pts, path)
    print(json.dumps({"points": path, "n": len(pts)}, sort_keys=True))
    return 0


def cmd_solve(cfg, args):
    out = _outdir(cfg, args)
    s = pipeline.setup(cfg)
    traj = pipeline.solve(cfg, s)

    meshmod.save_mesh_json(s.mesh, os.path.join(out, "mesh.json"))
    density.gmm_to_json(s.g0, os.path.join(out, "gmm_rho0.json"))
    density.gmm_to_json(s.g_inf, os.path.join(out, "gmm_rhoinf.json"))
    fem.save_field_binary(s.V, os.path.join(out, "V.fpfld"))
    table = fpsolve.diagnostics_report(traj)
    fpsolve.write_diagnostics_csv(table, os.path.join(out, "diagnostics.csv"))
    for k in traj.ks:
        fem.save_field_binary(
            traj.field(int(k)), os.path.join(out, f"rho_{int(k):06d}.fpfld")
        )
    with open(os.path.join(out, "run.json"), "w") as f:
        json.dump({
            "n_hf": s.space.n_dofs,
            "degree": s.space.degree,
            "grid": {"T": s.grid.T, "K": s.grid.K, "power": s.grid.power},
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
        "n_hf": s.space.n_dofs,
        "final_l1": table["l1_error"][-1],
        "final_kl": table["kl"][-1],
    }, sort_keys=True))
    return 0


def _load_run(cfg, run_dir):
    """The density trajectory stored by `solve` in run_dir."""
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
    return fpsolve.DensityTrajectory(space, grid, ks, snaps, diag,
                                     meta.get("mass_deficit", 0.0))


def cmd_trace(cfg, args):
    run_dir = args.run or cfg.doc.get("out_dir") or "."
    if not os.path.exists(os.path.join(run_dir, "run.json")):
        raise ConfigError(f"{run_dir} does not contain a solve run")
    out = args.out or run_dir
    os.makedirs(out, exist_ok=True)
    traj = _load_run(cfg, run_dir)
    # the drift of the solve, whatever the config says now
    V = fem.load_field_binary(os.path.join(run_dir, "V.fpfld"), traj.space)
    g0 = density.gmm_from_json(os.path.join(run_dir, "gmm_rho0.json"))
    cloud = pipeline.particle_cloud(cfg, g0, args.seed)
    log = pipeline.transport(cfg, traj, fem.VectorField.from_gradient(V), cloud)

    method = cfg.section("integrator", required=False).get("method", "euler")
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


def cmd_report(cfg, args):
    run_dir = args.run or cfg.doc.get("out_dir") or "."
    diag_path = os.path.join(run_dir, "diagnostics.csv")
    if not os.path.exists(diag_path):
        raise ConfigError(f"{run_dir} has no diagnostics.csv")
    out = args.out or run_dir
    os.makedirs(out, exist_ok=True)
    d = np.genfromtxt(diag_path, delimiter=",", names=True)
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
        traj = _load_run(cfg, run_dir)
        kfin = int(traj.ks[-1])
        fig = _svg.field_contour_figure(
            traj.space, traj.field(kfin).coeffs, title=f"density at step {kfin}"
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
            target = arc_cloud_from_spec(target_arc_spec(cloud))
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


_SEEDED = ("gencloud", "fitgmm", "trace")


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
                        help="override the configured seed "
                             "(gencloud, fitgmm and trace only)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.seed is not None and args.command not in _SEEDED:
        return _fail("config", f"{args.command} takes no --seed; only "
                               f"{', '.join(_SEEDED)} do", 2)
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
