import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fpreg import boundary, cli, density, fem, fpsolve, particles, pipeline
from fpreg.density import load_points_csv, save_points_csv
from fpreg.errors import SolveFailure
from fpreg.mesh import load_mesh_json


def run_cli(argv):
    return cli.main(argv)


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


@pytest.fixture()
def tiny_config(tmp_path):
    doc = {
        "domain": {"x_range": [-2, 2], "y_range": [-2, 2],
                   "hole_center": [0, 0], "hole_radius": 0.4,
                   "target_h": 0.2},
        "fe": {"degree": 2},
        "time": {"T": 0.5, "K": 30, "power": 1.5},
        "rho0": {"gaussian": {"mean": [-1.0, 0.0], "cov": 0.1}},
        "rho_inf": {"gaussian": {"mean": [1.0, 0.0], "cov": 0.1}},
        "boundary": {"eps": 0.01, "delta": 0.01, "tol": 0.01},
        "particles": {"from_rho0": {"n": 8, "seed": 3}},
        "integrator": {"method": "euler"},
        "supg": True,
        "store_every": 1,
        "snapshot_times": [0.25, 0.5],
        "out_dir": str(tmp_path / "run"),
    }
    return write_config(tmp_path / "config.json", doc)


class TestMeshgen:
    def test_writes_valid_mesh(self, tmp_path, tiny_config, capsys):
        assert run_cli(["meshgen", "--config", tiny_config]) == 0
        out = json.loads(capsys.readouterr().out)
        mesh = load_mesh_json(out["mesh"])
        mesh.validate()
        assert "hole" in out["tags"]

    def test_square_only_has_outer_tags(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sq.json", {
            "domain": {"x_range": [0, 1], "y_range": [0, 1],
                       "hole_radius": 0.0, "target_h": 0.25},
            "out_dir": str(tmp_path / "sq"),
        })
        assert run_cli(["meshgen", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tags"] == ["outer"]

    def test_mesh_file_with_missing_vertex_exit_2(self, tmp_path, capsys):
        (tmp_path / "mesh.json").write_text(json.dumps({
            "version": 1, "vertices": [[0, 0], [1, 0], [0, 1]],
            "triangles": [[0, 1, 5]], "boundary": []}))
        cfg = write_config(tmp_path / "m.json", {
            "domain": {"mesh_file": "mesh.json"},
            "out_dir": str(tmp_path / "out"),
        })
        assert run_cli(["meshgen", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "InvalidGeometry" in err["message"]
        assert "missing vertex" in err["message"]

    @pytest.mark.parametrize("triangles", [
        [[0, 1, 2], [0, 1, 2]],
        [[0, 1, 2], [0, 1, 3]],
    ], ids=["doubled", "folded"])
    def test_mesh_file_with_overlapping_triangles_exit_2(self, tmp_path,
                                                         capsys, triangles):
        (tmp_path / "mesh.json").write_text(json.dumps({
            "version": 1, "vertices": [[0, 0], [1, 0], [0, 1], [0.4, 0.4]],
            "triangles": triangles, "boundary": []}))
        cfg = write_config(tmp_path / "m.json", {
            "domain": {"mesh_file": "mesh.json"},
            "out_dir": str(tmp_path / "out"),
        })
        assert run_cli(["meshgen", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "InvalidGeometry" in err["message"]
        assert "overlap" in err["message"]

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"domain": [,]}')
        assert run_cli(["meshgen", "--config", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "line" in err["message"] and "column" in err["message"]


class TestGencloud:
    def base(self, tmp_path, noise, seed=5):
        return write_config(tmp_path / "cloud.json", {
            "cloud": {"n": 141, "m": 141, "theta0": np.pi / 2,
                      "theta_inf": 3 * np.pi / 2, "dtheta": np.pi,
                      "noise": noise, "seed": seed, "target_seed": 1005},
            "out_dir": str(tmp_path / "cl"),
        })

    def test_noiseless_points_on_unit_arc(self, tmp_path, capsys):
        cfg = self.base(tmp_path, 0.0)
        assert run_cli(["gencloud", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        pts = load_points_csv(out["points"])
        assert len(pts) == 141
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12
        # first point is (cos theta0, sin theta0) = (0, 1)
        assert np.allclose(pts[0], [np.cos(np.pi / 2), 1.0], atol=1e-12)

    def test_noise_stays_in_minkowski_box(self, tmp_path, capsys):
        cfg = self.base(tmp_path, 0.1)
        assert run_cli(["gencloud", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        pts = load_points_csv(out["points"])
        i = np.arange(141)
        ang = np.pi / 2 + np.pi * i / 140
        base = np.column_stack([np.cos(ang), np.sin(ang)])
        offset = pts - base
        assert np.all(offset >= -1e-12)
        assert np.all(offset <= 0.1 + 1e-12)

    def test_deterministic_by_seed(self, tmp_path, capsys):
        cfg = self.base(tmp_path, 0.1)
        run_cli(["gencloud", "--config", cfg])
        out = json.loads(capsys.readouterr().out)
        first = open(out["points"]).read()
        run_cli(["gencloud", "--config", cfg])
        capsys.readouterr()
        assert open(out["points"]).read() == first

    def test_report_compares_with_the_generated_target(self, tmp_path,
                                                       capsys, monkeypatch):
        cloud = {"n": 30, "m": 25, "theta0": 0.5, "theta_inf": 2.0,
                 "dtheta": 1.5, "noise": 0.1, "seed": 4}
        cfg = write_config(tmp_path / "target.json", {
            "cloud": dict(cloud, which="target"),
            "out_dir": str(tmp_path / "run"),
        })
        assert run_cli(["gencloud", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        generated = load_points_csv(out["points"])
        assert len(generated) == 25

        run_dir = tmp_path / "run"
        (run_dir / "diagnostics.csv").write_text(
            "k,t,mass,l1_error,kl,min_nodal\n"
            "0,0.0,1.0,2.0,3.0,0.0\n"
            "1,1.0,1.0,1.0,1.5,0.0\n"
        )
        (run_dir / "trajectories.csv").write_text(
            "k,t,particle_id,x,y,alive\n"
            "0,0.0,0,0.0,1.0,1\n"
            "1,1.0,0,-1.0,0.0,1\n"
        )
        compared = []

        def hausdorff(a, b):
            compared.append(b)
            return 0.0

        monkeypatch.setattr(particles, "hausdorff", hausdorff)
        cfg = write_config(tmp_path / "report.json", {
            "cloud": cloud, "out_dir": str(run_dir),
        })
        assert run_cli(["report", "--config", cfg]) == 0
        capsys.readouterr()
        assert len(compared) == 1
        assert np.array_equal(compared[0], generated)


class TestFitgmm:
    def test_single_component_range(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(60, 2)) * 0.2 + [1.0, -0.5]
        save_points_csv(pts, tmp_path / "pts.csv")
        cfg = write_config(tmp_path / "fit.json", {
            "fitgmm": {"points": str(tmp_path / "pts.csv"),
                       "k_range": [1, 1], "cov_reg": 0.01, "seed": 0},
            "out_dir": str(tmp_path / "fit"),
        })
        assert run_cli(["fitgmm", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["k"] == 1
        doc = json.load(open(tmp_path / "fit" / "gmm.json"))
        assert np.allclose(doc["means"][0], pts.mean(axis=0), atol=1e-10)

    def test_empty_cloud_exit_2(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("x,y\n")
        cfg = write_config(tmp_path / "fit.json", {
            "fitgmm": {"points": str(tmp_path / "empty.csv")},
        })
        assert run_cli(["fitgmm", "--config", cfg]) == 2
        capsys.readouterr()

    def test_missing_file_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "fit.json", {
            "fitgmm": {"points": "nope.csv"},
        })
        assert run_cli(["fitgmm", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"


class TestPipeline:
    def test_solve_trace_report(self, tmp_path, tiny_config, capsys):
        assert run_cli(["solve", "--config", tiny_config]) == 0
        capsys.readouterr()
        run_dir = str(tmp_path / "run")
        assert os.path.exists(os.path.join(run_dir, "diagnostics.csv"))
        lines = open(os.path.join(run_dir, "diagnostics.csv")).read().splitlines()
        assert lines[0] == "k,t,mass,l1_error,kl,min_nodal"
        assert len(lines) == 32  # header + K + 1 rows
        assert os.path.exists(os.path.join(run_dir, "rho_000000.fpfld"))
        assert os.path.exists(os.path.join(run_dir, "rho_000030.fpfld"))

        # mass column is conserved
        rows = np.genfromtxt(os.path.join(run_dir, "diagnostics.csv"),
                             delimiter=",", names=True)
        assert np.abs(rows["mass"] - rows["mass"][0]).max() <= 1e-8

        assert run_cli(["trace", "--config", tiny_config]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(run_dir, "trajectories.csv"))
        summary = json.load(open(os.path.join(run_dir, "summary.json")))
        assert summary["n_particles"] == 8
        assert "min_boundary_distance" in summary

        assert run_cli(["report", "--config", tiny_config]) == 0
        capsys.readouterr()
        report = json.load(open(os.path.join(run_dir, "report.json")))
        for key in ("final_l1", "final_kl", "mass_drift", "total_exits"):
            assert key in report
        for svg in ("error_curves.svg", "density_final.svg", "clouds.svg",
                    "trajectories.svg"):
            assert os.path.exists(os.path.join(run_dir, svg))

        # byte-identical outputs on a repeated report
        blob1 = {f: open(os.path.join(run_dir, f), "rb").read()
                 for f in ("report.json", "error_curves.svg", "clouds.svg")}
        assert run_cli(["report", "--config", tiny_config]) == 0
        capsys.readouterr()
        for f, data in blob1.items():
            assert open(os.path.join(run_dir, f), "rb").read() == data

    def test_trace_uses_the_potential_of_the_solve(self, tmp_path,
                                                    tiny_config, capsys,
                                                    monkeypatch):
        # tiny_config has eps > 0, so the solve runs the distance smoother
        assert run_cli(["solve", "--config", tiny_config]) == 0
        capsys.readouterr()
        run_dir = tmp_path / "run"
        assert (run_dir / "V.fpfld").exists()
        assert run_cli(["trace", "--config", tiny_config]) == 0
        capsys.readouterr()
        want = (run_dir / "trajectories.csv").read_bytes()

        def no_smoothing(*args, **kwargs):
            raise AssertionError("trace rebuilt the potential")

        monkeypatch.setattr(boundary, "smooth_distance", no_smoothing)
        # a changed boundary section cannot change the drift either
        doc = json.load(open(tiny_config))
        doc["boundary"]["eps"] = 0.5
        cfg = write_config(tmp_path / "changed.json", doc)
        assert run_cli(["trace", "--config", cfg]) == 0
        capsys.readouterr()
        assert (run_dir / "trajectories.csv").read_bytes() == want

    def test_run_json_solver_totals(self, tmp_path, tiny_config, capsys,
                                    count_splu):
        doc = json.load(open(tiny_config))
        doc["boundary"]["eps"] = 0.0  # no smoother: every LU is the CN solve
        cfg = write_config(tmp_path / "no_smoother.json", doc)
        assert run_cli(["solve", "--config", cfg]) == 0
        capsys.readouterr()
        run = json.load(open(tmp_path / "run" / "run.json"))
        solver = run["solver"]
        assert solver["factorizations"] == len(count_splu) >= 1
        assert solver["lu_solves"] >= doc["time"]["K"]
        assert 0 <= solver["max_residual"] <= 1e-10

    def test_full_pipeline_deterministic(self, tmp_path, capsys):
        # two fresh end-to-end runs give byte-identical report.json
        blobs = []
        for tag in ("a", "b"):
            doc = {
                "domain": {"x_range": [-2, 2], "y_range": [-2, 2],
                           "hole_center": [0, 0], "hole_radius": 0.4,
                           "target_h": 0.2},
                "fe": {"degree": 2},
                "time": {"T": 0.2, "K": 10, "power": 1.5},
                "rho0": {"gaussian": {"mean": [-1.0, 0.0], "cov": 0.1}},
                "rho_inf": {"gaussian": {"mean": [1.0, 0.0], "cov": 0.1}},
                "particles": {"from_rho0": {"n": 5, "seed": 3}},
                "integrator": {"method": "euler"},
                "store_every": 1,
                "out_dir": str(tmp_path / tag),
            }
            cfg = write_config(tmp_path / f"{tag}.json", doc)
            for command in ("solve", "trace", "report"):
                assert run_cli([command, "--config", cfg]) == 0
                capsys.readouterr()
            blobs.append(open(tmp_path / tag / "report.json", "rb").read())
        assert blobs[0] == blobs[1]

    def test_missing_mesh_file_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", {
            "domain": {"mesh_file": "missing_mesh.json"},
            "time": {"T": 1.0, "K": 5},
            "rho0": {"gaussian": {"mean": [0, 0], "cov": 0.1}},
            "rho_inf": {"gaussian": {"mean": [0, 0], "cov": 0.1}},
        })
        assert run_cli(["solve", "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"

    def test_numerical_failure_exit_3(self, tmp_path, tiny_config, capsys,
                                      monkeypatch):
        def boom(cfg, args):
            raise SolveFailure("synthetic failure", residual=1.0)

        monkeypatch.setitem(cli._COMMANDS, "solve", boom)
        assert run_cli(["solve", "--config", tiny_config]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "numerical"

    def test_cli_runs_the_pipeline(self, tmp_path, tiny_config, capsys):
        for command in ("solve", "trace"):
            assert run_cli([command, "--config", tiny_config]) == 0
            capsys.readouterr()
        run_dir = tmp_path / "run"

        cfg = pipeline.RunConfig.load(tiny_config)
        s = pipeline.setup(cfg)
        traj = pipeline.solve(cfg, s)
        log = pipeline.transport(cfg, traj, s.grad_V,
                                 pipeline.particle_cloud(cfg, s.g0))

        for k in traj.ks:
            stored = fem.load_field_binary(run_dir / f"rho_{int(k):06d}.fpfld",
                                           s.space)
            assert np.array_equal(stored.coeffs, traj.field(int(k)).coeffs)
        rows = np.genfromtxt(run_dir / "diagnostics.csv", delimiter=",",
                             names=True)
        table = fpsolve.diagnostics_report(traj)
        for name in rows.dtype.names:
            assert np.array_equal(rows[name], table[name])
        rows = np.genfromtxt(run_dir / "trajectories.csv", delimiter=",",
                             names=True)
        xy = np.column_stack([rows["x"], rows["y"]])
        assert np.array_equal(xy, log.positions.reshape(-1, 2))

    def test_point_and_mixture_files(self, tmp_path, tiny_config, capsys,
                                     monkeypatch):
        # fitgmm -> solve (rho_inf.gmm_file, rho0.fit_cloud) -> trace
        # (particles.cloud_file) -> report (report.target_cloud)
        rng = np.random.default_rng(5)
        src = rng.normal(scale=0.2, size=(40, 2)) + [-1.0, 0.0]
        tgt = rng.normal(scale=0.2, size=(40, 2)) + [1.0, 0.0]
        save_points_csv(src, tmp_path / "src.csv")
        save_points_csv(tgt, tmp_path / "tgt.csv")
        fit = write_config(tmp_path / "fit.json", {
            "fitgmm": {"points": "tgt.csv", "k_range": [1, 2]},
            "out_dir": str(tmp_path / "fit"),
        })
        assert run_cli(["fitgmm", "--config", fit]) == 0
        capsys.readouterr()

        seeds = []
        select_by_aic = density.select_by_aic

        def recording(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return select_by_aic(*args, **kwargs)

        monkeypatch.setattr(density, "select_by_aic", recording)
        doc = json.load(open(tiny_config))
        doc["rho0"] = {"fit_cloud": "src.csv", "k_range": [1, 2],
                       "fit_seed": 4}
        doc["rho_inf"] = {"gmm_file": "fit/gmm.json"}
        doc["particles"] = {"cloud_file": "src.csv"}
        doc["report"] = {"target_cloud": "tgt.csv"}
        cfg = write_config(tmp_path / "files.json", doc)
        for command in ("solve", "trace", "report"):
            assert run_cli([command, "--config", cfg]) == 0
            capsys.readouterr()
        run_dir = tmp_path / "run"

        assert seeds == [4]
        g_inf = json.load(open(run_dir / "gmm_rhoinf.json"))
        assert g_inf == json.load(open(tmp_path / "fit" / "gmm.json"))
        rows = np.genfromtxt(run_dir / "trajectories.csv", delimiter=",",
                             names=True)
        first = rows[rows["k"] == 0]
        assert np.array_equal(np.column_stack([first["x"], first["y"]]), src)
        final = rows[rows["k"] == rows["k"].max()]
        report = json.load(open(run_dir / "report.json"))
        assert report["hausdorff_final_to_target"] == particles.hausdorff(
            np.column_stack([final["x"], final["y"]]), tgt)

    @pytest.mark.parametrize("command", ["meshgen", "solve", "report"])
    def test_seed_rejected_where_nothing_is_drawn(self, tiny_config, capsys,
                                                  command):
        assert run_cli([command, "--config", tiny_config, "--seed", "3"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "--seed" in err["message"]

    def test_report_without_run_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "r.json", {"out_dir": str(tmp_path)})
        assert run_cli(["report", "--config", cfg]) == 2
        capsys.readouterr()


class TestReportCurveVertices:
    def test_three_row_diagnostics_three_vertices(self, tmp_path, capsys):
        run_dir = tmp_path / "mini"
        run_dir.mkdir()
        (run_dir / "diagnostics.csv").write_text(
            "k,t,mass,l1_error,kl,min_nodal\n"
            "0,0.0,1.0,2.0,3.0,0.0\n"
            "1,0.5,1.0,1.0,1.5,0.0\n"
            "2,1.0,1.0,0.5,0.7,0.0\n"
        )
        cfg = write_config(tmp_path / "cfg.json", {"out_dir": str(run_dir)})
        assert run_cli(["report", "--config", cfg]) == 0
        capsys.readouterr()
        svg = (run_dir / "error_curves.svg").read_text()
        first_polyline = svg.split("<polyline")[1]
        pts = first_polyline.split('points="')[1].split('"')[0]
        assert len(pts.split()) == 3


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fpreg.cli", "meshgen", "--config", "none.json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr.strip())["error"] == "config"
