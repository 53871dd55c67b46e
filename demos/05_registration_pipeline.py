"""End-to-end point-set registration through the command-line pipeline,
at a small scale so it finishes in about a minute.

Run:  python3 demos/05_registration_pipeline.py
"""

import json
import os
import tempfile

import numpy as np

from fpreg import cli

with tempfile.TemporaryDirectory(prefix="fpreg_demo_") as workdir:
    config = {
        "domain": {"x_range": [-4.0, 4.0], "y_range": [-4.0, 4.0],
                   "hole_center": [0.0, 0.0], "hole_radius": 0.5,
                   "target_h": 0.25},
        "fe": {"degree": 2},
        "time": {"T": 15.0, "K": 250, "power": 1.5},
        "cloud": {"n": 141, "m": 141, "theta0": float(np.pi / 2),
                  "theta_inf": float(3 * np.pi / 2), "dtheta": float(np.pi),
                  "noise": 0.1, "seed": 7, "target_seed": 1007},
        "rho0": {"arc": {"n": 141, "theta0": float(np.pi / 2),
                         "dtheta": float(np.pi), "noise": 0.1, "seed": 7},
                 "k_range": [1, 8], "cov_reg": 0.01, "fit_seed": 3},
        "rho_inf": {"arc": {"n": 141, "theta0": float(3 * np.pi / 2),
                            "dtheta": float(np.pi), "noise": 0.1, "seed": 1007},
                    "k_range": [1, 8], "cov_reg": 0.01, "fit_seed": 3},
        "boundary": {"eps": 0.0, "delta": 0.01, "tol": 0.01},
        "particles": {"arc": {"n": 141, "theta0": float(np.pi / 2),
                              "dtheta": float(np.pi), "noise": 0.1, "seed": 7}},
        "integrator": {"method": "gf", "eps_gf": 1e-10},
        "supg": True,
        "renormalize_rho0": True,
        "store_every": 1,
        "out_dir": os.path.join(workdir, "run"),
    }
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w") as f:
        json.dump(config, f, indent=1)

    print(f"working directory: {workdir}\n")
    for command in ("meshgen", "gencloud", "solve", "trace", "report"):
        print(f"$ fpreg {command} --config {os.path.basename(config_path)}")
        rc = cli.main([command, "--config", config_path])
        assert rc == 0, f"{command} failed with exit code {rc}"
        print()

    with open(os.path.join(workdir, "run", "report.json")) as f:
        report = json.load(f)
    print("report.json:")
    print(json.dumps(report, indent=2, sort_keys=True))
    svgs = sorted(p for p in os.listdir(os.path.join(workdir, "run"))
                  if p.endswith(".svg"))
    print(f"\nplots written next to it: {svgs}")
