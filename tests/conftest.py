"""Session-scoped fixtures for the desk-scale scenario runs.

The two experiment scenarios (Gaussian transport across a cylinder; arc
point-set registration across a cylinder) are the configurations in
`configs/`, run through `fpreg.pipeline` once per session with the
overrides each criterion needs and shared between the acceptance criteria.
"""

import os

import pytest
import scipy.sparse.linalg as spla

from fpreg import pipeline

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")


def scenario(name, eps=None, **top):
    """A `configs/` scenario with `boundary.eps` and top-level keys set."""
    cfg = pipeline.RunConfig.load(os.path.join(CONFIGS, name + ".json"))
    cfg.doc.update(top)
    if eps is not None:
        cfg.doc["boundary"]["eps"] = eps
    return cfg


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
    return pipeline.setup(scenario("test1_gaussian_cylinder"))


@pytest.fixture(scope="session")
def test1_eps_runs():
    """Galerkin desk runs of scenario 1 for eps in {0, 1e-3, 1e-2},
    each with the same 100-particle cloud advected by explicit Euler."""
    out = {}
    for eps in (0.0, 1e-3, 1e-2):
        cfg = scenario("test1_gaussian_cylinder", eps=eps, supg=False)
        s = pipeline.setup(cfg)
        traj = pipeline.solve(cfg, s)
        log = pipeline.transport(cfg, traj, s.grad_V,
                                 pipeline.particle_cloud(cfg, s.g0))
        out[eps] = dict(traj=traj, grad_V=s.grad_V, log=log)
    return out


@pytest.fixture(scope="session")
def test1_supg_run(test1_setup):
    return pipeline.solve(scenario("test1_gaussian_cylinder"), test1_setup)


@pytest.fixture(scope="session")
def test2_setup():
    cfg = scenario("test2_psr_cylinder")
    s = pipeline.setup(cfg)
    ref = pipeline.particle_cloud(cfg, s.g0)
    tgt = pipeline.arc_cloud_from_spec(
        pipeline.target_arc_spec(cfg.doc["cloud"]))
    return dict(ref=ref, tgt=tgt, g0=s.g0, g_inf=s.g_inf, space=s.space,
                setup=s)


@pytest.fixture(scope="session")
def test2_run(test2_setup):
    """Galerkin desk run of scenario 2 with every step stored."""
    s = test2_setup["setup"]
    traj = pipeline.solve(scenario("test2_psr_cylinder", supg=False), s)
    return dict(traj=traj, grad_V=s.grad_V, **test2_setup)


@pytest.fixture(scope="session")
def test2_supg_run(test2_setup):
    cfg = scenario("test2_psr_cylinder", store_every=0)
    return pipeline.solve(cfg, test2_setup["setup"])


# free-space Gaussian benchmark: domain (-8, 8)^2 at h = 0.1, P1
BENCH = {
    "domain": {"x_range": [-8, 8], "y_range": [-8, 8], "hole_radius": 0.0,
               "target_h": 0.1},
    "fe": {"degree": 1},
    "time": {"T": 1.0, "K": 500},
    "rho0": {"gaussian": {"mean": [-2.0, 0.0], "cov": 0.2}},
    "rho_inf": {"gaussian": {"mean": [0.0, 0.0], "cov": 0.2}},
    "supg": False,
    "store_every": 1,
    "snapshot_times": [0.1, 0.5, 1.0],
}


@pytest.fixture(scope="session")
def bench_run():
    cfg = pipeline.RunConfig(BENCH)
    s = pipeline.setup(cfg)
    return dict(traj=pipeline.solve(cfg, s), grad_V=s.grad_V, g0=s.g0,
                g_inf=s.g_inf)
