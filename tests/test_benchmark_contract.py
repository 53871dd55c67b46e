"""The library API that the benchmark in `perfbench/` drives.

`perfbench/workloads.py` runs the registration pipeline through the public
functions of the library. One coarse registration per workload keeps those
names and signatures working, so a change that breaks the benchmark fails
here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["gauss-repulse", "arc-gf", "cloud-rk2"])
def test_warmup_registration_runs_clean(workloads, name):
    w = workloads.WORKLOADS[name]
    out = workloads.register(workloads.warmup_copy(w),
                             workloads.make_inputs(w, 1))
    assert out["error"] is None
    assert out["failed_checks"] == []
    assert out["steps"] == 4
