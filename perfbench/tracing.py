"""Outside-in tracing of the library's layers, without touching its code.

`Tracer.install()` replaces the public functions of the fpreg layer modules
(and `scipy.sparse.linalg.splu`, plus the `.solve` of the factor it
returns) by module attribute, so calls between the library's own functions
are caught too: `mesh.locate_points` calling `locate_point`, or
`particles.gf_potential` calling `fem.solve_linear`. Each call records a
span (name, start, end, parent) in memory; `layer_metrics` turns the spans
of one registration into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

import scipy.sparse.linalg as spla

from fpreg import boundary, density, fem, fpsolve, mesh, particles

LAYERS = (mesh, fem, density, fpsolve, boundary, particles)
# private, but the only way gf_potential assembles its stiffness matrix
EXTRA = {"fem._assemble"}
ASSEMBLE = {"fem.assemble_mass", "fem.assemble_fp_form", "fem.assemble_supg",
            "fem._assemble"}
ADVECT = {"particles.advect_euler", "particles.advect_rk2",
          "particles.advect_gf"}
FACTOR = "superlu.splu"
LU_SOLVE = "superlu.solve"


def _count_points(counts, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    counts["mesh.located_points"] += len(points)


def _count_em(counts, args, kwargs, result):
    report = result[1]
    counts["density.em_iterations"] += report.iterations
    counts["density.em_restarts"] += report.restarts


OBSERVE = {"mesh.locate_points": _count_points, "density.em_fit": _count_em}


class Tracer:
    """In-memory spans and counts of one registration."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = [-1]
        self.counts = {"mesh.located_points": 0, "density.em_iterations": 0,
                       "density.em_restarts": 0}

    def _open(self):
        """Start a span; returns its slot, its parent and its start time."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, t0):
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans[sid] = (name, t0, t1, parent)

    def _wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def install(self):
        """Trace the layers for the rest of the process; there is no undo,
        so install it only in a process that ends after the registration."""
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or name in EXTRA)):
                    setattr(module, attr,
                            self._wrap(name, obj, OBSERVE.get(name)))
        splu = spla.splu
        wrap_solve = self._wrap

        def traced_splu(*args, **kwargs):
            return _Factor(splu(*args, **kwargs), wrap_solve)

        spla.splu = self._wrap(FACTOR, traced_splu)


class _Factor:
    """SuperLU factor whose `solve` is traced; the rest is passed through."""

    def __init__(self, lu, wrap):
        self._lu = lu
        self.solve = wrap(LU_SOLVE, lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# ---------------------------------------------------------------------------
# per-layer metrics of one registration


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    out = [t1 - t0 for _, t0, t1, _ in spans]
    for _, t0, t1, parent in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def layer_metrics(spans, counts):
    """The per-layer metrics of the spans and counts of one registration."""
    m = {}
    dur = [t1 - t0 for _, t0, t1, _ in spans]
    own = self_times(spans)
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]

    def total(*wanted):
        return sum(d for n, d in zip(names, dur) if n in wanted)

    def calls(*wanted):
        return sum(1 for n in names if n in wanted)

    def fpreg_ancestor(i):
        p = parents[i]
        while p >= 0 and layer_of(names[p]) in ("superlu", "bench"):
            p = parents[p]
        return names[p] if p >= 0 else None

    def outermost(group):
        for i, n in enumerate(names):
            if n not in group:
                continue
            p = parents[i]
            while p >= 0 and names[p] not in group:
                p = parents[p]
            if p < 0:
                yield i

    m["mesh.generate_s"] = total("mesh.generate_rect_with_hole")
    m["fem.build_space_s"] = total("fem.build_space")
    m["fem.interpolate_s"] = total("fem.interpolate")
    for fn in ("locate_points", "locate_point", "boundary_distances"):
        m[f"mesh.{fn}_calls"] = calls(f"mesh.{fn}")
        m[f"mesh.{fn}_s"] = total(f"mesh.{fn}")
    fallbacks = sum(1 for i, n in enumerate(names) if n == "mesh.locate_point"
                    and parents[i] >= 0
                    and names[parents[i]] == "mesh.locate_points")
    m["mesh.fallbacks"] = fallbacks
    m["mesh.fallback_ratio"] = (fallbacks / counts["mesh.located_points"]
                                if counts["mesh.located_points"] else 0.0)
    m["mesh.nearest_boundary_facet_calls"] = calls("mesh.nearest_boundary_facet")
    m["fem.eval_calls"] = calls("fem.values_at", "fem.gradients_at")
    m["fem.eval_s"] = total("fem.values_at", "fem.gradients_at")
    asm = list(outermost(ASSEMBLE))
    m["fem.assemble_calls"] = len(asm)
    m["fem.assemble_s"] = sum(dur[i] for i in asm)
    m["fem.solve_linear_calls"] = calls("fem.solve_linear")
    m["fem.solve_linear_s"] = total("fem.solve_linear")
    for owner, prefix in (("fem.solve_linear", "fem"),
                          ("fpsolve.solve_fp", "fpsolve")):
        factor = [i for i, n in enumerate(names)
                  if n == FACTOR and fpreg_ancestor(i) == owner]
        m[f"{prefix}.factorizations"] = len(factor)
        m[f"{prefix}.factor_s"] = sum(dur[i] for i in factor)
        m[f"{prefix}.lu_solves"] = sum(
            1 for i, n in enumerate(names)
            if n == LU_SOLVE and fpreg_ancestor(i) == owner)
    m["fpsolve.solve_fp_s"] = total("fpsolve.solve_fp")
    m["particles.advect_s"] = total(*ADVECT)
    m["particles.gf_potential_calls"] = calls("particles.gf_potential")
    m["particles.gf_potential_s"] = total("particles.gf_potential")
    for fn in ("raw_distance_field", "smooth_distance",
               "regularized_potential"):
        m[f"boundary.{fn}_s"] = total(f"boundary.{fn}")
    m["density.select_by_aic_s"] = total("density.select_by_aic")
    m["density.em_fit_calls"] = calls("density.em_fit")
    m["density.em_iterations"] = counts["density.em_iterations"]
    m["density.em_restarts"] = counts["density.em_restarts"]

    layer_self = {}
    for n, s in zip(names, own):
        layer_self[layer_of(n)] = layer_self.get(layer_of(n), 0.0) + s
    for layer in ("mesh", "fem", "density", "fpsolve", "boundary",
                  "particles", "superlu", "bench"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    registration = total("bench.registration")
    m["trace.registration_s"] = registration
    for phase in ("setup", "solve", "transport"):
        m[f"trace.{phase}_s"] = total(f"bench.{phase}")
    m["trace.self_share"] = (registration - m["bench.self_s"]) / registration
    return m

