"""Particle transport along the density flow.

Three integrators: explicit Euler on the velocity u = -(grad rho / rho +
grad V), Heun (RK2) with the density blended linearly in time between
consecutive snapshots, and the gradient-flow update that displaces particles
by the gradient of a per-step transport potential (no dt factor: the step
length is already encoded in the density increment). Velocities and
displacements are evaluated for all located particles at once.

Particles leaving the domain are projected back to the nearest interior
point at a configurable distance from the boundary (or killed, by flag);
every exit is counted. Each step locates all particles in one batch and
handles all of its exits in one batch: nearest facets and inward normals
together, then one batched relocation per offset scale. The last location
of every particle is kept for the next step, and one pass over the boundary
facets updates both the boundary and the hole distance minima.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import fem, mesh as meshmod
from .errors import SolveFailure

DENSITY_FLOOR = 1e-12


@dataclass
class ParticleSet:
    """Positions plus alive flags and last-known triangle hints."""

    positions: np.ndarray  # (N, 2)
    alive: np.ndarray = None  # (N,) bool
    hints: np.ndarray = None  # (N,) int

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 2)
        n = len(self.positions)
        if self.alive is None:
            self.alive = np.ones(n, dtype=bool)
        if self.hints is None:
            self.hints = np.zeros(n, dtype=np.int64)

    @property
    def n(self):
        return len(self.positions)


class TrajectoryLog:
    """Positions of every particle at each recorded step plus run summaries."""

    def __init__(self, ks, times, positions, alive, min_boundary_distance,
                 min_hole_distance, exit_counts):
        self.ks = np.asarray(ks, dtype=np.int64)
        self.times = np.asarray(times, dtype=float)
        self.positions = positions  # (S, N, 2)
        self.alive = alive  # (S, N)
        self.min_boundary_distance = min_boundary_distance  # (N,)
        self.min_hole_distance = min_hole_distance  # (N,) or None
        self.exit_counts = exit_counts  # (N,)
        self.capped_steps = 0  # displacement clamps (gradient-flow method)
        self.midpoint_exits = 0  # RK2 midpoints outside the domain

    @property
    def n_particles(self):
        return self.positions.shape[1]

    def final_positions(self, alive_only=True):
        pos = self.positions[-1]
        if alive_only:
            return pos[self.alive[-1]]
        return pos


def _velocities(rho, drift, tri, bary, floor, formula):
    """(n, 2) transport velocities at the located points (tri, bary)."""
    vals = fem.values_at(rho, tri, bary)
    grads = fem.gradients_at(rho, tri, bary)
    gv = drift.at(tri, bary)
    if formula == "theorem":
        return -(grads / np.maximum(vals, floor)[:, None] + gv)
    if formula == "literal_eq16":
        return gv + grads
    raise ValueError(f"unknown velocity formula {formula!r}")


class _Advector:
    """Shared stepping scaffolding: location, projection, logging.

    `hints` and `bary` hold the last location of every alive particle,
    projected ones included, so `located()` needs no second search.
    """

    def __init__(self, pset, space, grid, boundary="project", project_tol=1e-2,
                 track_distances=True):
        if boundary not in ("project", "kill"):
            raise ValueError("boundary policy must be 'project' or 'kill'")
        self.mesh = space.mesh
        self.space = space
        self.grid = grid
        self.boundary = boundary
        self.project_tol = project_tol
        self.x = pset.positions.copy()
        self.alive = pset.alive.copy()
        self.hints = pset.hints.copy()
        self.bary = np.zeros((pset.n, 3))
        self.exit_counts = np.zeros(pset.n, dtype=np.int64)
        self.track = track_distances
        self.has_hole = bool(np.any(self.mesh.boundary_tags == meshmod.HOLE))
        self.min_bdist = np.full(pset.n, np.inf)
        self.min_hdist = np.full(pset.n, np.inf) if self.has_hole else None
        self.rows_pos = []
        self.rows_alive = []
        self.ks = []
        self._place(np.where(self.alive)[0])
        self._update_distances()

    def _place(self, idx):
        """Locate particles idx; apply the boundary policy to those outside."""
        tri, bary = meshmod.locate_points(self.mesh, self.x[idx], self.hints[idx])
        inside = tri >= 0
        self.hints[idx[inside]] = tri[inside]
        self.bary[idx[inside]] = bary[inside]
        self._handle_exits(idx[~inside])

    def _handle_exits(self, out):
        """Count the exits of particles `out`, then project or kill them.

        A projected particle moves from the closest boundary point along the
        inward normal of its facet, by project_tol or, where that lands
        outside, by the first smaller offset that lands inside.
        """
        if len(out) == 0:
            return
        self.exit_counts[out] += 1
        if self.boundary == "kill":
            self.alive[out] = False
            return
        facets, p, _ = meshmod.nearest_boundary_facets(self.mesh, self.x[out])
        n = meshmod.inward_normals(self.mesh, facets)
        for scale in (1.0, 0.5, 0.25, 0.1):
            cand = p + scale * self.project_tol * n
            tri, bary = meshmod.locate_points(self.mesh, cand, self.hints[out])
            ok = tri >= 0
            placed = out[ok]
            self.x[placed] = cand[ok]
            self.hints[placed] = tri[ok]
            self.bary[placed] = bary[ok]
            out, p, n = out[~ok], p[~ok], n[~ok]
            if len(out) == 0:
                return
        self.alive[out] = False  # wedged in a corner; give up on these particles

    def located(self):
        """(indices, tri, bary) of the alive particles, from their last location."""
        idx = np.where(self.alive)[0]
        return idx, self.hints[idx], self.bary[idx]

    def _update_distances(self):
        """Fold the boundary (and hole) distances of alive particles into
        the running minima, from one pass over the boundary facets."""
        if not self.track:
            return
        idx = np.where(self.alive)[0]
        if len(idx) == 0:
            return
        tags = (None, meshmod.HOLE) if self.has_hole else (None,)
        dists = meshmod.boundary_distances(self.mesh, self.x[idx], tag=tags)
        for best, d in zip((self.min_bdist, self.min_hdist), dists):
            best[idx] = np.minimum(best[idx], d)

    def commit(self, k):
        self.ks.append(k)
        self.rows_pos.append(self.x.copy())
        self.rows_alive.append(self.alive.copy())

    def step_to(self, new_positions, idx):
        self.x[idx] = new_positions
        self._place(idx)
        self._update_distances()

    def log(self):
        nb = self.min_bdist.copy()
        nb[np.isinf(nb)] = np.nan
        nh = None
        if self.min_hdist is not None:
            nh = self.min_hdist.copy()
            nh[np.isinf(nh)] = np.nan
        return TrajectoryLog(
            ks=np.array(self.ks),
            times=self.grid.times[np.array(self.ks)],
            positions=np.array(self.rows_pos),
            alive=np.array(self.rows_alive),
            min_boundary_distance=nb,
            min_hole_distance=nh,
            exit_counts=self.exit_counts,
        )


def _check_consecutive(traj, k_start, k_end):
    for k in range(k_start, k_end + 1):
        if not traj.has_step(k):
            raise ValueError(
                f"trajectory is missing step {k}; advection needs every step "
                "stored (solve with store_every=1)"
            )


def advect_euler(pset, traj, grad_V, grid=None, k_start=0, k_end=None,
                 formula="theorem", floor=DENSITY_FLOOR, boundary="project",
                 project_tol=1e-2, track_distances=True):
    """Explicit Euler transport using the step-k density on each step."""
    grid = grid or traj.grid
    k_end = grid.K if k_end is None else k_end
    _check_consecutive(traj, k_start, max(k_start, k_end - 1))
    drift = fem.as_vector_field(traj.space, grad_V)
    adv = _Advector(pset, traj.space, grid, boundary, project_tol,
                    track_distances)
    adv.commit(k_start)
    for k in range(k_start, k_end):
        rho = traj.field(k)
        idx, tri, bary = adv.located()
        if len(idx):
            u = _velocities(rho, drift, tri, bary, floor, formula)
            adv.step_to(adv.x[idx] + grid.dt(k) * u, idx)
        adv.commit(k + 1)
    return adv.log()


def advect_rk2(pset, traj, grad_V, grid=None, substeps=1, k_start=0,
               k_end=None, formula="theorem", floor=DENSITY_FLOOR,
               boundary="project", project_tol=1e-2, track_distances=True):
    """Heun steps with the density interpolated linearly in time.

    Each solver interval is split into `substeps` equal Heun substeps; the
    density at intermediate times is the linear blend of the bracketing
    snapshots. A particle whose midpoint leaves the domain takes an Euler
    step instead; the returned log counts these in `midpoint_exits`.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    grid = grid or traj.grid
    k_end = grid.K if k_end is None else k_end
    _check_consecutive(traj, k_start, k_end)
    drift = fem.as_vector_field(traj.space, grad_V)
    space = traj.space
    adv = _Advector(pset, space, grid, boundary, project_tol, track_distances)
    adv.commit(k_start)
    midpoint_exits = 0
    for k in range(k_start, k_end):
        c0 = traj.field(k).coeffs
        c1 = traj.field(k + 1).coeffs
        dt = grid.dt(k)
        h = dt / substeps
        for s in range(substeps):
            th0 = s / substeps
            th1 = (s + 1) / substeps
            rho_a = fem.FeField(space, (1 - th0) * c0 + th0 * c1)
            rho_b = fem.FeField(space, (1 - th1) * c0 + th1 * c1)
            idx, tri, bary = adv.located()
            if len(idx) == 0:
                break
            u1 = _velocities(rho_a, drift, tri, bary, floor, formula)
            x_mid = adv.x[idx] + h * u1
            tri2, bary2 = meshmod.locate_points(space.mesh, x_mid, adv.hints[idx])
            ok = tri2 >= 0
            # a midpoint outside the domain keeps u2 = u1: an Euler step
            midpoint_exits += int((~ok).sum())
            u2 = np.array(u1)
            if np.any(ok):
                u2[ok] = _velocities(rho_b, drift, tri2[ok], bary2[ok], floor,
                                     formula)
            adv.step_to(adv.x[idx] + 0.5 * h * (u1 + u2), idx)
        adv.commit(k + 1)
    log = adv.log()
    log.midpoint_exits = midpoint_exits
    return log


GF_WEIGHT_FLOOR = 1e-10


def gf_potential(rho_k, rho_k1, eps_gf, weight_floor=GF_WEIGHT_FLOOR):
    """Transport potential psi of the gradient-flow update.

    Solves  int rho_k grad psi . grad v + eps psi v = int (rho_k1 - rho_k) v
    for all v (regularized pure-Neumann problem). The weight rho_k is
    floored at `weight_floor` in the quadrature: FE undershoots would make
    the operator indefinite, and the exponentially vanishing mixture tails
    leave the eps-regularized system numerically singular in double
    precision (the same floor guards the transport velocity division).
    """
    space = rho_k.space
    if rho_k1.space is not space:
        raise ValueError("densities must share a space")
    deg = max(3 * space.degree - 2, 1)
    lam, w, _, _, _ = space.quad(deg)
    g = space.phys_grads(deg)
    rho_vals = np.maximum(fem.values_on_elements(rho_k, lam), weight_floor)
    wq = np.einsum("q,eq->eq", w, rho_vals)
    local = space.areas[:, None, None] * np.einsum(
        "eq,eqid,eqjd->eij", wq, g, g
    )
    M = fem.assemble_mass(space)
    A = fem._assemble(space, local)
    A.data += eps_gf * M.data
    rhs = M @ (rho_k1.coeffs - rho_k.coeffs)
    # the eps block sits ~1e-10 below the bulk stiffness scale: equilibrate
    # so the factorization stays accurate in double precision
    psi = fem.solve_linear(A, rhs, tol=1e-8, equilibrate=True)
    return fem.FeField(space, psi)


def advect_gf(pset, traj, eps_gf=1e-10, grid=None, k_start=0, k_end=None,
              boundary="project", project_tol=1e-2, track_distances=True,
              max_speed=None):
    """Gradient-flow transport: X += grad psi_k(X), no dt factor.

    Per-step displacements can be clamped to max_speed * dt_k (a CFL-style
    guard). In under-resolved low-density pockets the discrete transport
    potential carries noise-driven spikes far above the physical velocity
    scale, most violently during the initial transient; the speed clamp
    bounds those kicks while leaving genuine bulk motion untouched. Clamp
    events are counted on the returned log.
    """
    grid = grid or traj.grid
    k_end = grid.K if k_end is None else k_end
    _check_consecutive(traj, k_start, k_end)
    adv = _Advector(pset, traj.space, grid, boundary, project_tol,
                    track_distances)
    adv.commit(k_start)
    capped = 0
    for k in range(k_start, k_end):
        try:
            psi = gf_potential(traj.field(k), traj.field(k + 1), eps_gf)
        except SolveFailure as exc:
            exc.step = k
            raise
        idx, tri, bary = adv.located()
        if len(idx):
            disp = fem.gradients_at(psi, tri, bary)
            if max_speed is not None:
                cap = max_speed * grid.dt(k)
                norms = np.linalg.norm(disp, axis=1)
                over = norms > cap
                if np.any(over):
                    capped += int(over.sum())
                    disp[over] *= (cap / norms[over])[:, None]
            adv.step_to(adv.x[idx] + disp, idx)
        adv.commit(k + 1)
    log = adv.log()
    log.capped_steps = capped
    return log


# ---------------------------------------------------------------------------
# metrics / io


def hausdorff(a, b):
    """Symmetric Hausdorff distance between two nonempty point sets."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("hausdorff needs nonempty point sets")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def write_trajectory_csv(log, path):
    """CSV with header k,t,particle_id,x,y,alive."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "t", "particle_id", "x", "y", "alive"])
        for row, k in enumerate(log.ks):
            t = log.times[row]
            for i in range(log.n_particles):
                x, y = log.positions[row, i]
                writer.writerow([
                    int(k), repr(float(t)), i, repr(float(x)), repr(float(y)),
                    int(log.alive[row, i]),
                ])


def write_summary_json(log, path, extra=None):
    def clean(arr):
        return [None if not np.isfinite(v) else float(v) for v in arr]

    doc = {
        "n_particles": int(log.n_particles),
        "steps": [int(k) for k in log.ks[[0, -1]]],
        "exit_counts": [int(c) for c in log.exit_counts],
        "total_exits": int(log.exit_counts.sum()),
        "alive_final": int(log.alive[-1].sum()),
        "capped_steps": int(log.capped_steps),
        "midpoint_exits": int(log.midpoint_exits),
        "min_boundary_distance": clean(log.min_boundary_distance),
    }
    if log.min_hole_distance is not None:
        doc["min_hole_distance"] = clean(log.min_hole_distance)
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
