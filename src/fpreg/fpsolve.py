"""Crank-Nicolson time integration of the Fokker-Planck weak form.

Steps the density on a power-law time grid with optional SUPG stabilization,
recording per-step diagnostics (mass, L1 and KL distance to the target,
minimum nodal value) and storing coefficient snapshots. The forms share the
space's one sparse pattern, so each step's matrices are sums of their `data`
arrays, and one lagged `fem.LinearSolver` factorization serves many steps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import SolveFailure


@dataclass
class TimeGrid:
    """Power-law grid t_k = T (k/K)^power for k = 0..K."""

    T: float
    K: int
    power: float
    times: np.ndarray

    def dt(self, k):
        return self.times[k + 1] - self.times[k]

    def nearest_index(self, t):
        return int(np.argmin(np.abs(self.times - t)))


def make_time_grid(T, K, power=1.5):
    if T <= 0 or K < 1 or power <= 0:
        raise ValueError("need T > 0, K >= 1, power > 0")
    k = np.arange(K + 1, dtype=float)
    times = T * (k / K) ** power
    times[0] = 0.0
    times[-1] = T
    return TimeGrid(T=float(T), K=int(K), power=float(power), times=times)


class DensityTrajectory:
    """Stored density snapshots plus per-step diagnostics."""

    def __init__(self, space, grid, ks, snapshots, diagnostics, mass_deficit):
        self.space = space
        self.grid = grid
        self.ks = np.asarray(ks, dtype=np.int64)
        self.snapshots = snapshots  # (S, n_dofs)
        self.diagnostics = diagnostics  # dict of arrays over the full grid
        self.mass_deficit = mass_deficit
        self._index = {int(k): i for i, k in enumerate(self.ks)}

    def has_step(self, k):
        return int(k) in self._index

    def field(self, k):
        """FeField snapshot at step k (must be stored)."""
        try:
            row = self._index[int(k)]
        except KeyError:
            raise KeyError(f"step {k} was not stored") from None
        return fem.FeField(self.space, self.snapshots[row])

    def field_nearest_time(self, t):
        k = self.grid.nearest_index(t)
        stored = self.ks[np.argmin(np.abs(self.ks - k))]
        return int(stored), self.field(int(stored))


class _MetricRecorder:
    """Per-step L1/KL against a fixed pointwise target density."""

    def __init__(self, space, rho_inf):
        degree = 2 * space.degree + 2
        lam, w, pts, n, _ = space.quad(degree)
        self.space = space
        self.lam = lam
        self.w = w
        self.shape_t = fem.shape_values(space.degree, lam).T  # (ndl, Q)
        flat = pts.reshape(-1, 2)
        vals = np.asarray(rho_inf(flat), dtype=float)
        self.rho_inf = vals.reshape(pts.shape[:2])

    def metrics(self, coeffs):
        vals = coeffs[self.space.conn] @ self.shape_t  # (E, Q)
        diff = np.abs(vals - self.rho_inf)
        l1 = float(np.einsum("e,eq,q->", self.space.areas, diff, self.w))
        pos = vals > 0.0
        integrand = np.zeros_like(vals)
        integrand[pos] = vals[pos] * np.log(vals[pos] / self.rho_inf[pos])
        kl = float(np.einsum("e,eq,q->", self.space.areas, integrand, self.w))
        return l1, kl, int((~pos).sum())


def solve_fp(space, rho0, grad_V, grid, supg=True, rho_inf=None,
             store_every=1, snapshot_times=None, renormalize=False,
             tol=1e-10):
    """Integrate the Fokker-Planck weak form over the grid.

    Each step solves
        (M + S_t + dt/2 (L + S_s)) rho_next = (M + S_t - dt/2 (L + S_s)) rho
    where all four forms share the space's sparse pattern, so both step
    matrices are built by adding `data` arrays. One `fem.LinearSolver` keeps
    a lagged LU factorization: a step first tries 5 refinement sweeps on
    it, which absorb a changed dt; if they stall, the step matrix is
    refactored and gets 1 sweep, and if that fails too, SolveFailure is
    raised with the step number. Every accepted step has relative residual
    <= tol. Snapshots are kept every `store_every` steps (0 keeps only the
    endpoints) plus at the grid points nearest `snapshot_times`.

    rho_inf, when given, is a pointwise density used for the per-step L1/KL
    diagnostics. With renormalize=True the initial coefficients are scaled
    to unit mass; otherwise the interpolation deficit is only recorded.
    """
    drift = fem.as_vector_field(space, grad_V)
    mass_vec = fem.integration_vector(space)
    rho = np.array(rho0.coeffs, dtype=float)

    mass0_raw = float(mass_vec @ rho)
    mass_deficit = abs(mass0_raw - 1.0)
    if renormalize:
        if mass0_raw <= 0:
            raise SolveFailure("initial density has nonpositive mass")
        rho /= mass0_raw

    M = fem.assemble_mass(space)
    L = fem.assemble_fp_form(space, drift)
    P, Q = M.data, L.data
    if supg:
        st, ss = fem.assemble_supg(space, drift)
        P = P + st.data
        Q = Q + ss.data

    def step_matrix(dt, sign):
        data = P + sign * 0.5 * dt * Q
        return sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)

    recorder = _MetricRecorder(space, rho_inf) if rho_inf is not None else None

    K = grid.K
    n = space.n_dofs
    diag = {
        "k": np.arange(K + 1),
        "t": grid.times.copy(),
        "mass": np.full(K + 1, np.nan),
        "l1_error": np.full(K + 1, np.nan),
        "kl": np.full(K + 1, np.nan),
        "min_nodal": np.full(K + 1, np.nan),
        "kl_clipped": np.zeros(K + 1, dtype=np.int64),
    }

    store_set = set()
    if store_every and store_every > 0:
        store_set.update(range(0, K + 1, int(store_every)))
    store_set.update((0, K))
    for t_req in snapshot_times or ():
        store_set.add(grid.nearest_index(t_req))
    ks = sorted(store_set)
    snapshots = np.empty((len(ks), n))
    store_row = {k: i for i, k in enumerate(ks)}

    def record(k, coeffs):
        diag["mass"][k] = mass_vec @ coeffs
        diag["min_nodal"][k] = coeffs.min()
        if recorder is not None:
            l1, kl, clipped = recorder.metrics(coeffs)
            diag["l1_error"][k] = l1
            diag["kl"][k] = kl
            diag["kl_clipped"][k] = clipped
        if k in store_row:
            snapshots[store_row[k]] = coeffs

    record(0, rho)

    solver = None
    for k in range(K):
        A_plus = step_matrix(grid.dt(k), +1.0)
        rhs = step_matrix(grid.dt(k), -1.0) @ rho
        try:
            if solver is None:
                solver = fem.LinearSolver(A_plus, tol=tol)
            rho, reached = solver.refine(A_plus, rhs, sweeps=5)
            if not reached:
                # refinement stalled: the lagged factorization drifted too far
                solver.factor(A_plus)
                rho = solver.solve(A_plus, rhs, sweeps=1)
        except SolveFailure as exc:
            exc.step = k
            raise
        if not np.all(np.isfinite(rho)):
            raise SolveFailure(f"non-finite density at step {k + 1}", step=k + 1)
        record(k + 1, rho)

    return DensityTrajectory(space, grid, ks, snapshots, diag, mass_deficit)


# ---------------------------------------------------------------------------
# reporting


def diagnostics_report(traj, rho_inf=None):
    """Per-step diagnostic table as a dict of aligned arrays.

    Metrics recorded during the solve are reused; otherwise they are
    recomputed against rho_inf, which requires every step to be stored.
    """
    diag = traj.diagnostics
    have_metrics = np.all(np.isfinite(diag["l1_error"]))
    if have_metrics:
        return {k: diag[k].copy() for k in
                ("k", "t", "mass", "l1_error", "kl", "min_nodal")}
    if rho_inf is None:
        raise ValueError("metrics were not recorded; pass rho_inf")
    if len(traj.ks) != traj.grid.K + 1:
        raise ValueError("recomputing metrics requires every step stored")
    rec = _MetricRecorder(traj.space, rho_inf)
    l1 = np.empty(traj.grid.K + 1)
    kl = np.empty(traj.grid.K + 1)
    for i, k in enumerate(traj.ks):
        l1[k], kl[k], _ = rec.metrics(traj.snapshots[i])
    out = {key: diag[key].copy() for key in ("k", "t", "mass", "min_nodal")}
    out["l1_error"] = l1
    out["kl"] = kl
    return {k: out[k] for k in ("k", "t", "mass", "l1_error", "kl", "min_nodal")}


def write_diagnostics_csv(table, path):
    """CSV with header k,t,mass,l1_error,kl,min_nodal."""
    cols = ("k", "t", "mass", "l1_error", "kl", "min_nodal")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(cols)
        for i in range(len(table["k"])):
            writer.writerow([
                int(table["k"][i]),
                repr(float(table["t"][i])),
                repr(float(table["mass"][i])),
                repr(float(table["l1_error"][i])),
                repr(float(table["kl"][i])),
                repr(float(table["min_nodal"][i])),
            ])
