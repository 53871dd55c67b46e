"""Gaussian mixture density estimation for 2D point clouds.

EM fitting with k-means++ seeding and additive covariance regularization,
AIC-based selection of the component count, log-domain density evaluation,
the analytic potential gradient and seeded sampling.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import CollapseFailure, InvalidFit

_LOG_2PI = np.log(2.0 * np.pi)
_COLLAPSE_WEIGHT = 1e-8


class Gmm:
    """Gaussian mixture in 2D with cached Cholesky factors.

    weights : (k,) nonnegative, summing to one
    means   : (k, 2)
    covs    : (k, 2, 2) symmetric positive definite
    """

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=float)
        self.means = np.asarray(means, dtype=float).reshape(-1, 2)
        self.covs = np.asarray(covs, dtype=float).reshape(-1, 2, 2)
        k = len(self.weights)
        if self.means.shape != (k, 2) or self.covs.shape != (k, 2, 2):
            raise InvalidFit("inconsistent mixture shapes")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise InvalidFit(f"weights sum to {self.weights.sum()!r}, not 1")
        # Cholesky certifies positive definiteness and feeds the evaluators
        self.chol = np.linalg.cholesky(self.covs)  # raises if not SPD
        logdet = 2.0 * np.log(self.chol[:, 0, 0] * self.chol[:, 1, 1])
        self.log_norm = -_LOG_2PI - 0.5 * logdet
        self.precisions = np.linalg.inv(self.covs)
        self._inv_chol = np.linalg.inv(self.chol)

    @property
    def k(self):
        return len(self.weights)


@dataclass
class FitReport:
    """Diagnostics of one EM fit."""

    loglik_trace: list = field(default_factory=list)
    aic: float = np.nan
    iterations: int = 0
    converged: bool = False
    seed: int = 0
    restarts: int = 0


def n_parameters(k):
    """Free parameters of a k-component 2D mixture: weights + means + covs."""
    return (k - 1) + k * (2 + 3)


def _component_logpdfs(g, x):
    """(n, k) matrix of per-component log densities."""
    x = np.atleast_2d(x)
    d = x[:, None, :] - g.means[None, :, :]  # (n, k, 2)
    # z = L^-1 d per component, then |z|^2 is the Mahalanobis norm
    z = np.einsum("kij,nkj->nki", g._inv_chol, d)
    maha = np.einsum("nki,nki->nk", z, z)
    return g.log_norm[None, :] - 0.5 * maha


def gmm_logpdf(g, x):
    """Log density of the mixture at x ((2,) point or (n, 2) array)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    lp = logsumexp(_component_logpdfs(g, x) + np.log(g.weights)[None, :], axis=1)
    return float(lp[0]) if single else lp


def gmm_pdf(g, x):
    """Density of the mixture at x; exp of gmm_logpdf."""
    return np.exp(gmm_logpdf(g, x))


def gmm_grad_potential(g, x):
    """Gradient of V = -log(density): responsibility-weighted sum of
    precision @ (x - mean)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    lp = _component_logpdfs(g, pts) + np.log(g.weights)[None, :]
    lp -= logsumexp(lp, axis=1, keepdims=True)
    resp = np.exp(lp)  # (n, k)
    d = pts[:, None, :] - g.means[None, :, :]
    pulls = np.einsum("kij,nkj->nki", g.precisions, d)
    grad = np.einsum("nk,nki->ni", resp, pulls)
    return grad[0] if single else grad


def sample(g, n, seed):
    """n iid samples: categorical component draw then Cholesky transform."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.empty((0, 2))
    comp = rng.choice(g.k, size=n, p=g.weights)
    z = rng.standard_normal((n, 2))
    out = np.empty((n, 2))
    for j in range(g.k):
        m = comp == j
        out[m] = g.means[j] + z[m] @ g.chol[j].T
    return out


# ---------------------------------------------------------------------------
# EM fitting


def _kmeanspp_centers(points, k, rng):
    n = len(points)
    centers = [points[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            ((points[:, None, :] - np.array(centers)[None, :, :]) ** 2).sum(axis=2),
            axis=1,
        )
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        centers.append(points[rng.choice(n, p=d2 / total)])
    return np.array(centers)


def _init_params(points, k, cov_reg, rng):
    centers = _kmeanspp_centers(points, k, rng)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    weights = np.empty(k)
    means = np.empty((k, 2))
    covs = np.empty((k, 2, 2))
    base = np.cov(points.T, bias=True) + (cov_reg + 1e-6) * np.eye(2)
    for j in range(k):
        m = labels == j
        weights[j] = max(m.sum(), 1) / len(points)
        if m.sum() == 0:
            means[j] = centers[j]
            covs[j] = base
        else:
            means[j] = points[m].mean(axis=0)
            covs[j] = np.cov(points[m].T, bias=True) + (cov_reg + 1e-6) * np.eye(2)
    weights /= weights.sum()
    return weights, means, covs


def _em_once(points, k, cov_reg, seed, max_iter, tol):
    """One EM run; returns (model, trace, converged) or None on collapse.

    The returned model is always the one whose log-likelihood is trace[-1].
    """
    rng = np.random.default_rng(seed)
    n = len(points)
    try:
        g = Gmm(*_init_params(points, k, cov_reg, rng))
    except np.linalg.LinAlgError:
        return None  # degenerate initial covariance, caller restarts
    trace = []
    converged = False
    prev = g
    for _ in range(max_iter):
        lp = _component_logpdfs(g, points) + np.log(g.weights)[None, :]
        per_point = logsumexp(lp, axis=1)
        loglik = float(per_point.sum())
        if trace and loglik < trace[-1] - 1e-10 * abs(trace[-1]):
            # additive covariance regularization can lower the likelihood;
            # stop at the recorded peak, which is not a converged fit
            g = prev
            break
        trace.append(loglik)
        if len(trace) >= 2:
            rel = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1.0)
            if rel < tol:
                converged = True
                break
        resp = np.exp(lp - per_point[:, None])  # (n, k)
        nk = resp.sum(axis=0)
        if np.any(nk / n < _COLLAPSE_WEIGHT):
            return None  # collapsed component, caller restarts
        weights = nk / n
        means = (resp.T @ points) / nk[:, None]
        d = points[:, None, :] - means[None, :, :]
        covs = np.einsum("nk,nki,nkj->kij", resp, d, d) / nk[:, None, None]
        covs += cov_reg * np.eye(2)[None, :, :]
        prev = g
        try:
            g = Gmm(weights, means, covs)
        except np.linalg.LinAlgError:
            return None  # a component degenerated onto a point/line
    else:
        # iteration budget exhausted: discard the unevaluated M-step model
        g = prev
    return g, trace, converged


def em_fit(points, k, cov_reg=1e-2, seed=0, max_iter=500, tol=1e-8):
    """Fit a k-component mixture with EM.

    The M-step adds cov_reg * I to every covariance. Components whose weight
    collapses trigger a reseeded restart (up to 5); persistent collapse
    raises CollapseFailure. Returns (Gmm, FitReport).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if k < 1:
        raise InvalidFit("k must be at least 1")
    if len(points) < k:
        raise InvalidFit(f"k={k} exceeds the number of points ({len(points)})")

    for attempt in range(6):
        out = _em_once(points, k, cov_reg, seed + attempt, max_iter, tol)
        if out is not None:
            g, trace, converged = out
            report = FitReport(
                loglik_trace=trace,
                aic=2.0 * n_parameters(k) - 2.0 * trace[-1],
                iterations=len(trace),
                converged=converged,
                seed=seed + attempt,
                restarts=attempt,
            )
            return g, report
    raise CollapseFailure(
        f"component collapse persisted across {attempt + 1} seeds (k={k})"
    )


def select_by_aic(points, k_range=(1, 8), cov_reg=1e-2, seed=0, max_iter=500,
                  tol=1e-8):
    """Fit every k in the inclusive range, return the AIC minimizer.

    Ties break toward the smaller k. Deterministic for a fixed seed.
    """
    kmin, kmax = int(k_range[0]), int(k_range[-1])
    if kmin < 1 or kmax < kmin:
        raise InvalidFit(f"bad k range ({kmin}, {kmax})")
    best = None
    for k in range(kmin, kmax + 1):
        g, report = em_fit(points, k, cov_reg=cov_reg, seed=seed,
                           max_iter=max_iter, tol=tol)
        if best is None or report.aic < best[1].aic:
            best = (g, report)
    return best


# ---------------------------------------------------------------------------
# serialization


def gmm_to_json(g, path):
    doc = {
        "weights": g.weights.tolist(),
        "means": g.means.tolist(),
        "covs": g.covs.tolist(),
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def gmm_from_json(path):
    with open(path) as f:
        doc = json.load(f)
    return Gmm(doc["weights"], doc["means"], doc["covs"])


def load_points_csv(path):
    """Point cloud CSV with header x,y; one point per row."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["x", "y"]:
            raise ValueError(f"{path}: expected header 'x,y'")
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    return np.array(rows, dtype=float).reshape(-1, 2)


def save_points_csv(points, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "y"])
        for x, y in np.asarray(points, dtype=float).reshape(-1, 2):
            writer.writerow([repr(float(x)), repr(float(y))])
