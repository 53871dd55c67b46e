"""Boundary-distance fields, biharmonic smoothing and the repulsive potential.

The smoother is the C0 interior-penalty bilinear form

    a(w, v) = sum_K int_K (lap w lap v + (1/delta) w v)
            + sum_F int_F (beta_F [grad w][grad v] + (1/beta_F) {lap w}{lap v})

with beta_F = sigma_beta * kappa^2 / |F| and jumps/averages taken across
interior facets. Note the facet terms are the penalty plus a least-squares
average coupling; the consistency cross terms {lap w}[grad v] of the
standard symmetric C0-IP discretization are deliberately absent here.
Boundary values are imposed strongly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import density, fem, mesh as meshmod
from .errors import InvalidDistanceField, UnsupportedDegree


@dataclass
class SmootherParams:
    """Parameters of the distance smoother."""

    delta: float = 1e-2
    tol: float = 1e-2
    sigma_beta: float = 10.0
    kappa: int | None = None  # defaults to the space degree

    def __post_init__(self):
        if self.delta <= 0 or self.tol <= 0 or self.sigma_beta <= 0:
            raise ValueError("delta, tol and sigma_beta must be positive")


def raw_distance_field(space, tol):
    """Nodal interpolant of max(dist(x, boundary), tol)."""
    d = meshmod.boundary_distances(space.mesh, space.dof_coords)
    return fem.FeField(space, np.maximum(d, tol))


def _facet_quadrature(space, facet, n_q=3):
    """Per-side shape data on one interior facet.

    Returns (ds_weights, dofs_union, jump_rows, avg_lap) where jump_rows has
    shape (Q, n_union) with the normal gradient jump of each union basis
    function at the edge quadrature points, and avg_lap the (constant)
    facet average of each basis Laplacian.
    """
    s, wq = fem.edge_quadrature(n_q)
    a, b = facet["verts"]
    e_plus, e_minus = facet["plus"], facet["minus"]
    normal = facet["normal"]
    length = facet["length"]

    dofs_plus = space.conn[e_plus]
    dofs_minus = space.conn[e_minus]
    union = np.unique(np.concatenate([dofs_plus, dofs_minus]))
    col = {d: i for i, d in enumerate(union)}

    lap = space.shape_laplacians()
    jump = np.zeros((len(s), len(union)))
    avg_lap = np.zeros(len(union))
    for elem, dofs, sign in ((e_plus, dofs_plus, 1.0), (e_minus, dofs_minus, -1.0)):
        lam = space.facet_lambda(elem, a, b, s)
        dn = fem.shape_grads_bary(space.degree, lam)  # (Q, ndl, 3)
        grads = np.einsum("qni,id->qnd", dn, space.grad_lambda[elem])
        gn = grads @ normal  # (Q, ndl)
        for loc, d in enumerate(dofs):
            jump[:, col[d]] += sign * gn[:, loc]
            avg_lap[col[d]] += 0.5 * lap[elem, loc]
    return length * wq, union, jump, avg_lap


def assemble_smoother(space, params):
    """Assemble the full C0-IP bilinear form a_delta (symmetric)."""
    if space.degree < 2:
        raise UnsupportedDegree(
            "the smoother needs degree >= 2 (element Laplacians vanish for P1)"
        )
    kappa = params.kappa if params.kappa is not None else space.degree

    # element block: int lap lap + (1/delta) int w v
    lap = space.shape_laplacians()  # (E, ndl)
    local = space.areas[:, None, None] * np.einsum("ei,ej->eij", lap, lap)
    A = fem._assemble(space, local)
    A.data += fem.assemble_mass(space).data / params.delta

    rows, cols, vals = [], [], []
    for facet in space.interior_facets():
        beta = params.sigma_beta * kappa**2 / facet["length"]
        ds, union, jump, avg_lap = _facet_quadrature(space, facet)
        blk = beta * np.einsum("q,qi,qj->ij", ds, jump, jump)
        blk += (ds.sum() / beta) * np.outer(avg_lap, avg_lap)
        nloc = len(union)
        rows.append(np.repeat(union, nloc))
        cols.append(np.tile(union, nloc))
        vals.append(blk.ravel())
    if rows:
        F = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=A.shape,
        )
        A = A + F.tocsr()
    A = 0.5 * (A + A.T)  # the form is symmetric; remove scatter noise
    return A.tocsr()


def smooth_distance(space, w, params):
    """Solve the smoothing problem a_delta(w_d, v) = (1/delta)(w, v).

    The boundary condition w_d = tol is imposed strongly on all boundary
    dofs by restricting the system to the interior unknowns.
    """
    A = assemble_smoother(space, params)
    rhs = fem.assemble_mass(space) @ w.coeffs / params.delta

    n = space.n_dofs
    bdofs = space.boundary_dofs()
    mask = np.zeros(n, dtype=bool)
    mask[bdofs] = True
    lift = np.where(mask, params.tol, 0.0)
    rhs = rhs - A @ lift

    keep = ~mask
    A_ii = A[keep][:, keep]
    x = np.array(lift)
    x[keep] = fem.solve_linear(A_ii, rhs[keep])
    x[mask] = params.tol
    return fem.FeField(space, x)


def gradient_jump_seminorm(field):
    """Sum over interior facets of the squared L2 norm of [grad field]."""
    space = field.space
    s, wq = fem.edge_quadrature(3)
    total = 0.0
    for facet in space.interior_facets():
        a, b = facet["verts"]
        normal = facet["normal"]
        jump = np.zeros(len(s))
        for elem, sign in ((facet["plus"], 1.0), (facet["minus"], -1.0)):
            lam = space.facet_lambda(elem, a, b, s)
            dn = fem.shape_grads_bary(space.degree, lam)
            grads = np.einsum("qni,id->qnd", dn, space.grad_lambda[elem])
            coef = field.coeffs[space.conn[elem]]
            jump += sign * (np.einsum("n,qnd->qd", coef, grads) @ normal)
        total += facet["length"] * float(wq @ jump**2)
    return total


def regularized_potential(g, w_delta, eps):
    """Potential V = -log(gmm density) + eps / w_delta and its drift field.

    The addition is nodal; the drift is the elementwise derivative of the
    interpolant of V, so the repulsive force is piecewise polynomial like
    the rest of the drift.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    space = w_delta.space
    if np.any(w_delta.coeffs <= 0):
        i = int(np.argmin(w_delta.coeffs))
        raise InvalidDistanceField(
            f"distance field is nonpositive at dof {i} "
            f"(value {w_delta.coeffs[i]:.3e})"
        )
    v_coeffs = -density.gmm_logpdf(g, space.dof_coords)
    if eps > 0:
        v_coeffs = v_coeffs + eps / w_delta.coeffs
    V = fem.FeField(space, v_coeffs)
    return V, fem.VectorField.from_gradient(V)
