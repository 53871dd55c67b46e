"""Boundary-distance fields, biharmonic smoothing and the repulsive potential.

The smoother is the C0 interior-penalty bilinear form

    a(w, v) = sum_K int_K (lap w lap v + (1/delta) w v)
            + sum_F int_F (beta_F [grad w][grad v] + (1/beta_F) {lap w}{lap v})

with beta_F = sigma_beta * kappa^2 / |F| and jumps/averages taken across
interior facets. Note the facet terms are the penalty plus a least-squares
average coupling; the consistency cross terms {lap w}[grad v] of the
standard symmetric C0-IP discretization are deliberately absent here.
Boundary values are imposed strongly. The facet terms of every interior
facet come from one batched kernel over the mesh edge table (`_facet_jumps`),
which also gives `gradient_jump_seminorm` its jumps.
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


def _facet_jumps(space, n_q=3):
    """Jumps and averages of every basis function on every interior facet.

    Each interior facet F pairs its two owners from the mesh edge table: the
    side listed first is "plus", and the unit normal points out of it. The
    2*ndl basis functions of a facet are those of plus then those of minus,
    so a dof of both sides appears twice; sums over the two copies give the
    jump and average of that dof's basis function. Returns
      ds    : (F, Q) Gauss weights on the facet times its length
      dofs  : (F, 2*ndl) the concatenated dofs of plus and minus
      jump  : (F, Q, 2*ndl) [grad phi . n] at the Gauss points
      avg   : (F, 2*ndl) {lap phi}, constant on the facet
    """
    mesh = space.mesh
    owners = mesh.edge_sides[mesh.edge_sides[:, 1] >= 0]  # (F, 2)
    tri, side = owners // 3, owners % 3
    nf = len(tri)
    # plus walks its side from local vertex side+1 to side+2; minus walks
    # the same edge the other way, from its local vertex side+2 to side+1
    start = (side + [[1, 2]]) % 3
    end = (side + [[2, 1]]) % 3
    pa, pb = mesh.vertices[mesh.triangles[tri[:, 0], [start[:, 0], end[:, 0]]]]
    length = np.linalg.norm(pb - pa, axis=1)
    # the right normal of plus's walk points out of plus
    normal = np.column_stack([pb[:, 1] - pa[:, 1], pa[:, 0] - pb[:, 0]])
    normal /= length[:, None]

    s, wq = fem.edge_quadrature(n_q)
    nq, ndl = len(s), space.ndof_local
    lam = np.zeros((nf, 2, nq, 3))
    f, k = np.arange(nf)[:, None], np.arange(2)[None, :]
    lam[f, k, :, start] = 1.0 - s
    lam[f, k, :, end] = s
    dn = fem.shape_grads_bary(space.degree, lam.reshape(-1, 3))
    dn = dn.reshape(nf, 2, nq, ndl, 3)
    # normal derivative of each barycentric coordinate on either side
    dlam = np.einsum("fkid,fd->fki", space.grad_lambda[tri], normal)
    gn = np.einsum("fkqni,fki->fkqn", dn, dlam)
    gn[:, 1] *= -1.0
    jump = gn.transpose(0, 2, 1, 3).reshape(nf, nq, 2 * ndl)
    avg = 0.5 * space.shape_laplacians()[tri].reshape(nf, 2 * ndl)
    dofs = space.conn[tri].reshape(nf, 2 * ndl)
    return length[:, None] * wq, dofs, jump, avg


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

    # facet blocks: beta_F [grad w][grad v] + (1/beta_F) {lap w}{lap v}
    ds, dofs, jump, avg = _facet_jumps(space)
    length = ds.sum(axis=1)
    beta = params.sigma_beta * kappa**2 / length
    blk = np.einsum("f,fq,fqi,fqj->fij", beta, ds, jump, jump)
    blk += np.einsum("f,fi,fj->fij", length / beta, avg, avg)
    n = dofs.shape[1]
    F = sp.coo_matrix(
        (blk.ravel(), (np.repeat(dofs, n, axis=1).ravel(),
                       np.tile(dofs, (1, n)).ravel())),
        shape=A.shape,
    )
    A = A + F.tocsr()  # the duplicates of a dof of both sides sum
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
    ds, dofs, jump, _ = _facet_jumps(field.space)
    gn = np.einsum("fqn,fn->fq", jump, field.coeffs[dofs])
    return float(np.sum(ds * gn**2))


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
