"""Lagrange P1/P2 finite elements on triangles.

Provides spaces, fields, quadrature, assembly of the mass / Fokker-Planck /
SUPG forms, point evaluation and sparse linear solves. All bilinear forms are
assembled with symmetric Gauss rules on the reference triangle; physical
gradients come from the constant per-element barycentric gradients. The P2
edge dofs and the boundary dofs are read from the mesh edge table.

Every form of a space is a `csr_matrix` on the space's one element pattern
(`FeSpace.pattern`), so forms of the same space add by adding their `data`.
All sparse solves go through `LinearSolver`: one LU factorization, reused
for solves verified to a relative residual by iterative refinement. Every
factorization uses a minimum-degree ordering on A + A^T with threshold
pivoting, and every returned solution has its relative residual checked,
the last refinement sweep's included.
"""

from __future__ import annotations

import struct
import json

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import mesh as meshmod
from .errors import InterpolationFailure, SolveFailure, UnsupportedDegree

# ---------------------------------------------------------------------------
# quadrature on the reference triangle (barycentric points, weights sum to 1)

_QUAD_RULES = {}


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _build_rules():
    third = 1.0 / 3.0
    _QUAD_RULES[1] = (np.array([[third, third, third]]), np.array([1.0]))

    pts = _orbit3(1.0 / 6.0)
    _QUAD_RULES[2] = (np.array(pts), np.full(3, third))

    # Dunavant degree 4, 6 points
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = _orbit3(a1) + _orbit3(a2)
    _QUAD_RULES[4] = (np.array(pts), np.array([w1] * 3 + [w2] * 3))

    # Dunavant degree 5, 7 points
    pts = [(third, third, third)]
    pts += _orbit3(0.470142064105115)
    pts += _orbit3(0.101286507323456)
    w = [0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3
    _QUAD_RULES[5] = (np.array(pts), np.array(w))

    # Dunavant degree 6, 12 points
    pts = _orbit3(0.249286745170910) + _orbit3(0.063089014491502)
    pts += _orbit6(0.310352451033785, 0.053145049844816)
    w = [0.116786275726379] * 3 + [0.050844906370207] * 3
    w += [0.082851075618374] * 6
    _QUAD_RULES[6] = (np.array(pts), np.array(w))


_build_rules()


def triangle_quadrature(degree):
    """Barycentric points and weights of a rule exact to `degree` (weights sum 1)."""
    for d in sorted(_QUAD_RULES):
        if d >= degree:
            return _QUAD_RULES[d]
    raise ValueError(f"no quadrature rule of degree {degree}")


def edge_quadrature(n=3):
    """Gauss-Legendre points/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# reference shape functions (arguments are barycentric coordinates)


def shape_values(degree, lam):
    lam = np.atleast_2d(lam)
    if degree == 1:
        return lam.copy()
    if degree == 2:
        l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
        return np.column_stack([
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
        ])
    raise UnsupportedDegree(f"degree {degree}")


def shape_grads_bary(degree, lam):
    """dN/d(lambda): shape (Q, ndof_local, 3)."""
    lam = np.atleast_2d(lam)
    q = len(lam)
    if degree == 1:
        return np.broadcast_to(np.eye(3), (q, 3, 3)).copy()
    if degree == 2:
        d = np.zeros((q, 6, 3))
        for k in range(3):
            d[:, k, k] = 4 * lam[:, k] - 1
        for n, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)], start=3):
            d[:, n, i] = 4 * lam[:, j]
            d[:, n, j] = 4 * lam[:, i]
        return d
    raise UnsupportedDegree(f"degree {degree}")


def shape_hessians_bary(degree):
    """d2N/d(lambda)2, constant: shape (ndof_local, 3, 3)."""
    if degree == 1:
        return np.zeros((3, 3, 3))
    if degree == 2:
        h = np.zeros((6, 3, 3))
        for k in range(3):
            h[k, k, k] = 4.0
        for n, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)], start=3):
            h[n, i, j] = 4.0
            h[n, j, i] = 4.0
        return h
    raise UnsupportedDegree(f"degree {degree}")


# ---------------------------------------------------------------------------
# spaces and fields


class FeSpace:
    """Scalar Lagrange space of degree 1 or 2 on a TriangleMesh."""

    def __init__(self, mesh, degree):
        if degree not in (1, 2):
            raise UnsupportedDegree(f"degree must be 1 or 2, got {degree}")
        self.mesh = mesh
        self.degree = degree

        tris = mesh.triangles
        nv = mesh.num_vertices
        if degree == 1:
            self.conn = tris.copy()
            self.dof_coords = mesh.vertices.copy()
        else:
            # midpoint dofs 3, 4, 5 sit on the sides (0, 1), (1, 2), (2, 0),
            # which the mesh numbers as the sides opposite vertices 2, 0, 1
            self.edges = mesh.edges
            self.conn = np.hstack([tris, nv + mesh.side_edges[:, [2, 0, 1]]])
            midpoints = 0.5 * (
                mesh.vertices[self.edges[:, 0]] + mesh.vertices[self.edges[:, 1]]
            )
            self.dof_coords = np.vstack([mesh.vertices, midpoints])
        self.n_dofs = len(self.dof_coords)

        # constant per-element geometry
        p = mesh.vertices[tris]
        self.areas = mesh.areas
        gl = np.empty((len(tris), 3, 2))
        twice_area = 2.0 * self.areas
        for i in range(3):
            b, c = p[:, (i + 1) % 3], p[:, (i + 2) % 3]
            gl[:, i, 0] = (b[:, 1] - c[:, 1]) / twice_area
            gl[:, i, 1] = (c[:, 0] - b[:, 0]) / twice_area
        self.grad_lambda = gl
        self.diameters = mesh.triangle_diameters()
        self._cache = {}

    @property
    def ndof_local(self):
        return 3 if self.degree == 1 else 6

    # --- cached reference/physical data ---------------------------------

    def quad(self, degree):
        key = ("quad", degree)
        if key not in self._cache:
            lam, w = triangle_quadrature(degree)
            pts = np.einsum("qi,eid->eqd", lam, self.mesh.vertices[self.mesh.triangles])
            n = shape_values(self.degree, lam)
            dn = shape_grads_bary(self.degree, lam)
            self._cache[key] = (lam, w, pts, n, dn)
        return self._cache[key]

    def phys_grads(self, degree):
        """Physical shape gradients at the quadrature points: (E, Q, ndl, 2)."""
        key = ("pgrad", degree)
        if key not in self._cache:
            _, _, _, _, dn = self.quad(degree)
            self._cache[key] = np.einsum("qni,eid->eqnd", dn, self.grad_lambda)
        return self._cache[key]

    def pattern(self):
        """The element CSR pattern (indptr, indices) and the scatter index.

        The pattern holds every (i, j) pair of dofs that share an element,
        explicit zeros included, with sorted column indices. scatter[e*ndl*ndl
        + a*ndl + b] is the slot of local entry (a, b) of element e. The index
        arrays are shared by every matrix assembled on the space, so they are
        read-only.
        """
        key = "pattern"
        if key not in self._cache:
            conn = self.conn
            ndl = conn.shape[1]
            n = self.n_dofs
            rows = np.repeat(conn, ndl, axis=1).ravel()
            cols = np.tile(conn, (1, ndl)).ravel()
            keys, scatter = np.unique(rows * n + cols, return_inverse=True)
            indices = (keys % n).astype(np.int32)
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
            indices.flags.writeable = False
            indptr.flags.writeable = False
            self._cache[key] = (indptr, indices, scatter)
        return self._cache[key]

    def shape_laplacians(self):
        """Per-element Laplacian of each shape function (constant): (E, ndl)."""
        key = "lap"
        if key not in self._cache:
            h = shape_hessians_bary(self.degree)
            gg = np.einsum("eia,eja->eij", self.grad_lambda, self.grad_lambda)
            self._cache[key] = np.einsum("nij,eij->en", h, gg)
        return self._cache[key]

    def boundary_dofs(self):
        """Sorted indices of all dofs sitting on the boundary."""
        key = "bdofs"
        if key not in self._cache:
            bverts = np.unique(self.mesh.boundary_edges)
            if self.degree == 1:
                dofs = bverts
            else:
                bedges = np.where(self.mesh.edge_sides[:, 1] < 0)[0]
                dofs = np.concatenate([bverts, self.mesh.num_vertices + bedges])
            self._cache[key] = np.sort(dofs)
        return self._cache[key]


def build_space(mesh, degree):
    """Create the Lagrange space of the given degree on the mesh."""
    return FeSpace(mesh, degree)


class FeField:
    """Coefficient vector over an FeSpace (nodal Lagrange basis)."""

    def __init__(self, space, coeffs=None):
        self.space = space
        if coeffs is None:
            coeffs = np.zeros(space.n_dofs)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.n_dofs,):
            raise ValueError(
                f"coefficient vector has length {coeffs.shape}, "
                f"space has {space.n_dofs} dofs"
            )
        self.coeffs = coeffs

    def copy(self):
        return FeField(self.space, self.coeffs.copy())


def interpolate(space, f):
    """Nodal interpolation: coefficients are f at the dof coordinates."""
    pts = space.dof_coords
    try:
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape != (len(pts),):
            raise TypeError
    except TypeError:
        vals = np.array([f(p) for p in pts], dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InterpolationFailure(
            f"function not finite at dof {i} located at {pts[i].tolist()}"
        )
    return FeField(space, vals)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(field, loc):
    """Value of the field at a located point."""
    if isinstance(loc, meshmod.OutsideDomain):
        raise ValueError("cannot evaluate a field outside the domain")
    n = shape_values(field.space.degree, loc.bary)[0]
    return float(n @ field.coeffs[field.space.conn[loc.triangle]])


def evaluate_gradient(field, loc):
    """Gradient 2-vector of the field at a located point."""
    if isinstance(loc, meshmod.OutsideDomain):
        raise ValueError("cannot evaluate a field outside the domain")
    dn = shape_grads_bary(field.space.degree, loc.bary)[0]  # (ndl, 3)
    coef = field.coeffs[field.space.conn[loc.triangle]]
    return coef @ dn @ field.space.grad_lambda[loc.triangle]


def values_at(field, tri, bary):
    """Vectorized field values at located points (tri (n,), bary (n,3))."""
    n = shape_values(field.space.degree, bary)  # (n, ndl)
    return np.einsum("ni,ni->n", n, field.coeffs[field.space.conn[tri]])


def gradients_at(field, tri, bary):
    """Vectorized field gradients at located points: (n, 2)."""
    dn = shape_grads_bary(field.space.degree, bary)  # (n, ndl, 3)
    gl = field.space.grad_lambda[tri]  # (n, 3, 2)
    coef = field.coeffs[field.space.conn[tri]]  # (n, ndl)
    return np.einsum("nk,nki,nid->nd", coef, dn, gl)


def values_on_elements(field, lam):
    """Field values at reference points lam (Q,3) on every element: (E, Q)."""
    n = shape_values(field.space.degree, lam)
    return field.coeffs[field.space.conn] @ n.T


def integrate(field):
    """Integral of the field over the mesh (exact for the field's degree)."""
    lam, w = triangle_quadrature(field.space.degree)
    vals = values_on_elements(field, lam)
    return float(np.einsum("e,eq,q->", field.space.areas, vals, w))


def integration_vector(space):
    """Vector m with m @ coeffs = integral of the field (row sums of mass)."""
    lam, w = triangle_quadrature(space.degree)
    n = shape_values(space.degree, lam)
    local = space.areas[:, None] * (w @ n)[None, :]
    m = np.zeros(space.n_dofs)
    np.add.at(m, space.conn, local)
    return m


# ---------------------------------------------------------------------------
# drift fields


class VectorField:
    """Piecewise-polynomial 2D vector field over an FeSpace.

    Two representations are supported: a pair of nodal component fields, and
    the elementwise gradient of a scalar field (discontinuous across element
    interfaces, matching a drift obtained by differentiating an interpolant).
    """

    def __init__(self, space, components=None, potential=None, sign=1.0):
        self.space = space
        self.components = components
        self.potential = potential
        self.sign = sign
        if (components is None) == (potential is None):
            raise ValueError("give either components or potential")

    @classmethod
    def from_components(cls, fx, fy):
        if fx.space is not fy.space:
            raise ValueError("component fields must share a space")
        return cls(fx.space, components=(fx, fy))

    @classmethod
    def from_gradient(cls, field, sign=1.0):
        """The elementwise gradient of `field`, scaled by `sign`."""
        return cls(field.space, potential=field, sign=sign)

    @classmethod
    def zero(cls, space):
        return cls.from_components(FeField(space), FeField(space))

    def values(self, lam):
        """(E, Q, 2) values at reference points lam on every element."""
        space = self.space
        if self.components is not None:
            vx = values_on_elements(self.components[0], lam)
            vy = values_on_elements(self.components[1], lam)
            return np.stack([vx, vy], axis=-1)
        dn = shape_grads_bary(space.degree, lam)  # (Q, ndl, 3)
        coef = self.potential.coeffs[space.conn]  # (E, ndl)
        out = np.einsum("en,qni,eid->eqd", coef, dn, space.grad_lambda)
        return self.sign * out

    def divergence(self, lam):
        """(E, Q) divergence at reference points (constant per element if
        the field is the gradient of a P2 scalar)."""
        space = self.space
        q = len(np.atleast_2d(lam))
        if self.potential is not None:
            lap = space.shape_laplacians()  # (E, ndl)
            coef = self.potential.coeffs[space.conn]
            div = self.sign * np.einsum("en,en->e", coef, lap)
            return np.repeat(div[:, None], q, axis=1)
        dn = shape_grads_bary(space.degree, lam)
        gx = np.einsum("en,qni,eid->eqd", self.components[0].coeffs[space.conn],
                       dn, space.grad_lambda)
        gy = np.einsum("en,qni,eid->eqd", self.components[1].coeffs[space.conn],
                       dn, space.grad_lambda)
        return gx[..., 0] + gy[..., 1]

    def at(self, tri, bary):
        """(n, 2) values at located points."""
        bary = np.atleast_2d(bary)
        tri = np.atleast_1d(tri)
        if self.components is not None:
            vx = values_at(self.components[0], tri, bary)
            vy = values_at(self.components[1], tri, bary)
            return np.column_stack([vx, vy])
        return self.sign * gradients_at(self.potential, tri, bary)


def as_vector_field(space, grad_V):
    """Normalize drift arguments: VectorField, (fx, fy) pair, or None."""
    if grad_V is None:
        return VectorField.zero(space)
    if isinstance(grad_V, VectorField):
        return grad_V
    if isinstance(grad_V, (tuple, list)) and len(grad_V) == 2:
        return VectorField.from_components(grad_V[0], grad_V[1])
    raise TypeError("grad_V must be a VectorField or a pair of FeFields")


# ---------------------------------------------------------------------------
# operators


def _assemble(space, local):
    """Sum (E, ndl, ndl) local matrices into a CSR matrix on the space's pattern."""
    indptr, indices, scatter = space.pattern()
    data = np.bincount(scatter, weights=local.ravel(), minlength=len(indices))
    return sp.csr_matrix((data, indices, indptr), shape=(space.n_dofs,) * 2)


def assemble_mass(space):
    """Mass matrix, symmetric positive definite (bitwise symmetric)."""
    key = "mass"
    if key not in space._cache:
        lam, w, _, n, _ = space.quad(2 * space.degree)
        ref = np.einsum("q,qi,qj->ij", w, n, n)
        # a bitwise symmetric reference matrix gives a bitwise symmetric
        # global one: both (i, j) and (j, i) sum the same terms in element order
        ref = 0.5 * (ref + ref.T)
        local = space.areas[:, None, None] * ref[None, :, :]
        space._cache[key] = _assemble(space, local)
    return space._cache[key]


def assemble_fp_form(space, grad_V):
    """Operator L with (L rho) . v = integral (grad rho + rho grad V) . grad v."""
    drift = as_vector_field(space, grad_V)
    if drift.space is not space:
        raise ValueError("grad_V lives on a different space")
    deg = 3 * space.degree - 1
    lam, w, _, n, _ = space.quad(deg)
    g = space.phys_grads(deg)  # (E, Q, ndl, 2)
    b = drift.values(lam)  # (E, Q, 2) equals grad V here

    stiff = np.einsum("q,eqid,eqjd->eij", w, g, g)
    bdotg = np.einsum("eqd,eqid->eqi", b, g)  # (grad V . grad test_i)
    driftm = np.einsum("q,qj,eqi->eij", w, n, bdotg)
    local = space.areas[:, None, None] * (stiff + driftm)
    return _assemble(space, local)


def _xi(pe):
    """Upwind function coth(Pe) - 1/Pe, series-protected near zero."""
    pe = np.asarray(pe, dtype=float)
    out = np.empty_like(pe)
    small = pe < 0.1
    ps = pe[small]
    out[small] = ps / 3.0 - ps**3 / 45.0
    pl = pe[~small]
    out[~small] = 1.0 / np.tanh(pl) - 1.0 / pl
    return out


def assemble_supg(space, grad_V):
    """SUPG stabilization pair (S_time, S_space).

    Test functions are perturbed by tau_K (b . grad v) with b = -grad V and
    the Brooks-Hughes coth rule for tau_K (unit diffusion, element-mean drift
    magnitude). S_time multiplies the discrete time derivative, S_space the
    advection-diffusion block.
    """
    drift = as_vector_field(space, grad_V)
    deg = 2 * space.degree + 1
    lam, w, _, n, _ = space.quad(deg)
    g = space.phys_grads(deg)
    b = -drift.values(lam)  # advection velocity
    divb = -drift.divergence(lam)
    lap = space.shape_laplacians()  # (E, ndl)

    bnorm = np.linalg.norm(b, axis=2)  # (E, Q)
    mean_b = bnorm @ w  # area-weighted element mean
    h = space.diameters
    tau = np.zeros_like(mean_b)
    act = mean_b >= 1e-12
    pe = 0.5 * mean_b[act] * h[act]
    tau[act] = 0.5 * h[act] / mean_b[act] * _xi(pe)

    bdotg = np.einsum("eqd,eqid->eqi", b, g)  # b . grad(phi_i)
    # time block: integral phi_j (b . grad phi_i)
    s_time = np.einsum("q,qj,eqi->eij", w, n, bdotg)
    # space block: strong residual of -lap + div(rho b) against b . grad phi_i
    strong = (-lap[:, None, :] + bdotg + n[None, :, :] * divb[:, :, None])
    s_space = np.einsum("q,eqj,eqi->eij", w, strong, bdotg)

    scale = (tau * space.areas)[:, None, None]
    return _assemble(space, scale * s_time), _assemble(space, scale * s_space)


# ---------------------------------------------------------------------------
# linear solves


class LinearSolver:
    """An LU factorization reused for solves verified by iterative refinement.

    Every factorization orders the columns by minimum degree on the pattern
    of A + A^T and pivots on the diagonal unless an off-diagonal entry of
    its column is more than 10 times larger (SuperLU threshold pivoting).
    The forms of this module are structurally symmetric, so this roughly
    halves the L+U fill of the default COLAMD ordering. The threshold is
    part of the setting: with full partial pivoting this ordering more than
    doubles the fill of the symmetric smoother matrix. Weaker pivoting
    cannot return a wrong number, because every solve is verified: the
    relative residual of the returned x is checked against `tol`.

    The factor may be of a nearby matrix: `refine` and `solve` take the
    matrix to solve with, and the refinement sweeps against it absorb the
    difference (Crank-Nicolson steps reuse one factor across a changing dt).

    With equilibrate=True the matrix is symmetrically scaled to unit
    diagonal before factorization, which keeps wildly varying row scales
    (e.g. an eps-mass block next to an O(1) stiffness block) solvable in
    double precision. The solved equation is unchanged.

    `factorizations` and `lu_solves` count the work done; `residual` is the
    relative residual of the x that the last `refine` returned.
    """

    def __init__(self, A, tol=1e-10, equilibrate=False):
        self.tol = tol
        self.equilibrate = equilibrate
        self.factorizations = 0
        self.lu_solves = 0
        self.residual = np.nan
        self.factor(A)

    def factor(self, A):
        """Factor A, replacing the current factor; SolveFailure if singular."""
        n, m = A.shape
        if n != m:
            raise ValueError("matrix must be square")
        self._scale = None
        if self.equilibrate:
            d = np.abs(A.diagonal())
            d[d == 0] = 1.0
            self._scale = 1.0 / np.sqrt(d)
            D = sp.diags(self._scale)
            A = D @ A @ D
        self.factorizations += 1
        try:
            self._lu = spla.splu(
                sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.1, options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise SolveFailure(f"factorization failed: {exc}") from exc

    def _apply_lu(self, r):
        self.lu_solves += 1
        if self._scale is None:
            return self._lu.solve(r)
        return self._scale * self._lu.solve(self._scale * r)

    def refine(self, A, b, sweeps):
        """LU solve of A x = b, then up to `sweeps` refinement sweeps.

        Returns (x, True) as soon as ||b - A x|| <= tol ||b||, and the x of
        the last sweep with False if it still misses. The last sweep is
        checked like the others.
        """
        bnorm = np.linalg.norm(b)
        bnorm = bnorm if bnorm > 0 else 1.0
        target = self.tol * bnorm
        x = self._apply_lu(b)
        for sweep in range(sweeps + 1):
            r = b - A @ x
            rnorm = np.linalg.norm(r)
            self.residual = float(rnorm / bnorm)
            if rnorm <= target:
                return x, True
            if sweep < sweeps:
                x = x + self._apply_lu(r)
        return x, False

    def solve(self, A, b, sweeps=8):
        """`refine` that raises SolveFailure if the last sweep misses `tol`.

        The sweeps recover digits lost to ill-conditioning (the
        eps-regularized transport potential reaches condition numbers
        around 1e13, needing several sweeps).
        """
        x, reached = self.refine(A, np.asarray(b, dtype=float), sweeps)
        if not reached:
            raise SolveFailure(
                f"linear solve reached relative residual {self.residual:.3e} "
                f"(target {self.tol:.1e})", residual=self.residual,
            )
        return x


def solve_linear(A, b, tol=1e-10, equilibrate=False):
    """One-shot sparse solve with a verified relative residual <= tol."""
    A = sp.csr_matrix(A)
    return LinearSolver(A, tol=tol, equilibrate=equilibrate).solve(A, b)


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"FPFLD1\x00\x00"  # padded to 8 bytes; header totals 16 bytes


def save_field_binary(field, path):
    header = struct.pack("<8sII", _MAGIC[:8], field.space.degree, field.space.n_dofs)
    with open(path, "wb") as f:
        f.write(header)
        f.write(field.coeffs.astype("<f8").tobytes())


def load_field_binary(path, space):
    with open(path, "rb") as f:
        header = f.read(16)
        magic, degree, length = struct.unpack("<8sII", header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field file")
        if degree != space.degree or length != space.n_dofs:
            raise ValueError(
                f"{path}: field has degree {degree} / length {length}, "
                f"space expects {space.degree} / {space.n_dofs}"
            )
        coeffs = np.frombuffer(f.read(8 * length), dtype="<f8")
    return FeField(space, coeffs.copy())


def save_field_json(field, path, mesh_path):
    doc = {
        "space": {"degree": field.space.degree, "mesh": str(mesh_path)},
        "coeffs": field.coeffs.tolist(),
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_field_json(path, space=None):
    with open(path) as f:
        doc = json.load(f)
    if space is None:
        m = meshmod.load_mesh_json(doc["space"]["mesh"])
        space = FeSpace(m, doc["space"]["degree"])
    if space.degree != doc["space"]["degree"]:
        raise ValueError("degree mismatch between file and space")
    return FeField(space, np.array(doc["coeffs"], dtype=float))
