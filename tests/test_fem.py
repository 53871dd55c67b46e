import numpy as np
import pytest
import sympy as sym

from fpreg import density, fem, mesh as meshmod
from fpreg.errors import InterpolationFailure, SolveFailure, UnsupportedDegree
from fpreg.fem import (
    FeField, VectorField, assemble_fp_form, assemble_mass, assemble_supg,
    build_space, evaluate, evaluate_gradient, integrate, interpolate,
    load_field_binary, load_field_json, save_field_binary, save_field_json,
    solve_linear,
)
from fpreg.mesh import TriangleMesh, generate_rect_with_hole, locate_point


@pytest.fixture(scope="module")
def square_mesh():
    # unit square split into two triangles
    return TriangleMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])


@pytest.fixture(scope="module")
def fine_square():
    return generate_rect_with_hole((0, 1), (0, 1), (0.5, 0.5), 0.0, 0.1)


@pytest.fixture(scope="module")
def desk_space():
    mesh = generate_rect_with_hole((-4, 4), (-4, 4), (0, 0), 0.5, 0.2)
    return build_space(mesh, 2)


class TestSpace:
    def test_two_triangle_counts(self, square_mesh):
        assert build_space(square_mesh, 1).n_dofs == 4
        assert build_space(square_mesh, 2).n_dofs == 9  # 4 vertices + 5 edges

    def test_desk_nhf_near_paper_value(self, desk_space):
        assert 6469 * 0.9 <= desk_space.n_dofs <= 6469 * 1.1

    def test_unsupported_degree(self, square_mesh):
        with pytest.raises(UnsupportedDegree):
            build_space(square_mesh, 3)

    def test_partition_of_unity(self, fine_square):
        for deg in (1, 2):
            sp = build_space(fine_square, deg)
            one = interpolate(sp, lambda p: np.ones(len(p)))
            assert abs(integrate(one) - 1.0) < 1e-10


class TestAssembly:
    def test_matches_coo_reference(self, fine_square):
        # the bincount into the cached pattern against scipy's COO sum: same
        # pattern, values equal up to summation order
        import scipy.sparse as sp_
        for deg in (1, 2):
            space = build_space(fine_square, deg)
            conn = space.conn
            ndl = conn.shape[1]
            local = np.random.default_rng(deg).normal(size=(len(conn), ndl, ndl))
            got = fem._assemble(space, local)
            ref = sp_.coo_matrix(
                (local.ravel(), (np.repeat(conn, ndl, axis=1).ravel(),
                                 np.tile(conn, (1, ndl)).ravel())),
                shape=got.shape,
            ).tocsr()
            ref.sum_duplicates()
            ref.sort_indices()
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.abs(got.data - ref.data).max() <= 1e-14

    def test_forms_share_one_read_only_pattern(self, fine_square):
        space = build_space(fine_square, 2)
        V = interpolate(space, lambda p: p[:, 0] ** 2)
        forms = [assemble_mass(space), assemble_fp_form(space, None),
                 *assemble_supg(space, VectorField.from_gradient(V))]
        for form in forms[1:]:
            assert np.array_equal(form.indices, forms[0].indices)
            assert np.array_equal(form.indptr, forms[0].indptr)
        with pytest.raises(ValueError):
            forms[0].indices[0] = 1


class TestMass:
    def test_total_mass_is_area(self, desk_space):
        m = assemble_mass(desk_space)
        area = desk_space.mesh.total_area()
        assert abs(m.sum() - area) < 1e-10

    def test_reference_triangle_p1(self):
        mesh = TriangleMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        sp = build_space(mesh, 1)
        got = assemble_mass(sp).toarray()
        area = 0.5
        want = area / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        assert np.abs(got - want).max() < 1e-15

    def test_exact_symmetry(self, desk_space):
        m = assemble_mass(desk_space)
        assert abs(m - m.T).max() == 0.0


class TestFpForm:
    def test_zero_drift_is_stiffness(self, fine_square):
        sp = build_space(fine_square, 2)
        L = assemble_fp_form(sp, None)
        assert abs(L - L.T).max() < 1e-12
        ones = np.ones(sp.n_dofs)
        assert np.abs(L @ ones).max() < 1e-10  # constants in the kernel

    def test_conservation_row(self, fine_square):
        sp = build_space(fine_square, 2)
        V = interpolate(sp, lambda p: p[:, 0] ** 2 + 0.3 * p[:, 1])
        L = assemble_fp_form(sp, VectorField.from_gradient(V))
        ones = np.ones(sp.n_dofs)
        assert np.abs(ones @ L).max() < 1e-9

    def test_single_triangle_against_sympy(self):
        # quadratic rho, linear V on one P2 triangle vs symbolic integration
        verts = [[0.0, 0.0], [1.0, 0.2], [0.3, 0.9]]
        mesh = TriangleMesh(verts, [[0, 1, 2]])
        sp = build_space(mesh, 2)

        def rho_fn(p):
            return 1.0 + p[:, 0] ** 2 + 0.5 * p[:, 0] * p[:, 1]

        def v_fn(p):
            return 0.7 * p[:, 0] - 0.4 * p[:, 1]

        rho = interpolate(sp, rho_fn)
        V = interpolate(sp, v_fn)
        L = assemble_fp_form(sp, VectorField.from_gradient(V))
        # action integrals against every test function, in local dof order
        got = (L @ rho.coeffs)[sp.conn[0]]

        x, y, l0, l1 = sym.symbols("x y l0 l1")
        a, b, c = [sym.Matrix(v) for v in verts]
        pt = a + l0 * (b - a) + l1 * (c - a)
        jac = sym.Matrix([[(b - a)[0], (c - a)[0]], [(b - a)[1], (c - a)[1]]])
        detj = jac.det()
        rho_s = 1 + x**2 + sym.Rational(1, 2) * x * y
        v_s = sym.Rational(7, 10) * x - sym.Rational(2, 5) * y
        lam = sym.symbols("lam0:3")
        # barycentric coordinates as affine functions of x, y
        A = sym.Matrix([[verts[i][0] for i in range(3)],
                        [verts[i][1] for i in range(3)],
                        [1, 1, 1]])
        coords = A.inv() * sym.Matrix([x, y, 1])
        shapes = []
        for i in range(3):
            shapes.append(coords[i] * (2 * coords[i] - 1))
        for (i, j) in ((0, 1), (1, 2), (2, 0)):
            shapes.append(4 * coords[i] * coords[j])
        grad = lambda f: sym.Matrix([sym.diff(f, x), sym.diff(f, y)])
        flux = grad(rho_s) + rho_s * grad(v_s)
        for n_loc, phi in enumerate(shapes):
            integrand = (flux.T * grad(phi))[0]
            integrand = integrand.subs({x: pt[0], y: pt[1]})
            val = sym.integrate(
                sym.integrate(integrand * detj, (l1, 0, 1 - l0)), (l0, 0, 1)
            )
            assert abs(got[n_loc] - float(val)) < 1e-12


class TestSupg:
    def test_zero_drift_gives_zero(self, fine_square):
        sp = build_space(fine_square, 2)
        st, ss = assemble_supg(sp, None)
        assert abs(st).max() == 0.0
        assert abs(ss).max() == 0.0

    def test_xi_small_pe_series(self):
        pe = 1e-4
        assert abs(fem._xi(np.array([pe]))[0] - pe / 3.0) < 1e-8

    def test_xi_large_pe_asymptote(self):
        assert fem._xi(np.array([1e3]))[0] >= 0.999

    def test_mass_row_property_with_drift(self, fine_square):
        sp = build_space(fine_square, 2)
        V = interpolate(sp, lambda p: 4 * p[:, 0] ** 2 + p[:, 1])
        drift = VectorField.from_gradient(V)
        L = assemble_fp_form(sp, drift)
        _, ss = assemble_supg(sp, drift)
        ones = np.ones(sp.n_dofs)
        assert np.abs(ones @ (L + ss)).max() < 1e-9


class TestSolve:
    def test_identity(self):
        import scipy.sparse as sp_
        b = np.arange(5.0)
        x = solve_linear(sp_.eye(5, format="csr"), b)
        assert np.array_equal(x, b)

    def test_spd_manufactured(self, desk_space):
        m = assemble_mass(desk_space)
        b = m @ np.ones(desk_space.n_dofs)
        x = solve_linear(m, b)
        assert np.abs(x - 1.0).max() < 1e-10

    def test_nonsymmetric_cn_matrix_residual(self, desk_space):
        g = density.Gmm([1.0], [[2.0, 0.0]], [0.2 * np.eye(2)])
        V = interpolate(desk_space, lambda p: -density.gmm_logpdf(g, p))
        drift = VectorField.from_gradient(V)
        L = assemble_fp_form(desk_space, drift)
        M = assemble_mass(desk_space)
        A = M + 0.005 * L
        rng = np.random.default_rng(0)
        b = rng.normal(size=desk_space.n_dofs)
        x = solve_linear(A, b)
        res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
        assert res <= 1e-10

    def test_singular_matrix_fails(self):
        import scipy.sparse as sp_
        A = sp_.csr_matrix((3, 3))
        with pytest.raises(SolveFailure):
            solve_linear(A, np.ones(3))


class TestEvaluation:
    def test_p1_reproduces_linear(self, fine_square):
        sp = build_space(fine_square, 1)
        f = interpolate(sp, lambda p: p[:, 0])
        loc = locate_point(fine_square, (0.31, 0.7))
        assert abs(evaluate(f, loc) - 0.31) < 1e-12
        assert np.allclose(evaluate_gradient(f, loc), [1, 0], atol=1e-12)

    def test_p2_reproduces_quadratic(self, fine_square):
        sp = build_space(fine_square, 2)
        f = interpolate(sp, lambda p: p[:, 0] ** 2)
        loc = locate_point(fine_square, (0.37, 0.21))
        assert abs(evaluate(f, loc) - 0.37**2) < 1e-10
        assert np.allclose(evaluate_gradient(f, loc), [0.74, 0], atol=1e-10)

    def test_gradient_matches_finite_differences(self, fine_square):
        sp = build_space(fine_square, 2)
        rng = np.random.default_rng(11)
        f = FeField(sp, rng.normal(size=sp.n_dofs))
        pts = rng.uniform(0.1, 0.9, size=(100, 2))
        eps = 1e-6
        for p in pts:
            g = evaluate_gradient(f, locate_point(fine_square, p))
            fd = np.array([
                (evaluate(f, locate_point(fine_square, p + [eps, 0]))
                 - evaluate(f, locate_point(fine_square, p - [eps, 0]))) / (2 * eps),
                (evaluate(f, locate_point(fine_square, p + [0, eps]))
                 - evaluate(f, locate_point(fine_square, p - [0, eps]))) / (2 * eps),
            ])
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(g), 1.0)


class TestIntegrate:
    def test_constant(self, desk_space):
        one = interpolate(desk_space, lambda p: np.ones(len(p)))
        assert abs(integrate(one) - desk_space.mesh.total_area()) < 1e-10

    def test_linear_on_unit_square(self, fine_square):
        sp = build_space(fine_square, 2)
        f = interpolate(sp, lambda p: p[:, 0])
        assert abs(integrate(f) - 0.5) < 1e-12

    def test_gmm_mass_refinement(self):
        g = density.Gmm([1.0], [[0.0, 0.0]], [0.2 * np.eye(2)])
        errs = []
        for h in (0.4, 0.2):
            m = generate_rect_with_hole((-6, 6), (-6, 6), (0, 0), 0.0, h)
            sp = build_space(m, 2)
            f = interpolate(sp, lambda p: density.gmm_pdf(g, p))
            errs.append(abs(integrate(f) - 1.0))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-4


class TestInterpolate:
    def test_constant(self, fine_square):
        sp = build_space(fine_square, 2)
        f = interpolate(sp, lambda p: np.full(len(p), 3.0))
        assert np.all(f.coeffs == 3.0)

    def test_lagrange_property(self, fine_square):
        sp = build_space(fine_square, 2)
        f = interpolate(sp, lambda p: p[:, 0] + p[:, 1])
        i = np.argmin(np.abs(sp.dof_coords - [0.25, 0.5]).sum(axis=1))
        x, y = sp.dof_coords[i]
        assert abs(f.coeffs[i] - (x + y)) < 1e-14

    def test_gmm_potential_finite(self, desk_space):
        g = density.Gmm([1.0], [[2.0, 0.0]], [0.2 * np.eye(2)])
        V = interpolate(desk_space, lambda p: -density.gmm_logpdf(g, p))
        assert np.all(np.isfinite(V.coeffs))

    def test_nonfinite_raises(self, fine_square):
        sp = build_space(fine_square, 1)

        def bad(p):
            out = np.ones(len(p))
            out[0] = np.inf
            return out

        with pytest.raises(InterpolationFailure):
            interpolate(sp, bad)


class TestConvergence:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_l2_interpolation_order(self, degree):
        from fpreg import analytic

        def f(p):
            return np.sin(1.7 * p[:, 0]) * np.cos(1.3 * p[:, 1])

        errs = []
        for h in (0.2, 0.1):
            m = generate_rect_with_hole((0, 1), (0, 1), (0, 0), 0.0, h)
            sp = build_space(m, degree)
            fh = interpolate(sp, f)
            errs.append(analytic.l2_error(fh, f))
        rate = np.log2(errs[0] / errs[1])
        assert rate >= degree + 0.7


class TestSerialization:
    def test_binary_roundtrip(self, fine_square, tmp_path):
        sp = build_space(fine_square, 2)
        rng = np.random.default_rng(3)
        f = FeField(sp, rng.normal(size=sp.n_dofs))
        path = tmp_path / "f.fpfld"
        save_field_binary(f, path)
        g = load_field_binary(path, sp)
        assert np.array_equal(f.coeffs, g.coeffs)
        with open(path, "rb") as fh:
            header = fh.read(16)
        assert header[:6] == b"FPFLD1"

    def test_binary_degree_mismatch(self, fine_square, tmp_path):
        sp1 = build_space(fine_square, 1)
        sp2 = build_space(fine_square, 2)
        f = FeField(sp1, np.zeros(sp1.n_dofs))
        path = tmp_path / "f.fpfld"
        save_field_binary(f, path)
        with pytest.raises(ValueError):
            load_field_binary(path, sp2)

    def test_json_roundtrip(self, fine_square, tmp_path):
        meshmod.save_mesh_json(fine_square, tmp_path / "m.json")
        sp = build_space(fine_square, 2)
        f = FeField(sp, np.linspace(0, 1, sp.n_dofs))
        save_field_json(f, tmp_path / "f.json", tmp_path / "m.json")
        g = load_field_json(tmp_path / "f.json")
        assert np.allclose(f.coeffs, g.coeffs)
        assert g.space.degree == 2
