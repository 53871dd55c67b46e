import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from fpreg.density import (
    FitReport, Gmm, em_fit, gmm_from_json, gmm_grad_potential, gmm_logpdf,
    gmm_pdf, gmm_to_json, load_points_csv, n_parameters, sample,
    save_points_csv, select_by_aic,
)
from fpreg.errors import InvalidFit


@pytest.fixture(scope="module")
def two_blob_points():
    g = Gmm([0.5, 0.5], [[-2, 0], [2, 0]], [0.2 * np.eye(2)] * 2)
    return sample(g, 500, seed=1)


class TestEmFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(80, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
        cov_reg = 1e-2
        for seed in (0, 5, 99):
            g, report = em_fit(pts, 1, cov_reg=cov_reg, seed=seed)
            assert np.allclose(g.means[0], pts.mean(axis=0), atol=1e-12)
            want = np.cov(pts.T, bias=True) + cov_reg * np.eye(2)
            assert np.allclose(g.covs[0], want, atol=1e-10)

    def test_two_component_recovery(self, two_blob_points):
        g, report = em_fit(two_blob_points, 2, cov_reg=0.0, seed=3)
        means = g.means[np.argsort(g.means[:, 0])]
        assert np.linalg.norm(means[0] - [-2, 0]) < 0.15
        assert np.linalg.norm(means[1] - [2, 0]) < 0.15

    def test_loglik_trace_monotone(self, two_blob_points):
        _, report = em_fit(two_blob_points, 3, cov_reg=1e-2, seed=2)
        trace = np.array(report.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(InvalidFit):
            em_fit(np.zeros((3, 2)), 4)

    def test_persistent_degeneracy_raises_collapse(self):
        from fpreg.errors import CollapseFailure
        # two exact point masses, no regularization: every restart ends in a
        # zero covariance
        pts = np.repeat([[0.0, 0.0], [1.0, 1.0]], 5, axis=0)
        with pytest.raises(CollapseFailure):
            em_fit(pts, 2, cov_reg=0.0, seed=0)

    def test_likelihood_decrease_is_not_converged(self):
        # the scenario-2 reference arc: for k >= 2 the first M-step lowers
        # the likelihood, and EM stops there on the recorded peak
        from fpreg.cli import arc_cloud_from_spec
        ref = arc_cloud_from_spec(dict(n=141, theta0=np.pi / 2, dtheta=np.pi,
                                       noise=0.1, seed=7))
        _, one = em_fit(ref, 1, cov_reg=1e-2, seed=3)
        assert one.converged
        g, two = em_fit(ref, 2, cov_reg=1e-2, seed=3)
        assert not two.converged
        assert two.iterations == 1
        assert g.k == 2

    def test_weights_sum_checked(self):
        with pytest.raises(InvalidFit):
            Gmm([0.5, 0.6], [[0, 0], [1, 1]], [np.eye(2)] * 2)


class TestAic:
    def test_parameter_count(self):
        assert n_parameters(4) == 23
        assert n_parameters(1) == 5

    def test_single_cluster_selects_one(self):
        g = Gmm([1.0], [[0.5, -0.2]], [0.05 * np.eye(2)])
        pts = sample(g, 300, seed=4)
        best, report = select_by_aic(pts, (1, 4), cov_reg=1e-2, seed=0)
        assert best.k == 1

    def test_deterministic_given_seed(self, two_blob_points):
        a, ra = select_by_aic(two_blob_points, (1, 3), cov_reg=1e-2, seed=9)
        b, rb = select_by_aic(two_blob_points, (1, 3), cov_reg=1e-2, seed=9)
        assert a.k == b.k
        assert np.array_equal(a.means, b.means)
        assert ra.aic == rb.aic


class TestEvaluation:
    def test_standard_normal_at_origin(self):
        g = Gmm([1.0], [[0, 0]], [np.eye(2)])
        assert abs(gmm_logpdf(g, (0.0, 0.0)) + np.log(2 * np.pi)) < 1e-14

    def test_pdf_integrates_to_one(self):
        g = Gmm([0.6, 0.4], [[0.5, 0.0], [-0.3, 0.4]],
                [0.3 * np.eye(2), np.array([[0.2, 0.05], [0.05, 0.1]])])
        # 12-sigma box, adaptive quadrature oracle
        lim = 12 * np.sqrt(0.3)
        val, err = scipy_integrate.dblquad(
            lambda y, x: gmm_pdf(g, (x, y)), -lim, lim, -lim, lim,
            epsabs=1e-9,
        )
        assert abs(val - 1.0) < 1e-6

    def test_log_domain_stability_far_away(self):
        g = Gmm([1.0], [[0, 0]], [np.eye(2)])
        lp = gmm_logpdf(g, (100.0, 0.0))
        assert np.isfinite(lp)
        assert lp < -4000

    def test_exp_logpdf_matches_pdf(self):
        g = Gmm([0.3, 0.7], [[1, 2], [-1, 0]], [0.5 * np.eye(2)] * 2)
        rng = np.random.default_rng(8)
        pts = rng.normal(scale=3, size=(50, 2))
        assert np.allclose(np.exp(gmm_logpdf(g, pts)), gmm_pdf(g, pts),
                           rtol=1e-12)


class TestGradPotential:
    def test_single_gaussian_exact(self):
        cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        g = Gmm([1.0], [[0.2, -0.4]], [cov])
        x = np.array([1.3, 0.7])
        want = np.linalg.solve(cov, x - [0.2, -0.4])
        assert np.allclose(gmm_grad_potential(g, x), want, atol=1e-12)

    def test_matches_finite_differences(self):
        g = Gmm([0.4, 0.6], [[-1, 0], [1.5, 0.5]],
                [0.3 * np.eye(2), 0.15 * np.eye(2)])
        rng = np.random.default_rng(12)
        pts = rng.normal(scale=1.5, size=(100, 2))
        eps = 1e-6
        for x in pts:
            grad = gmm_grad_potential(g, x)
            fd = np.array([
                -(gmm_logpdf(g, x + [eps, 0]) - gmm_logpdf(g, x - [eps, 0])),
                -(gmm_logpdf(g, x + [0, eps]) - gmm_logpdf(g, x - [0, eps])),
            ]) / (2 * eps)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(
                np.linalg.norm(grad), 1.0
            )

    def test_symmetric_mixture_gradient_along_axis(self):
        g = Gmm([0.5, 0.5], [[-1, 0], [1, 0]], [0.2 * np.eye(2)] * 2)
        grad = gmm_grad_potential(g, np.array([-1.0, 0.0]))
        # at a mean of the symmetric pair the gradient is parallel to the
        # line joining the means (the y component cancels)
        assert abs(grad[1]) < 1e-12


class TestSampling:
    def test_empty(self):
        g = Gmm([1.0], [[0, 0]], [np.eye(2)])
        assert sample(g, 0, seed=1).shape == (0, 2)

    def test_moments_within_clt_bands(self):
        mu = np.array([-2.0, 0.0])
        g = Gmm([1.0], [mu], [0.2 * np.eye(2)])
        pts = sample(g, 100_000, seed=42)
        se_mean = np.sqrt(0.2 / len(pts))
        assert np.all(np.abs(pts.mean(axis=0) - mu) < 3 * se_mean + 0.01)
        cov = np.cov(pts.T, bias=True)
        assert np.abs(cov - 0.2 * np.eye(2)).max() < 0.01

    def test_deterministic(self):
        g = Gmm([0.5, 0.5], [[-1, 0], [1, 0]], [0.1 * np.eye(2)] * 2)
        assert np.array_equal(sample(g, 64, seed=7), sample(g, 64, seed=7))


class TestIO:
    def test_gmm_json_roundtrip(self, tmp_path):
        g = Gmm([0.25, 0.75], [[0, 1], [2, 3]],
                [0.5 * np.eye(2), np.array([[0.4, 0.1], [0.1, 0.2]])])
        path = tmp_path / "g.json"
        gmm_to_json(g, path)
        g2 = gmm_from_json(path)
        assert np.allclose(g.weights, g2.weights)
        assert np.allclose(g.means, g2.means)
        assert np.allclose(g.covs, g2.covs)

    def test_points_csv_roundtrip(self, tmp_path):
        pts = np.array([[0.125, -3.5], [1e-7, 2.25]])
        path = tmp_path / "p.csv"
        save_points_csv(pts, path)
        assert np.array_equal(load_points_csv(path), pts)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_points_csv(path)
