"""Dual bodies, barycentric recentering, Riemannian detection."""

import numpy as np
import pytest

from almostiso import (
    SupportSamples,
    betterment_covector,
    betterment_eval,
    direction_grid,
    dual_norm_eval,
    polar_barycenter,
    polar_translation_check,
    riemannian_fit,
)
from almostiso.duality import (
    dual_gauge_samples,
    gauge_samples,
    icosphere_grid,
    polygon_grid,
    s3_product_grid,
    sphere_area,
)
from almostiso.errors import DegenerateBettermentError, InvalidBodyError


def norm_euclid(y):
    return np.linalg.norm(y, axis=-1)


def norm_randers(g, tau):
    g = np.asarray(g, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return lambda y: np.sqrt(np.einsum("...i,ij,...j->...", y, g, y)) + np.asarray(y) @ tau


class TestGrids:
    def test_polygon_weights(self):
        grid = polygon_grid(512)
        assert grid.m == 512
        assert grid.weights.sum() == pytest.approx(2 * np.pi)

    def test_icosphere_counts_and_weights(self):
        grid = icosphere_grid(2)   # 162 vertices
        assert grid.m == 162
        assert grid.weights.sum() == pytest.approx(sphere_area(3))
        assert np.abs(np.linalg.norm(grid.directions, axis=1) - 1).max() < 1e-12

    def test_s3_grid(self):
        grid = s3_product_grid(9, 8, 8)
        assert grid.weights.sum() == pytest.approx(sphere_area(4))
        # antipodal symmetry: odd moments vanish
        mom = (grid.weights[:, None] * grid.directions).sum(axis=0)
        assert np.abs(mom).max() < 1e-12

    def test_default_sizes(self):
        assert direction_grid(2).m == 512
        assert direction_grid(4).m == 1008           # 9 x 7 x 16
        assert direction_grid(4, 10_000).m == 10_000
        with pytest.raises(ValueError):
            direction_grid(5)


class TestDualNorm:
    def test_euclidean_self_dual(self, grid2):
        val = dual_norm_eval(norm_euclid, np.array([0.6, 0.8]), grid2)
        assert val == pytest.approx(1.0, abs=2e-4)

    def test_shifted_axis(self, grid2):
        # solve |xi - t a| = t with a = (0.5, 0): max of u1 / (1 + u1/2) at u1 = 1
        F = norm_randers(np.eye(2), [0.5, 0.0])
        val = dual_norm_eval(F, np.array([1.0, 0.0]), grid2)
        assert val == pytest.approx(2.0 / 3.0, abs=2e-4)

    def test_shifted_orthogonal(self, grid2):
        # quadratic 0.25 t^2 + 1 = t^2 -> dual length 2/sqrt(3)
        F = norm_randers(np.eye(2), [0.5, 0.0])
        val = dual_norm_eval(F, np.array([0.0, 1.0]), grid2)
        assert val == pytest.approx(2.0 / np.sqrt(3.0), abs=2e-4)

    def test_double_duality(self, grid2):
        g = np.array([[2.0, 0.4], [0.4, 1.0]])
        vals = gauge_samples(norm_randers(g, [0.0, 0.0]), grid2)
        back = dual_gauge_samples(dual_gauge_samples(vals, grid2), grid2)
        assert np.abs(back - vals).max() < 1e-4  # O(1/m^2)


class TestPolarBarycenter:
    def test_centered_ball(self, grid2):
        b = polar_barycenter(np.ones(grid2.m), grid2)
        assert np.abs(b).max() < 1e-12

    def test_translated_disk(self, grid2):
        # dual of |y| + 0.5 y1 is the unit disk shifted by (0.5, 0)
        F = norm_randers(np.eye(2), [0.5, 0.0])
        b = polar_barycenter(dual_gauge_samples(gauge_samples(F, grid2), grid2), grid2)
        assert np.abs(b - np.array([0.5, 0.0])).max() < 1e-4

    def test_square_body(self, grid2):
        # centrally symmetric max-gauge body
        gauge = np.abs(grid2.directions).max(axis=1)
        b = polar_barycenter(gauge, grid2)
        assert np.abs(b).max() < 1e-12

    def test_rejects_nonpositive(self, grid2):
        vals = np.ones(grid2.m)
        vals[3] = 0.0
        with pytest.raises(InvalidBodyError):
            polar_barycenter(vals, grid2)


class TestBetterment:
    def test_randers_recovers_unit_norm(self, grid2):
        F = norm_randers(np.eye(2), [0.5, 0.0])
        vals = betterment_eval(F, grid2.directions, grid2)
        assert np.abs(vals - 1.0).max() < 1e-4

    def test_euclidean_unchanged(self, grid2):
        vals = betterment_eval(norm_euclid, grid2.directions, grid2)
        assert np.abs(vals - 1.0).max() < 1e-12

    def test_anisotropic_randers(self, grid2):
        g = np.diag([4.0, 1.0])
        F = norm_randers(g, [0.1, 0.0])
        vals = betterment_eval(F, grid2.directions, grid2)
        target = np.sqrt(np.einsum("ki,ij,kj->k", grid2.directions, g, grid2.directions))
        assert np.abs(vals / target - 1.0).max() < 1e-4

    def test_idempotent(self, grid2):
        F = norm_randers(np.diag([2.0, 1.0]), [0.2, 0.1])
        b = betterment_covector(F, grid2)
        better = lambda y: F(y) - np.asarray(y) @ b
        b2 = betterment_covector(better, grid2)
        assert np.abs(b2).max() < 1e-4

    def test_shift_invariance(self, grid2):
        # recentering ignores any admissible one-form shift
        F = norm_randers(np.diag([4.0, 1.0]), [0.1, 0.0])
        sigma = np.array([0.0, 0.2])
        shifted = lambda y: F(y) + np.asarray(y) @ sigma
        v1 = betterment_eval(F, grid2.directions, grid2)
        v2 = betterment_eval(shifted, grid2.directions, grid2)
        assert np.abs(v1 - v2).max() < 1e-4

    def test_rotation_equivariance(self, grid2):
        # 90-degree rotations permute the grid, so b rotates exactly;
        # y @ R applies R^T row-wise, giving the body R K and covector R b
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        F = norm_randers(np.diag([2.0, 1.0]), [0.15, 0.05])
        rotated = lambda y: F(np.asarray(y) @ R)
        b = betterment_covector(F, grid2)
        bq = betterment_covector(rotated, grid2)
        assert np.abs(bq - R @ b).max() < 1e-12

    def test_frame_matches_plain(self, grid2):
        g = np.diag([4.0, 1.0])
        F = norm_randers(g, [0.1, 0.0])
        frame = np.linalg.inv(np.linalg.cholesky(g)).T
        b_plain = betterment_covector(F, grid2)
        b_frame = betterment_covector(F, grid2, frame=frame)
        assert np.abs(b_plain - b_frame).max() < 1e-4

    def test_degenerate_recentering_guard(self, grid2):
        # for convex gauges the barycenter is interior by construction, so
        # the guard is exercised with an externally supplied covector
        with pytest.raises(DegenerateBettermentError):
            betterment_eval(norm_euclid, grid2.directions, grid2,
                            covector=np.array([1.5, 0.0]))

    def test_interior_barycenter_even_when_eccentric(self):
        # extreme admissible drift on a coarse grid: recentering stays valid
        bad = norm_randers(np.eye(2), [0.99, 0.0])
        grid = polygon_grid(16)
        vals = betterment_eval(bad, grid.directions, grid)
        assert np.all(vals > 0)


def lp_plus_sigma(axes, sigma):
    """l4 norm with scaled axes, plus the covector sigma.

    Its dual body is a centrally symmetric body translated by sigma, so the
    exact barycenter is sigma: a non-Randers body with a closed-form answer.
    """
    axes, sigma = np.asarray(axes, dtype=float), np.asarray(sigma, dtype=float)
    return lambda y: ((np.asarray(y) / axes) ** 4).sum(axis=-1) ** 0.25 + np.asarray(y) @ sigma


def one_pass_covector(norm, grid):
    return polar_barycenter(dual_gauge_samples(gauge_samples(norm, grid), grid), grid)


class TestDefectCorrection:
    """The corrected covector on l4 + sigma bodies, |sigma| = 0.2."""

    @pytest.mark.parametrize("k", range(6))
    def test_2d_polygon(self, grid2, k):
        angle = k * np.pi / 3 + 0.3
        sigma = 0.2 * np.array([np.cos(angle), np.sin(angle)])
        b = betterment_covector(lp_plus_sigma([1.0, 0.5], sigma), grid2)
        assert np.linalg.norm(b - sigma) < 1e-8

    @pytest.mark.parametrize("direction", [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0.5, -0.5, 0.5, 0.5],
    ])
    def test_4d_default_grid(self, grid4, direction):
        # The error left after the pass depends on sigma's direction to the
        # product grid: 3.0e-5 / 5.9e-5 / 4.1e-5 / 2.4e-3 / 4.8e-4 in the
        # order above, from one-pass values 6.2e-4 / 1.4e-3 / 1.6e-3 /
        # 2.1e-2 / 6.2e-3.  On 10 000 directions one pass reads 9.5e-8 /
        # 1.2e-4 / 8.9e-5 / 8.5e-3 / 2.3e-3.
        sigma = 0.2 * np.asarray(direction, dtype=float)
        norm = lp_plus_sigma([1.0, 0.8, 1.2, 0.6], sigma)
        first = np.linalg.norm(one_pass_covector(norm, grid4) - sigma)
        corrected = np.linalg.norm(betterment_covector(norm, grid4) - sigma)
        assert corrected < 0.2 * first
        assert corrected < 3e-3


class TestRiemannianFit:
    def test_exact_quadratic(self, grid2):
        g = np.diag([4.0, 1.0])
        vals = np.sqrt(np.einsum("ki,ij,kj->k", grid2.directions, g, grid2.directions))
        fit = riemannian_fit(vals, grid2)
        assert fit.is_quadratic
        assert fit.residual < 1e-8
        assert np.abs(fit.matrix - g).max() < 1e-8

    def test_randers_not_quadratic(self, grid2):
        vals = gauge_samples(norm_randers(np.eye(2), [0.5, 0.0]), grid2)
        fit = riemannian_fit(vals, grid2)
        assert not fit.is_quadratic
        assert fit.residual > 1e-2

    def test_euclidean(self, grid2):
        fit = riemannian_fit(np.ones(grid2.m), grid2)
        assert fit.is_quadratic
        assert np.abs(fit.matrix - np.eye(2)).max() < 1e-10


class TestTranslationLemma:
    def test_euclidean_shift(self, grid2):
        dev = polar_translation_check(norm_euclid, np.array([0.3, 0.0]), grid2)
        assert dev < 1e-6

    def test_zero_shift(self, grid2):
        dev = polar_translation_check(norm_euclid, np.zeros(2), grid2)
        assert dev < 1e-12

    def test_randers_base(self, grid2):
        F = norm_randers(np.diag([4.0, 1.0]), [0.1, 0.0])
        dev = polar_translation_check(F, np.array([0.0, 0.2]), grid2)
        assert dev < 1e-6


class TestSupportSamples:
    def test_csv_roundtrip(self, grid2, tmp_path):
        samples = SupportSamples(grid2, 1.0 / gauge_samples(norm_euclid, grid2))
        path = tmp_path / "body.csv"
        samples.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (grid2.m, 3)
        assert np.allclose(data[:, 2], 1.0)

    def test_rejects_nonpositive(self, grid2):
        with pytest.raises(InvalidBodyError):
            SupportSamples(grid2, np.zeros(grid2.m))


def test_translation_check_is_2d_only():
    with pytest.raises(ValueError):
        polar_translation_check(norm_euclid, np.array([0.1, 0.0, 0.0]), icosphere_grid(1))


def test_3d_icosphere_pipeline():
    """Subdivision grid on S^2: double duality and drift recovery."""
    grid = icosphere_grid(4)    # 2562 directions, the 3D default
    g = np.diag([2.0, 1.0, 1.5])
    base = lambda y: np.sqrt(np.einsum("...i,ij,...j->...", y, g, y))
    vals = gauge_samples(base, grid)
    back = dual_gauge_samples(dual_gauge_samples(vals, grid), grid)
    assert np.abs(back - vals).max() < 5e-3
    tau = np.array([0.05, 0.0, 0.02])
    drifted = lambda y: base(y) + np.asarray(y) @ tau
    b = betterment_covector(drifted, grid)
    assert np.abs(b - tau).max() < 1e-4


def test_4d_pipeline_small_shift(grid4):
    """Euclidean 4D body with a small shift: barycenter tracks the shift."""
    tau = np.array([0.02, 0.0, 0.0, 0.0])
    F = lambda y: np.linalg.norm(y, axis=-1) + np.asarray(y) @ tau
    b = betterment_covector(F, grid4)
    assert np.abs(b - tau).max() < 5e-5
