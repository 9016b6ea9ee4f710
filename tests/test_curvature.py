"""Christoffel symbols and sectional-curvature certificates."""

import re

import numpy as np
import pytest

from almostiso import (
    ChartDomain,
    PlaneAtPoint,
    RiemannianField,
    build_gallery_entry,
    christoffels,
    curvature_sweep,
    gallery_catalog,
    sectional_curvature,
)
from almostiso.errors import DegeneratePlaneError, IndefiniteMetricError

CHART = ChartDomain([[-0.6, 0.6], [-0.6, 0.6]], fd_step=1e-3)
H = CHART.fd_step

SPHERE = RiemannianField.conformal(lambda x: 4.0 / (1.0 + (x ** 2).sum(axis=-1)) ** 2, 2)
POINCARE = RiemannianField.conformal(lambda x: 4.0 / (1.0 - (x ** 2).sum(axis=-1)) ** 2, 2)
FLAT = RiemannianField.constant(np.eye(2))


class TestChristoffels:
    def test_flat_zero(self):
        val = christoffels(CHART, FLAT, np.array([0.1, 0.2]))
        assert np.abs(val).max() < 10 * H ** 2

    def test_sphere_chart_component(self):
        # conformal formula: Gamma^1_11 = d_1 log(conf)/... = -2 x1 / (1 + |x|^2)
        val = christoffels(CHART, SPHERE, np.array([0.5, 0.0]))
        assert abs(val[0, 0, 0] - (-0.8)) < 10 * H ** 2

    def test_constant_anisotropic_zero(self):
        g = RiemannianField.constant(np.diag([4.0, 1.0]))
        val = christoffels(CHART, g, np.array([0.3, -0.2]))
        assert np.abs(val).max() < 10 * H ** 2

    def test_symmetric_lower_indices(self):
        val = christoffels(CHART, SPHERE, np.array([0.2, 0.3]))
        assert np.abs(val - np.swapaxes(val, 1, 2)).max() < 1e-12

    def test_indefinite_rejected(self):
        bad = RiemannianField.constant(np.diag([1.0, -1.0]))
        with pytest.raises(IndefiniteMetricError):
            christoffels(CHART, bad, np.array([0.0, 0.0]))

    def test_batch_names_the_indefinite_point(self):
        # g = diag(1, -1) where x1 > 0.4 only: one point of four is indefinite
        g = RiemannianField(lambda x: np.where(x[..., 0, None, None] > 0.4,
                                               np.diag([1.0, -1.0]), np.eye(2)), 2)
        pts = np.array([[0.0, 0.0], [0.1, 0.1], [0.5, 0.2], [0.2, -0.1]])
        with pytest.raises(IndefiniteMetricError, match=rf"at {re.escape(str(pts[2]))}$"):
            christoffels(CHART, g, pts)

    def test_batch_matches_single_points(self):
        pts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.5]])
        batch = christoffels(CHART, SPHERE, pts)
        assert batch.shape == (3, 2, 2, 2)
        for x, val in zip(pts, batch):
            # a lone point may take numpy's scalar path for ** 2: an ulp apart
            assert np.abs(val - christoffels(CHART, SPHERE, x)).max() < 1e-12


class TestSectionalCurvature:
    def test_flat_zero(self):
        plane = PlaneAtPoint(np.array([0.1, -0.2]), np.array([1.0, 0.3]), np.array([-0.2, 1.0]))
        assert abs(sectional_curvature(CHART, FLAT, plane)) < 100 * H ** 2

    def test_round_sphere_unit(self):
        plane = PlaneAtPoint(np.array([0.25, 0.1]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert sectional_curvature(CHART, SPHERE, plane) == pytest.approx(1.0, abs=100 * H ** 2)

    def test_poincare_disk_minus_one(self):
        plane = PlaneAtPoint(np.array([0.2, -0.1]), np.array([0.7, 0.4]), np.array([-0.1, 0.9]))
        val = sectional_curvature(CHART, POINCARE, plane)
        assert val == pytest.approx(-1.0, abs=100 * H ** 2)

    def test_basis_invariance(self):
        x = np.array([0.15, 0.2])
        u, v = np.array([1.0, 0.2]), np.array([-0.3, 1.0])
        k1 = sectional_curvature(CHART, SPHERE, PlaneAtPoint(x, u, v))
        k2 = sectional_curvature(CHART, SPHERE, PlaneAtPoint(x, 2 * u + v, -u + 0.5 * v))
        assert k1 == pytest.approx(k2, rel=1e-6)

    def test_degenerate_plane_rejected(self):
        plane = PlaneAtPoint(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                             np.array([1.0, 1.0 + 1e-9]))
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(CHART, SPHERE, plane)


def _sweep_planes(chart, count, seed, J=None):
    """The points and planes ``curvature_sweep`` draws, drawn the same way."""
    margin = 3.0 * chart.fd_step + 0.02 * chart.edges.min()
    rng = np.random.default_rng(seed)
    n = chart.dim
    pts = rng.uniform(chart.lower + margin, chart.upper - margin, size=(count, n))
    planes = []
    for x in pts:
        while True:
            u = rng.standard_normal(n)
            v = J @ u if J is not None else rng.standard_normal(n)
            if (u @ u) * (v @ v) - (u @ v) ** 2 > 1e-3 * (u @ u) * (v @ v):
                break
        planes.append(PlaneAtPoint(x, u, v))
    return planes


def _counting(g):
    """``g`` with a counter of its evaluations."""
    calls = []

    def comps(x):
        calls.append(x.shape)
        return g(x)

    return RiemannianField(comps, g.dim), calls


class TestCurvatureSweep:
    def test_constancy_certificates(self):
        sweep = curvature_sweep(CHART, SPHERE, count=50, seed=0)
        assert abs(sweep.mean - 1.0) < 1e-3
        assert sweep.std < 1e-3

    def test_flat_tight(self):
        sweep = curvature_sweep(CHART, FLAT, count=50, seed=1)
        assert np.abs(sweep.values).max() < 1e-4

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_sweep_rejected(self, count):
        with pytest.raises(ValueError, match="at least 1 plane"):
            curvature_sweep(CHART, SPHERE, count=count)

    @pytest.mark.parametrize("name", sorted(gallery_catalog()))
    def test_batch_equals_per_plane_loop(self, name):
        entry = build_gallery_entry(name)
        J = entry.complex_structure if entry.curvature_kind == "constant-holomorphic" else None
        for seed in (1, 7):
            sweep = curvature_sweep(entry.chart, entry.g, count=20, seed=seed,
                                    complex_structure=J)
            planes = _sweep_planes(entry.chart, 20, seed, J)
            assert np.array_equal(sweep.points, [p.x for p in planes])
            loop = np.array([sectional_curvature(entry.chart, entry.g, p) for p in planes])
            if entry.curvature_target == 0.0:
                assert np.array_equal(sweep.values, loop)
            else:
                assert np.abs(sweep.values - loop).max() <= 1e-12

    @pytest.mark.parametrize("chart, g", [
        (CHART, SPHERE),
        (ChartDomain(np.tile([-0.5, 0.5], (4, 1))), RiemannianField.constant(np.eye(4))),
    ], ids=["2d", "4d"])
    def test_metric_calls_do_not_grow_with_planes(self, chart, g):
        n = chart.dim
        counts = []
        for count in (5, 50):
            counted, calls = _counting(g)
            curvature_sweep(chart, counted, count=count, seed=3)
            assert all(shape[0] == count for shape in calls)
            counts.append(len(calls))
        assert counts == [(2 * n + 1) ** 2 + 1] * 2

    def test_csv(self, tmp_path):
        sweep = curvature_sweep(CHART, FLAT, count=5, seed=2)
        path = tmp_path / "sweep.csv"
        sweep.to_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (5, 4)


class TestFourDimensional:
    def test_flat_4d(self):
        chart = ChartDomain(np.tile([-0.5, 0.5], (4, 1)), fd_step=1e-3)
        g = RiemannianField.constant(np.eye(4))
        sweep = curvature_sweep(chart, g, count=10, seed=3)
        assert np.abs(sweep.values).max() < 1e-4

    def test_fubini_study_holomorphic_constancy(self, fubini_study):
        entry = fubini_study
        sweep = curvature_sweep(entry.chart, entry.g, count=25, seed=4,
                                complex_structure=entry.complex_structure)
        assert sweep.std < 1e-3
        # generic planes are not constant for the curved Kahler chart
        generic = curvature_sweep(entry.chart, entry.g, count=25, seed=5)
        assert generic.values.std() > 10 * sweep.std
