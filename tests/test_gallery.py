"""Certified gallery entries: admissibility, d(tau), curvature, dimensions."""

import numpy as np
import pytest

from almostiso import (
    build_gallery_entry,
    convexity_margin,
    direction_grid,
    exterior_derivative,
    gallery_catalog,
    make_constant_curvature_2d,
    make_flat_kahler_4d,
    make_fubini_study_4d,
)
from almostiso.duality import betterment_covector
from almostiso.errors import ConvexityError
from almostiso.gallery import _METRICS, _fs_metric_components
from almostiso.symmetry import standard_complex_structure


class TestConstantCurvature2D:
    def test_flat_margin_closed_form(self, flat_25):
        # |tau|_g = (c/2) r peaks at the box corner: margin 1 - 0.2 sqrt(0.5)
        margin = convexity_margin(flat_25.randers, flat_25.chart.mesh_points(5))
        assert margin == pytest.approx(1 - 0.2 * np.sqrt(0.5), abs=1e-12)

    def test_flat_dtau_exact(self, flat_25):
        pts = flat_25.chart.sample_points(10, seed=1, margin=0.05)
        vals = exterior_derivative(flat_25.chart, flat_25.tau, pts)
        assert np.abs(vals[:, 0, 1] - 0.4).max() < 1e-6

    def test_sphere_proportionality(self, sphere_25):
        # d tau / vol_g = c at samples
        chart = sphere_25.chart
        pts = chart.sample_points(12, seed=2, margin=0.05)
        dt = exterior_derivative(chart, sphere_25.tau, pts)[:, 0, 1]
        dens = 4.0 / (1.0 + (pts ** 2).sum(axis=1)) ** 2
        assert np.abs(dt / dens - 0.3).max() < 1e-4

    def test_sphere_curvature_certified(self, sphere_25):
        mean, tol = sphere_25.certificates["curvature_mean"]
        assert abs(mean - 1.0) < 1e-3

    def test_hyperbolic_curvature_certified(self, hyperbolic_25):
        mean, _ = hyperbolic_25.certificates["curvature_mean"]
        assert abs(mean + 1.0) < 1e-3

    def test_expected_dimension(self, flat_25, sphere_25):
        assert flat_25.expected_dimension == 3
        assert sphere_25.expected_dimension == 3

    def test_inadmissible_c_shrinks_box(self):
        # |tau|_g = 1.5 r exceeds 1 at the default box corner (r = 0.707)
        entry = make_constant_curvature_2d("flat", 3.0)
        # started at half-width 0.5; must have shrunk to stay admissible
        assert entry.chart.upper[0] < 0.5
        assert convexity_margin(entry.randers, entry.chart.mesh_points(5)) > 0

    def test_hopeless_c_rejected(self):
        with pytest.raises(ConvexityError):
            make_constant_curvature_2d("flat", 1e6, max_shrink=2)


class TestFlatKahler4D:
    def test_dtau_exact(self, kahler_3):
        pts = kahler_3.chart.sample_points(6, seed=3, margin=0.05)
        vals = exterior_derivative(kahler_3.chart, kahler_3.tau, pts)
        om = np.zeros((4, 4))
        om[0, 1] = om[2, 3] = 1.0
        om[1, 0] = om[3, 2] = -1.0
        assert np.abs(vals - 0.2 * om).max() < 1e-6

    def test_complex_structure_compatibility(self, kahler_3):
        J = kahler_3.complex_structure
        rng = np.random.default_rng(4)
        G = np.eye(4)
        u, v = rng.standard_normal((2, 4))
        assert (J @ u) @ G @ (J @ v) == pytest.approx(u @ G @ v, abs=1e-14)
        # omega(u, v) = g(J u, v) recovers d(tau)/c
        om = exterior_derivative(kahler_3.chart, kahler_3.tau, np.zeros(4)) / 0.2
        assert om[0, 1] == pytest.approx((J @ np.eye(4)[0]) @ G @ np.eye(4)[1],
                                         abs=1e-9)

    def test_expected_dimensions(self, kahler_3):
        assert kahler_3.expected_dimension == 8
        assert make_flat_kahler_4d(0.0).expected_dimension == 10

    def test_inadmissible_c_rejected(self):
        # |tau|_g = |c| r / 2 reaches 5 at the default box corner (r = 1)
        with pytest.raises(ConvexityError):
            make_flat_kahler_4d(10.0)

    def test_j_squares_to_minus_one(self, kahler_3):
        J = kahler_3.complex_structure
        assert np.array_equal(J @ J, -np.eye(4))


class TestFubiniStudy:
    def test_certificates_recorded(self, fubini_study):
        certs = fubini_study.certificates
        assert certs["domega_defect"][0] < 1e-6
        assert certs["dtau_defect"][0] < 1e-6
        assert certs["holomorphic_curvature_std"][0] < 1e-3

    def test_metric_identity_at_origin(self, fubini_study):
        G = fubini_study.g(np.zeros(4))
        assert np.abs(G - np.eye(4)).max() < 1e-14

    def test_j_compatible_metric(self, fubini_study):
        J = fubini_study.complex_structure
        pts = fubini_study.chart.sample_points(5, seed=5)
        G = fubini_study.g(pts)
        assert np.abs(np.einsum("ab,mbc,cd->mad", J.T, G, J) - G).max() < 1e-13

    def test_expected_dimension(self, fubini_study):
        assert fubini_study.expected_dimension == 8


class TestRandersClosed:
    def test_expected_dimensions(self, closed_entries):
        dims = [e.expected_dimension for e in closed_entries]
        assert dims == [3, 3, 10]

    def test_margins_positive(self, closed_entries):
        for e in closed_entries:
            margin, _ = e.certificates["convexity_margin"]
            assert margin > 0

    def test_dtau_vanishes(self, closed_entries):
        for e in closed_entries:
            defect, tol = e.certificates["dtau_defect"]
            assert defect < tol


class TestBettermentConsistency:
    """Recentering the Randers norm recovers sqrt(g) at sample points."""

    @staticmethod
    def recovery_error(entry, n_points=3, radius_factor=0.45):
        chart = entry.chart
        grid = direction_grid(chart.dim)
        pts = chart.sample_points(n_points, seed=11, margin=0.1 * chart.edges.min())
        if chart.dim > 2:
            # keep |tau|_g small enough for the fixed-size S^3 grid to
            # resolve the dual body's translation (grid aliasing)
            center = 0.5 * (chart.lower + chart.upper)
            radius = radius_factor * chart.edges.min() / 2
            scale = radius / max(np.linalg.norm(pts - center, axis=1).max(), 1e-12)
            pts = center + (pts - center) * min(1.0, scale)
        worst = 0.0
        for x in pts:
            norm = entry.randers.norm_at(x)
            G = entry.g(x)
            frame = np.linalg.inv(np.linalg.cholesky(G)).T
            b = betterment_covector(norm, grid, frame=frame)
            U = grid.directions
            target = np.sqrt(np.einsum("ki,ij,kj->k", U, G, U))
            worst = max(worst, float(np.abs((norm(U) - U @ b) / target - 1).max()))
        return worst

    def test_2d_entries(self, flat_25, sphere_25):
        assert self.recovery_error(flat_25) < 1e-4
        assert self.recovery_error(sphere_25) < 1e-4

    def test_flat_kahler(self, kahler_3):
        assert self.recovery_error(kahler_3) < 1e-4

    def test_fubini_study(self, fubini_study):
        assert self.recovery_error(fubini_study) < 1e-4


@pytest.mark.parametrize("n", [2, 4])
def test_flat_conformal_field_is_constant_identity(n):
    g = _METRICS[f"flat-{n}d"].g(n)
    assert np.array_equal(g.matrix, np.eye(n))
    x = np.random.default_rng(0).uniform(-0.5, 0.5, (9, n))
    assert np.array_equal(g(x), np.ones(9)[:, None, None] * np.eye(n))


# ---------------------------------------------------------------------------
# The per-family tau and d(tau) closures that one Kahler primitive
# tau = c A(r^2) Jx, d(tau) = c J^T g replaced, kept as references
# ---------------------------------------------------------------------------

def _radial_reference(factor, amplitude):
    """2D: tau = c A(r) (x dy - y dx), d(tau) = c * factor(r^2) dx^dy."""

    def closures(c):
        def tau(x):
            a = c * amplitude((x ** 2).sum(axis=-1))
            return np.stack([-a * x[..., 1], a * x[..., 0]], axis=-1)

        def dtau(x):
            vol = factor((x ** 2).sum(axis=-1))[..., None, None] * np.array([[0.0, 1.0],
                                                                           [-1.0, 0.0]])
            return c * vol

        return tau, dtau

    return closures


def _flat_kahler_reference(c):
    omega = np.zeros((4, 4))
    omega[0, 1] = omega[2, 3] = 1.0
    omega[1, 0] = omega[3, 2] = -1.0

    def tau(x):
        out = np.empty_like(x)
        out[..., 0] = -0.5 * c * x[..., 1]
        out[..., 1] = 0.5 * c * x[..., 0]
        out[..., 2] = -0.5 * c * x[..., 3]
        out[..., 3] = 0.5 * c * x[..., 2]
        return out

    return tau, lambda x: np.broadcast_to(c * omega, x.shape[:-1] + (4, 4))


def _fubini_study_reference(c):
    def tau(x):
        r2 = (x ** 2).sum(axis=-1)
        grad = x / (1.0 + r2)[..., None]
        out = np.empty_like(x)
        out[..., 0] = -0.5 * grad[..., 1]
        out[..., 1] = 0.5 * grad[..., 0]
        out[..., 2] = -0.5 * grad[..., 3]
        out[..., 3] = 0.5 * grad[..., 2]
        return c * out

    J = standard_complex_structure(4)
    return tau, lambda x: c * np.einsum("ba,...bc->...ac", J, _fs_metric_components(x))


_REFERENCES = {
    "example-2.5": _radial_reference(lambda r2: np.ones_like(r2),
                                     lambda r2: np.full_like(r2, 0.5)),
    "example-2.5-sphere": _radial_reference(lambda r2: 4.0 / (1.0 + r2) ** 2,
                                            lambda r2: 2.0 / (1.0 + r2)),
    "example-2.5-hyperbolic": _radial_reference(lambda r2: 4.0 / (1.0 - r2) ** 2,
                                                lambda r2: 2.0 / (1.0 - r2)),
    "example-3": _flat_kahler_reference,
    "example-3-c0": _flat_kahler_reference,
    "fubini-study": _fubini_study_reference,
}


@pytest.mark.parametrize("name", sorted(_REFERENCES))
def test_kahler_primitive_matches_family_closures(name):
    """Bit for bit, except Fubini-Study tau, whose old closure rounded in another order."""
    entry = build_gallery_entry(name)
    tau, dtau = _REFERENCES[name](entry.c)
    pts = np.vstack([entry.chart.mesh_points(5), entry.chart.sample_points(64, seed=13)])
    if name == "fubini-study":
        assert np.abs(entry.tau(pts) - tau(pts)).max() <= 1e-16
    else:
        assert np.array_equal(entry.tau(pts), tau(pts))
    assert np.array_equal(entry.dtau(pts), dtau(pts))


@pytest.mark.parametrize("g_kind, make, c0_dim, c_dim", [
    ("flat-2d", lambda c: make_constant_curvature_2d("flat", c), 3, 3),
    ("sphere-2d", lambda c: make_constant_curvature_2d("sphere", c), 3, 3),
    ("hyperbolic-2d", lambda c: make_constant_curvature_2d("hyperbolic", c), 3, 3),
    ("flat-4d", make_flat_kahler_4d, 10, 8),
    ("fubini-study", make_fubini_study_4d, 8, 8),
])
def test_expected_dimension_rule(g_kind, make, c0_dim, c_dim):
    """The isometry dimension of g at c = 0; 3 in 2D and 8 in 4D otherwise."""
    assert _METRICS[g_kind].isometries == c0_dim
    assert make(0.0).expected_dimension == c0_dim
    assert make(0.1).expected_dimension == c_dim


def test_catalog_builds():
    names = sorted(gallery_catalog())
    assert "example-2.5" in names and "fubini-study" in names
    entry = build_gallery_entry("example-2.5", c=0.4)
    assert entry.expected_dimension == 3
    with pytest.raises(KeyError):
        build_gallery_entry("no-such-entry")


@pytest.mark.parametrize("name", sorted(gallery_catalog()))
def test_config_roundtrip(name):
    """Each entry's ``raw`` configuration reproduces its chart, g and tau."""
    from almostiso.config import config_from_dict

    entry = build_gallery_entry(name)
    cfg = config_from_dict(entry.raw)
    assert np.array_equal(cfg.chart.box, entry.chart.box)
    assert cfg.chart.fd_step == entry.chart.fd_step
    pts = np.vstack([entry.chart.mesh_points(5), entry.chart.sample_points(64, seed=13)])
    assert np.abs(cfg.randers.g(pts) - entry.g(pts)).max() <= 1e-15
    assert np.abs(cfg.randers.tau(pts) - entry.tau(pts)).max() <= 1e-15


@pytest.mark.parametrize("name, fixture", [
    ("example-2.5", "flat_25"),
    ("example-2.5-sphere", "sphere_25"),
    ("example-2.5-hyperbolic", "hyperbolic_25"),
])
def test_radial_tau_matches_config_expressions(name, fixture, request):
    """The closed-form radial drift equals the catalog config's expression tau."""
    from almostiso.config import config_from_dict

    entry = request.getfixturevalue(fixture)
    cfg = config_from_dict(build_gallery_entry(name, c=entry.c).raw)
    pts = np.vstack([entry.chart.mesh_points(5), entry.chart.sample_points(64, seed=13)])
    assert np.abs(entry.tau(pts) - cfg.randers.tau(pts)).max() <= 1e-15


def test_fubini_study_c0_full_killing_dimension():
    """With no drift the dimension is the chart metric's own Killing count."""
    from almostiso import almost_killing_dimension, make_fubini_study_4d

    entry = make_fubini_study_4d(0.0)
    rep = almost_killing_dimension(entry.chart, entry.g, entry.tau,
                                   dtau=entry.dtau, cross_validate=False)
    assert rep.dimension == 8
    assert rep.gap > 1e2


def test_fubini_study_real_form_matches_complex_hessian():
    """The real closed form equals the complex Hessian of (1/2) log(1 + |z|^2)."""
    def complex_hessian_form(x):
        C = np.zeros((2, 4), dtype=complex)
        C[0, 0], C[0, 1], C[1, 2], C[1, 3] = 1.0, 1.0j, 1.0, 1.0j
        z = np.stack([x[..., 0] + 1j * x[..., 1], x[..., 2] + 1j * x[..., 3]], axis=-1)
        denom = (1.0 + (np.abs(z) ** 2).sum(axis=-1))[..., None, None]
        h = 0.5 * (np.eye(2) * denom - np.conj(z)[..., :, None] * z[..., None, :]) / denom ** 2
        return 2.0 * np.real(np.einsum("...jk,ja,kb->...ab", h, C, np.conj(C)))

    x = np.random.default_rng(3).uniform(-0.5, 0.5, (1000, 4))
    assert np.abs(_fs_metric_components(x) - complex_hessian_form(x)).max() <= 1e-15


def test_hyperbolic_catalog_entry_stable_across_cuts():
    """The catalog's hyperbolic chart keeps dimension 3 at the 1e-7, 1e-6 and 1e-5 cuts."""
    from almostiso import almost_killing_dimension
    from almostiso.config import config_from_dict

    entry = build_gallery_entry("example-2.5-hyperbolic")
    cfg = config_from_dict(entry.raw)
    assert cfg.chart.fd_step == entry.chart.fd_step
    for t in (1e-7, 1e-6, 1e-5):
        rep = almost_killing_dimension(entry.chart, entry.g, entry.tau, dtau=entry.dtau,
                                       sv_threshold=t, cross_validate=False)
        assert rep.dimension == 3, t


@pytest.mark.parametrize("fixture", ["sphere_25", "fubini_study"])
def test_norm_at_matches_randers_eval(fixture, request):
    """The per-point norm agrees with the batched Randers evaluator."""
    from almostiso import randers_eval

    entry = request.getfixturevalue(fixture)
    data = entry.randers
    n = entry.chart.dim
    V = np.random.default_rng(7).standard_normal((200, n))
    for x in entry.chart.sample_points(4, seed=19):
        expected = randers_eval(data, np.broadcast_to(x, V.shape), V)
        np.testing.assert_allclose(data.norm_at(x)(V), expected, rtol=1e-15, atol=0)
