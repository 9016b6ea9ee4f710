"""Finite-difference calculus: exterior derivative, Lie derivatives, flows."""

import numpy as np
import pytest

from almostiso import (
    ChartDomain,
    OneFormField,
    RiemannianField,
    TwoFormField,
    VectorField,
    exterior_derivative,
    flow_map,
    gradient_one_form,
    lie_derivative,
)
from almostiso.chart import _sobol
from almostiso.errors import BoundaryError, DomainEscapeError

CHART = ChartDomain([[-0.5, 0.5], [-0.5, 0.5]], fd_step=1e-3)
H = CHART.fd_step
FD_TOL = 10 * H ** 2

AREA_FORM = TwoFormField.constant([[0.0, 1.0], [-1.0, 0.0]])
ROTATION = VectorField(lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1), 2)
FLAT = RiemannianField.constant(np.eye(2))


def one_form(fx, fy):
    return OneFormField(lambda x: np.stack([fx(x), fy(x)], axis=-1), 2)


class TestChartDomain:
    def test_rejects_flat_box(self):
        with pytest.raises(ValueError):
            ChartDomain([[0.0, 0.0], [0.0, 1.0]])

    def test_rejects_coarse_fd_step(self):
        with pytest.raises(ValueError):
            ChartDomain([[-0.5, 0.5], [-0.5, 0.5]], fd_step=0.02)

    def test_boundary_margin(self):
        with pytest.raises(BoundaryError):
            CHART.require_interior(np.array([0.4999999, 0.0]), margin=1e-3)

    def test_sample_points_inside(self):
        pts = CHART.sample_points(37, seed=5)
        assert np.all(CHART.contains(pts))
        assert np.allclose(pts, CHART.sample_points(37, seed=5))  # seeded


class TestExteriorDerivative:
    def test_x1_dx2(self):
        # symbolic: d(x1 dx2) = dx1 ^ dx2
        tau = one_form(lambda x: np.zeros(x.shape[:-1]), lambda x: x[..., 0])
        val = exterior_derivative(CHART, tau, np.array([0.3, 0.7]) * 0.5)
        assert abs(val[0, 1] - 1.0) < FD_TOL
        assert np.allclose(val, -val.T)

    def test_exact_form_is_closed(self):
        # d(df) = 0 for f = sin(x1 + x2)
        tau = one_form(
            lambda x: np.cos(x[..., 0] + x[..., 1]),
            lambda x: np.cos(x[..., 0] + x[..., 1]),
        )
        val = exterior_derivative(CHART, tau, np.array([0.1, -0.2]))
        assert np.abs(val).max() < FD_TOL

    def test_rotational_form(self):
        # symbolic: d[(c/2)(x1 dx2 - x2 dx1)] = c dx1 ^ dx2, c = 0.4
        c = 0.4
        tau = one_form(lambda x: -0.5 * c * x[..., 1], lambda x: 0.5 * c * x[..., 0])
        val = exterior_derivative(CHART, tau, np.array([0.2, 0.1]))
        assert abs(val[0, 1] - c) < FD_TOL

    def test_numerical_gradient_is_closed(self):
        # d o d = 0 below 100 h^2 on a 5^n sample, for an FD gradient field
        f = lambda x: np.exp(0.3 * x[..., 0]) * np.sin(x[..., 1])
        tau = gradient_one_form(CHART, f)
        pts = CHART.mesh_points(5, margin=0.05)
        vals = exterior_derivative(CHART, tau, pts)
        assert np.abs(vals).max() < 100 * H ** 2

    def test_boundary_error(self):
        tau = one_form(lambda x: x[..., 1], lambda x: x[..., 0])
        with pytest.raises(BoundaryError):
            exterior_derivative(CHART, tau, np.array([0.5, 0.0]))


class TestLieDerivativeMetric:
    def test_translation_is_killing(self):
        K = VectorField.constant([1.0, 0.0])
        val = lie_derivative(CHART, K, FLAT, np.array([0.1, 0.2]))
        assert np.abs(val).max() < FD_TOL

    def test_rotation_is_killing(self):
        val = lie_derivative(CHART, ROTATION, FLAT, np.array([0.3, -0.1]))
        assert np.abs(val).max() < FD_TOL

    def test_stretch_field(self):
        # symbolic: L_K g = (d_i K_j + d_j K_i) for flat g, K = (x1, 0)
        K = VectorField(lambda x: np.stack([x[..., 0], np.zeros(x.shape[:-1])], axis=-1), 2)
        val = lie_derivative(CHART, K, FLAT, np.array([0.2, 0.2]))
        assert np.abs(val - np.diag([2.0, 0.0])).max() < FD_TOL

    def test_output_symmetric(self):
        K = VectorField(lambda x: np.stack([x[..., 1] ** 2, x[..., 0]], axis=-1), 2)
        val = lie_derivative(CHART, K, FLAT, np.array([0.1, 0.1]))
        assert np.array_equal(val, val.T)


class TestLieDerivativeTwoForm:
    def test_translation_preserves_constant_form(self):
        K = VectorField.constant([1.0, 0.0])
        val = lie_derivative(CHART, K, AREA_FORM, np.array([0.0, 0.0]))
        assert np.abs(val).max() < FD_TOL

    def test_rotation_preserves_area(self):
        val = lie_derivative(CHART, ROTATION, AREA_FORM, np.array([0.2, -0.3]))
        assert np.abs(val).max() < FD_TOL

    def test_stretch_expands_area(self):
        # symbolic: L_{x1 d1} (dx1^dx2) = dx1^dx2
        K = VectorField(lambda x: np.stack([x[..., 0], np.zeros(x.shape[:-1])], axis=-1), 2)
        val = lie_derivative(CHART, K, AREA_FORM, np.array([0.25, 0.1]))
        assert abs(val[0, 1] - 1.0) < FD_TOL


class TestFlowMap:
    def test_constant_field(self):
        big = ChartDomain([[-2, 2], [-2, 2]], fd_step=1e-3)
        K = VectorField.constant([1.0, 0.0])
        out = flow_map(big, K, 1.0, np.array([0.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0], atol=1e-12)

    def test_rotation_quarter_turn(self):
        big = ChartDomain([[-2, 2], [-2, 2]], fd_step=1e-3)
        out = flow_map(big, ROTATION, np.pi / 2, np.array([1.0, 0.0]), n_steps=64)
        assert np.abs(out - np.array([0.0, 1.0])).max() < 1e-6

    def test_zero_field_identity(self):
        K = VectorField.constant([0.0, 0.0])
        x = np.array([0.12, -0.3])
        assert np.array_equal(flow_map(CHART, K, 5.0, x), x)

    def test_flow_composition(self):
        big = ChartDomain([[-2, 2], [-2, 2]], fd_step=1e-3)
        x = np.array([0.8, 0.1])
        s, t = 0.4, 0.7
        once = flow_map(big, ROTATION, s + t, x, n_steps=128)
        twice = flow_map(big, ROTATION, t, flow_map(big, ROTATION, s, x, n_steps=64), n_steps=64)
        assert np.abs(once - twice).max() < 1e-6

    def test_domain_escape_reports_exit_time(self):
        K = VectorField.constant([1.0, 0.0])
        with pytest.raises(DomainEscapeError) as err:
            flow_map(CHART, K, 2.0, np.array([0.0, 0.0]), n_steps=64)
        assert err.value.exit_time is not None
        assert 0.4 < err.value.exit_time < 0.6

    def test_stacked_escape_reports_earliest_exit(self):
        # slice 0 leaves the box at t = 0.7, slice 1 at t = 0.2: the error
        # carries the earlier exit, not the first slice's
        K = VectorField.constant([1.0, 0.0])
        start = np.array([[[-0.2, 0.0], [-0.3, 0.1]],
                          [[0.0, 0.2], [0.3, -0.1]]])
        with pytest.raises(DomainEscapeError) as err:
            flow_map(CHART, K, 2.0, start, n_steps=64)
        assert 0.2 < err.value.exit_time <= 0.2 + 2.0 / 64

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            flow_map(CHART, ROTATION, 0.1, np.array([0.1, 0.1]), n_steps=8)


def test_convergence_order_second():
    """Halving the step cuts smooth-field residuals by about 4x."""
    tau = one_form(
        lambda x: np.exp(x[..., 1]),
        lambda x: np.sin(3.0 * x[..., 0]),
    )
    x = np.array([0.21, 0.13])
    exact = 3.0 * np.cos(3.0 * x[0]) - np.exp(x[1])  # d_1 tau_2 - d_2 tau_1
    h0 = 4e-3
    errs = []
    for h in (h0, h0 / 2):
        val = exterior_derivative(CHART, tau, x, step=h)
        errs.append(abs(val[0, 1] - exact))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


@pytest.mark.parametrize("T", [
    RiemannianField.conformal(lambda x: np.exp(0.5 * x[..., 0] ** 3), 2),
    TwoFormField(lambda x: (np.exp(0.5 * x[..., 0] ** 3) * np.cos(x[..., 1]))[..., None, None]
                 * np.array([[0.0, 1.0], [-1.0, 0.0]]), 2),
], ids=["metric", "two-form"])
def test_convergence_order_lie_derivative(T):
    """The Lie-derivative operator shares the second-order convergence."""
    K = VectorField(lambda x: np.stack([np.sin(x[..., 1]), x[..., 0]], axis=-1), 2)
    x = np.array([0.3, 0.2])
    # reference from a much finer step
    ref = lie_derivative(CHART, K, T, x, step=6.25e-5)
    errs = [np.abs(lie_derivative(CHART, K, T, x, step=h) - ref).max()
            for h in (2e-3, 1e-3)]
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_two_form_antisymmetry_enforced():
    bad = TwoFormField(lambda x: np.ones(x.shape[:-1] + (2, 2)), 2)
    with pytest.raises(ValueError):
        bad(np.zeros(2))


@pytest.mark.parametrize("n", [2, 4])
def test_riemannian_field_validation(n):
    def field(i, j, value, scale=3.0):
        def comps(x):
            out = np.broadcast_to(scale * np.eye(n), x.shape[:-1] + (n, n)).copy()
            out[..., i, j] += value
            return out
        return RiemannianField(comps, n)

    x = np.zeros((5, n))
    for i, j, value in ((0, n - 1, np.nan), (n - 1, n - 1, np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            field(i, j, value)(x)
    # the asymmetry tolerance is 1e-12 of the largest component (here 3)
    with pytest.raises(ValueError, match="not symmetric"):
        field(n - 1, 0, 2e-12 * 3.0)(x)
    field(n - 1, 0, 0.5e-12 * 3.0)(x)


@pytest.mark.parametrize("n", [2, 4])
def test_constant_riemannian_field_validated_at_construction(n):
    # the checks and messages of a general field's evaluation, made once
    for value, message in ((np.nan, "non-finite"), (np.inf, "non-finite"),
                           (2e-12 * 3.0, "not symmetric")):
        M = 3.0 * np.eye(n)
        M[n - 1, 0] += value
        with pytest.raises(ValueError, match=message):
            RiemannianField.constant(M)
    with pytest.raises(ValueError, match="field returned shape"):
        RiemannianField.constant(np.ones((n, n + 1)))
    g = RiemannianField.constant(3.0 * np.eye(n))
    with pytest.raises(ValueError, match="points have dimension"):
        g(np.zeros((5, n + 1)))
    out = g(np.zeros((5, 7, n)))
    assert out.shape == (5, 7, n, n)
    assert np.array_equal(out, np.broadcast_to(3.0 * np.eye(n), out.shape))
    assert not out.flags.writeable and not g.matrix.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0, 0, 0] = 1.0


def test_constant_riemannian_field_owns_its_matrix():
    # the field freezes a copy: the caller's array stays writable and apart
    M = np.eye(2)
    g = RiemannianField.constant(M)
    M[0, 0] = 5.0
    assert g(np.zeros(2))[0, 0] == 1.0


def test_constant_matrix_is_not_a_constructor_parameter():
    # only constant() sets the matrix, so it cannot disagree with components
    import dataclasses

    with pytest.raises(TypeError):
        RiemannianField(lambda x: x, 2, np.eye(2))
    g = RiemannianField.constant(np.eye(2))
    h = dataclasses.replace(g, components=lambda x: 2.0 * g.components(x))
    assert h.matrix is None
    assert np.array_equal(h(np.zeros(2)), 2.0 * np.eye(2))


@pytest.mark.parametrize("n", [2, 4])
def test_constant_one_form_validated_at_construction(n):
    # the checks and messages of a general field's evaluation, made once
    for value in (np.nan, np.inf):
        t = np.full(n, 0.1)
        t[n - 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            OneFormField.constant(t)
    with pytest.raises(ValueError, match="field returned shape"):
        OneFormField.constant(np.ones((n, 2)))
    values = np.arange(n) / 10.0
    tau = OneFormField.constant(values)
    with pytest.raises(ValueError, match="points have dimension"):
        tau(np.zeros((5, n + 1)))
    out = tau(np.zeros((5, 7, n)))
    assert out.shape == (5, 7, n)
    assert np.array_equal(out, np.broadcast_to(values, out.shape))
    assert not out.flags.writeable and not tau.values.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0, 0] = 1.0
    # the field freezes a copy: the caller's array stays writable and apart
    values[0] = 5.0
    assert tau(np.zeros(n))[0] == 0.0


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.spatial (3D grid weights) loads on first use, and nothing else
    # imports scipy: neither `import almostiso` nor the CLI's start-up, nor
    # building the gallery, counting dimensions, betterment and distances
    import os
    import subprocess
    import sys

    import almostiso

    src = os.path.dirname(os.path.dirname(os.path.abspath(almostiso.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import almostiso; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "import almostiso.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "from almostiso import gallery_catalog, build_gallery_entry, "
            "almost_killing_dimension, distance, randers_metric; "
            "from almostiso.cli import _betterment_recovery; "
            "entries = {n: build_gallery_entry(n) for n in gallery_catalog()}; "
            "[almost_killing_dimension(e.chart, e.randers.g, e.randers.tau, dtau=e.dtau, "
            "cross_validate=False) for e in (entries['example-2.5'], entries['example-3'])]; "
            "[_betterment_recovery(entries[n], None, 0) for n in ('example-2.5', 'example-3')]; "
            "e = entries['example-2.5']; "
            "distance(randers_metric(e.randers, e.chart), [0.0, 0.0], [0.1, 0.05], k=4, iters=10); "
            "print(len(entries), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["[]", "[]", "9", "[]"]


def _scipy_sobol(d, count, seed):
    from scipy.stats import qmc

    n = 1 << max(0, (count - 1).bit_length())
    return qmc.Sobol(d=d, scramble=True, seed=seed).random(n)[:count]


SOBOL_SEEDS = list(range(14)) + list(range(101, 111)) + [3, 5, 7, 9]
SOBOL_COUNTS = [1, 3, 5, 16, 37, 64, 300, 512]


@pytest.mark.parametrize("d", range(1, 13))
def test_sobol_is_scipys_scrambled_sobol(d):
    for seed in SOBOL_SEEDS:
        for count in SOBOL_COUNTS:
            ref = _scipy_sobol(d, count, seed)
            assert np.array_equal(_sobol(d, count, seed), ref), (seed, count)


def test_sobol_dimension_limit():
    with pytest.raises(ValueError, match="1 to 12 dimensions"):
        _sobol(13, 4, 0)
    with pytest.raises(ValueError, match="1 to 12 dimensions"):
        ChartDomain(np.tile([-1.0, 1.0], (13, 1))).sample_points(4)


def test_gallery_sample_points_are_scipys():
    # the points every gallery certificate and count is sampled at
    from almostiso import build_gallery_entry, gallery_catalog

    for name in gallery_catalog():
        chart = build_gallery_entry(name).chart
        for margin in (None, 0.1 * chart.edges.min()):
            m = 0.05 * chart.edges.min() if margin is None else margin
            lo, hi = chart.lower + m, chart.upper - m
            for seed in (3, 5, 7, 9):
                for count in (3, 8, 16, 32, 37):
                    ref = lo + _scipy_sobol(chart.dim, count, seed) * (hi - lo)
                    assert np.array_equal(chart.sample_points(count, seed, margin), ref), name
