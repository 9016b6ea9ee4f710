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


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats (Sobol samples), scipy.optimize (support LPs) and
    # scipy.spatial (3D grid weights) load on first use: importing them cost
    # most of `import almostiso`, and the CLI's start-up loads no scipy at all
    import os
    import subprocess
    import sys

    import almostiso

    src = os.path.dirname(os.path.dirname(os.path.abspath(almostiso.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import almostiso; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.spatial') "
            "if m in sys.modules)); import almostiso.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["[]", "[]"]
