"""Randers norm evaluation and one-form shifts."""

import numpy as np
import pytest

from almostiso import (
    ChartDomain,
    OneFormField,
    RandersData,
    RiemannianField,
    add_one_form,
    convexity_margin,
    randers_eval,
    randers_metric,
)
from almostiso.errors import ConvexityError, DegenerateInputError

CHART = ChartDomain([[-0.5, 0.5], [-0.5, 0.5]])


def constant_data(g, tau):
    return RandersData(RiemannianField.constant(g), OneFormField.constant(tau))


def euclidean():
    """The Euclidean norm: a flat Randers metric with tau = 0."""
    return randers_metric(constant_data(np.eye(2), [0.0, 0.0]), chart=CHART)


class TestRandersEval:
    def test_euclidean_norm(self):
        data = constant_data(np.eye(2), [0.0, 0.0])
        assert randers_eval(data, np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_identity_with_drift(self):
        data = constant_data(np.eye(2), [0.5, 0.0])
        assert randers_eval(data, np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(1.5)

    def test_anisotropic(self):
        # direct formula: sqrt(4 + 1) + 0.1
        data = constant_data(np.diag([4.0, 1.0]), [0.1, 0.0])
        val = randers_eval(data, np.zeros(2), np.array([1.0, 1.0]))
        assert val == pytest.approx(np.sqrt(5.0) + 0.1, abs=1e-12)

    def test_zero_vector_rejected(self):
        data = constant_data(np.eye(2), [0.0, 0.0])
        with pytest.raises(DegenerateInputError):
            randers_eval(data, np.zeros(2), np.zeros(2))

    def test_inadmissible_tau_rejected(self):
        data = constant_data(np.eye(2), [1.0, 0.0])
        with pytest.raises(ConvexityError):
            randers_eval(data, np.zeros(2), np.array([1.0, 0.0]))

    def test_batched_evaluation(self):
        data = constant_data(np.eye(2), [0.3, 0.0])
        X = np.zeros((5, 2))
        Y = np.tile([1.0, 0.0], (5, 1))
        assert np.allclose(randers_eval(data, X, Y), 1.3)

    @staticmethod
    def _batch(n):
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.4, 0.4, (270, 48, n))
        y = rng.standard_normal((270, 48, n))
        return x, y, OneFormField.constant(0.1 * rng.standard_normal(n))

    @pytest.mark.parametrize("n", [2, 4])
    def test_constant_identity_matches_general_field(self, n):
        # the constant path is one matmul; with g = I it is exact
        x, y, tau = self._batch(n)
        eye = np.eye(n)
        general = RiemannianField(lambda p: np.broadcast_to(eye, p.shape[:-1] + (n, n)).copy(), n)
        fast = randers_eval(RandersData(RiemannianField.constant(eye), tau), x, y)
        slow = randers_eval(RandersData(general, tau), x, y)
        assert np.array_equal(fast, slow)

    def test_constant_spd_matches_general_field(self):
        x, y, tau = self._batch(4)
        A = np.random.default_rng(6).standard_normal((4, 4))
        G = A @ A.T + 4.0 * np.eye(4)
        general = RiemannianField(lambda p: np.broadcast_to(G, p.shape[:-1] + (4, 4)).copy(), 4)
        fast = randers_eval(RandersData(RiemannianField.constant(G), tau), x, y)
        slow = randers_eval(RandersData(general, tau), x, y)
        np.testing.assert_allclose(fast, slow, rtol=4 * np.finfo(float).eps, atol=0)


    def test_constant_tau_matches_general_field_on_readme_config(self):
        # README's chart and g with a constant tau: the broadcast view, checked
        # once, gives the values of a general field checked at every call
        from almostiso.config import config_from_dict

        cfg = config_from_dict({
            "chart": {"box": [[-0.5, 0.5], [-0.5, 0.5]], "fd_step": 1e-3},
            "metric": {"kind": "randers",
                       "g": {"kind": "constant", "matrix": [[1, 0], [0, 1]]},
                       "tau": {"kind": "constant", "components": [0.2, -0.1]}},
        })
        tau = cfg.randers.tau
        assert tau.values is not None
        general = OneFormField(lambda p: np.broadcast_to(tau.values, p.shape).copy(), 2)
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.4, 0.4, (270, 48, 2))
        y = rng.standard_normal((270, 48, 2))
        fast = randers_eval(cfg.randers, x, y)
        slow = randers_eval(RandersData(cfg.randers.g, general), x, y)
        assert np.array_equal(fast, slow)


class TestAddOneForm:
    def test_zero_shift_identity(self):
        F = euclidean()
        G = add_one_form(F, OneFormField.constant([0.0, 0.0]))
        y = np.array([0.3, 0.4])
        assert G(np.zeros(2), y) == pytest.approx(F(np.zeros(2), y))

    def test_matches_randers(self):
        F = euclidean()
        G = add_one_form(F, OneFormField.constant([0.5, 0.0]))
        data = constant_data(np.eye(2), [0.5, 0.0])
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((20, 2))
        X = np.zeros((20, 2))
        assert np.allclose(G(X, Y), randers_eval(data, X, Y, validate=False))

    def test_unit_shift_rejected(self):
        F = euclidean()
        with pytest.raises(ConvexityError):
            add_one_form(F, OneFormField.constant([1.0, 0.0]))

    def test_symmetrization_discards_shift(self):
        # the shift is odd in y, so the even part F(y) + F(-y) keeps no trace of it
        F = randers_metric(constant_data(np.diag([2.0, 1.0]), [0.1, 0.0]), chart=CHART)
        G = add_one_form(F, OneFormField.constant([0.2, -0.1]))
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((30, 2))
        X = np.zeros((30, 2))
        assert np.allclose(G(X, Y) + G(X, -Y), F(X, Y) + F(X, -Y), atol=1e-12)


class TestConvexityMargin:
    def test_zero_tau(self):
        data = constant_data(np.eye(2), [0.0, 0.0])
        assert convexity_margin(data, np.zeros((1, 2))) == pytest.approx(1.0)

    def test_euclidean_half(self):
        data = constant_data(np.eye(2), [0.5, 0.0])
        assert convexity_margin(data, np.zeros((1, 2))) == pytest.approx(0.5)

    def test_dual_norm_formula(self):
        # |tau|_g^2 = tau . g^{-1} tau = 0.64 / 4 -> margin 0.6
        data = constant_data(np.diag([4.0, 1.0]), [0.8, 0.0])
        assert convexity_margin(data, np.zeros((1, 2))) == pytest.approx(0.6)

    def test_reports_negative_margin(self):
        data = constant_data(np.eye(2), [1.2, 0.0])
        assert convexity_margin(data, np.zeros((1, 2))) == pytest.approx(-0.2)


class TestNormProperties:
    def test_homogeneity(self):
        data = constant_data(np.array([[2.0, 0.3], [0.3, 1.0]]), [0.1, 0.15])
        F = randers_metric(data)
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((50, 2))
        X = np.zeros((50, 2))
        base = F(X, Y)
        for lam in (0.5, 2.0, 10.0):
            np.testing.assert_allclose(F(X, lam * Y), lam * base, rtol=1e-12)

    def test_triangle_inequality(self):
        data = constant_data(np.diag([4.0, 1.0]), [0.3, 0.1])
        assert convexity_margin(data, np.zeros((1, 2))) > 0
        F = randers_metric(data)
        rng = np.random.default_rng(4)
        Y1 = rng.standard_normal((100, 2))
        Y2 = rng.standard_normal((100, 2))
        X = np.zeros((100, 2))
        lhs = F(X, Y1 + Y2)
        rhs = F(X, Y1) + F(X, Y2)
        assert np.all(lhs <= rhs + 1e-12)
