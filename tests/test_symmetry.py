"""Residual matrices, nullspace dimensions, and invariant 2-forms."""

import math

import numpy as np
import pytest

from almostiso import (
    ChartDomain,
    OneFormField,
    RiemannianField,
    TwoFormField,
    VectorFieldAnsatz,
    almost_killing_dimension,
    build_residual,
    invariant_two_forms,
    lie_derivative,
    nullspace_dimension,
    so_generators,
    standard_complex_structure,
    u2_generators,
)
from almostiso.chart import _partials
from almostiso.errors import UnderdeterminedSystemError
from almostiso.symmetry import _monomial_values

CHART2 = ChartDomain([[-0.5, 0.5], [-0.5, 0.5]], fd_step=1e-3)
FLAT2 = RiemannianField.constant(np.eye(2))
FLAT4 = RiemannianField.constant(np.eye(4))


def mono_values(alpha, X):
    """x^alpha as the product of one power per axis."""
    v = np.ones(len(X))
    for i, p in enumerate(alpha):
        if p:
            v = v * X[:, i] ** p
    return v


def mono_partial(alpha, j, X):
    """d_j x^alpha, exactly zero where alpha_j = 0."""
    if alpha[j] == 0:
        return np.zeros(len(X))
    lowered = list(alpha)
    lowered[j] -= 1
    return alpha[j] * mono_values(tuple(lowered), X)


def sample(chart, ansatz, factor=5):
    return chart.sample_points(factor * ansatz.n_coefficients, seed=42, margin=0.05)


def entry_residual(entry):
    """A gallery entry's degree-2 residual at seeded interior points."""
    chart = entry.chart
    ansatz = VectorFieldAnsatz(chart.dim, 2)
    pts = chart.sample_points(5 * ansatz.n_coefficients, seed=101,
                              margin=0.05 * chart.edges.min())
    return chart, ansatz, pts, build_residual(entry.g, entry.dtau, ansatz, pts, h=chart.fd_step)


class TestAnsatz:
    def test_coefficient_count(self):
        assert VectorFieldAnsatz(2, 2).n_coefficients == 12   # 2 * C(4, 2)
        assert VectorFieldAnsatz(4, 2).n_coefficients == 60   # 4 * C(6, 2)
        assert VectorFieldAnsatz(2, 1).n_coefficients == 6

    def test_field_evaluation_linear(self):
        ansatz = VectorFieldAnsatz(2, 2)
        rng = np.random.default_rng(0)
        c1, c2 = rng.standard_normal((2, ansatz.n_coefficients))
        X = rng.uniform(-0.5, 0.5, (7, 2))
        lhs = ansatz.field(2.0 * c1 + c2)(X)
        rhs = 2.0 * ansatz.field(c1)(X) + ansatz.field(c2)(X)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_monomial_ordering_documented(self):
        # constant monomial first, then degree-1 in axis order
        ansatz = VectorFieldAnsatz(2, 1)
        assert ansatz.exponents[0] == (0, 0)
        assert ansatz.exponents[1] == (1, 0)
        assert ansatz.exponents[2] == (0, 1)

    @pytest.mark.parametrize("n", [2, 4])
    def test_monomial_values_match_per_monomial_products(self, n):
        X = np.random.default_rng(3).uniform(-0.5, 0.5, (40, n))
        for degree in (1, 2, 3):
            ansatz = VectorFieldAnsatz(n, degree)
            ref = np.stack([mono_values(a, X) for a in ansatz.exponents], axis=1)
            got = _monomial_values(ansatz.table, X)
            if degree <= 2:
                # at most two non-unit factors: the same product, bit for bit
                assert np.array_equal(got, ref)
            else:
                # x^3 is (x x) x here and pow(x, 3) there
                np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=0)


class TestBuildResidual:
    def test_flat_killing_algebra_2d(self):
        ansatz = VectorFieldAnsatz(2, 1)
        R = build_residual(FLAT2, None, ansatz, sample(CHART2, ansatz), h=1e-3)
        res = nullspace_dimension(R)
        assert res.dimension == 3   # two translations + rotation

    def test_flat_killing_algebra_4d(self):
        chart = ChartDomain(np.tile([-0.5, 0.5], (4, 1)))
        ansatz = VectorFieldAnsatz(4, 1)
        R = build_residual(FLAT4, None, ansatz, sample(chart, ansatz), h=1e-3)
        assert nullspace_dimension(R).dimension == 10   # n(n+1)/2

    def test_weighted_area_form_breaks_symmetry(self):
        # brute force over the flat Killing basis: L_K (x1 dx1^dx2) = 0
        # forces K = d/dx2 up to scale
        ansatz = VectorFieldAnsatz(2, 1)
        beta = TwoFormField(
            lambda x: x[..., 0][..., None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]]), 2)
        R = build_residual(FLAT2, beta, ansatz, sample(CHART2, ansatz), h=1e-3)
        res = nullspace_dimension(R)
        assert res.dimension == 1
        field = VectorFieldAnsatz(2, 1).field(res.basis[0])
        vals = field(np.array([[0.25, -0.3], [0.0, 0.2]]))
        # constant field along the second axis
        assert np.abs(vals[:, 0]).max() < 1e-8
        assert np.abs(vals[:, 1] - vals[0, 1]).max() < 1e-8

    def test_too_few_points_rejected(self):
        ansatz = VectorFieldAnsatz(2, 2)
        with pytest.raises(UnderdeterminedSystemError):
            build_residual(FLAT2, None, ansatz, np.zeros((5, 2)), h=1e-3)

    def test_row_counts(self):
        ansatz = VectorFieldAnsatz(2, 2)
        pts = sample(CHART2, ansatz)
        beta = TwoFormField.constant(0.4 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        R = build_residual(FLAT2, beta, ansatz, pts, h=1e-3)
        assert R.metric_rows == len(pts) * 3
        assert R.form_rows == len(pts) * 1
        assert R.matrix.shape == (len(pts) * 4, 12)

    @pytest.mark.parametrize("entry_name", ["flat_25", "sphere_25", "kahler_3"])
    def test_columns_match_lie_derivative(self, entry_name, request):
        # column c holds the independent components of L_K g and L_K dtau
        # for the ansatz field K = e_c, at every sample point
        entry = request.getfixturevalue(entry_name)
        chart, ansatz, pts, R = entry_residual(entry)
        n = chart.dim
        sym, skew = np.triu_indices(n), np.triu_indices(n, 1)
        g_rows = R.matrix[:R.metric_rows].reshape(len(pts), len(sym[0]), -1)
        form_rows = R.matrix[R.metric_rows:].reshape(len(pts), len(skew[0]), -1)
        x = pts[:3]
        tol = 10 * chart.fd_step ** 2
        for c, e_c in enumerate(np.eye(ansatz.n_coefficients)):
            K = ansatz.field(e_c)
            Lg = lie_derivative(chart, K, entry.g, x)
            Lb = lie_derivative(chart, K, entry.dtau, x)
            np.testing.assert_allclose(g_rows[:3, :, c], Lg[:, sym[0], sym[1]], rtol=0, atol=tol)
            np.testing.assert_allclose(form_rows[:3, :, c], Lb[:, skew[0], skew[1]],
                                       rtol=0, atol=tol)

    @pytest.mark.parametrize("entry_name", ["sphere_25", "kahler_3"])
    def test_equals_per_column_loop(self, entry_name, request):
        # the broadcast assembly does the loop's arithmetic in the loop's order
        entry = request.getfixturevalue(entry_name)
        chart, ansatz, pts, R = entry_residual(entry)
        n, h = chart.dim, chart.fd_step
        blocks = []
        for T, offset in ((entry.g, 0), (entry.dtau, 1)):
            j, l = np.triu_indices(n, offset)
            Tx = T(pts)
            dT = np.moveaxis(_partials(T, pts, n, h), 0, 1)
            cols = []
            for i in range(n):
                for alpha in ansatz.exponents:
                    Ka = mono_values(alpha, pts)
                    dK = np.stack([mono_partial(alpha, a, pts) for a in range(n)], axis=1)
                    L = (Ka[:, None, None] * dT[:, i]
                         + Tx[:, i, :][:, None, :] * dK[:, :, None]
                         + Tx[:, :, i][:, :, None] * dK[:, None, :])
                    cols.append(L[:, j, l])
            blocks.append(np.stack(cols, axis=-1).reshape(-1, len(cols)))
        assert np.array_equal(R.matrix, np.vstack(blocks))


class TestNullspaceDimension:
    def test_area_form_dimensions(self):
        # uniform area-form weight keeps all rigid motions
        ansatz = VectorFieldAnsatz(2, 2)
        beta = TwoFormField.constant(0.4 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        R = build_residual(FLAT2, beta, ansatz, sample(CHART2, ansatz), h=1e-3)
        res = nullspace_dimension(R)
        assert res.dimension == 3
        assert res.gap > 1e2
        assert res.warning is None

    def test_kahler_form_4d(self):
        chart = ChartDomain(np.tile([-0.5, 0.5], (4, 1)))
        ansatz = VectorFieldAnsatz(4, 2)
        om = np.zeros((4, 4))
        om[0, 1] = om[2, 3] = 1.0
        om[1, 0] = om[3, 2] = -1.0
        beta = TwoFormField.constant(0.2 * om)
        R = build_residual(FLAT4, beta, ansatz, sample(chart, ansatz), h=1e-3)
        assert nullspace_dimension(R).dimension == 8

    def test_flat_4d_no_form(self):
        chart = ChartDomain(np.tile([-0.5, 0.5], (4, 1)))
        ansatz = VectorFieldAnsatz(4, 2)
        R = build_residual(FLAT4, None, ansatz, sample(chart, ansatz), h=1e-3)
        assert nullspace_dimension(R).dimension == 10

    def test_monotone_in_constraints(self):
        # adding the form rows never enlarges the nullspace
        ansatz = VectorFieldAnsatz(2, 2)
        pts = sample(CHART2, ansatz)
        beta = TwoFormField(
            lambda x: x[..., 0][..., None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]]), 2)
        d_plain = nullspace_dimension(build_residual(FLAT2, None, ansatz, pts)).dimension
        d_formed = nullspace_dimension(build_residual(FLAT2, beta, ansatz, pts)).dimension
        assert d_formed <= d_plain

    def test_threshold_stability(self):
        ansatz = VectorFieldAnsatz(2, 2)
        beta = TwoFormField.constant(0.4 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        R = build_residual(FLAT2, beta, ansatz, sample(CHART2, ansatz), h=1e-3)
        dims = {nullspace_dimension(R, thr).dimension for thr in (1e-7, 1e-6, 1e-5)}
        assert dims == {3}

    @pytest.mark.filterwarnings("error")
    def test_zero_matrix_is_all_null(self):
        res = nullspace_dimension(np.zeros((6, 3)))
        assert res.dimension == 3
        assert res.basis.shape == (3, 3)
        assert res.gap == math.inf
        assert res.warning is None

    @pytest.mark.filterwarnings("error")
    def test_exactly_zero_dropped_value(self):
        M = np.vstack([np.diag([2.0, 1.0, 0.0]), np.zeros((3, 3))])
        res = nullspace_dimension(M)
        assert res.dimension == 1
        assert res.gap == math.inf
        assert res.warning is None
        # the u(2) action on 2-forms has an exactly zero singular value
        assert invariant_two_forms(u2_generators()).dimension == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape, rank", [((1, 3), 1), ((3, 6), 0)])
    def test_wide_matrix_counts_unreturned_directions(self, shape, rank):
        M = np.ones(shape) if rank else np.zeros(shape)
        res = nullspace_dimension(M)
        assert res.dimension == shape[1] - rank
        assert res.basis.shape == (shape[1] - rank, shape[1])
        np.testing.assert_allclose(M @ res.basis.T, 0.0, atol=1e-12)
        np.testing.assert_allclose(res.basis @ res.basis.T, np.eye(len(res.basis)), atol=1e-12)
        assert res.gap == math.inf


class TestInvariantTwoForms:
    def test_so3_has_none(self):
        assert invariant_two_forms(so_generators(3)).dimension == 0

    def test_so4_has_none(self):
        assert invariant_two_forms(so_generators(4)).dimension == 0

    def test_so2_trivial_action(self):
        assert invariant_two_forms(so_generators(2)).dimension == 1

    def test_u2_fixes_kahler_form(self):
        res = invariant_two_forms(u2_generators())
        assert res.dimension == 1
        kahler = np.zeros((4, 4))
        kahler[0, 1] = kahler[2, 3] = 1.0
        kahler[1, 0] = kahler[3, 2] = -1.0
        cos = abs(np.sum(res.basis[0] * kahler)) / (
            np.linalg.norm(res.basis[0]) * np.linalg.norm(kahler))
        assert cos > 1 - 1e-8

    def test_u2_generators_commute_with_j(self):
        J = standard_complex_structure(4)
        for A in u2_generators():
            assert np.abs(A @ J - J @ A).max() < 1e-14
            assert np.abs(A + A.T).max() == 0.0

    def test_rejects_nonantisymmetric(self):
        with pytest.raises(ValueError):
            invariant_two_forms([np.eye(3)])


class TestAlmostKillingPipeline:
    def test_flat_25_dimension(self, flat_25):
        rep = almost_killing_dimension(
            flat_25.chart, flat_25.g, flat_25.tau, dtau=flat_25.dtau,
            cross_validate=False)
        assert rep.dimension == 3
        assert rep.gap > 1e2

    def test_scaling_robustness(self, flat_25):
        # halving tau (and with it d tau) keeps the dimension
        half_tau = OneFormField(lambda x: 0.5 * flat_25.tau(x), 2)
        half_dtau = TwoFormField(lambda x: 0.5 * flat_25.dtau(x), 2)
        rep = almost_killing_dimension(
            flat_25.chart, flat_25.g, half_tau, dtau=half_dtau, cross_validate=False)
        assert rep.dimension == 3

    def test_cross_validation_runs(self, flat_25):
        rep = almost_killing_dimension(
            flat_25.chart, flat_25.g, flat_25.tau, dtau=flat_25.dtau,
            cross_validate=True, n_triples=4, iters=300)
        assert rep.max_t_deviation < 1e-4

    def test_known_generators_in_nullspace(self, flat_25):
        # translations and the rotation project onto the computed basis
        rep = almost_killing_dimension(
            flat_25.chart, flat_25.g, flat_25.tau, dtau=flat_25.dtau,
            cross_validate=False)
        ansatz = VectorFieldAnsatz(2, 2)
        nm = ansatz.n_monomials
        known = []
        for comp, mono in [(0, (0, 0)), (1, (0, 0))]:        # translations
            vec = np.zeros(ansatz.n_coefficients)
            vec[comp * nm + ansatz.exponents.index(mono)] = 1.0
            known.append(vec)
        rot = np.zeros(ansatz.n_coefficients)                 # (-x2, x1)
        rot[0 * nm + ansatz.exponents.index((0, 1))] = -1.0
        rot[1 * nm + ansatz.exponents.index((1, 0))] = 1.0
        known.append(rot / np.linalg.norm(rot))
        B = rep.basis                                          # orthonormal rows
        for vec in known:
            vec = vec / np.linalg.norm(vec)
            residual = np.linalg.norm(vec - B.T @ (B @ vec))
            assert residual < 1e-4
