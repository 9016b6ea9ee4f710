"""Nonsymmetric distances, the triangular function, and invariance checks."""

import numpy as np
import pytest

from almostiso import (
    ChartDomain,
    MetricField,
    OneFormField,
    RandersData,
    RiemannianField,
    direction_grid,
    distance,
    distance_batch,
    make_randers_closed,
    pullback_delta,
    randers_metric,
    seeded_triples,
    solver_tolerance_certificate,
    t_invariance_check,
    triangular_batch,
)
from almostiso import almost_killing_dimension, build_gallery_entry, geodesic
from almostiso.errors import BoundaryError, DegenerateInputError, DomainEscapeError

BIG = ChartDomain([[-4.0, 4.0], [-4.0, 4.0]], fd_step=1e-3)
BOX = ChartDomain([[-0.5, 0.5], [-0.5, 0.5]], fd_step=1e-3)


def flat_randers(tau_vec, chart=BIG):
    data = RandersData(RiemannianField.constant(np.eye(len(tau_vec))),
                       OneFormField.constant(tau_vec))
    return randers_metric(data, chart=chart)


def rotational_randers(c, chart=BOX):
    """Flat metric with the non-closed drift (c/2)(x1 dx2 - x2 dx1)."""
    tau = OneFormField(
        lambda x: 0.5 * c * np.stack([-x[..., 1], x[..., 0]], axis=-1), 2)
    data = RandersData(RiemannianField.constant(np.eye(2)), tau)
    return randers_metric(data, chart=chart)


class TestDistance:
    def test_euclidean_straight(self):
        F = flat_randers([0.0, 0.0])
        assert distance(F, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, abs=1e-6)

    def test_closed_drift_path_independent(self):
        # a constant one-form integrates to the endpoint difference, so the
        # straight segment stays optimal: d = 1 +- 0.3
        F = flat_randers([0.3, 0.0])
        assert distance(F, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.3, abs=1e-5)
        assert distance(F, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.7, abs=1e-5)

    def test_rotational_drift_bracketed(self):
        # F >= (1 - max|tau|_g) |dy| gives the lower bound; the straight
        # segment carries no drift contribution, giving the upper bound
        F = rotational_randers(0.4)
        d = distance(F, [0.0, 0.0], [0.2, 0.0], k=24, iters=600)
        max_tau = 0.2 * np.sqrt(0.5)
        assert (1 - max_tau) * 0.2 <= d <= 0.2 + 1e-12
        assert d <= 0.2 + 1e-12

    def test_constant_drift_asymmetry(self):
        # line-integral cancellation: d(p,q) - d(q,p) = 2 tau(q - p)
        tau = np.array([0.25, -0.1])
        F = flat_randers(tau)
        p, q = np.array([0.1, -0.3]), np.array([0.8, 0.5])
        fwd = distance(F, p, q)
        bwd = distance(F, q, p)
        assert fwd - bwd == pytest.approx(2 * tau @ (q - p), abs=1e-6)

    def test_never_longer_than_straight(self):
        F = rotational_randers(0.4)
        p, q = np.array([-0.2, -0.1]), np.array([0.3, 0.25])
        straight = F(0.5 * (p + q), q - p)
        assert distance(F, p, q) <= straight + 1e-12

    def test_refinement_monotonicity(self):
        F = rotational_randers(0.4)
        p, q = np.array([-0.3, 0.0]), np.array([0.3, 0.2])
        d1 = distance(F, p, q, k=8, iters=800)
        d2 = distance(F, p, q, k=16, iters=1600)
        assert d2 <= d1 + 1e-12

    def test_identical_endpoints_rejected(self):
        F = flat_randers([0.0, 0.0])
        with pytest.raises(DegenerateInputError):
            distance(F, [0.1, 0.1], [0.1, 0.1])

    def test_endpoint_outside_box(self):
        F = flat_randers([0.0, 0.0], chart=BOX)
        with pytest.raises(BoundaryError):
            distance(F, [0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("k, iters", [(0, 400), (-1, 400), (16, -1)])
    def test_empty_solve_rejected(self, k, iters):
        # k = 0 would read 0 for every pair; a negative budget skips every sweep
        F = rotational_randers(0.4)
        with pytest.raises(ValueError):
            distance_batch(F, np.array([[0.0, 0.0]]), np.array([[0.2, 0.0]]), k=k, iters=iters)

    def test_batch_matches_single(self):
        # every problem takes its own steps and stops by itself, and each F
        # row is evaluated alone, so a batch only changes how rows are grouped
        F = rotational_randers(0.4)
        starts = np.array([[0.0, 0.0], [-0.2, 0.1]])
        ends = np.array([[0.2, 0.0], [0.25, -0.2]])
        batch = distance_batch(F, starts, ends, k=16, iters=400)
        singles = [distance(F, s, e, k=16, iters=400) for s, e in zip(starts, ends)]
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)


def chord(u, edge):
    """The chord along unit ``u`` from -0.2 to 0.3 edge, 0.15 edge off the centre."""
    off = 0.15 * edge * np.array([-u[1], u[0]])
    return off - 0.2 * edge * u, off + 0.3 * edge * u


def chords(edge, count=6):
    """Chords of length 0.5 edge at ``count`` angles, off the chart centre."""
    return np.array([chord(np.array([np.cos(a), np.sin(a)]), edge)
                     for a in np.linspace(0.0, np.pi, count, endpoint=False)])


def disk_plus_df():
    """The Poincare disk with tau = df, f = 0.15 |x|^2, and its exact distance."""
    f = lambda x: 0.15 * (x ** 2).sum(axis=-1)
    entry = make_randers_closed("hyperbolic-2d", f, grad_f=lambda x: 0.3 * x)

    def exact(p, q):
        r = ((q - p) ** 2).sum(-1) / ((1 - (p ** 2).sum(-1)) * (1 - (q ** 2).sum(-1)))
        return 2 * np.arcsinh(np.sqrt(r)) + f(q) - f(p)

    return entry.metric(), exact


@pytest.fixture
def solves(monkeypatch):
    """The outcome of every ``geodesic._solve_paths`` call the test makes."""
    out = []
    solve = geodesic._solve_paths
    monkeypatch.setattr(geodesic, "_solve_paths", lambda *a: out.append(solve(*a)) or out[-1])
    return out


def assert_converged(solves):
    """Every problem stopped on its energy gain or predicted decrease, off the box."""
    stop = np.concatenate([s.stop for s in solves])
    assert len(stop) and np.isin(stop, [geodesic._GAIN, geodesic._PREDICTED]).all(), stop
    assert all(not s.pinned.any() for s in solves)


def assert_oracle(F, pairs, exact, k=16):
    """Both directions of every pair within the midpoint rule's 0.5 (d/k)^2."""
    starts = np.concatenate([pairs[:, 0], pairs[:, 1]])
    ends = np.concatenate([pairs[:, 1], pairs[:, 0]])
    d = distance_batch(F, starts, ends, k=k, iters=400)
    ref = exact(starts, ends)
    rel = np.abs(d - ref) / ref
    assert np.all(rel <= 0.5 * (ref / k) ** 2), rel


class TestClosedFormOracles:
    def test_magnetic_arcs(self, flat_25, solves):
        # tau = (c/2)(x1 dx2 - x2 dx1): minimisers are arcs of curvature c
        c = 0.4

        def exact(p, q):
            L = np.linalg.norm(q - p, axis=-1)
            a = np.arcsin(0.5 * c * L)
            return (0.5 * c * (p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])
                    + 2 * a / c - (a - np.sin(a) * np.cos(a)) / c)

        assert_oracle(flat_25.metric(), chords(flat_25.chart.edges.min()), exact)
        assert_converged(solves)

    def test_poincare_disk_plus_df(self, solves):
        F, exact = disk_plus_df()
        assert_oracle(F, chords(F.chart.edges.min()), exact)
        assert_converged(solves)


def test_single_solve_f_call_budget():
    # a Newton step makes at most one derivative call and one trial call,
    # and the straight path one more, so a solve makes at most 2 iters + 1
    # calls
    F, _ = disk_plus_df()
    calls = []

    def counting(x, y):
        calls.append(1)
        return F(x, y)

    G = MetricField(counting, dim=2, chart=F.chart)
    (p, q), = chords(1.0, count=1)
    iters = 400
    d = distance(G, p, q, k=16, iters=iters)
    assert d == distance(F, p, q, k=16, iters=iters)
    assert len(calls) <= 2 * iters + 1


def bench_chord():
    """The distance benchmark's disk+df chord: ``u`` is the first draw of default_rng(0)."""
    u = np.random.default_rng(0).standard_normal(2)
    return chord(u / np.linalg.norm(u), 1.0)


class TestEnergyMinimiser:
    """Damped Newton on E = k sum F^2, whose minimisers have constant speed."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "rev"])
    def test_no_collapsed_segments(self, reverse):
        # the midpoint-rule length's minimiser on this chord collapses
        # vertices (longest / shortest segment 9.2e5); the energy's does not
        F, _ = disk_plus_df()
        p, q = bench_chord()[::-1] if reverse else bench_chord()
        res = geodesic._solve_paths(F, p[None], q[None], 16, 400)
        seg = np.linalg.norm(np.diff(res.paths[0], axis=0), axis=1)
        assert seg.max() / seg.min() < 2.0

    def test_error_independent_of_orientation(self):
        # the metric is rotation invariant, so every rotated chord poses the
        # same problem; coordinate descent's error spread 9e-5 to 8.7e-4
        F, exact = disk_plus_df()
        p, q = bench_chord()
        rot = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
               for a in np.linspace(0.0, 2 * np.pi, 12, endpoint=False)]
        ps, qs = np.array([R @ p for R in rot]), np.array([R @ q for R in rot])
        for starts, ends in ((ps, qs), (qs, ps)):
            ref = exact(starts, ends)
            rel = (distance_batch(F, starts, ends) - ref) / ref
            assert np.ptp(rel) <= 1e-6, rel

    def test_cross_validation_batch_converges(self, solves):
        # verify's flow cross-validation on example-2.5-hyperbolic, at its seed
        entry = build_gallery_entry("example-2.5-hyperbolic")
        rep = almost_killing_dimension(entry.chart, entry.g, entry.tau, dtau=entry.dtau, seed=101)
        assert len(solves) == 1
        assert_converged(solves)
        assert rep.max_t_deviation <= 1e-5

    def test_disk_solve_f_calls(self):
        F, _ = disk_plus_df()
        calls = []
        G = MetricField(lambda x, y: calls.append(1) or F(x, y), dim=2, chart=F.chart)
        distance(G, *bench_chord())
        assert len(calls) <= 100

    def test_rows_per_f_call_bounded(self, kahler_3, solves):
        # 330 problems, as many as example-3-c0's cross-validation solves;
        # the row bound is what keeps a verify's peak memory flat
        F = kahler_3.metric()
        rows = []
        G = MetricField(lambda x, y: rows.append(x.size // 4) or F(x, y), dim=4, chart=F.chart)
        starts = kahler_3.chart.sample_points(330, seed=1, margin=0.1)
        ends = kahler_3.chart.sample_points(330, seed=2, margin=0.1)
        distance_batch(G, starts, ends)
        assert max(rows) <= 2 ** 15
        assert_converged(solves)

    def test_box_pins_counted(self):
        # the magnetic arc from p to q bulges past the top edge of BOX; its
        # vertices are held on the edge and counted, and the solve converges
        F = rotational_randers(0.4)
        p, q = np.array([-0.4, 0.495]), np.array([0.4, 0.495])
        res = geodesic._solve_paths(F, np.array([p, q]), np.array([q, p]), 16, 400)
        assert res.pinned[0] > 0 and res.pinned[1] == 0
        assert res.paths[0, :, 1].max() == BOX.upper[1]
        assert np.isin(res.stop, [geodesic._GAIN, geodesic._PREDICTED]).all()
        assert res.steps.max() <= 10
        assert np.all(res.lengths < res.straight)

    @pytest.mark.parametrize("iters", [0, 1, 2])
    def test_iters_caps_newton_steps(self, iters):
        F, _ = disk_plus_df()
        p, q = bench_chord()
        res = geodesic._solve_paths(F, p[None], q[None], 16, iters)
        assert res.steps[0] == iters
        assert res.stop[0] == geodesic._STEPS
        if iters == 0:
            assert res.lengths[0] == res.straight[0]


def test_constant_metric_components_not_evaluated_by_solver(kahler_3):
    # example-3 has g = I: F applies the validated matrix and never calls g
    g = RiemannianField.constant(np.eye(4))
    wrapped = g.components
    calls = []

    def counting(x):
        calls.append(1)
        return wrapped(x)

    object.__setattr__(g, "components", counting)
    F = randers_metric(RandersData(g, kahler_3.tau), chart=kahler_3.chart)
    starts = kahler_3.chart.sample_points(6, seed=3, margin=0.2)
    ends = starts[::-1].copy()
    d = distance_batch(F, starts, ends, k=4, iters=16)
    assert calls == []
    assert np.array_equal(d, distance_batch(kahler_3.metric(), starts, ends, k=4, iters=16))


class TestTriangular:
    def test_coincident_points(self):
        F = flat_randers([0.0, 0.0])
        p = np.array([0.1, 0.2])
        assert triangular_batch(F, np.array([p, p, p]))[0] == 0.0

    def test_right_corner(self):
        # closed-form: d = 1, 1, sqrt(2) -> T = 2 - sqrt(2)
        F = flat_randers([0.0, 0.0])
        t = triangular_batch(F, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))[0]
        assert t == pytest.approx(2 - np.sqrt(2), abs=1e-5)

    def test_constant_drift_cancels(self):
        # boundary terms of a closed one-form cancel in T
        F = flat_randers([0.3, 0.0])
        t = triangular_batch(F, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))[0]
        assert t == pytest.approx(2 - np.sqrt(2), abs=1e-5)

    def test_nonnegative_on_samples(self):
        F = rotational_randers(0.4)
        triples = seeded_triples(BOX, 12, seed=2)
        tvals = triangular_batch(F, triples, k=16, iters=300)
        assert tvals.min() > -2e-5


class TestTInvariance:
    def test_rotation_isometry(self):
        F = flat_randers([0.0, 0.0])
        ang = 0.5
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        triples = seeded_triples(BIG, 20, seed=3, margin=2.0)
        res = t_invariance_check(F, lambda x: x @ R.T, triples)
        assert res.max_diff < 1e-5

    def test_quadratic_warp_detected(self):
        F = flat_randers([0.0, 0.0])
        warp = lambda x: np.stack([x[..., 0] + 0.1 * x[..., 0] ** 2, x[..., 1]], axis=-1)
        triples = seeded_triples(BIG, 20, seed=4, margin=1.0)
        res = t_invariance_check(F, warp, triples)
        assert res.max_diff > 1e-3

    def test_killing_flow_on_rotational_drift(self):
        # rigid rotation preserves both the flat metric and d(tau)
        F = rotational_randers(0.4)
        ang = 0.3
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        triples = seeded_triples(BOX, 10, seed=5, margin=0.3)
        res = t_invariance_check(F, lambda x: x @ R.T, triples, k=16, iters=400)
        assert res.max_diff < 1e-4

    def test_escape_detected(self):
        F = flat_randers([0.0, 0.0], chart=BOX)
        triples = seeded_triples(BOX, 4, seed=6, margin=0.1)
        with pytest.raises(DomainEscapeError):
            t_invariance_check(F, lambda x: x + np.array([0.6, 0.0]), triples)

    def test_csv_export(self, tmp_path):
        F = flat_randers([0.0, 0.0])
        triples = seeded_triples(BIG, 5, seed=7, margin=2.0)
        res = t_invariance_check(F, lambda x: x, triples)
        path = tmp_path / "triples.csv"
        res.to_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (5, 9)
        assert np.abs(rows[:, -1]).max() == 0.0


class TestSymmetrizationConsistency:
    def test_almost_isometry_fixes_symmetrized(self):
        # verified invariance for F carries over to the symmetrized norm
        F = rotational_randers(0.4)
        symmetrized = MetricField(lambda x, y: 0.5 * (F(x, y) + F(x, -y)), dim=2, chart=F.chart)
        ang = 0.3
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        triples = seeded_triples(BOX, 8, seed=8, margin=0.3)
        phi = lambda x: x @ R.T
        res_f = t_invariance_check(F, phi, triples, k=16, iters=400)
        res_s = t_invariance_check(symmetrized, phi, triples, k=16, iters=400)
        assert res_f.max_diff < 1e-4
        assert res_s.max_diff < 1e-4


class TestDfInvariance:
    def test_exact_form_shift_preserves_t(self):
        # leg lengths stay ~1 so the midpoint rule resolves the df integral
        from almostiso import add_one_form, gradient_one_form

        chart = ChartDomain([[-1.0, 1.0], [-1.0, 1.0]], fd_step=1e-3)
        F = flat_randers([0.0, 0.0], chart=chart)
        f = lambda x: 0.1 * np.sin(x[..., 0]) * np.cos(0.5 * x[..., 1])
        sigma = gradient_one_form(chart, f)
        G = add_one_form(F, sigma)
        triples = seeded_triples(chart, 10, seed=9, margin=0.3)
        t_f = triangular_batch(F, triples, k=32, iters=400)
        t_g = triangular_batch(G, triples, k=32, iters=400)
        assert np.abs(t_f - t_g).max() < 2e-5


class TestPullbackDelta:
    def test_identity_map(self):
        F = flat_randers([0.0, 0.0], chart=BOX)
        res = pullback_delta(F, lambda x: x, np.array([0.05, -0.1]), direction_grid(2))
        assert res.linearity_residual < 1e-10
        assert res.closedness_residual < 1e-8
        assert np.abs(res.covector).max() < 1e-10

    def test_rotation_isometry(self):
        F = flat_randers([0.0, 0.0], chart=BOX)
        ang = 0.2
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        res = pullback_delta(F, lambda x: x @ R.T, np.array([0.0, 0.05]), direction_grid(2))
        assert res.linearity_residual < 1e-8
        assert res.closedness_residual < 1e-6

    def test_rotation_flow_on_rotational_drift(self):
        # flowing a rotation on the non-closed-drift metric shifts F by an
        # exact one-form, so the deviation is linear and closed
        F = rotational_randers(0.4)
        ang = 0.2
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        res = pullback_delta(F, lambda x: x @ R.T, np.array([0.02, 0.03]), direction_grid(2))
        assert res.linearity_residual < 1e-4
        assert res.closedness_residual < 1e-3

    def test_translation_recovers_covector(self):
        # phi = shift by a: delta(x, u) = tau(x + a, u) - tau(x, u) is the
        # constant covector (c/2)(-a2, a1) for the rotational drift
        c = 0.4
        F = rotational_randers(c)
        a = np.array([0.15, -0.1])
        res = pullback_delta(F, lambda x: x + a, np.array([0.0, 0.0]), direction_grid(2))
        expected = 0.5 * c * np.array([-a[1], a[0]])
        assert np.abs(res.covector - expected).max() < 1e-6
        assert res.linearity_residual < 1e-8

    def test_singular_map_rejected(self):
        from almostiso.errors import InvalidMapError

        F = flat_randers([0.0, 0.0], chart=BOX)
        squash = lambda x: np.stack([x[..., 0], 0.0 * x[..., 1]], axis=-1)
        with pytest.raises(InvalidMapError):
            pullback_delta(F, squash, np.array([0.1, 0.1]), direction_grid(2))


def test_solver_tolerance_certificate():
    F = rotational_randers(0.4)
    pairs = np.array([
        [[-0.2, -0.1], [0.25, 0.2]],
        [[0.0, 0.0], [0.3, -0.2]],
    ])
    tol = solver_tolerance_certificate(F, pairs, k=16, iters=400)
    assert tol < 1e-5
