"""Nonsymmetric Finsler distance and the triangular function.

The distance from p to q is the length ``L(P) = sum_i F(mid_i, step_i)``
of the k-segment polyline P from p to q (midpoint rule; segment i runs
from vertex i to vertex i + 1) that minimises the discrete energy

    E(P) = k sum_i F(mid_i, step_i)^2

over its interior vertices: Milnor's broken-geodesic energy (J. Milnor,
*Morse Theory*, 1963, section 16).  By Cauchy-Schwarz L^2 <= E, with
equality exactly when all segments have the same F-length, so a minimiser
is a constant-speed polyline: unlike the length, the energy gains nothing
from collapsing vertices, and its Hessian is nondegenerate and block
tridiagonal.  Each problem starts from the straight segment and takes
Levenberg-Marquardt-damped Newton steps (J. Nocedal and S. Wright,
*Numerical Optimization*, 2nd ed., 2006, ch. 4 and 10) with derivatives
differenced from batched ``F`` calls, so any :class:`MetricField` works.
The order of the segment sum makes the length direction-dependent, which
is the point: for nonreversible norms d(p, q) != d(q, p).

The triangular function

    T(p, q, r) = d(p, q) + d(q, r) - d(p, r)

is invariant under maps that merely shift curve lengths by boundary terms
(F -> F + df), which is what the invariance checks in this module detect.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .chart import ChartDomain, OneFormField, _partials, exterior_derivative
from .errors import DegenerateInputError, DomainEscapeError, InvalidMapError
from .duality import DirectionGrid
from .metric import MetricField

__all__ = [
    "distance",
    "distance_batch",
    "triangular_batch",
    "t_invariance_check",
    "TInvarianceResult",
    "pullback_delta",
    "PullbackDelta",
    "solver_tolerance_certificate",
    "seeded_triples",
]


# ---------------------------------------------------------------------------
# Batched polyline energy minimizer
# ---------------------------------------------------------------------------

# Why a problem left the batch: relative energy gain <= 1e-14, predicted
# decrease at rounding level, damping at its cap, or ``iters`` steps done.
_GAIN, _PREDICTED, _DAMPING, _STEPS = range(4)
_MAX_ROWS = 2 ** 14          # F rows per call in a solve, which bounds its memory


class _PathSolve(NamedTuple):
    """Minimisers and per-problem outcome of one :func:`_solve_paths` call."""

    paths: np.ndarray       # (B, k + 1, n)
    lengths: np.ndarray     # L at the minimiser
    straight: np.ndarray    # L of the straight path
    stop: np.ndarray        # _GAIN, _PREDICTED, _DAMPING or _STEPS
    steps: np.ndarray       # Newton steps tried
    pinned: np.ndarray      # interior vertices on the chart box


def _segment_lengths(F: MetricField, P: np.ndarray) -> np.ndarray:
    """``F(mid_i, step_i)`` for every segment of paths ``P``, shape ``(B, k)``."""
    return F(0.5 * (P[:, 1:] + P[:, :-1]), P[:, 1:] - P[:, :-1])


def _energy_derivatives(F: MetricField, P, f, h):
    """Gradient ``(B, N)`` and Hessian ``(B, N, N)`` of ``E`` in the interior coordinates.

    Each segment's ``F^2`` is differenced in its ``m = 2n`` endpoint
    coordinates, step ``h`` per problem, by the central stencil with
    two-point off-diagonals: one ``F`` call of ``m^2 + m`` rows per segment,
    with ``f`` the segment values at offset 0.  A segment couples only its
    two vertices, so the ``N = (k - 1) n`` Hessian is block tridiagonal.
    """
    (B, k), n = f.shape, P.shape[-1]
    m = 2 * n
    i, j = np.triu_indices(m, 1)
    eye = np.eye(m)
    O = np.concatenate([eye, -eye, eye[i] + eye[j], -eye[i] - eye[j]])     # in (a, b)
    hh = h[:, None, None, None]
    mid = (0.5 * (P[:, 1:] + P[:, :-1]))[:, :, None] + hh * (0.5 * (O[:, :n] + O[:, n:]))
    step = (P[:, 1:] - P[:, :-1])[:, :, None] + hh * (O[:, n:] - O[:, :n])
    v = F(mid.reshape(B, -1, n), step.reshape(B, -1, n)).reshape(B, k, -1) ** 2
    v0, h = f[..., None] ** 2, h[:, None, None]
    plus, minus, pp, mm = np.split(v, [m, 2 * m, 2 * m + len(i)], axis=-1)
    hess = np.empty((B, k, m, m))
    hess[..., range(m), range(m)] = (plus + minus - 2.0 * v0) / h ** 2
    hess[..., i, j] = hess[..., j, i] = (pp + mm - plus[..., i] - minus[..., i] - plus[..., j]
                                         - minus[..., j] + 2.0 * v0) / (2.0 * h ** 2)
    grad = (plus - minus) / (2.0 * h)
    # interior vertex v ends segment v - 1 and starts segment v
    g = grad[:, :-1, n:] + grad[:, 1:, :n]
    idx = np.arange(k - 1)
    H = np.zeros((B, k - 1, k - 1, n, n))
    H[:, idx, idx] = hess[:, :-1, n:, n:] + hess[:, 1:, :n, :n]
    H[:, idx[:-1], idx[1:]] = hess[:, 1:-1, :n, n:]
    H[:, idx[1:], idx[:-1]] = hess[:, 1:-1, n:, :n]
    N = (k - 1) * n
    return k * g.reshape(B, N), k * H.transpose(0, 1, 3, 2, 4).reshape(B, N, N)


def _newton(F: MetricField, P, box, iters: int):
    """Damped Newton on the energy of paths ``P``, moving their interior vertices in place.

    The damping ``lam * mean|diag H|`` starts at ``lam = 1e-3`` and is
    divided by 10 on an accepted step and multiplied by 10 on a rejected one,
    which reuses the derivatives.  Every trial is projected onto ``box``,
    and a coordinate on the box that the gradient pushes outwards is held
    there for the step (projected Newton), so a box-constrained problem
    still converges fast.  Returns the segment values at the minimiser and
    at the straight path, and each problem's stop code and step count.
    """
    B, k, n = P.shape[0], P.shape[1] - 1, P.shape[2]
    N = (k - 1) * n
    lo, hi = (np.broadcast_to(bound, (k - 1, n)).reshape(N) for bound in box)
    f = _segment_lengths(F, P)
    straight = f.sum(axis=1)
    E = k * (f ** 2).sum(axis=1)
    h = 1e-4 * np.linalg.norm(P[:, -1] - P[:, 0], axis=1) / k
    lam = np.full(B, 1e-3)
    stop, steps = np.full(B, _STEPS if k > 1 else _PREDICTED), np.zeros(B, dtype=int)
    g, H = np.zeros((B, N)), np.zeros((B, N, N))
    active = stale = np.arange(B if k > 1 else 0)     # stale: derivatives out of date
    for _ in range(iters):
        if not len(active):
            break
        if len(stale):
            g[stale], H[stale] = _energy_derivatives(F, P[stale], f[stale], h[stale])
        ga, Ha = g[active], H[active]
        X = P[active, 1:-1].reshape(-1, N)
        free = ~(((X <= lo) & (ga > 0)) | ((X >= hi) & (ga < 0)))
        mu = lam[active] * np.abs(np.diagonal(Ha, axis1=1, axis2=2)).mean(axis=1)
        A = (Ha * (free[:, :, None] & free[:, None, :])
             + (mu[:, None, None] + ~free[:, :, None]) * np.eye(N))
        s = np.linalg.solve(A, -(ga * free)[..., None])[..., 0]
        flat = -0.5 * (ga * s).sum(axis=1) <= 1e-15 * E[active]
        stop[active[flat]] = _PREDICTED
        active, s = active[~flat], s[~flat]
        if not len(active):
            break
        steps[active] += 1
        trial = P[active]
        trial[:, 1:-1] = np.clip(trial[:, 1:-1] + s.reshape(trial[:, 1:-1].shape), *box)
        ft = _segment_lengths(F, trial)
        Et = k * (ft ** 2).sum(axis=1)
        ok = Et < E[active]
        converged = ok & (E[active] - Et <= 1e-14 * E[active])
        acc = active[ok]
        P[acc], f[acc], E[acc] = trial[ok], ft[ok], Et[ok]
        lam[active] = np.where(ok, np.maximum(lam[active] / 10.0, 1e-12), 10.0 * lam[active])
        capped = lam[active] > 1e6
        stop[active[converged]] = _GAIN
        stop[active[capped]] = _DAMPING
        stale = active[ok & ~converged]
        active = active[~converged & ~capped]
    return f, straight, stop, steps


def _solve_paths(F: MetricField, starts, ends, k: int, iters: int) -> _PathSolve:
    """Energy-minimising ``k``-segment polylines for every (start, end) pair.

    The problems go through :func:`_newton` in chunks, so that no ``F``
    call passes more than ``_MAX_ROWS`` rows unless one problem's stencil
    alone does.
    """
    chart = F.chart
    box = (chart.lower, chart.upper) if chart is not None else (-np.inf, np.inf)
    t = np.linspace(0.0, 1.0, k + 1)[None, :, None]
    P = (1.0 - t) * starts[:, None, :] + t * ends[:, None, :]
    m = 2 * P.shape[-1]
    size = max(1, _MAX_ROWS // (k * (m * m + m)))
    parts = [_newton(F, P[i:i + size], box, iters) for i in range(0, len(P), size)]
    f, straight, stop, steps = (np.concatenate(x) for x in zip(*parts))
    inner = P[:, 1:-1]
    pinned = ((inner == box[0]) | (inner == box[1])).any(axis=-1).sum(axis=1)
    return _PathSolve(P, f.sum(axis=1), straight, stop, steps, pinned)


def distance_batch(F: MetricField, starts, ends, k: int = 16, iters: int = 400) -> np.ndarray:
    """Minimized path lengths for many (start, end) pairs at once.

    Each pair's ``k``-segment polyline minimises the discrete energy
    ``k sum_i F(mid_i, step_i)^2`` by at most ``iters`` damped Newton
    steps from the straight segment; the returned value is its length
    ``sum_i F(mid_i, step_i)``, never more than the straight-line length.

    ``k < 1`` or ``iters < 0`` raises ``ValueError``: with no segment every
    distance would read 0, and a negative budget would skip every step.
    """
    if k < 1 or iters < 0:
        raise ValueError("distance solve needs segments >= 1 and iters >= 0, "
                         f"got segments={k}, iters={iters}")
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    ends = np.atleast_2d(np.asarray(ends, dtype=float))
    if np.any(np.linalg.norm(ends - starts, axis=1) == 0.0):
        raise DegenerateInputError("distance requires distinct endpoints")
    if F.chart is not None:
        F.chart.require_interior(starts)
        F.chart.require_interior(ends)
    res = _solve_paths(F, starts, ends, k, iters)
    return np.minimum(res.lengths, res.straight)


def distance(F: MetricField, p, q, k: int = 16, iters: int = 400) -> float:
    """Nonsymmetric distance d(p, q); at most the straight-line length."""
    return float(distance_batch(F, np.asarray(p)[None], np.asarray(q)[None], k, iters)[0])


def triangular_batch(F: MetricField, triples, k: int = 16, iters: int = 400) -> np.ndarray:
    """T(p, q, r) = d(p, q) + d(q, r) - d(p, r) for a stack of triples."""
    T = np.asarray(triples, dtype=float)
    if T.ndim == 2:
        T = T[None]
    p, q, r = T[:, 0], T[:, 1], T[:, 2]
    starts = np.concatenate([p, q, p])
    ends = np.concatenate([q, r, r])
    same = np.linalg.norm(ends - starts, axis=1) == 0.0
    d = np.zeros(len(starts))
    if np.any(~same):
        d[~same] = distance_batch(F, starts[~same], ends[~same], k, iters)
    B = len(T)
    return d[:B] + d[B:2 * B] - d[2 * B:]


@dataclass(frozen=True)
class TInvarianceResult:
    """Per-triple T values before/after a point map, and their spread."""

    triples: np.ndarray
    t_values: np.ndarray
    t_mapped: np.ndarray

    @property
    def max_diff(self) -> float:
        return float(np.abs(self.t_mapped - self.t_values).max())

    def to_csv(self, path) -> None:
        B, _, n = self.triples.shape
        cols = [self.triples.reshape(B, 3 * n), self.t_values[:, None],
                self.t_mapped[:, None], (self.t_mapped - self.t_values)[:, None]]
        names = [f"{pt}{i + 1}" for pt in ("p", "q", "r") for i in range(n)]
        header = ",".join(names + ["T", "T_mapped", "diff"])
        np.savetxt(path, np.hstack(cols), delimiter=",", header=header, comments="")


def t_invariance_check(F: MetricField, phi: Callable[[np.ndarray], np.ndarray],
                       triples, k: int = 16, iters: int = 400) -> TInvarianceResult:
    """Max |T(phi(p), phi(q), phi(r)) - T(p, q, r)| over the given triples.

    ``phi`` must keep every triple inside the chart box; a verified almost
    isometry keeps the result at the distance-solver tolerance.
    """
    T = np.asarray(triples, dtype=float)
    if T.ndim == 2:
        T = T[None]
    B = len(T)
    flat = T.reshape(-1, T.shape[-1])
    mapped = np.asarray(phi(flat), dtype=float).reshape(T.shape)
    if F.chart is not None and not np.all(F.chart.contains(mapped.reshape(-1, T.shape[-1]))):
        raise DomainEscapeError("mapped triple left the chart box")
    both = np.concatenate([T, mapped])
    t_all = triangular_batch(F, both, k, iters)
    return TInvarianceResult(triples=T, t_values=t_all[:B], t_mapped=t_all[B:])


# ---------------------------------------------------------------------------
# Pullback deviation: how far a map is from F -> F + df
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PullbackDelta:
    """Fitted covector of the pullback deviation and its residuals."""

    covector: np.ndarray
    linearity_residual: float
    closedness_residual: float


def _fit_covector(F: MetricField, phi, x, grid: DirectionGrid) -> tuple[np.ndarray, float]:
    J = np.moveaxis(_partials(phi, x, grid.dim, 1e-5), 0, -1)   # J[a, i] = d phi_a / d x_i
    if abs(np.linalg.det(J)) < 1e-12:
        raise InvalidMapError(f"map has singular Jacobian at {x}")
    U = grid.directions
    X = np.broadcast_to(x, U.shape)
    phix = np.broadcast_to(np.asarray(phi(x), float), U.shape)
    delta = F(phix, U @ J.T) - F(X, U)
    w = grid.weights
    M = (w[:, None, None] * U[:, :, None] * U[:, None, :]).sum(axis=0)
    rhs = (w[:, None] * delta[:, None] * U).sum(axis=0)
    cov = np.linalg.solve(M, rhs)
    return cov, float(np.abs(delta - U @ cov).max())


def pullback_delta(F: MetricField, phi: Callable[[np.ndarray], np.ndarray], x,
                   grid: DirectionGrid) -> PullbackDelta:
    """Measure how far ``phi`` is from a trivial projective change of ``F``.

    The deviation ``delta(x, u) = F(phi(x), Dphi(x) u) - F(x, u)`` is sampled
    on the direction grid and fitted by a covector; the linearity residual
    is the max misfit.  Fitting the covector at nearby sample points and
    taking its exterior derivative yields the closedness residual, so a map
    of the form ``phi_* F = F + df`` drives both residuals to zero.
    """
    x = np.asarray(x, dtype=float)
    chart = F.chart
    if chart is None:
        raise ValueError("pullback_delta needs a metric with a chart")
    cov, lin_res = _fit_covector(F, phi, x, grid)

    # cluster near x: the map phi is only assumed well-defined there
    H = 10.0 * chart.fd_step
    n = chart.dim
    offsets = np.vstack([np.zeros(n), 2 * H * np.eye(n), -2 * H * np.eye(n)])
    closedness_points = np.atleast_2d(x) + offsets

    def cov_field(pts):
        pts = np.atleast_2d(pts)
        return np.stack([_fit_covector(F, phi, p, grid)[0] for p in pts])

    field = OneFormField(lambda pts: cov_field(pts).reshape(np.asarray(pts).shape), chart.dim)
    d_cov = exterior_derivative(chart, field, closedness_points, step=H)
    return PullbackDelta(
        covector=cov,
        linearity_residual=lin_res,
        closedness_residual=float(np.abs(d_cov).max()),
    )


# ---------------------------------------------------------------------------
# Certificates and sampling helpers
# ---------------------------------------------------------------------------

def solver_tolerance_certificate(F: MetricField, pairs, k: int = 16, iters: int = 400) -> float:
    """Max |d_{2k, 2*iters} - d_{k, iters}| over the pairs (Cauchy check).

    The operational solver tolerance: refining both the path and the
    iteration budget must not move any reported distance by more than this.
    """
    pairs = np.asarray(pairs, dtype=float)
    d1 = distance_batch(F, pairs[:, 0], pairs[:, 1], k, iters)
    d2 = distance_batch(F, pairs[:, 0], pairs[:, 1], 2 * k, 2 * iters)
    return float(np.abs(d2 - d1).max())


def seeded_triples(chart: ChartDomain, count: int, seed: int = 0,
                   margin: float | None = None) -> np.ndarray:
    """Reproducible random triples inside a margin-shrunk chart box."""
    if margin is None:
        margin = 0.25 * chart.edges.min()
    rng = np.random.default_rng(seed)
    lo = chart.lower + margin
    hi = chart.upper - margin
    out = rng.uniform(lo, hi, size=(count, 3, chart.dim))
    # re-draw triples with near-coincident points
    for _ in range(16):
        d = np.linalg.norm(out - np.roll(out, 1, axis=1), axis=2).min(axis=1)
        bad = d < 1e-3 * chart.edges.min()
        if not np.any(bad):
            break
        out[bad] = rng.uniform(lo, hi, size=(int(bad.sum()), 3, chart.dim))
    return out
