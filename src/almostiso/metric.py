"""Finsler norm evaluation: the Randers family and one-form shifts.

A :class:`MetricField` is a positively 1-homogeneous norm evaluator
``F(x, y)`` over a chart; it may be nonreversible (``F(x, -y) != F(x, y)``).
The concrete family shipped here is the Randers family
``F(x, y) = sqrt(g_x(y, y)) + tau_x(y)`` with ``|tau|_g < 1``, but every
operation downstream (distances, dual bodies, recentering) only needs the
evaluator interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import ChartDomain, OneFormField, RiemannianField
from .errors import ConvexityError, DegenerateInputError

__all__ = [
    "MetricField",
    "RandersData",
    "randers_eval",
    "randers_metric",
    "add_one_form",
    "convexity_margin",
]


@dataclass(frozen=True)
class MetricField:
    """Norm evaluator ``(x, y) -> length rate`` with shared leading shape.

    ``length_rate`` must be positively 1-homogeneous in ``y`` and strictly
    positive for ``y != 0``; ``reversible`` records whether ``F(x, -y) ==
    F(x, y)`` holds.  Evaluators are pure and safe for concurrent use.
    """

    length_rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int
    reversible: bool = False
    chart: ChartDomain | None = None

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.asarray(self.length_rate(x, y), dtype=float)


def _require_nonzero(y) -> None:
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if np.any(np.linalg.norm(y, axis=-1) == 0.0):
        raise DegenerateInputError("norm evaluation requires a nonzero vector")


@dataclass(frozen=True)
class RandersData:
    """Randers ingredients: Riemannian components ``g`` and 1-form ``tau``.

    Admissibility (``g`` positive-definite, ``|tau|_g < 1``) is a pointwise
    condition; :func:`convexity_margin` measures it on samples and
    :func:`randers_eval` enforces it at evaluation points.
    """

    g: RiemannianField
    tau: OneFormField

    def __post_init__(self):
        if self.g.dim != self.tau.dim:
            raise ValueError("g and tau live in different dimensions")

    @property
    def dim(self) -> int:
        return self.g.dim

    def norm_at(self, x) -> Callable[[np.ndarray], np.ndarray]:
        """The norm ``v -> sqrt(v . g(x) v) + tau_x(v)`` of the tangent space at ``x``.

        ``g`` and ``tau`` are evaluated once, at the single point ``x``; the
        returned norm takes vectors of shape ``(..., n)``.
        """
        G = self.g(x)
        tau_x = self.tau(x)
        return lambda v: (np.sqrt(np.einsum("...i,ij,...j->...", v, G, v))
                          + np.asarray(v) @ tau_x)


def _tau_gnorm(data: RandersData, x) -> np.ndarray:
    """Dual norm |tau|_g = sqrt(tau . g^{-1} tau) at points x."""
    G = data.g(x)
    t = data.tau(x)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise ConvexityError("metric components are not positive-definite", point=x)
    z = np.linalg.solve(G, t[..., None])[..., 0]
    return np.sqrt(np.einsum("...i,...i->...", t, z))


def randers_eval(data: RandersData, x, y, validate: bool = True) -> np.ndarray:
    """``sqrt(y . g(x) y) + tau_x(y)``, positive whenever ``|tau|_g < 1``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if validate:
        _require_nonzero(y)
        margin = 1.0 - _tau_gnorm(data, x)
        if np.any(margin <= 0.0):
            raise ConvexityError(
                "|tau|_g >= 1: Randers data is not strictly convex at a point",
                point=x,
            )
    # y . (G y) as two two-operand products: about half the time of one
    # three-operand einsum on solver-sized batches; a constant G is one
    # matmul, exact for G = I
    M = data.g.matrix
    Gy = y @ M if M is not None else np.einsum("...ij,...j->...i", data.g(x), y)
    quad = np.einsum("...i,...i->...", y, Gy)
    lin = np.einsum("...i,...i->...", data.tau(x), y)
    return np.sqrt(quad) + lin


def randers_metric(data: RandersData, chart: ChartDomain | None = None) -> MetricField:
    """Wrap Randers data as a :class:`MetricField`.

    The returned evaluator skips per-call admissibility checks (inner loops
    call it millions of times); validate the data once on a sample with
    :func:`convexity_margin` instead.
    """
    return MetricField(
        lambda x, y: randers_eval(data, x, y, validate=False),
        dim=data.dim,
        reversible=False,
        chart=chart,
    )


def add_one_form(
    F: MetricField,
    sigma: OneFormField,
    sample_points=None,
    directions: np.ndarray | None = None,
) -> MetricField:
    """The shifted norm ``(x, y) -> F(x, y) + sigma_x(y)``.

    Positivity of the shift is checked on the unit F-sphere: for each sample
    point and each check direction ``u`` we require ``F(x, u) + sigma_x(u) > 0``
    (equivalent to positivity at ``u / F(x, u)``).  Violations raise
    :class:`ConvexityError` naming the offending point.
    """
    if sample_points is None:
        if F.chart is not None:
            sample_points = F.chart.sample_points(16, seed=7)
        else:
            sample_points = np.zeros((1, F.dim))
    sample_points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if directions is None:
        rng = np.random.default_rng(11)
        directions = rng.standard_normal((64, F.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        axes = np.vstack([np.eye(F.dim), -np.eye(F.dim)])
        directions = np.vstack([axes, directions])

    for p in sample_points:
        X = np.broadcast_to(p, (len(directions), F.dim))
        vals = F(X, directions) + np.einsum("...i,...i->...", sigma(X), directions)
        if np.any(vals <= 0.0):
            u = directions[int(np.argmin(vals))]
            raise ConvexityError(
                f"F + sigma is not positive at point {p} in direction {u}",
                point=p,
            )

    return MetricField(
        lambda x, y: F(x, y) + np.einsum("...i,...i->...", sigma(x), np.asarray(y, dtype=float)),
        dim=F.dim,
        reversible=False,
        chart=F.chart,
    )


def convexity_margin(data: RandersData, sample_points) -> float:
    """``min(1 - |tau|_g)`` over the samples; positive iff admissible there."""
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    return float((1.0 - _tau_gnorm(data, pts)).min())
