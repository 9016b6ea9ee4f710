"""Finite-difference Riemannian curvature: Christoffels and sectional sweeps.

The Riemann tensor is obtained by differentiating the Christoffel symbols
numerically (outer step ``2h`` around the point, inner metric derivatives
with step ``h``), giving O(h^2) accuracy: at h = 1e-3 the constant-curvature
certificates hold to about 1e-4.  Sectional curvature is used to certify the
constant-curvature and constant-holomorphic-curvature properties of gallery
metrics; no Ricci or scalar reductions are provided.

Every operator here takes a batch of points ``(P, n)``: a sweep of P planes
evaluates its whole stencil in ``(2n + 1)^2 + 1`` metric calls, whatever P
is, and a single plane is the batch of one.  Every point of a batch is
checked as a lone point would be: chart margin, positive-definiteness of g
at each Christoffel point, and a non-degenerate plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import ChartDomain, RiemannianField, _partials
from .errors import DegeneratePlaneError, IndefiniteMetricError

__all__ = [
    "PlaneAtPoint",
    "christoffels",
    "sectional_curvature",
    "curvature_sweep",
    "CurvatureSweep",
]


@dataclass(frozen=True)
class PlaneAtPoint:
    """A tangent 2-plane: base point ``x`` and two independent vectors."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


def christoffels(chart: ChartDomain, g: RiemannianField, x) -> np.ndarray:
    """Levi-Civita symbols ``Gamma^k_ij`` at points ``x`` of shape ``(..., n)``.

    ``Gamma^k_ij = g^{ka} (d_i g_aj + d_j g_ai - d_a g_ij) / 2`` with
    centered differences, shape ``(..., k, i, j)``; symmetric in (i, j) by
    construction.  A point where g is not positive-definite raises
    :class:`IndefiniteMetricError` naming the first such point.
    """
    h = chart.fd_step
    chart.require_interior(x, margin=h)
    x = np.asarray(x, dtype=float)
    n = chart.dim
    G = g(x)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        for point, matrix in zip(x.reshape(-1, n), G.reshape(-1, n, n)):
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                raise IndefiniteMetricError(f"metric is not positive-definite at {point}")
    dg = _partials(g, x, n, h)       # (a, ..., i, j): d_a g_ij
    # lower symbols: (d_i g_aj + d_j g_ai - d_a g_ij) / 2
    low = 0.5 * (
        np.einsum("i...aj->...aij", dg)
        + np.einsum("j...ai->...aij", dg)
        - np.einsum("a...ij->...aij", dg)
    )
    return np.einsum("...ka,...aij->...kij", np.linalg.inv(G), low)


def _riemann(chart: ChartDomain, g: RiemannianField, x: np.ndarray) -> np.ndarray:
    """Rm[..., l, k, i, j] = component l of R(e_i, e_j) e_k at points ``(..., n)``."""
    n = chart.dim
    Gam = christoffels(chart, g, x)
    dGam = _partials(lambda y: christoffels(chart, g, y), x, n, 2.0 * chart.fd_step)
    # R^l_{kij} = d_i Gam^l_{jk} - d_j Gam^l_{ik} + Gam^l_{ia} Gam^a_{jk} - Gam^l_{ja} Gam^a_{ik}
    term = np.einsum("i...ljk->...lkij", dGam) - np.einsum("j...lik->...lkij", dGam)
    quad = (np.einsum("...lia,...ajk->...lkij", Gam, Gam)
            - np.einsum("...lja,...aik->...lkij", Gam, Gam))
    return term + quad


def _sectional(chart: ChartDomain, g: RiemannianField, x: np.ndarray,
               u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K(u, v) for planes given as rows of ``x``, ``u`` and ``v``, shape ``(P, n)``."""
    chart.require_interior(x, margin=3.0 * chart.fd_step)
    G = g(x)
    uG = np.einsum("pi,pij->pj", u, G)
    uu = np.einsum("pj,pj->p", uG, u)
    uv = np.einsum("pj,pj->p", uG, v)
    vv = np.einsum("pi,pij,pj->p", v, G, v)
    gram = uu * vv - uv ** 2
    collinear = gram < 1e-6 * uu * vv
    if np.any(collinear):
        raise DegeneratePlaneError(
            f"plane vectors are numerically collinear at {x[np.argmax(collinear)]}")
    Rm = _riemann(chart, g, x)
    Ruvv = np.einsum("plkij,pi,pj,pk->pl", Rm, u, v, v)
    return np.einsum("pl,pl->p", uG, Ruvv) / gram


def sectional_curvature(chart: ChartDomain, g: RiemannianField, plane: PlaneAtPoint) -> float:
    """K(u, v) = <R(u, v) v, u> / (|u|^2 |v|^2 - <u, v>^2) at the plane.

    Basis-invariant within ~1e-6 relative for well-conditioned planes;
    near-collinear vectors raise :class:`DegeneratePlaneError`.
    """
    return float(_sectional(chart, g, plane.x[None], plane.u[None], plane.v[None])[0])


@dataclass(frozen=True)
class CurvatureSweep:
    """Sectional curvatures sampled over random points and planes."""

    points: np.ndarray
    values: np.ndarray
    seeds: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std())

    def to_csv(self, path) -> None:
        n = self.points.shape[1]
        header = ",".join(f"x{i + 1}" for i in range(n)) + ",plane_seed,K"
        data = np.column_stack([self.points, self.seeds, self.values])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def curvature_sweep(chart: ChartDomain, g: RiemannianField, count: int = 50,
                    seed: int = 0, complex_structure: np.ndarray | None = None) -> CurvatureSweep:
    """Sample sectional curvature at ``count`` random planes and points.

    With ``complex_structure`` J the planes are J-invariant (v = J u), which
    restricts the sweep to holomorphic sectional curvatures.  All planes are
    drawn first and evaluated in one batch; ``count < 1`` raises
    ``ValueError``, since an empty sweep has no mean.
    """
    if count < 1:
        raise ValueError(f"curvature sweep needs at least 1 plane, got {count}")
    margin = 3.0 * chart.fd_step + 0.02 * chart.edges.min()
    rng = np.random.default_rng(seed)
    n = chart.dim
    pts = rng.uniform(chart.lower + margin, chart.upper - margin, size=(count, n))
    us, vs = [], []
    for _ in range(count):
        while True:
            u = rng.standard_normal(n)
            if complex_structure is not None:
                v = complex_structure @ u
            else:
                v = rng.standard_normal(n)
            gram = (u @ u) * (v @ v) - (u @ v) ** 2
            if gram > 1e-3 * (u @ u) * (v @ v):
                break
        us.append(u)
        vs.append(v)
    vals = _sectional(chart, g, pts, np.array(us), np.array(vs))
    return CurvatureSweep(points=pts, values=vals, seeds=np.arange(count, dtype=float))
