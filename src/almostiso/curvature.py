"""Finite-difference Riemannian curvature: Christoffels and sectional sweeps.

The Riemann tensor is obtained by differentiating the Christoffel symbols
numerically (outer step ``2h`` around the point, inner metric derivatives
with step ``h``), giving O(h^2) accuracy: at h = 1e-3 the constant-curvature
certificates hold to about 1e-4.  Sectional curvature is used to certify the
constant-curvature and constant-holomorphic-curvature properties of gallery
metrics; no Ricci or scalar reductions are provided.
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
    """Levi-Civita symbols ``Gamma^k_ij`` at ``x`` (leading index k).

    ``Gamma^k_ij = g^{ka} (d_i g_aj + d_j g_ai - d_a g_ij) / 2`` with
    centered differences; symmetric in (i, j) by construction.
    """
    h = chart.fd_step
    chart.require_interior(x, margin=h)
    x = np.asarray(x, dtype=float)
    n = chart.dim
    G = g(x)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise IndefiniteMetricError(f"metric is not positive-definite at {x}")
    dg = _partials(g, x, n, h)       # (a, ..., i, j): d_a g_ij
    # lower symbols: (d_i g_aj + d_j g_ai - d_a g_ij) / 2
    low = 0.5 * (
        np.einsum("i...aj->...aij", dg)
        + np.einsum("j...ai->...aij", dg)
        - np.einsum("a...ij->...aij", dg)
    )
    return np.einsum("...ka,...aij->...kij", np.linalg.inv(G), low)


def _riemann(chart: ChartDomain, g: RiemannianField, x: np.ndarray) -> np.ndarray:
    """Rm[l, k, i, j] = component l of R(e_i, e_j) e_k at a single point."""
    n = chart.dim
    Gam = christoffels(chart, g, x)
    dGam = _partials(lambda y: christoffels(chart, g, y), x, n, 2.0 * chart.fd_step)
    # R^l_{kij} = d_i Gam^l_{jk} - d_j Gam^l_{ik} + Gam^l_{ia} Gam^a_{jk} - Gam^l_{ja} Gam^a_{ik}
    term = np.einsum("iljk->lkij", dGam) - np.einsum("jlik->lkij", dGam)
    quad = np.einsum("lia,ajk->lkij", Gam, Gam) - np.einsum("lja,aik->lkij", Gam, Gam)
    return term + quad


def sectional_curvature(chart: ChartDomain, g: RiemannianField, plane: PlaneAtPoint) -> float:
    """K(u, v) = <R(u, v) v, u> / (|u|^2 |v|^2 - <u, v>^2) at the plane.

    Basis-invariant within ~1e-6 relative for well-conditioned planes;
    near-collinear vectors raise :class:`DegeneratePlaneError`.
    """
    chart.require_interior(plane.x, margin=3.0 * chart.fd_step)
    G = g(plane.x)
    u, v = plane.u, plane.v
    uu = u @ G @ u
    vv = v @ G @ v
    uv = u @ G @ v
    gram = uu * vv - uv ** 2
    if gram < 1e-6 * uu * vv:
        raise DegeneratePlaneError("plane vectors are numerically collinear")
    Rm = _riemann(chart, g, plane.x)
    Ruvv = np.einsum("lkij,i,j,k->l", Rm, u, v, v)
    return float((u @ G @ Ruvv) / gram)


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
    restricts the sweep to holomorphic sectional curvatures.
    """
    margin = 3.0 * chart.fd_step + 0.02 * chart.edges.min()
    rng = np.random.default_rng(seed)
    n = chart.dim
    pts = rng.uniform(chart.lower + margin, chart.upper - margin, size=(count, n))
    vals = np.empty(count)
    for i, x in enumerate(pts):
        while True:
            u = rng.standard_normal(n)
            if complex_structure is not None:
                v = complex_structure @ u
            else:
                v = rng.standard_normal(n)
            gram = (u @ u) * (v @ v) - (u @ v) ** 2
            if gram > 1e-3 * (u @ u) * (v @ v):
                break
        vals[i] = sectional_curvature(chart, g, PlaneAtPoint(x, u, v))
    return CurvatureSweep(points=pts, values=vals, seeds=np.arange(count, dtype=float))
