"""Per-tangent-space convex bodies, dual norms, and barycentric recentering.

A norm ``F`` on one tangent space has unit body ``K = {y : F(y) <= 1}`` and
polar dual ``K* = {xi : xi(y) <= 1 on K}``.  The gauge of ``K*`` is the dual
norm ``F*``, computed here by brute-force maximization over a fixed sphere
grid.  Recentering ``K*`` at its volume barycenter ``b`` produces the
canonical "betterment" of ``F``,

    F_better(y) = F(y) - <b, y>,

which strips exactly the one-form part of a Randers norm and is invariant
under every shift ``F -> F + sigma``.  Bodies are star-shaped gauge samples
on the grid; the barycenter integral is exact in the radial variable (power
rule) and uses the grid quadrature in angle, so a fixed grid gives
bit-reproducible results.

The grid barycenter is shift-equivariant only up to aliasing, so the
covector takes one defect-correction pass: the barycenter ``b0`` of the
sampled norm, plus the barycenter of the recentred residual
``F - <b0, .>``, from the same samples.  The default grids have 512 (2D),
2562 (3D) and 1008 (4D) directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvexityError,
    DegenerateBettermentError,
    DegenerateInputError,
    InvalidBodyError,
)

__all__ = [
    "DirectionGrid",
    "SupportSamples",
    "direction_grid",
    "polygon_grid",
    "icosphere_grid",
    "s3_product_grid",
    "sphere_area",
    "gauge_samples",
    "dual_gauge_samples",
    "dual_norm_eval",
    "polar_barycenter",
    "betterment_covector",
    "betterment_eval",
    "riemannian_fit",
    "RiemannianFit",
    "polar_translation_check",
]

_DEFAULT_M = {2: 512, 3: 2562, 4: 1000}

# Rows of dual-norm queries per matrix product.  Small blocks keep the
# (rows, m) temporary in cache-sized, reused pages: at 2048 rows a 4D grid
# built a fresh 164 MB block per chunk, and most of the time went to page
# faults.
_DUAL_CHUNK = 64


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class DirectionGrid:
    """Unit directions covering S^{n-1} with positive quadrature weights.

    Weights sum to the sphere area; directions are unit vectors to 1e-12.
    In 2D the grid is the uniform m-gon, which every shipped tolerance
    assumes.
    """

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.directions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if U.ndim != 2 or len(U) != len(w):
            raise ValueError("directions (m, n) and weights (m,) must align")
        norms = np.linalg.norm(U, axis=1)
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("directions must be unit vectors")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        area = sphere_area(U.shape[1])
        if abs(w.sum() - area) > 1e-8 * area:
            raise ValueError("weights must sum to the sphere area")
        object.__setattr__(self, "directions", U)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return len(self.directions)

    @property
    def dim(self) -> int:
        return self.directions.shape[1]


def polygon_grid(m: int = 512) -> DirectionGrid:
    """Uniform m-gon on the circle, weights 2*pi/m."""
    theta = 2.0 * np.pi * np.arange(m) / m
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return DirectionGrid(U, np.full(m, 2.0 * np.pi / m))


def _icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ]
    )
    return verts, faces


def icosphere_grid(level: int = 4) -> DirectionGrid:
    """Subdivided icosahedron on S^2 (10*4^level + 2 vertices).

    Weights are the spherical Voronoi cell areas of the vertices, rescaled
    so they sum to 4*pi exactly.
    """
    from scipy.spatial import SphericalVoronoi  # deferred: scipy.spatial dominates import time

    verts, faces = _icosahedron()
    for _ in range(level):
        edge_mid = {}
        new_faces = []
        verts_list = [v for v in verts]

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                m = verts_list[i] + verts_list[j]
                m /= np.linalg.norm(m)
                edge_mid[key] = len(verts_list)
                verts_list.append(m)
            return edge_mid[key]

        for (a, b, c) in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        verts = np.array(verts_list)
        faces = np.array(new_faces)
    sv = SphericalVoronoi(verts, radius=1.0)
    sv.sort_vertices_of_regions()
    w = sv.calculate_areas()
    w *= sphere_area(3) / w.sum()
    return DirectionGrid(verts, w)


def s3_product_grid(n_theta1: int = 25, n_theta2: int = 20, n_phi: int = 20) -> DirectionGrid:
    """Product quadrature grid on S^3.

    Polar angles use Gauss rules matched to the area density
    ``sin^2(t1) sin(t2) dt1 dt2 dphi`` (Chebyshev second kind in ``t1``,
    Gauss-Legendre in ``cos(t2)``), the azimuth is uniform.  Weights are
    positive, sum to 2*pi^2, and the grid is antipodally symmetric for even
    ``n_phi``.
    """
    k = np.arange(1, n_theta1 + 1)
    t1 = k * np.pi / (n_theta1 + 1)
    w1 = (np.pi / (n_theta1 + 1)) * np.sin(t1) ** 2
    x2, w2 = np.polynomial.legendre.leggauss(n_theta2)
    t2 = np.arccos(x2)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)

    T1, T2, PH = np.meshgrid(t1, t2, phi, indexing="ij")
    W = (w1[:, None, None] * w2[None, :, None] * wphi[None, None, :]).ravel()
    s1, c1 = np.sin(T1).ravel(), np.cos(T1).ravel()
    s2, c2 = np.sin(T2).ravel(), np.cos(T2).ravel()
    U = np.stack([c1, s1 * c2, s1 * s2 * np.cos(PH).ravel(), s1 * s2 * np.sin(PH).ravel()], axis=1)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    W *= sphere_area(4) / W.sum()
    return DirectionGrid(U, W)


def direction_grid(n: int, m: int | None = None) -> DirectionGrid:
    """Grid for dimension ``n`` with ``m`` directions, or near ``m``.

    2D: the m-gon (default 512).  3D: the smallest icosphere with at least
    ``m`` vertices (default 2562).  4D: a product grid on S^3 near ``m``
    directions (default m = 1000, the 9 x 7 x 16 = 1008 grid; m = 10000 is
    the 25 x 20 x 20 grid exactly).
    """
    if m is None:
        m = _DEFAULT_M.get(n)
        if m is None:
            raise ValueError(f"no default direction grid for dimension {n}")
    if n == 2:
        return polygon_grid(m)
    if n == 3:
        level = 0
        while 10 * 4 ** level + 2 < m:
            level += 1
        return icosphere_grid(level)
    if n == 4:
        if m == 10_000:
            return s3_product_grid(25, 20, 20)
        n2 = max(4, round((m / 2.5) ** (1.0 / 3.0)))
        n1 = max(4, round(1.25 * n2))
        nphi = max(4, 2 * round(m / (2.0 * n1 * n2)))
        return s3_product_grid(n1, n2, nphi)
    raise ValueError(f"no default direction grid for dimension {n}")


@dataclass(frozen=True)
class SupportSamples:
    """A star body given by gauge values rho(u) > 0 on a direction grid.

    The body is ``{r u : 0 <= r <= rho(u)}``; for the unit body of a norm,
    ``rho(u) = 1 / F(u)``.
    """

    grid: DirectionGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.m,):
            raise ValueError("values must match the grid size")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise InvalidBodyError("gauge values must be positive and finite")
        object.__setattr__(self, "values", v)

    def to_csv(self, path) -> None:
        n = self.grid.dim
        header = ",".join(f"u{i + 1}" for i in range(n)) + ",value"
        data = np.column_stack([self.grid.directions, self.values])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------
# Dual norms
# ---------------------------------------------------------------------------

def gauge_samples(norm: Callable[[np.ndarray], np.ndarray], grid: DirectionGrid) -> np.ndarray:
    """Norm values F(u) on the grid directions."""
    vals = np.asarray(norm(grid.directions), dtype=float)
    if vals.shape != (grid.m,):
        raise ValueError("norm evaluator must return one value per direction")
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise ConvexityError("norm must be positive and finite on the grid")
    return vals


def dual_norm_eval(norm, xi, grid: DirectionGrid) -> np.ndarray:
    """Dual norm F*(xi) = max_u xi(u) / F(u) over the grid directions.

    ``norm`` may be an evaluator or precomputed grid values.  Exact as the
    grid is refined; the error is O(1/m^2) for smooth strictly convex norms.
    """
    F = norm if isinstance(norm, np.ndarray) else gauge_samples(norm, grid)
    P = grid.directions / F[:, None]
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    X = np.atleast_2d(xi)
    out = np.empty(len(X))
    for i in range(0, len(X), _DUAL_CHUNK):
        out[i:i + _DUAL_CHUNK] = (X[i:i + _DUAL_CHUNK] @ P.T).max(axis=1)
    return out[0] if single else out.reshape(xi.shape[:-1])


def dual_gauge_samples(values: np.ndarray, grid: DirectionGrid) -> np.ndarray:
    """F* at every grid direction (the dual body's gauge samples) from F's grid values."""
    return dual_norm_eval(values, grid.directions, grid)


# ---------------------------------------------------------------------------
# Barycenter and recentering
# ---------------------------------------------------------------------------

def polar_barycenter(fstar_values: np.ndarray, grid: DirectionGrid) -> np.ndarray:
    """Volume barycenter of the body with gauge samples ``fstar_values``.

    Radial integration is exact (power rule); the angular integral uses the
    grid weights:

        b_i = [sum_u w_u u_i R(u)^{n+1} / (n+1)] / [sum_u w_u R(u)^n / n]

    with radial extent ``R(u) = 1 / F*(u)``.
    """
    fstar = np.asarray(fstar_values, dtype=float)
    if np.any(fstar <= 0.0) or not np.all(np.isfinite(fstar)):
        raise InvalidBodyError("dual gauge values must be positive and finite")
    n = grid.dim
    R = 1.0 / fstar
    w = grid.weights
    moment = (w[:, None] * grid.directions * (R ** (n + 1))[:, None]).sum(axis=0) / (n + 1)
    volume = (w * R ** n).sum() / n
    return moment / volume


def _betterment_passes(norm, grid: DirectionGrid,
                       frame: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The one-pass barycenter ``b0`` and the corrected covector ``b1``.

    ``b1 = b0 + bary(F - <b0, .>)``: the residual norm is recentred too,
    from the same grid samples, so the shift the grid aliases in ``b0`` is
    measured again on a nearly centred body (one defect-correction pass,
    Stetter, Numer. Math. 29, 1978).  Both covectors are returned in the
    original coordinates; ``b1 - b0`` is the discretisation witness.
    """
    A = np.eye(grid.dim) if frame is None else np.asarray(frame, dtype=float)
    F = gauge_samples(lambda v: norm(v @ A.T), grid)
    b0 = polar_barycenter(dual_gauge_samples(F, grid), grid)
    residual = F - grid.directions @ b0
    if np.any(residual <= 0.0):
        raise DegenerateBettermentError("recentering pushed the origin outside the unit body")
    b1 = b0 + polar_barycenter(dual_gauge_samples(residual, grid), grid)
    return np.linalg.solve(A.T, b0), np.linalg.solve(A.T, b1)


def betterment_covector(norm, grid: DirectionGrid, frame: np.ndarray | None = None) -> np.ndarray:
    """The barycenter covector ``b`` of the dual body of ``norm``.

    One defect-correction pass refines the grid barycenter: the norm is
    sampled once, and the barycenter of the residual ``F - <b0, .>`` is
    added to the first one ``b0``.  With ``frame`` A the computation runs
    in the linear coordinates ``y = A v`` (the barycenter is equivariant,
    so this only changes the discretization, e.g. to a g-orthonormal frame
    for a Randers norm) and the returned covector is expressed in the
    original coordinates.
    """
    return _betterment_passes(norm, grid, frame)[1]


def betterment_eval(norm, y, grid: DirectionGrid, frame: np.ndarray | None = None,
                    covector: np.ndarray | None = None) -> np.ndarray:
    """Recentred norm ``F_better(y) = F(y) - <b, y>``.

    Requires the recentered body to keep the origin interior:
    ``F(u) - <b, u> > 0`` on the grid, else
    :class:`DegenerateBettermentError`.  For a convex gauge the barycenter
    is interior by construction, so this guard only fires on invalid inputs
    (or a ``covector`` supplied by the caller instead of being recomputed).
    """
    y = np.asarray(y, dtype=float)
    if np.any(np.linalg.norm(np.atleast_2d(y), axis=-1) == 0.0):
        raise DegenerateInputError("betterment evaluation requires nonzero vectors")
    b = betterment_covector(norm, grid, frame=frame) if covector is None \
        else np.asarray(covector, dtype=float)
    base = gauge_samples(norm, grid)
    recentered = base - grid.directions @ b
    if np.any(recentered <= 0.0):
        raise DegenerateBettermentError(
            "recentering pushed the origin outside the unit body"
        )
    return norm(y) - np.einsum("...i,i->...", y, b)


# ---------------------------------------------------------------------------
# Riemannian detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiemannianFit:
    """Result of fitting squared norm samples to a quadratic form."""

    is_quadratic: bool
    matrix: np.ndarray
    residual: float


def riemannian_fit(values, grid: DirectionGrid, tol: float = 1e-6) -> RiemannianFit:
    """Least-squares fit of ``F(u)^2`` to ``u^T G u`` over the grid values ``F(u)``.

    ``is_quadratic`` holds iff the max relative residual is below ``tol``
    and the fitted form is positive-definite; an indefinite fit is reported
    with ``is_quadratic=False`` rather than raised.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        raise ConvexityError("norm samples must be positive")
    U = grid.directions
    n = grid.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    design = np.stack(
        [U[:, i] * U[:, j] * (1.0 if i == j else 2.0) for (i, j) in pairs], axis=1
    )
    w = np.sqrt(grid.weights)
    coef, *_ = np.linalg.lstsq(design * w[:, None], values ** 2 * w, rcond=None)
    G = np.zeros((n, n))
    for c, (i, j) in zip(coef, pairs):
        G[i, j] = c
        G[j, i] = c
    fitted = np.einsum("ki,ij,kj->k", U, G, U)
    residual = float(np.abs(fitted - values ** 2).max() / (values ** 2).max())
    positive = bool(np.linalg.eigvalsh(G).min() > 0.0)
    return RiemannianFit(is_quadratic=bool(residual < tol and positive), matrix=G, residual=residual)


# ---------------------------------------------------------------------------
# Translation lemma check
# ---------------------------------------------------------------------------

def _polygon_support(normals: np.ndarray, offsets: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Support function of {xi : normals . xi <= offsets} in 2D.

    All halfspaces of a norm's dual body are active (each is tangent), so
    the polygon's vertices are the intersections of angularly adjacent
    constraint lines.
    """
    order = np.argsort(np.arctan2(normals[:, 1], normals[:, 0]))
    A = normals[order]
    b = offsets[order]
    A2 = np.roll(A, -1, axis=0)
    b2 = np.roll(b, -1)
    det = A[:, 0] * A2[:, 1] - A[:, 1] * A2[:, 0]
    vx = (b * A2[:, 1] - b2 * A[:, 1]) / det
    vy = (A[:, 0] * b2 - A2[:, 0] * b) / det
    V = np.stack([vx, vy], axis=1)
    return (queries @ V.T).max(axis=1)


def polar_translation_check(norm, sigma, grid: DirectionGrid) -> float:
    """Deviation of the dual body of ``F + sigma`` from the shifted dual of ``F``.

    Two-dimensional grids only; other dimensions raise ``ValueError``.  Both
    dual bodies are reconstructed from the grid samples as halfspace
    intersections ``{xi : xi(u) <= F(u)}`` and compared through their support
    evaluations at the grid directions:

        max_u | h_{K*_{F+sigma}}(u) - (h_{K*_F}(u) + sigma(u)) |.

    Analytically the support of the dual body is the norm itself, so the
    deviation vanishes; the computed value exercises the discretized
    reconstruction end-to-end and stays at solver precision.
    """
    if grid.dim != 2:
        raise ValueError(f"polar_translation_check needs a 2D grid, got dimension {grid.dim}")
    sigma = np.asarray(sigma, dtype=float)
    U = grid.directions
    F = gauge_samples(norm, grid)
    shift = U @ sigma
    Fs = F + shift
    if np.any(Fs <= 0.0):
        raise ConvexityError("F + sigma is not positive on the grid")
    h0 = _polygon_support(U, F, U)
    h1 = _polygon_support(U, Fs, U)
    return float(np.abs(h1 - h0 - shift).max())
