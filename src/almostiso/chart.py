"""Coordinate charts, tensor-field evaluators, and finite-difference calculus.

Tensor fields are closures, not stored grids: a field is any callable that
maps point arrays of shape ``(..., n)`` to component arrays with the same
leading shape.  All derivative operators use centered second-order
differences with a fixed step per chart, so convergence can be certified by
step-halving.  Evaluators are pure; nothing here holds mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BoundaryError, DomainEscapeError


# ---------------------------------------------------------------------------
# Chart domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartDomain:
    """Axis-aligned box domain of a single coordinate chart.

    Parameters
    ----------
    box : array_like, shape (n, 2)
        Per-axis lower and upper bounds.
    fd_step : float
        Step used by the finite-difference operators on this chart.
        Must be smaller than 1e-2 times the smallest box edge.
    """

    box: np.ndarray
    fd_step: float = 1e-3

    def __post_init__(self):
        box = np.atleast_2d(np.asarray(self.box, dtype=float))
        if box.ndim != 2 or box.shape[1] != 2:
            raise ValueError("box must have shape (n, 2)")
        if box.shape[0] < 2:
            raise ValueError("chart dimension must be at least 2")
        edges = box[:, 1] - box[:, 0]
        if np.any(edges <= 0):
            raise ValueError("box must have positive volume")
        if not 0 < self.fd_step < 1e-2 * edges.min():
            raise ValueError(
                f"fd_step {self.fd_step} must lie in (0, {1e-2 * edges.min():g})"
            )
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def lower(self) -> np.ndarray:
        return self.box[:, 0]

    @property
    def upper(self) -> np.ndarray:
        return self.box[:, 1]

    @property
    def edges(self) -> np.ndarray:
        return self.box[:, 1] - self.box[:, 0]

    def contains(self, x, margin: float = 0.0):
        """Componentwise box membership with an absolute margin."""
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lower + margin) & (x <= self.upper - margin)
        return inside.all(axis=-1)

    def require_interior(self, x, margin: float = 0.0) -> None:
        """Raise :class:`BoundaryError` unless all points are inside."""
        ok = self.contains(x, margin)
        if not np.all(ok):
            x = np.asarray(x, dtype=float).reshape(-1, self.dim)
            bad = x[~np.atleast_1d(ok).reshape(-1)][0]
            raise BoundaryError(
                f"point {bad} is within {margin:g} of the chart boundary {self.box.tolist()}"
            )

    def sample_points(self, count: int, seed: int = 0, margin: float | None = None) -> np.ndarray:
        """The first ``count`` scrambled Sobol points inside a margin-shrunk box.

        Joe-Kuo direction numbers with Matousek's linear matrix scramble and
        digital shift, drawn from ``np.random.default_rng(seed)``: bit for bit
        the points of ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed)``,
        for charts of dimension at most 12.
        """
        if margin is None:
            margin = 0.05 * self.edges.min()
        pts = _sobol(self.dim, count, seed)
        lo = self.lower + margin
        hi = self.upper - margin
        return lo + pts * (hi - lo)

    def mesh_points(self, per_axis: int = 5, margin: float = 0.0) -> np.ndarray:
        """Regular mesh including the (margin-shrunk) box corners."""
        axes = [
            np.linspace(self.lower[i] + margin, self.upper[i] - margin, per_axis)
            for i in range(self.dim)
        ]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)

    def shrink(self, factor: float) -> "ChartDomain":
        """A chart over the same center scaled by ``factor`` (< 1 shrinks)."""
        center = 0.5 * (self.lower + self.upper)
        half = 0.5 * factor * self.edges
        return ChartDomain(np.stack([center - half, center + half], axis=1), self.fd_step)


# Joe-Kuo direction numbers (S. Joe and F. Kuo, SIAM J. Sci. Comput. 30,
# 2008), one (s, a, m) row per dimension after the first, which is van der
# Corput's: degree s and coefficients a of the primitive polynomial, initial m.
_JOE_KUO = (
    (1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)), (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)), (4, 4, (1, 3, 5, 13)), (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)), (5, 7, (1, 1, 7, 11, 19)), (5, 11, (1, 1, 5, 1, 1)),
    (5, 13, (1, 1, 1, 3, 11)),
)
_SOBOL_BITS = 30
_SOBOL_MAX_DIM = len(_JOE_KUO) + 1


@lru_cache(maxsize=None)
def _sobol_bits(d: int) -> np.ndarray:
    """``(d, bits, bits)`` array: entry ``[k, i, j]`` is bit i of direction v_j of axis k."""
    m = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    for k, (s, a, m0) in enumerate(_JOE_KUO[:d - 1], start=1):
        row = list(m0)
        for i in range(s, _SOBOL_BITS):
            new = row[i - s] ^ (row[i - s] << s)
            for j in range(1, s):
                if (a >> (s - 1 - j)) & 1:
                    new ^= row[i - j] << j
            row.append(new)
        m[k] = row
    bit = np.arange(_SOBOL_BITS)
    v = m << (_SOBOL_BITS - 1 - bit)
    table = (v[:, None, :] >> bit[:, None]) & 1
    table.flags.writeable = False       # cached: one array for every caller
    return table


def _sobol(d: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of the LMS + shift scrambled Sobol sequence in ``[0, 1)^d``.

    Equal to ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random(n)[:count]``
    for any power of two ``n >= count``: the random draws are made in scipy's
    order, and the points run in Gray-code order, so none of the first
    ``count`` depends on how many follow.
    """
    if not 1 <= d <= _SOBOL_MAX_DIM:
        raise ValueError(f"Sobol points are tabulated for 1 to {_SOBOL_MAX_DIM} "
                         f"dimensions, not {d}")
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    weights = 1 << np.arange(bits, dtype=np.int64)
    # drawn as uint32, as scipy draws them: the dtype sets how much of the
    # generator's stream each draw consumes
    shift = rng.integers(2, size=(d, bits), dtype=np.uint32).astype(np.int64) @ weights
    ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32)).astype(np.int64)
    diag = np.arange(bits)
    ltm[:, diag, diag] = 1
    # Matousek's linear scramble: bit (bits-1-p) of v'_j is the parity of
    # row p of the matrix, read from its last column, against the bits of v_j
    n_dirs = max(1, int(count - 1).bit_length())
    parity = (ltm[:, :, ::-1] @ _sobol_bits(d)[:, :, :n_dirs]) & 1
    v = weights[::-1] @ parity                              # (d, n_dirs)
    # point i is the XOR of v'_b over the set bits b of gray(i) = i ^ (i >> 1);
    # the Gray code's reflection doubles the table one direction at a time
    q = np.zeros((1 << n_dirs, d), dtype=np.int64)
    for b in range(n_dirs):
        half = 1 << b
        q[half:2 * half] = q[half - 1::-1] ^ v[:, b]
    return (q[:count] ^ shift) * 2.0 ** -bits


# ---------------------------------------------------------------------------
# Field wrappers
# ---------------------------------------------------------------------------

_NON_FINITE = "field produced non-finite components"


def _eval_shaped(components, x, dim, out_shape):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"points have dimension {x.shape[-1]}, field expects {dim}")
    out = np.asarray(components(x), dtype=float)
    expected = x.shape[:-1] + out_shape
    if out.shape != expected:
        raise ValueError(f"field returned shape {out.shape}, expected {expected}")
    return out


def _eval_components(components, x, dim, out_shape):
    out = _eval_shaped(components, x, dim, out_shape)
    if not np.all(np.isfinite(out)):
        raise ValueError(_NON_FINITE)
    return out


@lru_cache(maxsize=None)
def _antisymmetric_pairs(n: int) -> np.ndarray:
    """``(n*n, n(n-1)/2)`` matrix D with ``(A.ravel() @ D)_k = A_ij - A_ji``, i < j."""
    i, j = np.triu_indices(n, 1)
    D = np.zeros((n * n, len(i)))
    k = np.arange(len(i))
    D[i * n + j, k] = 1.0
    D[j * n + i, k] = -1.0
    return D


@dataclass(frozen=True)
class OneFormField:
    """Covector field: points ``(..., n)`` -> components ``(..., n)``.

    ``values`` is set only by :meth:`constant`: the read-only value of a
    field that does not depend on the point.
    """

    components: Callable[[np.ndarray], np.ndarray]
    dim: int
    values: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __call__(self, x) -> np.ndarray:
        if self.values is not None:
            return _eval_shaped(self.components, x, self.dim, (self.dim,))  # checked in constant()
        return _eval_components(self.components, x, self.dim, (self.dim,))

    @staticmethod
    def constant(values) -> "OneFormField":
        """The field ``x -> values``, validated once, as :meth:`RiemannianField.constant` is.

        Each evaluation returns a read-only broadcast view of a frozen copy of
        ``values``, neither copied nor checked again.
        """
        values = np.array(values, dtype=float)
        n = values.shape[0]
        OneFormField(lambda x: values, n)(np.zeros(n))
        values.flags.writeable = False
        tau = OneFormField(lambda x: np.broadcast_to(values, x.shape[:-1] + (n,)), n)
        object.__setattr__(tau, "values", values)
        return tau


@dataclass(frozen=True)
class VectorField:
    """Vector field: points ``(..., n)`` -> components ``(..., n)``."""

    components: Callable[[np.ndarray], np.ndarray]
    dim: int

    def __call__(self, x) -> np.ndarray:
        return _eval_components(self.components, x, self.dim, (self.dim,))

    @staticmethod
    def constant(values) -> "VectorField":
        values = np.asarray(values, dtype=float)
        n = values.shape[0]
        return VectorField(lambda x: np.broadcast_to(values, x.shape[:-1] + (n,)).copy(), n)


@dataclass(frozen=True)
class TwoFormField:
    """2-form field: points ``(..., n)`` -> antisymmetric ``(..., n, n)``.

    Antisymmetry is asserted (to 1e-12 of the component scale) at every
    evaluation; exterior derivatives built by this module satisfy it exactly.
    """

    components: Callable[[np.ndarray], np.ndarray]
    dim: int

    def __call__(self, x) -> np.ndarray:
        out = _eval_components(self.components, x, self.dim, (self.dim, self.dim))
        scale = max(1.0, float(np.abs(out).max()))
        skew = np.abs(out + np.swapaxes(out, -1, -2)).max()
        if skew > 1e-12 * scale:
            raise ValueError(f"two-form evaluation is not antisymmetric (defect {skew:g})")
        return out

    @staticmethod
    def constant(matrix) -> "TwoFormField":
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        return TwoFormField(lambda x: np.broadcast_to(matrix, x.shape[:-1] + (n, n)).copy(), n)


@dataclass(frozen=True)
class RiemannianField:
    """Symmetric metric component field: ``(..., n)`` -> ``(..., n, n)``.

    ``matrix`` is set only by :meth:`constant`: the read-only value of a
    field that does not depend on the point.
    """

    components: Callable[[np.ndarray], np.ndarray]
    dim: int
    matrix: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __call__(self, x) -> np.ndarray:
        n = self.dim
        out = _eval_shaped(self.components, x, n, (n, n))
        if self.matrix is not None:
            return out      # checked once, in constant()
        # max propagates NaN and inf: one reduction is the finiteness test
        # and the scale; the +-1 pair matrix then differences exactly
        peak = float(np.abs(out).max())
        if not np.isfinite(peak):
            raise ValueError(_NON_FINITE)
        skew = np.abs(out.reshape(-1, n * n) @ _antisymmetric_pairs(n)).max(initial=0.0)
        if skew > 1e-12 * max(1.0, peak):
            raise ValueError("metric components are not symmetric")
        return out

    @staticmethod
    def constant(matrix) -> "RiemannianField":
        """The field ``x -> matrix``.

        The matrix is validated once, here, by the shape, finiteness and
        symmetry checks every evaluation of a general field makes; each
        evaluation then returns a read-only broadcast view of it, neither
        copied nor checked again.
        """
        matrix = np.array(matrix, dtype=float)
        n = matrix.shape[0]
        RiemannianField(lambda x: matrix, n)(np.zeros(n))
        matrix.flags.writeable = False
        g = RiemannianField(lambda x: np.broadcast_to(matrix, x.shape[:-1] + (n, n)), n)
        object.__setattr__(g, "matrix", matrix)
        return g

    @staticmethod
    def conformal(factor: Callable[[np.ndarray], np.ndarray], dim: int) -> "RiemannianField":
        """``factor(x) * identity`` for a scalar conformal factor."""
        eye = np.eye(dim)
        return RiemannianField(lambda x: factor(x)[..., None, None] * eye, dim)


# ---------------------------------------------------------------------------
# Finite-difference calculus
# ---------------------------------------------------------------------------

def _partials(fn, x, n, h):
    """Stack of centered partials d_a fn(x) with leading axis a."""
    out = None
    for a, e in enumerate(h * np.eye(n)):
        diff = np.asarray(fn(x + e)) - np.asarray(fn(x - e))
        if out is None:
            out = np.empty((n,) + diff.shape)
        out[a] = diff / (2.0 * h)
    return out


def exterior_derivative(chart: ChartDomain, tau: OneFormField, x, step: float | None = None) -> np.ndarray:
    """Value of d(tau) at ``x``: ``(dtau)_ij = d_i tau_j - d_j tau_i``.

    Centered differences with step ``h``; the output is antisymmetric by
    construction.  Points whose stencil leaves the chart box raise
    :class:`BoundaryError`.
    """
    h = chart.fd_step if step is None else step
    chart.require_interior(x, margin=h)
    x = np.asarray(x, dtype=float)
    n = chart.dim
    # dt[..., a, j] = d_a tau_j
    dt = np.moveaxis(_partials(tau, x, n, h), 0, -2)
    return dt - np.swapaxes(dt, -1, -2)


def exterior_derivative_field(chart: ChartDomain, tau: OneFormField) -> TwoFormField:
    """d(tau) as a closure over the chart, reusable by other operators."""
    return TwoFormField(lambda x: exterior_derivative(chart, tau, x), chart.dim)


def gradient_one_form(chart: ChartDomain, f: Callable[[np.ndarray], np.ndarray]) -> OneFormField:
    """df for a scalar potential, by centered differences."""
    h = chart.fd_step

    def comps(x):
        chart.require_interior(x, margin=h)
        return np.moveaxis(_partials(f, x, chart.dim, h), 0, -1)

    return OneFormField(comps, chart.dim)


def lie_derivative(chart: ChartDomain, K: VectorField, T: RiemannianField | TwoFormField,
                   x, step: float | None = None) -> np.ndarray:
    """(L_K T)_jl = K^a d_a T_jl + T_al d_j K^a + T_ja d_l K^a at ``x``.

    The (0,2)-tensor formula, projected onto the symmetry of ``T``: the
    antisymmetric part for a :class:`TwoFormField`, the symmetric part
    otherwise.
    """
    h = chart.fd_step if step is None else step
    chart.require_interior(x, margin=h)
    x = np.asarray(x, dtype=float)
    n = chart.dim
    dT = np.moveaxis(_partials(T, x, n, h), 0, -3)       # (..., a, j, l)
    dK = np.moveaxis(_partials(K, x, n, h), 0, -2)       # (..., j, a)
    Kx = K(x)
    Tx = T(x)
    out = (
        np.einsum("...a,...ajl->...jl", Kx, dT)
        + np.einsum("...al,...ja->...jl", Tx, dK)
        + np.einsum("...ja,...la->...jl", Tx, dK)
    )
    if isinstance(T, TwoFormField):
        return 0.5 * (out - np.swapaxes(out, -1, -2))
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def flow_map(chart: ChartDomain, K: VectorField, t: float, x, n_steps: int = 64) -> np.ndarray:
    """Flow of ``K`` for time ``t`` by classical 4th-order Runge-Kutta.

    The trajectory is checked against the chart box after every step;
    leaving it raises :class:`DomainEscapeError` carrying the exit time.
    """
    if n_steps < 16:
        raise ValueError("n_steps must be at least 16")
    x = np.asarray(x, dtype=float)
    chart.require_interior(x, margin=0.0)
    pos = x.copy()
    dt = t / n_steps
    for s in range(n_steps):
        k1 = K(pos)
        k2 = K(pos + 0.5 * dt * k1)
        k3 = K(pos + 0.5 * dt * k2)
        k4 = K(pos + dt * k3)
        pos = pos + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(chart.contains(pos)):
            raise DomainEscapeError(
                f"flow left the chart box at t = {(s + 1) * dt:g}",
                exit_time=(s + 1) * dt,
            )
    return pos


def flow_point_map(chart: ChartDomain, K: VectorField, t: float, n_steps: int = 64):
    """The flow as a reusable point map ``phi(x)``."""
    return lambda x: flow_map(chart, K, t, x, n_steps=n_steps)
