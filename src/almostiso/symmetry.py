"""Almost-Killing machinery: polynomial ansatz, residual rank, invariant forms.

A vector field K is almost Killing for a Randers norm built from (g, tau)
iff L_K g = 0 and L_K(d tau) = 0 on a convex chart (the one-form part of the
pullback deviation is closed, hence exact there).  Both conditions are
linear in K, so candidate fields from a polynomial ansatz yield a residual
matrix whose numerical nullspace is the almost-Killing space.  Degree 2
covers the Killing fields of every shipped chart (constant-curvature and
constant-holomorphic-curvature models are polynomial of degree <= 2 in
their standard coordinates).

Basis ordering convention: coefficients are component-major, i.e. the
coefficient of monomial ``x^alpha`` on ``d/dx_i`` sits at index
``i * n_monomials + monomial_index``, with monomials ordered by total degree
and then by ``itertools.combinations_with_replacement`` of the axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .chart import (
    ChartDomain,
    OneFormField,
    RiemannianField,
    TwoFormField,
    VectorField,
    _partials,
    exterior_derivative_field,
    flow_point_map,
)
from .errors import InconsistencyError, UnderdeterminedSystemError
from .geodesic import seeded_triples, triangular_batch
from .metric import RandersData, randers_metric

__all__ = [
    "VectorFieldAnsatz",
    "ResidualMatrix",
    "build_residual",
    "nullspace_dimension",
    "NullspaceResult",
    "invariant_two_forms",
    "InvariantFormsResult",
    "so_generators",
    "u2_generators",
    "standard_complex_structure",
    "almost_killing_dimension",
    "flow_cross_validation",
    "AlmostKillingReport",
]


# ---------------------------------------------------------------------------
# Polynomial vector-field ansatz
# ---------------------------------------------------------------------------

def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    out = [(0,) * n]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            alpha = [0] * n
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


def _mono_values(alpha: tuple[int, ...], X: np.ndarray) -> np.ndarray:
    v = np.ones(len(X))
    for i, p in enumerate(alpha):
        if p:
            v = v * X[:, i] ** p
    return v


def _mono_partial(alpha: tuple[int, ...], j: int, X: np.ndarray) -> np.ndarray:
    if alpha[j] == 0:
        return np.zeros(len(X))
    lowered = list(alpha)
    lowered[j] -= 1
    return alpha[j] * _mono_values(tuple(lowered), X)


@dataclass(frozen=True)
class VectorFieldAnsatz:
    """All monomial vector fields ``x^alpha d/dx_i`` with ``|alpha| <= degree``."""

    dim: int
    degree: int = 2
    exponents: list = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "exponents", _monomials(self.dim, self.degree))

    @property
    def n_monomials(self) -> int:
        return len(self.exponents)

    @property
    def n_coefficients(self) -> int:
        return self.dim * self.n_monomials

    def field(self, coefficients) -> VectorField:
        """The vector field with the given coefficient vector."""
        coeff = np.asarray(coefficients, dtype=float).reshape(self.dim, self.n_monomials)

        def comps(x):
            X = np.atleast_2d(np.asarray(x, dtype=float).reshape(-1, self.dim))
            mono = np.stack([_mono_values(a, X) for a in self.exponents], axis=1)
            out = mono @ coeff.T
            return out.reshape(np.asarray(x, dtype=float).shape)

        return VectorField(comps, self.dim)

    def sup_norm(self, coefficients, points) -> float:
        """Max Euclidean field magnitude over the points."""
        K = self.field(coefficients)
        vals = K(np.atleast_2d(np.asarray(points, dtype=float)))
        return float(np.linalg.norm(vals, axis=-1).max())


# ---------------------------------------------------------------------------
# Residual matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualMatrix:
    """Stacked symmetry constraints, one column per ansatz coefficient.

    Rows come in two blocks per sample point: the ``n(n+1)/2`` independent
    components of ``L_K g`` and, when a 2-form is supplied, the ``n(n-1)/2``
    components of ``L_K beta``.
    """

    matrix: np.ndarray
    points: np.ndarray
    fd_step: float
    metric_rows: int
    form_rows: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("residual matrix has non-finite entries")
        if self.matrix.shape[0] < 2 * self.matrix.shape[1]:
            raise UnderdeterminedSystemError(
                "residual matrix needs at least twice as many rows as columns"
            )


def build_residual(g: RiemannianField, dtau: TwoFormField | None,
                   ansatz: VectorFieldAnsatz, points, h: float = 1e-3) -> ResidualMatrix:
    """Assemble the linear system ``L_K g = 0`` (and ``L_K dtau = 0``).

    Metric/form derivatives use centered differences with step ``h``; the
    polynomial ansatz fields are differentiated exactly.  Requires at least
    three sample points per coefficient.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    n = ansatz.dim
    if len(X) < 3 * ansatz.n_coefficients:
        raise UnderdeterminedSystemError(
            f"need >= {3 * ansatz.n_coefficients} sample points, got {len(X)}"
        )
    m = len(X)
    G = g(X)
    dG = np.moveaxis(_partials(g, X, n, h), 0, -3)       # (m, a, j, l)
    if dtau is not None:
        B = dtau(X)
        dB = np.moveaxis(_partials(dtau, X, n, h), 0, -3)

    sym_idx = [(j, l) for j in range(n) for l in range(j, n)]
    skew_idx = [(j, l) for j in range(n) for l in range(j + 1, n)]
    mono_vals = np.stack([_mono_values(a, X) for a in ansatz.exponents], axis=1)
    mono_grad = np.stack(
        [np.stack([_mono_partial(a, j, X) for j in range(n)], axis=1) for a in ansatz.exponents],
        axis=1,
    )  # (m, n_mono, n): d_j x^alpha

    cols_g = np.empty((m, len(sym_idx), ansatz.n_coefficients))
    cols_b = np.empty((m, len(skew_idx), ansatz.n_coefficients)) if dtau is not None else None

    col = 0
    for i in range(n):
        for a_idx in range(ansatz.n_monomials):
            Ka = mono_vals[:, a_idx]          # K^i = x^alpha
            dK = mono_grad[:, a_idx]          # (m, n): d_j K^i
            LG = (
                Ka[:, None, None] * dG[:, i]
                + G[:, i, :][:, None, :] * dK[:, :, None]
                + G[:, :, i][:, :, None] * dK[:, None, :]
            )
            cols_g[:, :, col] = np.stack([LG[:, j, l] for (j, l) in sym_idx], axis=1)
            if dtau is not None:
                LB = (
                    Ka[:, None, None] * dB[:, i]
                    + B[:, i, :][:, None, :] * dK[:, :, None]
                    + B[:, :, i][:, :, None] * dK[:, None, :]
                )
                cols_b[:, :, col] = np.stack([LB[:, j, l] for (j, l) in skew_idx], axis=1)
            col += 1

    blocks = [cols_g.reshape(m * len(sym_idx), -1)]
    form_rows = 0
    if dtau is not None:
        blocks.append(cols_b.reshape(m * len(skew_idx), -1))
        form_rows = m * len(skew_idx)
    R = np.vstack(blocks)
    return ResidualMatrix(matrix=R, points=X, fd_step=h,
                          metric_rows=m * len(sym_idx), form_rows=form_rows)


@dataclass(frozen=True)
class NullspaceResult:
    """Numerical nullspace of a residual matrix with a gap certificate."""

    dimension: int
    basis: np.ndarray
    gap: float
    singular_values: np.ndarray
    warning: str | None = None


def nullspace_dimension(R: ResidualMatrix | np.ndarray, sv_threshold: float = 1e-6) -> NullspaceResult:
    """Count singular values below ``sv_threshold`` times the largest.

    ``gap`` is the ratio of the smallest retained to the largest dropped
    singular value; a gap below 10 attaches an ambiguous-rank warning
    instead of raising.
    """
    M = R.matrix if isinstance(R, ResidualMatrix) else np.asarray(R, dtype=float)
    _, sv, Vh = np.linalg.svd(M, full_matrices=False)
    rel = sv / sv[0]
    null_mask = rel < sv_threshold
    dim = int(null_mask.sum())
    basis = Vh[len(sv) - dim:] if dim else np.empty((0, M.shape[1]))
    if dim == 0:
        # nothing dropped: report the margin of the smallest value above the cut
        gap = float(rel[-1] / sv_threshold)
        warning = None
    else:
        kept = rel[~null_mask]
        dropped = rel[null_mask]
        gap = float(kept.min() / dropped.max()) if len(kept) else float("inf")
        warning = None
    if np.isfinite(gap) and gap < 10.0:
        warning = f"ambiguous rank: spectral gap {gap:.3g} < 10"
    return NullspaceResult(dimension=dim, basis=basis, gap=gap,
                           singular_values=sv, warning=warning)


# ---------------------------------------------------------------------------
# Invariant 2-forms of a matrix subalgebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantFormsResult:
    dimension: int
    basis: np.ndarray          # (dim, n, n) antisymmetric matrices
    singular_values: np.ndarray


def _lambda2_basis(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def invariant_two_forms(generators, threshold: float = 1e-9) -> InvariantFormsResult:
    """Common kernel of a Lie algebra acting on 2-forms.

    A generator A acts on a form beta by ``(A . beta) = A^T beta + beta A``
    (minus the commutator action for antisymmetric A); the invariant forms
    are the joint nullspace over all generators.
    """
    gens = [np.asarray(A, dtype=float) for A in generators]
    n = gens[0].shape[0]
    for A in gens:
        if A.shape != (n, n) or np.abs(A + A.T).max() > 1e-12 * max(1.0, np.abs(A).max()):
            raise ValueError("generators must be antisymmetric matrices of equal size")
    pairs = _lambda2_basis(n)
    N = len(pairs)
    rows = []
    for A in gens:
        M = np.zeros((N, N))
        for col, (i, j) in enumerate(pairs):
            beta = np.zeros((n, n))
            beta[i, j] = 1.0
            beta[j, i] = -1.0
            acted = A.T @ beta + beta @ A
            M[:, col] = [acted[a, b] for (a, b) in pairs]
        rows.append(M)
    stacked = np.vstack(rows)
    _, sv, Vh = np.linalg.svd(stacked)
    scale = sv[0] if sv[0] > 0 else 1.0
    dim = int((sv < threshold * scale).sum()) + (N - len(sv) if N > len(sv) else 0)
    basis_vecs = Vh[N - dim:] if dim else np.empty((0, N))
    mats = np.zeros((dim, n, n))
    for k, vec in enumerate(basis_vecs):
        for c, (i, j) in enumerate(pairs):
            mats[k, i, j] = vec[c]
            mats[k, j, i] = -vec[c]
    return InvariantFormsResult(dimension=dim, basis=mats, singular_values=sv)


def so_generators(n: int) -> list[np.ndarray]:
    """Standard basis E_ij - E_ji of the rotation algebra so(n)."""
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            A = np.zeros((n, n))
            A[i, j] = 1.0
            A[j, i] = -1.0
            gens.append(A)
    return gens


def standard_complex_structure(n: int = 4) -> np.ndarray:
    """J pairing coordinates (1,2), (3,4), ...: J e_1 = e_2, J e_2 = -e_1."""
    if n % 2:
        raise ValueError("complex structure needs even dimension")
    J = np.zeros((n, n))
    for k in range(0, n, 2):
        J[k, k + 1] = -1.0
        J[k + 1, k] = 1.0
    return J


def u2_generators() -> list[np.ndarray]:
    """Basis of the unitary subalgebra u(2) inside so(4).

    Real images of the antihermitian 2x2 matrices {iI, i sigma_x, i sigma_y
    (real form), i sigma_z} under the identification (x1, x2, x3, x4) =
    (Re z1, Im z1, Re z2, Im z2); all commute with the standard J.
    """
    def real_of(M: np.ndarray) -> np.ndarray:
        out = np.zeros((4, 4))
        for j in range(2):
            for k in range(2):
                a, b = M[j, k].real, M[j, k].imag
                out[2 * j:2 * j + 2, 2 * k:2 * k + 2] = [[a, -b], [b, a]]
        return out

    i = 1j
    basis_c = [
        np.array([[i, 0], [0, i]]),
        np.array([[i, 0], [0, -i]]),
        np.array([[0, 1], [-1, 0]], dtype=complex),
        np.array([[0, i], [i, 0]]),
    ]
    return [real_of(M) for M in basis_c]


# ---------------------------------------------------------------------------
# End-to-end dimension pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlmostKillingReport:
    """Dimension, spectrum, basis, and flow cross-validation results."""

    dimension: int
    gap: float
    singular_values: np.ndarray
    basis: np.ndarray
    sv_threshold: float
    fd_step: float
    cross_validation: list | None
    warning: str | None

    @property
    def max_t_deviation(self) -> float:
        if not self.cross_validation:
            return float("nan")
        return max(c["max_t_diff"] for c in self.cross_validation)


def flow_cross_validation(chart: ChartDomain, g: RiemannianField, tau: OneFormField,
                          basis: np.ndarray, degree: int = 2, seed: int = 101,
                          n_triples: int = 10, flow_time: float | None = None,
                          segments: int = 16, iters: int = 400, t_tolerance: float = 1e-4,
                          raise_on_failure: bool = True) -> list:
    """Flow check linking the infinitesimal and finite pictures.

    Each basis field (coefficients of the degree-``degree`` ansatz) is
    normalized to unit sup-norm and flowed for ``flow_time``; the triangular
    function must be preserved on triples seeded with ``seed + 1`` to within
    ``t_tolerance``.  Returns one ``{"field", "max_t_diff"}`` record per
    basis field.
    """
    if not len(basis):
        return []
    ansatz = VectorFieldAnsatz(chart.dim, degree)
    if flow_time is None:
        # sup-normalized fields move points by roughly the flow time;
        # keep the flowed triples well inside the box
        flow_time = 0.4 * chart.edges.min() / 2.0
    F = randers_metric(RandersData(g, tau), chart=chart)
    triples = seeded_triples(chart, n_triples, seed=seed + 1,
                             margin=0.35 * chart.edges.min())
    flat = triples.reshape(-1, chart.dim)
    mesh = chart.mesh_points(3)
    mapped = []
    for coeffs in basis:
        K = ansatz.field(coeffs / ansatz.sup_norm(coeffs, mesh))
        phi = flow_point_map(chart, K, flow_time, n_steps=64)
        mapped.append(np.asarray(phi(flat), dtype=float).reshape(triples.shape))
    # one batched solve for the base triples and every field's image
    stacked = np.concatenate([triples] + mapped)
    t_all = triangular_batch(F, stacked, k=segments, iters=iters)
    base = t_all[:n_triples]
    cross = []
    for b_idx in range(len(basis)):
        t_field = t_all[(b_idx + 1) * n_triples:(b_idx + 2) * n_triples]
        diff = float(np.abs(t_field - base).max())
        cross.append({"field": b_idx, "max_t_diff": diff})
        if raise_on_failure and diff > t_tolerance:
            raise InconsistencyError(
                f"basis field {b_idx} fails flow cross-validation: "
                f"max T deviation {diff:.3g} > {t_tolerance:g} "
                "(ansatz degree or tolerances are misconfigured)"
            )
    return cross


def almost_killing_dimension(
    chart: ChartDomain,
    g: RiemannianField,
    tau: OneFormField,
    degree: int = 2,
    dtau: TwoFormField | None = None,
    sv_threshold: float = 1e-6,
    h: float | None = None,
    points_per_coefficient: int = 5,
    seed: int = 101,
    cross_validate: bool = True,
    n_triples: int = 10,
    flow_time: float | None = None,
    segments: int = 16,
    iters: int = 400,
    t_tolerance: float = 1e-4,
    raise_on_failure: bool = True,
) -> AlmostKillingReport:
    """Dimension of the almost-Killing space of the Randers norm of (g, tau).

    Pipeline: d(tau) (analytic override or centered differences), residual
    matrix over a seeded low-discrepancy sample, SVD nullspace, and - when
    ``cross_validate`` is set - :func:`flow_cross_validation` of the basis.
    """
    h = chart.fd_step if h is None else h
    ansatz = VectorFieldAnsatz(chart.dim, degree)
    margin = max(3.0 * h, 0.05 * chart.edges.min())
    pts = chart.sample_points(points_per_coefficient * ansatz.n_coefficients,
                              seed=seed, margin=margin)
    beta = dtau if dtau is not None else exterior_derivative_field(chart, tau)
    R = build_residual(g, beta, ansatz, pts, h=h)
    null = nullspace_dimension(R, sv_threshold=sv_threshold)

    cross = None
    if cross_validate and null.dimension:
        cross = flow_cross_validation(
            chart, g, tau, null.basis, degree=degree, seed=seed, n_triples=n_triples,
            flow_time=flow_time, segments=segments, iters=iters,
            t_tolerance=t_tolerance, raise_on_failure=raise_on_failure,
        )

    return AlmostKillingReport(
        dimension=null.dimension,
        gap=null.gap,
        singular_values=null.singular_values,
        basis=null.basis,
        sv_threshold=sv_threshold,
        fd_step=h,
        cross_validation=cross,
        warning=null.warning,
    )
