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


def _monomial_table(exponents, degree: int) -> np.ndarray:
    """``(len(exponents), degree)`` columns of ``[1, X]`` whose product is each monomial.

    Row ``x1^2 x3`` at degree 4 is ``(0, 1, 1, 3)``: the ones column pads
    every monomial to ``degree`` factors, and the axes ascend.
    """
    rows = [[0] * (degree - sum(a)) + [i + 1 for i, p in enumerate(a) for _ in range(p)]
            for a in exponents]
    return np.array(rows, dtype=np.intp).reshape(len(rows), degree)


def _monomial_values(table: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``(m, len(table))`` values at the points ``X`` of the monomials of ``table``."""
    X1 = np.concatenate([np.ones((len(X), 1)), X], axis=1)
    return X1[:, table].prod(axis=-1)


@dataclass(frozen=True)
class VectorFieldAnsatz:
    """All monomial vector fields ``x^alpha d/dx_i`` with ``|alpha| <= degree``."""

    dim: int
    degree: int = 2
    exponents: list = field(init=False)
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "exponents", _monomials(self.dim, self.degree))
        object.__setattr__(self, "table", _monomial_table(self.exponents, self.degree))

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
            out = _monomial_values(self.table, X) @ coeff.T
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
    # d_j x^alpha = alpha_j x^(alpha - e_j), nonzero where alpha_j > 0
    E = np.array(ansatz.exponents)
    a, d = np.nonzero(E)
    mono_grad = np.zeros((len(X), ansatz.n_monomials, n))
    mono_grad[:, a, d] = E[a, d] * _monomial_values(
        _monomial_table(E[a] - np.eye(n, dtype=int)[d], ansatz.degree), X)
    V = _monomial_values(ansatz.table, X)[:, None, None, :]

    def block(T, offset):
        # entry (j, l) of column (i, alpha), i.e. of L_K T for K = x^alpha d/dx_i:
        # x^alpha d_i T_jl + T_il d_j x^alpha + T_ji d_l x^alpha
        j, l = np.triu_indices(n, offset)
        Tx = T(X)
        dT = np.moveaxis(_partials(T, X, n, h), 0, 1)     # (m, i, j, l)
        dV_j = np.swapaxes(mono_grad[:, :, j], 1, 2)[:, :, None, :]
        dV_l = np.swapaxes(mono_grad[:, :, l], 1, 2)[:, :, None, :]
        L = (
            V * np.swapaxes(dT[:, :, j, l], 1, 2)[..., None]
            + np.swapaxes(Tx[:, :, l], 1, 2)[..., None] * dV_j
            + Tx[:, j, :][..., None] * dV_l
        )  # (m, pair, i, alpha)
        return L.reshape(-1, ansatz.n_coefficients)

    blocks = [block(g, 0)]
    if dtau is not None:
        blocks.append(block(dtau, 1))
    return ResidualMatrix(matrix=np.vstack(blocks), points=X, fd_step=h,
                          metric_rows=len(blocks[0]),
                          form_rows=len(blocks[1]) if dtau is not None else 0)


@dataclass(frozen=True)
class NullspaceResult:
    """Numerical nullspace of a residual matrix with a gap certificate."""

    dimension: int
    basis: np.ndarray
    gap: float
    singular_values: np.ndarray
    warning: str | None = None


def _spectrum_cut(sv: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum relative to its largest value, and the mask of values below ``threshold``.

    An all-zero spectrum has no scale, and all of it is below any cut.
    """
    rel = sv / sv[0] if sv[0] > 0 else sv
    return rel, rel < threshold


def nullspace_dimension(R: ResidualMatrix | np.ndarray, sv_threshold: float = 1e-6) -> NullspaceResult:
    """Count singular values below ``sv_threshold`` times the largest.

    ``gap`` is the ratio of the smallest retained to the largest dropped
    singular value (``inf`` when nothing is retained or every dropped value
    is exactly zero); a gap below 10 attaches an ambiguous-rank warning
    instead of raising.  An all-zero matrix has no scale, and its whole
    spectrum is null.  A wide matrix also has a null direction for each
    column past its row count, with singular value exactly zero.
    """
    M = R.matrix if isinstance(R, ResidualMatrix) else np.asarray(R, dtype=float)
    cols = M.shape[1]
    _, sv, Vh = np.linalg.svd(M, full_matrices=cols > M.shape[0])
    rel, null_mask = _spectrum_cut(sv, sv_threshold)
    dim = int(null_mask.sum()) + cols - len(sv)
    basis = Vh[cols - dim:] if dim else np.empty((0, cols))
    if dim == 0:
        # nothing dropped: report the margin of the smallest value above the cut
        gap = float(rel[-1] / sv_threshold)
    else:
        kept = rel[~null_mask]
        top = rel[null_mask].max(initial=0.0)
        gap = float(kept.min() / top) if len(kept) and top > 0 else float("inf")
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


def invariant_two_forms(generators, threshold: float = 1e-9) -> InvariantFormsResult:
    """Common kernel of a Lie algebra acting on 2-forms.

    A generator A acts on a form beta by ``(A . beta) = A^T beta + beta A``
    (minus the commutator action for antisymmetric A); the invariant forms
    are the joint nullspace over all generators, cut by
    :func:`nullspace_dimension`.
    """
    A = np.asarray([np.asarray(a, dtype=float) for a in generators])
    n = A.shape[-1]
    if A.ndim != 3 or A.shape[1] != n or any(
            np.abs(a + a.T).max() > 1e-12 * max(1.0, np.abs(a).max()) for a in A):
        raise ValueError("generators must be antisymmetric matrices of equal size")
    i, j = np.triu_indices(n, 1)
    N = len(i)
    beta = np.zeros((N, n, n))                            # basis forms e_i ^ e_j
    beta[np.arange(N), i, j] = 1.0
    beta[np.arange(N), j, i] = -1.0
    acted = np.swapaxes(A, 1, 2)[:, None] @ beta + beta @ A[:, None]   # (gen, col, n, n)
    stacked = np.swapaxes(acted[:, :, i, j], 1, 2).reshape(-1, N)
    null = nullspace_dimension(stacked, sv_threshold=threshold)
    mats = np.zeros((null.dimension, n, n))
    mats[:, i, j] = null.basis
    mats[:, j, i] = -null.basis
    return InvariantFormsResult(dimension=null.dimension, basis=mats,
                                singular_values=null.singular_values)


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
                          n_triples: int = 10, segments: int = 16, iters: int = 400,
                          raise_on_failure: bool = True) -> list:
    """Flow check linking the infinitesimal and finite pictures.

    Each basis field (coefficients of the degree-``degree`` ansatz) is
    normalized to unit sup-norm and flowed for 0.2 times the smallest box
    edge, which keeps the flowed triples well inside the box; the
    triangular function must be preserved on triples seeded with
    ``seed + 1`` to within 1e-4.  Returns one ``{"field", "max_t_diff"}``
    record per basis field.
    """
    if not len(basis):
        return []
    ansatz = VectorFieldAnsatz(chart.dim, degree)
    flow_time = 0.2 * chart.edges.min()
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
        if raise_on_failure and diff > 1e-4:
            raise InconsistencyError(
                f"basis field {b_idx} fails flow cross-validation: "
                f"max T deviation {diff:.3g} > 1e-4 "
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
    seed: int = 101,
    cross_validate: bool = True,
    n_triples: int = 10,
    segments: int = 16,
    iters: int = 400,
    raise_on_failure: bool = True,
) -> AlmostKillingReport:
    """Dimension of the almost-Killing space of the Randers norm of (g, tau).

    Pipeline: d(tau) (analytic override or centered differences), residual
    matrix over a seeded low-discrepancy sample of five points per ansatz
    coefficient with the chart's ``fd_step``, SVD nullspace, and - when
    ``cross_validate`` is set - :func:`flow_cross_validation` of the basis.
    """
    h = chart.fd_step
    ansatz = VectorFieldAnsatz(chart.dim, degree)
    margin = max(3.0 * h, 0.05 * chart.edges.min())
    pts = chart.sample_points(5 * ansatz.n_coefficients, seed=seed, margin=margin)
    beta = dtau if dtau is not None else exterior_derivative_field(chart, tau)
    R = build_residual(g, beta, ansatz, pts, h=h)
    null = nullspace_dimension(R, sv_threshold=sv_threshold)

    cross = None
    if cross_validate and null.dimension:
        cross = flow_cross_validation(
            chart, g, tau, null.basis, degree=degree, seed=seed, n_triples=n_triples,
            segments=segments, iters=iters, raise_on_failure=raise_on_failure,
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
