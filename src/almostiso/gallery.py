"""Named, certified Randers configurations for the verification suites.

Each constructor builds a chart, a Riemannian component field g, and a
1-form tau with a prescribed differential (d tau = c * omega for the
Kahler form omega of g, or d tau = df = 0 for the closed family), checks
admissibility and the defining certificates, and returns an immutable
:class:`GalleryEntry` carrying the expected almost-Killing dimension and
the JSON configuration it is equivalent to.

Every magnetic entry has one primitive.  With J the standard complex
structure (J e_1 = e_2) and omega = J^T g, i.e. omega(u, v) = g(Ju, v),
which is the area form in 2D, tau = c A(r^2) Jx satisfies d tau = c * omega
for the radial factor A of each chart metric:

    g                    A(r^2)
    flat, 2D and 4D      1/2
    round sphere, 2D     2/(1 + r^2)
    hyperbolic, 2D       2/(1 - r^2)
    Fubini-Study, 4D     (1/2)/(1 + r^2)

These metrics, with their curvature, isometry dimension and A, form one
table, ``_METRICS``, which :mod:`almostiso.config` also reads for named g
kinds.  The expected almost-Killing dimension is the isometry dimension of
g when c = 0, and otherwise 3 in 2D and 8 in 4D.

Every tau is evaluated by a numpy closure and also written as expression
text; the text goes into the entry's configuration, where
:func:`almostiso.config.config_from_dict` compiles it back.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .chart import (
    ChartDomain,
    OneFormField,
    RiemannianField,
    TwoFormField,
    _partials,
    exterior_derivative,
    gradient_one_form,
)
from .curvature import curvature_sweep
from .errors import ConstructionError, ConvexityError
from .metric import MetricField, RandersData, convexity_margin, randers_metric
from .symmetry import standard_complex_structure

__all__ = [
    "GalleryEntry",
    "make_constant_curvature_2d",
    "make_flat_kahler_4d",
    "make_fubini_study_4d",
    "make_randers_closed",
    "gallery_catalog",
    "build_gallery_entry",
]


@dataclass(frozen=True)
class GalleryEntry:
    """A certified metric configuration.

    ``certificates`` maps check names to (measured, tolerance) pairs that
    were verified at construction; entries are immutable afterwards.
    ``raw`` is the equivalent JSON configuration (the certified chart, the
    g kind and tau as expression text); it is None when tau was given only
    as Python callables.
    """

    name: str
    chart: ChartDomain
    g: RiemannianField
    tau: OneFormField
    c: float
    expected_dimension: int
    curvature_kind: str               # "constant-sectional" | "constant-holomorphic"
    curvature_target: float           # the constant of that kind
    dtau: TwoFormField | None = None
    complex_structure: np.ndarray | None = None
    certificates: dict = field(default_factory=dict)
    raw: dict | None = None

    @property
    def randers(self) -> RandersData:
        return RandersData(self.g, self.tau)

    def metric(self) -> MetricField:
        return randers_metric(self.randers, chart=self.chart)


def _admissibility_points(chart: ChartDomain) -> np.ndarray:
    per_axis = 5 if chart.dim == 2 else 3
    return np.vstack([chart.mesh_points(per_axis), chart.sample_points(32, seed=3)])


def _certify_dtau(chart: ChartDomain, tau: OneFormField, target: TwoFormField,
                  tol: float) -> float:
    pts = chart.sample_points(16, seed=5, margin=3 * chart.fd_step + 0.05 * chart.edges.min())
    # quarter step: the certificate measurement must not be limited by the
    # chart's working finite-difference accuracy
    measured = exterior_derivative(chart, tau, pts, step=chart.fd_step / 4)
    defect = float(np.abs(measured - target(pts)).max())
    if defect > tol:
        raise ConstructionError(f"d(tau) certificate failed: defect {defect:g} > {tol:g}")
    return defect


def _certified(name: str, row: _Metric, chart: ChartDomain, g: RiemannianField,
               tau: OneFormField, dtau: TwoFormField, *, c: float, curvature_tol: float,
               dtau_tol: float | None, tau_text: list[str] | None,
               J: np.ndarray | None = None, max_shrink: int = 0,
               certs: dict | None = None) -> GalleryEntry:
    """Certify Randers data on the chart metric ``row`` and return its entry.

    The box shrinks (up to ``max_shrink`` times) until ``|tau|_g < 1`` on
    it; d(tau) is checked against ``dtau`` within ``dtau_tol`` (skipped when
    None), and 16 curvature planes within ``curvature_tol`` of the row's
    constant: J-invariant ones for constant holomorphic curvature.
    ``certs`` holds certificates the caller measured already.
    """
    data = RandersData(g, tau)
    for attempt in range(max_shrink + 1):
        margin = convexity_margin(data, _admissibility_points(chart))
        if margin > 0.0:
            break
        if attempt == max_shrink:
            raise ConvexityError(f"{name}: |tau|_g >= 1 on the chart box; "
                                 "shrink the box or reduce |c|")
        chart = chart.shrink(0.8)
    certs = {"convexity_margin": (margin, 0.0), **(certs or {})}
    if dtau_tol is not None:
        certs["dtau_defect"] = (_certify_dtau(chart, tau, dtau, dtau_tol), dtau_tol)

    sweep = curvature_sweep(chart, g, count=16, seed=17,
                            complex_structure=J if row.holomorphic else None)
    if sweep.std > curvature_tol:
        raise ConstructionError(
            f"curvature constancy certificate failed: std {sweep.std:g} > {curvature_tol:g}"
        )
    if abs(sweep.mean - row.curvature) > curvature_tol:
        raise ConstructionError(
            f"curvature value certificate failed: mean {sweep.mean:g} != {row.curvature:g}"
        )
    prefix = "holomorphic_curvature" if row.holomorphic else "curvature"
    certs[f"{prefix}_mean"] = (sweep.mean, curvature_tol)
    certs[f"{prefix}_std"] = (sweep.std, curvature_tol)

    raw = None if tau_text is None else {
        "chart": {"box": chart.box.tolist(), "fd_step": chart.fd_step},
        "metric": {"kind": "randers", "g": copy.deepcopy(row.spec),
                   "tau": {"kind": "expressions", "components": tau_text}},
    }
    # the paper's count: a drift with d(tau) = c * omega, c != 0, keeps a
    # 3-dimensional group in 2D and an 8-dimensional one in 4D
    expected_dimension = row.isometries if c == 0.0 else {2: 3, 4: 8}[row.dim]
    return GalleryEntry(
        name=name, chart=chart, g=g, tau=tau, c=c, expected_dimension=expected_dimension,
        curvature_kind="constant-holomorphic" if row.holomorphic else "constant-sectional",
        curvature_target=row.curvature, dtau=dtau, complex_structure=J,
        certificates=certs, raw=raw,
    )


def _default_box(n: int, half: float = 0.5) -> np.ndarray:
    return np.tile([-half, half], (n, 1))


# ---------------------------------------------------------------------------
# Chart metrics
# ---------------------------------------------------------------------------

_FS_J = standard_complex_structure(4)


def _r2(x: np.ndarray) -> np.ndarray:
    return sum(x[..., i] * x[..., i] for i in range(x.shape[-1]))


def _fs_metric_components(x: np.ndarray) -> np.ndarray:
    """Real components of the Fubini-Study metric on the affine C^2 chart.

    The complex Hessian of the potential (1/2) log(1 + |z|^2), expanded to
    the real coordinates (x1, x2, x3, x4) = (Re z1, Im z1, Re z2, Im z2):
    ``((1 + r^2) I - x x^T - Jx (Jx)^T) / (1 + r^2)^2`` with ``J`` the
    standard complex structure; the identity at the chart origin.
    """
    s = 1.0 + _r2(x)
    jx = x @ _FS_J.T
    # in place, in the order of the formula; einsum forms the outer products
    # without the ufunc buffers a broadcast product allocates
    out = np.einsum("...,ij->...ij", s, np.eye(4))
    out -= np.einsum("...i,...j->...ij", x, x)
    out -= np.einsum("...i,...j->...ij", jx, jx)
    out /= (s * s)[..., None, None]
    return out


def _flat(n: int) -> RiemannianField:
    return RiemannianField.constant(np.eye(n))


def _conformal(factor: Callable[[np.ndarray], np.ndarray]) -> Callable[[int], RiemannianField]:
    """The metric factor(x) I, on a chart of any dimension."""
    return lambda n: RiemannianField.conformal(factor, n)


def _fubini_study(n: int) -> RiemannianField:
    if n != 4:
        raise ValueError("fubini-study metric needs a 4-dimensional chart")
    return RiemannianField(_fs_metric_components, 4)


class _Metric(NamedTuple):
    """A chart metric g and the radial factor A of its Kahler primitive A(r^2) Jx."""

    dim: int
    g: Callable[[int], RiemannianField]             # g on an n-dimensional chart
    spec: dict                                      # g as configuration
    curvature: float                                # constant sectional (or holomorphic) curvature
    isometries: int                                 # dimension of g's isometry group
    amplitude: Callable[[np.ndarray], np.ndarray]   # A(r^2) at points x; a number if constant
    amplitude_text: str                             # A as expression text in {r2}
    holomorphic: bool = False                       # curvature is holomorphic sectional


_METRICS = {
    "flat-2d": _Metric(2, _flat, {"kind": "constant", "matrix": np.eye(2).tolist()}, 0.0, 3,
                       lambda x: 0.5, "0.5"),
    "sphere-2d": _Metric(2, _conformal(lambda x: 4.0 / (1.0 + _r2(x)) ** 2),
                         {"kind": "sphere-conformal"}, 1.0, 3,
                         lambda x: 2.0 / (1.0 + _r2(x)), "(2/(1 + {r2}))"),
    "hyperbolic-2d": _Metric(2, _conformal(lambda x: 4.0 / (1.0 - _r2(x)) ** 2),
                             {"kind": "hyperbolic-conformal"}, -1.0, 3,
                             lambda x: 2.0 / (1.0 - _r2(x)), "(2/(1 - {r2}))"),
    "flat-4d": _Metric(4, _flat, {"kind": "constant", "matrix": np.eye(4).tolist()}, 0.0, 10,
                       lambda x: 0.5, "0.5"),
    # holomorphic curvature 4: the potential is normalised to g = I at the origin
    "fubini-study": _Metric(4, _fubini_study, {"kind": "fubini-study"}, 4.0, 8,
                            lambda x: 0.5 / (1.0 + _r2(x)), "(0.5/(1 + {r2}))", holomorphic=True),
}


# ---------------------------------------------------------------------------
# Magnetic entries: d(tau) = c * Kahler form
# ---------------------------------------------------------------------------

def _kahler_form(J: np.ndarray, g: RiemannianField) -> TwoFormField:
    """omega = J^T g, i.e. omega(u, v) = g(Ju, v); the area form in 2D."""
    return TwoFormField(lambda x: np.einsum("ba,...bc->...ac", J, g(x)), g.dim)


def _kahler_entry(name: str, g_kind: str, c: float, chart: ChartDomain, *,
                  curvature_tol: float, max_shrink: int = 0,
                  certs: dict | None = None) -> GalleryEntry:
    """The entry with tau = c A(r^2) Jx, so d(tau) = c * J^T g, on ``g_kind``."""
    row = _METRICS[g_kind]
    n = row.dim
    J = standard_complex_structure(n)
    g = row.g(n)
    omega = _kahler_form(J, g)

    def tau(x):
        # J x written out, (Jx)_{2k-1} = -x_{2k} and (Jx)_{2k} = x_{2k-1}: the
        # matmul x @ J.T takes about five times as long on 4D solver batches
        a = np.asarray(c * row.amplitude(x))[..., None]
        out = np.empty_like(x)
        out[..., 0::2] = -a * x[..., 1::2]
        out[..., 1::2] = a * x[..., 0::2]
        return out

    r2 = "(" + " + ".join(f"x{i}^2" for i in range(1, n + 1)) + ")"
    amp = f"({c}*{row.amplitude_text.format(r2=r2)})"
    tau_text = [f"{s}{amp}*x{i + j}" for i in range(1, n, 2) for s, j in (("-", 1), ("", 0))]
    return _certified(
        name, row, chart, g, OneFormField(tau, n), TwoFormField(lambda x: c * omega(x), n),
        c=c, curvature_tol=curvature_tol, dtau_tol=1e-6 if c != 0.0 else None,
        tau_text=tau_text, J=J if n > 2 else None, max_shrink=max_shrink, certs=certs,
    )


def make_constant_curvature_2d(kind: str, c: float, fd_step: float = 1e-3,
                               max_shrink: int = 8) -> GalleryEntry:
    """Flat / round-sphere / hyperbolic 2D chart with d(tau) = c * vol_g.

    The box shrinks automatically (up to ``max_shrink`` times) until
    ``|tau|_g < 1`` holds; the chosen box is recorded on the entry.
    With c != 0 the almost-Killing space is 3-dimensional: volume-preserving
    isometries survive, translations-only metrics do not occur in 2D.
    """
    kinds = sorted(k[:-len("-2d")] for k in _METRICS if k.endswith("-2d"))
    if kind not in kinds:
        raise ValueError(f"kind must be one of {kinds}")
    return _kahler_entry(
        f"constant-curvature-2d[{kind}, c={c:g}]", f"{kind}-2d", c,
        ChartDomain(_default_box(2), fd_step), curvature_tol=1e-3, max_shrink=max_shrink,
    )


def make_flat_kahler_4d(c: float, fd_step: float = 1e-3) -> GalleryEntry:
    """Flat Kahler chart: g = I4, omega = dx1^dx2 + dx3^dx4, d(tau) = c*omega.

    tau = (c/2)(x1 dx2 - x2 dx1 + x3 dx4 - x4 dx3).  Expected almost-Killing
    dimension: 8 for c != 0 (translations + unitary rotations), 10 for c = 0.
    """
    return _kahler_entry(
        f"flat-kahler-4d[c={c:g}]", "flat-4d", c,
        ChartDomain(_default_box(4), fd_step), curvature_tol=1e-4,
    )


def make_fubini_study_4d(c: float, fd_step: float = 3e-4) -> GalleryEntry:
    """Constant-holomorphic-curvature chart (complex projective plane).

    g comes from the Fubini-Study potential on the affine chart, omega is
    the associated Kahler form g(J., .), and tau = c * (canonical primitive
    of omega).  Certificates: d(omega) = 0 within 1e-6, d(tau) = c * omega
    within 1e-6, and holomorphic curvature within 1e-3 of 4, its value for
    the potential normalised to g = I at the origin.  Almost-Killing
    dimension 8 for every c (the holomorphic isometries all preserve omega).

    The default ``fd_step`` is smaller than elsewhere so the residual-matrix
    noise floor stays below the 1e-7 rank threshold-stability band.
    """
    chart = ChartDomain(_default_box(4, 0.35), fd_step)
    omega = _kahler_form(_FS_J, _fubini_study(4))

    # Kahler form closedness: d(omega) has 4 independent 3-form components;
    # check all dx_a ^ dx_i ^ dx_j coefficients via partials of omega.
    pts = chart.sample_points(8, seed=9, margin=3 * fd_step + 0.02)
    domega = np.moveaxis(_partials(omega, pts, 4, chart.fd_step), 0, -3)   # (..., a, i, j)
    cyc = domega + np.einsum("...aij->...ija", domega) + np.einsum("...aij->...jai", domega)
    domega_defect = float(np.abs(cyc).max())
    if domega_defect > 1e-6:
        raise ConstructionError(f"d(omega) != 0: defect {domega_defect:g}")

    return _kahler_entry(f"fubini-study-4d[c={c:g}]", "fubini-study", c, chart,
                         curvature_tol=1e-3, certs={"domega_defect": (domega_defect, 1e-6)})


# ---------------------------------------------------------------------------
# Closed one-form family
# ---------------------------------------------------------------------------

def make_randers_closed(g_kind: str, f: Callable[[np.ndarray], np.ndarray],
                        grad_f: Callable[[np.ndarray], np.ndarray] | None = None,
                        fd_step: float = 1e-3) -> GalleryEntry:
    """Randers data with tau = df for a potential ``f`` (so d tau = 0).

    For a constant-curvature base the almost-Killing space coincides with
    the full Killing algebra: dimension n(n+1)/2.  ``grad_f`` may supply the
    analytic gradient; otherwise df is taken by centered differences.  The
    entry carries no ``raw`` configuration, since ``f`` is Python code.
    """
    # the family's bases are those of constant sectional curvature
    kinds = sorted(k for k, row in _METRICS.items() if not row.holomorphic)
    if g_kind not in kinds:
        raise ValueError(f"g_kind must be one of {kinds}")
    n = _METRICS[g_kind].dim
    chart = ChartDomain(_default_box(n), fd_step)
    if grad_f is not None:
        tau = OneFormField(lambda x: np.asarray(grad_f(x), dtype=float), n)
    else:
        tau = gradient_one_form(chart, f)
    return _closed_entry(g_kind, chart, tau, None)


def _closed_entry(g_kind: str, chart: ChartDomain, tau: OneFormField,
                  tau_text: list[str] | None) -> GalleryEntry:
    row = _METRICS[g_kind]
    n = row.dim
    return _certified(
        f"randers-closed[{g_kind}]", row, chart, row.g(n), tau,
        TwoFormField.constant(np.zeros((n, n))), c=0.0,
        curvature_tol=1e-4 if row.curvature == 0.0 else 1e-3, dtau_tol=1e-5,
        tau_text=tau_text,
    )


def _analytic_df(g_kind: str, grad: Callable[[np.ndarray], np.ndarray],
                 text: list[str]) -> GalleryEntry:
    """A closed entry on the default box whose tau is ``grad``, written as ``text``."""
    n = _METRICS[g_kind].dim
    return _closed_entry(g_kind, ChartDomain(_default_box(n)), OneFormField(grad, n), text)


# ---------------------------------------------------------------------------
# Catalog for the command-line interface
# ---------------------------------------------------------------------------

# as for Fubini-Study: at fd_step 1e-3 the residual's noise floor (relative
# singular values near 2e-7) lies above the 1e-7 threshold-stability cut;
# at 3e-4 it lies near 2e-8
_HYPERBOLIC_FD_STEP = 3e-4


def gallery_catalog() -> dict:
    """Name -> (constructor, default c) for the named gallery entries."""
    return {
        "example-2": (lambda c: _analytic_df(
            "flat-2d", lambda x: np.stack([0.3 * np.ones(x.shape[:-1]), np.zeros(x.shape[:-1])], axis=-1),
            ["0.3", "0"]), None),
        "example-2-sphere": (lambda c: _analytic_df(
            "sphere-2d", lambda x: np.stack([0.1 * np.cos(x[..., 0]), np.zeros(x.shape[:-1])], axis=-1),
            ["0.1*cos(x1)", "0"]), None),
        "example-2-4d": (lambda c: _analytic_df(
            "flat-4d", lambda x: np.stack(
                [0.2 * np.ones(x.shape[:-1])] + [np.zeros(x.shape[:-1])] * 3, axis=-1),
            ["0.2", "0", "0", "0"]), None),
        "example-2.5": (lambda c: make_constant_curvature_2d("flat", c), 0.4),
        "example-2.5-sphere": (lambda c: make_constant_curvature_2d("sphere", c), 0.3),
        "example-2.5-hyperbolic": (lambda c: make_constant_curvature_2d(
            "hyperbolic", c, fd_step=_HYPERBOLIC_FD_STEP), 0.3),
        "example-3": (lambda c: make_flat_kahler_4d(c), 0.2),
        "example-3-c0": (lambda c: make_flat_kahler_4d(0.0), 0.0),
        "fubini-study": (lambda c: make_fubini_study_4d(c), 0.1),
    }


def build_gallery_entry(name: str, c: float | None = None) -> GalleryEntry:
    catalog = gallery_catalog()
    if name not in catalog:
        raise KeyError(f"unknown gallery entry {name!r}; known: {sorted(catalog)}")
    ctor, default_c = catalog[name]
    return ctor(default_c if c is None else c)
