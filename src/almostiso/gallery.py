"""Named, certified Randers configurations for the verification suites.

Each constructor builds a chart, a Riemannian component field g, and a
1-form tau with a prescribed differential (d tau = c * volume form in 2D,
c * Kahler form in 4D, or d tau = df for the closed family), checks
admissibility and the defining certificates, and returns an immutable
:class:`GalleryEntry` carrying the expected almost-Killing dimension and
the JSON configuration it is equivalent to.

Curved 2D primitives are built radially: for a conformal metric
g = factor(r^2) I, tau = A(r) (x dy - y dx) with
A(r) = c / r^2 * integral_0^r s * factor(s^2) ds satisfies
d tau = c * sqrt(det g) dx^dy.  The integral is used in closed form:
A = c/2 (flat), 2c/(1 + r^2) (sphere) and 2c/(1 - r^2) (hyperbolic).

Every tau is evaluated by a numpy closure written next to its expression
text; the text goes into the entry's configuration, where
:func:`almostiso.config.config_from_dict` compiles it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
    curvature_target: float | None
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
                  tol: float, n_points: int = 16) -> float:
    pts = chart.sample_points(n_points, seed=5, margin=3 * chart.fd_step + 0.05 * chart.edges.min())
    # quarter step: the certificate measurement must not be limited by the
    # chart's working finite-difference accuracy
    measured = exterior_derivative(chart, tau, pts, step=chart.fd_step / 4)
    defect = float(np.abs(measured - target(pts)).max())
    if defect > tol:
        raise ConstructionError(f"d(tau) certificate failed: defect {defect:g} > {tol:g}")
    return defect


def _certified(name: str, chart: ChartDomain, g: RiemannianField, tau: OneFormField,
               dtau: TwoFormField, *, c: float, expected_dimension: int,
               curvature_target: float | None, curvature_tol: float,
               dtau_tol: float | None, g_spec: dict, tau_text: list[str] | None,
               curvature_kind: str = "constant-sectional", J: np.ndarray | None = None,
               max_shrink: int = 0, certs: dict | None = None) -> GalleryEntry:
    """Certify Randers data and return its entry.

    The box shrinks (up to ``max_shrink`` times) until ``|tau|_g < 1`` on
    it; d(tau) is checked against ``dtau`` within ``dtau_tol`` (skipped when
    None), and 16 curvature planes within ``curvature_tol``: J-invariant
    ones for constant holomorphic curvature, whose value is recorded, not
    pinned.  ``certs`` holds certificates the caller measured already.
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

    holomorphic = curvature_kind == "constant-holomorphic"
    sweep = curvature_sweep(chart, g, count=16, seed=17,
                            complex_structure=J if holomorphic else None)
    if sweep.std > curvature_tol:
        raise ConstructionError(
            f"curvature constancy certificate failed: std {sweep.std:g} > {curvature_tol:g}"
        )
    if curvature_target is not None and abs(sweep.mean - curvature_target) > curvature_tol:
        raise ConstructionError(
            f"curvature value certificate failed: mean {sweep.mean:g} != {curvature_target:g}"
        )
    prefix = "holomorphic_curvature" if holomorphic else "curvature"
    certs[f"{prefix}_mean"] = (sweep.mean,
                               float("nan") if curvature_target is None else curvature_tol)
    certs[f"{prefix}_std"] = (sweep.std, curvature_tol)

    raw = None if tau_text is None else {
        "chart": {"box": chart.box.tolist(), "fd_step": chart.fd_step},
        "metric": {"kind": "randers", "g": g_spec,
                   "tau": {"kind": "expressions", "components": tau_text}},
    }
    return GalleryEntry(
        name=name, chart=chart, g=g, tau=tau, c=c,
        expected_dimension=expected_dimension, curvature_kind=curvature_kind,
        curvature_target=curvature_target, dtau=dtau, complex_structure=J,
        certificates=certs, raw=raw,
    )


def _rotation_text(term: str, n: int) -> list[str]:
    """Expression text of sum_k a_k (x_{2k-1} dx_{2k} - x_{2k} dx_{2k-1}).

    ``term`` writes one component, with ``{s}`` for its sign and ``{x}``
    for its coordinate.
    """
    return [term.format(s=s, x=f"x{2 * k + j}")
            for k in range(n // 2) for s, j in (("-", 2), ("", 1))]


def _default_box(n: int, half: float = 0.5) -> np.ndarray:
    return np.tile([-half, half], (n, 1))


def _g_spec(kind: str, n: int) -> dict:
    """The configuration of a conformal chart metric (the identity when flat)."""
    if kind == "flat":
        return {"kind": "constant", "matrix": np.eye(n).tolist()}
    return {"kind": f"{kind}-conformal"}


# ---------------------------------------------------------------------------
# Conformal 2D charts and their radial primitives
# ---------------------------------------------------------------------------

# kind: (conformal factor of r^2, the closed-form A(r^2) / c and the same
# amplitude as expression text in {r2}, sectional curvature)
_RADIAL = {
    "flat": (lambda r2: np.ones_like(r2),
             lambda r2: np.full_like(r2, 0.5), "0.5", 0.0),
    "sphere": (lambda r2: 4.0 / (1.0 + r2) ** 2,
               lambda r2: 2.0 / (1.0 + r2), "(2/(1 + {r2}))", 1.0),
    "hyperbolic": (lambda r2: 4.0 / (1.0 - r2) ** 2,
                   lambda r2: 2.0 / (1.0 - r2), "(2/(1 - {r2}))", -1.0),
}


def _conformal_field(kind: str, dim: int = 2) -> RiemannianField:
    if kind == "flat":
        return RiemannianField.constant(np.eye(dim))
    factor = _RADIAL[kind][0]
    return RiemannianField.conformal(lambda x: factor((x ** 2).sum(axis=-1)), dim)


def _radial_primitive(kind: str, c: float) -> tuple[OneFormField, list[str]]:
    """tau = A(r) (x dy - y dx) with d(tau) = c * factor(r^2) dx ^ dy."""
    _, amplitude, text, _ = _RADIAL[kind]

    def comps(x):
        a = c * amplitude((x ** 2).sum(axis=-1))
        return np.stack([-a * x[..., 1], a * x[..., 0]], axis=-1)

    amp = f"({c}*{text.format(r2='(x1^2 + x2^2)')})"
    return OneFormField(comps, 2), _rotation_text("{s}" + amp + "*{x}", 2)


def make_constant_curvature_2d(kind: str, c: float, box=None,
                               fd_step: float = 1e-3, max_shrink: int = 8) -> GalleryEntry:
    """Flat / round-sphere / hyperbolic 2D chart with d(tau) = c * vol_g.

    The box shrinks automatically (up to ``max_shrink`` times) until
    ``|tau|_g < 1`` holds; the chosen box is recorded on the entry.
    With c != 0 the almost-Killing space is 3-dimensional: volume-preserving
    isometries survive, translations-only metrics do not occur in 2D.
    """
    if kind not in _RADIAL:
        raise ValueError(f"kind must be one of {sorted(_RADIAL)}")
    factor = _RADIAL[kind][0]
    tau, tau_text = _radial_primitive(kind, c)
    vol_form = TwoFormField(
        lambda x: factor((x ** 2).sum(axis=-1))[..., None, None]
        * np.array([[0.0, 1.0], [-1.0, 0.0]]),
        2,
    )
    dtau = (TwoFormField(lambda x: c * vol_form(x), 2) if c != 0.0
            else TwoFormField.constant(np.zeros((2, 2))))
    return _certified(
        f"constant-curvature-2d[{kind}, c={c:g}]",
        ChartDomain(_default_box(2) if box is None else box, fd_step),
        _conformal_field(kind), tau, dtau, c=c, expected_dimension=3,
        curvature_target=_RADIAL[kind][3], curvature_tol=1e-3,
        dtau_tol=1e-6 if c != 0.0 else None, g_spec=_g_spec(kind, 2),
        tau_text=tau_text, max_shrink=max_shrink,
    )


def make_flat_kahler_4d(c: float, box=None, fd_step: float = 1e-3) -> GalleryEntry:
    """Flat Kahler chart: g = I4, omega = dx1^dx2 + dx3^dx4, d(tau) = c*omega.

    tau = (c/2)(x1 dx2 - x2 dx1 + x3 dx4 - x4 dx3).  Expected almost-Killing
    dimension: 8 for c != 0 (translations + unitary rotations), 10 for c = 0.
    """
    omega = np.zeros((4, 4))
    omega[0, 1] = omega[2, 3] = 1.0
    omega[1, 0] = omega[3, 2] = -1.0

    def tau_comps(x):
        out = np.empty_like(x)
        out[..., 0] = -0.5 * c * x[..., 1]
        out[..., 1] = 0.5 * c * x[..., 0]
        out[..., 2] = -0.5 * c * x[..., 3]
        out[..., 3] = 0.5 * c * x[..., 2]
        return out

    return _certified(
        f"flat-kahler-4d[c={c:g}]",
        ChartDomain(_default_box(4) if box is None else box, fd_step),
        RiemannianField.constant(np.eye(4)), OneFormField(tau_comps, 4),
        TwoFormField.constant(c * omega), c=c,
        expected_dimension=8 if c != 0.0 else 10,
        curvature_target=0.0, curvature_tol=1e-4,
        dtau_tol=1e-6 if c != 0.0 else None, g_spec=_g_spec("flat", 4),
        tau_text=_rotation_text(f"{{s}}0.5*{c}*{{x}}", 4),
        J=standard_complex_structure(4),
    )


# ---------------------------------------------------------------------------
# Fubini-Study chart
# ---------------------------------------------------------------------------

_FS_J = standard_complex_structure(4)


def _fs_metric_components(x: np.ndarray) -> np.ndarray:
    """Real components of the Fubini-Study metric on the affine C^2 chart.

    The complex Hessian of the potential (1/2) log(1 + |z|^2), expanded to
    the real coordinates (x1, x2, x3, x4) = (Re z1, Im z1, Re z2, Im z2):
    ``((1 + r^2) I - x x^T - Jx (Jx)^T) / (1 + r^2)^2`` with ``J`` the
    standard complex structure; the identity at the chart origin.
    """
    s = 1.0 + (x ** 2).sum(axis=-1)[..., None, None]
    jx = x @ _FS_J.T
    out = s * np.eye(4) - x[..., :, None] * x[..., None, :] - jx[..., :, None] * jx[..., None, :]
    return out / (s * s)


def _fs_tau(c: float) -> tuple[OneFormField, list[str]]:
    """c times the canonical primitive of the Kahler form.

    eta = (1/2) sum_j (phi_{x_j} dy_j - phi_{y_j} dx_j) for the potential
    phi, which satisfies d(eta) = omega; gradients are analytic here.
    """

    def comps(x):
        r2 = (x ** 2).sum(axis=-1)
        grad = x / (1.0 + r2)[..., None]       # d phi = x / (1 + |x|^2)
        out = np.empty_like(x)
        out[..., 0] = -0.5 * grad[..., 1]
        out[..., 1] = 0.5 * grad[..., 0]
        out[..., 2] = -0.5 * grad[..., 3]
        out[..., 3] = 0.5 * grad[..., 2]
        return c * out

    r2 = "(x1^2 + x2^2 + x3^2 + x4^2)"
    return OneFormField(comps, 4), _rotation_text(f"{c}*({{s}}0.5*({{x}}/(1 + {r2})))", 4)


def make_fubini_study_4d(c: float, box=None, fd_step: float = 3e-4) -> GalleryEntry:
    """Constant-holomorphic-curvature chart (complex projective plane).

    g comes from the Fubini-Study potential on the affine chart, omega is
    the associated Kahler form g(J., .), and tau = c * (canonical primitive
    of omega).  Certificates: d(omega) = 0 within 1e-6, d(tau) = c * omega
    within 1e-6, holomorphic-curvature constancy within 1e-3 (the measured
    constant is recorded, not pinned).  Almost-Killing dimension 8 for every
    c (the holomorphic isometries all preserve omega).

    The default ``fd_step`` is smaller than elsewhere so the residual-matrix
    noise floor stays below the 1e-7 rank threshold-stability band.
    """
    chart = ChartDomain(_default_box(4, 0.35) if box is None else box, fd_step)
    J = standard_complex_structure(4)
    omega = TwoFormField(
        lambda x: np.einsum("ba,...bc->...ac", J, _fs_metric_components(x)), 4
    )
    tau, tau_text = _fs_tau(c)

    # Kahler form closedness: d(omega) has 4 independent 3-form components;
    # check all dx_a ^ dx_i ^ dx_j coefficients via partials of omega.
    pts = chart.sample_points(8, seed=9, margin=3 * fd_step + 0.02)
    domega = np.moveaxis(_partials(omega, pts, 4, chart.fd_step), 0, -3)   # (..., a, i, j)
    cyc = domega + np.einsum("...aij->...ija", domega) + np.einsum("...aij->...jai", domega)
    domega_defect = float(np.abs(cyc).max())
    if domega_defect > 1e-6:
        raise ConstructionError(f"d(omega) != 0: defect {domega_defect:g}")

    return _certified(
        f"fubini-study-4d[c={c:g}]", chart, RiemannianField(_fs_metric_components, 4),
        tau, TwoFormField(lambda x: c * omega(x), 4), c=c, expected_dimension=8,
        curvature_kind="constant-holomorphic", curvature_target=None, curvature_tol=1e-3,
        dtau_tol=1e-6 if c != 0.0 else None, g_spec={"kind": "fubini-study"},
        tau_text=tau_text, J=J, certs={"domega_defect": (domega_defect, 1e-6)},
    )


# ---------------------------------------------------------------------------
# Closed one-form family
# ---------------------------------------------------------------------------

_CLOSED_KINDS = {
    "flat-2d": (2, "flat"),
    "sphere-2d": (2, "sphere"),
    "hyperbolic-2d": (2, "hyperbolic"),
    "flat-4d": (4, "flat"),
}


def make_randers_closed(g_kind: str, f: Callable[[np.ndarray], np.ndarray],
                        box=None, grad_f: Callable[[np.ndarray], np.ndarray] | None = None,
                        fd_step: float = 1e-3) -> GalleryEntry:
    """Randers data with tau = df for a potential ``f`` (so d tau = 0).

    For a constant-curvature base the almost-Killing space coincides with
    the full Killing algebra: dimension n(n+1)/2.  ``grad_f`` may supply the
    analytic gradient; otherwise df is taken by centered differences.  The
    entry carries no ``raw`` configuration, since ``f`` is Python code.
    """
    if g_kind not in _CLOSED_KINDS:
        raise ValueError(f"g_kind must be one of {sorted(_CLOSED_KINDS)}")
    n = _CLOSED_KINDS[g_kind][0]
    chart = ChartDomain(_default_box(n) if box is None else box, fd_step)
    if grad_f is not None:
        tau = OneFormField(lambda x: np.asarray(grad_f(x), dtype=float), n)
    else:
        tau = gradient_one_form(chart, f)
    return _closed_entry(g_kind, chart, tau, None)


def _closed_entry(g_kind: str, chart: ChartDomain, tau: OneFormField,
                  tau_text: list[str] | None) -> GalleryEntry:
    n, kind = _CLOSED_KINDS[g_kind]
    tol = 1e-4 if kind == "flat" else 1e-3
    return _certified(
        f"randers-closed[{g_kind}]", chart,
        _conformal_field(kind, n),
        tau, TwoFormField.constant(np.zeros((n, n))), c=0.0,
        expected_dimension=n * (n + 1) // 2, curvature_target=_RADIAL[kind][3],
        curvature_tol=tol, dtau_tol=1e-5, g_spec=_g_spec(kind, n), tau_text=tau_text,
    )


def _analytic_df(g_kind: str, grad: Callable[[np.ndarray], np.ndarray],
                 text: list[str]) -> GalleryEntry:
    """A closed entry on the default box whose tau is ``grad``, written as ``text``."""
    n = _CLOSED_KINDS[g_kind][0]
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
