"""Named, certified Randers configurations for the verification suites.

Each constructor builds a chart, a Riemannian component field g, and a
1-form tau with a prescribed differential (d tau = c * volume form in 2D,
c * Kahler form in 4D, or d tau = df for the closed family), checks
admissibility and the defining certificates, and returns an immutable
:class:`GalleryEntry` carrying the expected almost-Killing dimension.

Curved 2D primitives are built radially: for a conformal metric
g = factor(r^2) I, tau = A(r) (x dy - y dx) with
A(r) = c / r^2 * integral_0^r s * factor(s^2) ds satisfies
d tau = c * sqrt(det g) dx^dy.  The integral is used in closed form:
A = c/2 (flat), 2c/(1 + r^2) (sphere) and 2c/(1 - r^2) (hyperbolic).
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
    "gallery_entry_config",
    "build_gallery_entry",
]


@dataclass(frozen=True)
class GalleryEntry:
    """A certified metric configuration.

    ``certificates`` maps check names to (measured, tolerance) pairs that
    were verified at construction; entries are immutable afterwards.
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

    @property
    def randers(self) -> RandersData:
        return RandersData(self.g, self.tau)

    def metric(self) -> MetricField:
        return randers_metric(self.randers, chart=self.chart)


def _admissibility_points(chart: ChartDomain) -> np.ndarray:
    per_axis = 5 if chart.dim == 2 else 3
    return np.vstack([chart.mesh_points(per_axis), chart.sample_points(32, seed=3)])


def _certify_margin(entry_name: str, chart: ChartDomain, data: RandersData) -> float:
    margin = convexity_margin(data, _admissibility_points(chart))
    if margin <= 0.0:
        raise ConvexityError(
            f"{entry_name}: |tau|_g >= 1 on the chart box; "
            "shrink the box or reduce |c|"
        )
    return margin


def _certify_dtau(chart: ChartDomain, tau: OneFormField, target: TwoFormField,
                  tol: float = 1e-6, n_points: int = 16) -> float:
    pts = chart.sample_points(n_points, seed=5, margin=3 * chart.fd_step + 0.05 * chart.edges.min())
    # quarter step: the certificate measurement must not be limited by the
    # chart's working finite-difference accuracy
    measured = exterior_derivative(chart, tau, pts, step=chart.fd_step / 4)
    defect = float(np.abs(measured - target(pts)).max())
    if defect > tol:
        raise ConstructionError(f"d(tau) certificate failed: defect {defect:g} > {tol:g}")
    return defect


def _certify_curvature(chart: ChartDomain, g: RiemannianField, kind: str,
                       target: float | None, J: np.ndarray | None,
                       n_planes: int = 16, tol: float = 1e-3) -> dict:
    sweep = curvature_sweep(chart, g, count=n_planes, seed=17,
                            complex_structure=J if kind == "constant-holomorphic" else None)
    out = {"mean": sweep.mean, "std": sweep.std}
    if sweep.std > tol:
        raise ConstructionError(
            f"curvature constancy certificate failed: std {sweep.std:g} > {tol:g}"
        )
    if target is not None and abs(sweep.mean - target) > tol:
        raise ConstructionError(
            f"curvature value certificate failed: mean {sweep.mean:g} != {target:g}"
        )
    return out


# ---------------------------------------------------------------------------
# Conformal 2D charts and their radial primitives
# ---------------------------------------------------------------------------

# conformal factor as a function of r^2
_CONFORMAL_2D = {
    "flat": lambda r2: np.ones_like(r2),
    "sphere": lambda r2: 4.0 / (1.0 + r2) ** 2,
    "hyperbolic": lambda r2: 4.0 / (1.0 - r2) ** 2,
}

# A(r^2) / c = (1 / r^2) * int_0^r s * factor(s^2) ds, in closed form
_RADIAL_AMPLITUDE = {
    "flat": lambda r2: np.full_like(r2, 0.5),
    "sphere": lambda r2: 2.0 / (1.0 + r2),
    "hyperbolic": lambda r2: 2.0 / (1.0 - r2),
}

_CURVATURE_2D = {"flat": 0.0, "sphere": 1.0, "hyperbolic": -1.0}


def _conformal_field(kind: str, dim: int = 2) -> RiemannianField:
    factor = _CONFORMAL_2D[kind]
    return RiemannianField.conformal(lambda x: factor((x ** 2).sum(axis=-1)), dim)


def _radial_primitive(kind: str, c: float) -> OneFormField:
    """tau = A(r) (x dy - y dx) with d(tau) = c * factor(r^2) dx ^ dy."""
    amplitude = _RADIAL_AMPLITUDE[kind]

    def comps(x):
        a = c * amplitude((x ** 2).sum(axis=-1))
        return np.stack([-a * x[..., 1], a * x[..., 0]], axis=-1)

    return OneFormField(comps, 2)


def _default_box(n: int, half: float = 0.5) -> np.ndarray:
    return np.tile([-half, half], (n, 1))


def make_constant_curvature_2d(kind: str, c: float, box=None,
                               fd_step: float = 1e-3, max_shrink: int = 8) -> GalleryEntry:
    """Flat / round-sphere / hyperbolic 2D chart with d(tau) = c * vol_g.

    The box shrinks automatically (up to ``max_shrink`` times) until
    ``|tau|_g < 1`` holds; the chosen box is recorded on the entry.
    With c != 0 the almost-Killing space is 3-dimensional: volume-preserving
    isometries survive, translations-only metrics do not occur in 2D.
    """
    if kind not in _CONFORMAL_2D:
        raise ValueError(f"kind must be one of {sorted(_CONFORMAL_2D)}")
    chart = ChartDomain(_default_box(2) if box is None else box, fd_step)
    factor = _CONFORMAL_2D[kind]
    g = _conformal_field(kind)
    tau = _radial_primitive(kind, c)
    vol_form = TwoFormField(
        lambda x: factor((x ** 2).sum(axis=-1))[..., None, None]
        * np.array([[0.0, 1.0], [-1.0, 0.0]]),
        2,
    )
    dtau = TwoFormField(lambda x: c * vol_form(x), 2)

    data = RandersData(g, tau)
    for _ in range(max_shrink + 1):
        try:
            margin = _certify_margin(f"constant-curvature-2d[{kind}]", chart, data)
            break
        except ConvexityError:
            chart = chart.shrink(0.8)
    else:
        raise ConvexityError(
            f"constant-curvature-2d[{kind}]: no admissible box found; reduce |c|"
        )

    certs = {"convexity_margin": (margin, 0.0)}
    if c != 0.0:
        certs["dtau_defect"] = (_certify_dtau(chart, tau, dtau), 1e-6)
    curv = _certify_curvature(chart, g, "constant-sectional", _CURVATURE_2D[kind], None)
    certs["curvature_mean"] = (curv["mean"], 1e-3)
    certs["curvature_std"] = (curv["std"], 1e-3)

    return GalleryEntry(
        name=f"constant-curvature-2d[{kind}, c={c:g}]",
        chart=chart,
        g=g,
        tau=tau,
        c=c,
        expected_dimension=3,
        curvature_kind="constant-sectional",
        curvature_target=_CURVATURE_2D[kind],
        dtau=dtau if c != 0.0 else TwoFormField.constant(np.zeros((2, 2))),
        certificates=certs,
    )


def make_flat_kahler_4d(c: float, box=None, fd_step: float = 1e-3) -> GalleryEntry:
    """Flat Kahler chart: g = I4, omega = dx1^dx2 + dx3^dx4, d(tau) = c*omega.

    tau = (c/2)(x1 dx2 - x2 dx1 + x3 dx4 - x4 dx3).  Expected almost-Killing
    dimension: 8 for c != 0 (translations + unitary rotations), 10 for c = 0.
    """
    chart = ChartDomain(_default_box(4) if box is None else box, fd_step)
    J = standard_complex_structure(4)
    g = RiemannianField.constant(np.eye(4))
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

    tau = OneFormField(tau_comps, 4)
    dtau = TwoFormField.constant(c * omega)

    corner_radius = np.linalg.norm(chart.edges / 2.0)
    if abs(c) * corner_radius >= 2.0:
        raise ConvexityError("flat-kahler-4d: |c| too large for the box")

    data = RandersData(g, tau)
    margin = _certify_margin("flat-kahler-4d", chart, data)
    certs = {"convexity_margin": (margin, 0.0)}
    if c != 0.0:
        certs["dtau_defect"] = (_certify_dtau(chart, tau, dtau), 1e-6)
    curv = _certify_curvature(chart, g, "constant-sectional", 0.0, None, tol=1e-4)
    certs["curvature_mean"] = (curv["mean"], 1e-4)
    certs["curvature_std"] = (curv["std"], 1e-4)

    return GalleryEntry(
        name=f"flat-kahler-4d[c={c:g}]",
        chart=chart,
        g=g,
        tau=tau,
        c=c,
        expected_dimension=8 if c != 0.0 else 10,
        curvature_kind="constant-sectional",
        curvature_target=0.0,
        dtau=dtau,
        complex_structure=J,
        certificates=certs,
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


def _fs_potential(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.log1p((x ** 2).sum(axis=-1))


def _fs_tau(c: float) -> OneFormField:
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

    return OneFormField(comps, 4)


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
    g = RiemannianField(_fs_metric_components, 4)
    omega = TwoFormField(
        lambda x: np.einsum("ba,...bc->...ac", J, _fs_metric_components(x)), 4
    )
    tau = _fs_tau(c)
    dtau = TwoFormField(lambda x: c * omega(x), 4)

    data = RandersData(g, tau)
    margin = _certify_margin("fubini-study-4d", chart, data)
    certs = {"convexity_margin": (margin, 0.0)}

    # Kahler form closedness: d(omega) has 4 independent 3-form components;
    # check all dx_a ^ dx_i ^ dx_j coefficients via partials of omega.
    pts = chart.sample_points(8, seed=9, margin=3 * fd_step + 0.02)
    domega = np.moveaxis(_partials(omega, pts, 4, chart.fd_step), 0, -3)   # (..., a, i, j)
    cyc = domega + np.einsum("...aij->...ija", domega) + np.einsum("...aij->...jai", domega)
    domega_defect = float(np.abs(cyc).max())
    if domega_defect > 1e-6:
        raise ConstructionError(f"d(omega) != 0: defect {domega_defect:g}")
    certs["domega_defect"] = (domega_defect, 1e-6)
    if c != 0.0:
        certs["dtau_defect"] = (_certify_dtau(chart, tau, dtau), 1e-6)
    curv = _certify_curvature(chart, g, "constant-holomorphic", None, J)
    certs["holomorphic_curvature_mean"] = (curv["mean"], float("nan"))
    certs["holomorphic_curvature_std"] = (curv["std"], 1e-3)

    return GalleryEntry(
        name=f"fubini-study-4d[c={c:g}]",
        chart=chart,
        g=g,
        tau=tau,
        c=c,
        expected_dimension=8,
        curvature_kind="constant-holomorphic",
        curvature_target=None,
        dtau=dtau,
        complex_structure=J,
        certificates=certs,
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
    analytic gradient; otherwise df is taken by centered differences.
    """
    if g_kind not in _CLOSED_KINDS:
        raise ValueError(f"g_kind must be one of {sorted(_CLOSED_KINDS)}")
    n, curv_kind = _CLOSED_KINDS[g_kind]
    chart = ChartDomain(_default_box(n) if box is None else box, fd_step)
    if n == 2 and curv_kind != "flat":
        g = _conformal_field(curv_kind)
        target = _CURVATURE_2D[curv_kind]
    else:
        g = RiemannianField.constant(np.eye(n))
        target = 0.0
    if grad_f is not None:
        tau = OneFormField(lambda x: np.asarray(grad_f(x), dtype=float), n)
    else:
        tau = gradient_one_form(chart, f)

    data = RandersData(g, tau)
    margin = _certify_margin(f"randers-closed[{g_kind}]", chart, data)
    certs = {"convexity_margin": (margin, 0.0)}
    zero = TwoFormField.constant(np.zeros((n, n)))
    certs["dtau_defect"] = (_certify_dtau(chart, tau, zero, tol=1e-5), 1e-5)
    tol = 1e-4 if curv_kind == "flat" else 1e-3
    curv = _certify_curvature(chart, g, "constant-sectional", target, None, tol=tol)
    certs["curvature_mean"] = (curv["mean"], tol)
    certs["curvature_std"] = (curv["std"], tol)

    return GalleryEntry(
        name=f"randers-closed[{g_kind}]",
        chart=chart,
        g=g,
        tau=tau,
        c=0.0,
        expected_dimension=n * (n + 1) // 2,
        curvature_kind="constant-sectional",
        curvature_target=target,
        dtau=zero,
        certificates=certs,
    )


# ---------------------------------------------------------------------------
# Catalog for the command-line interface
# ---------------------------------------------------------------------------

# as for Fubini-Study: at fd_step 1e-3 the residual's noise floor (relative
# singular values near 2e-7) lies above the 1e-7 threshold-stability cut;
# at 3e-4 it lies near 2e-8
_HYPERBOLIC_FD_STEP = 3e-4


def gallery_entry_config(name: str, c: float | None = None) -> dict:
    """The JSON configuration reproducing a named gallery entry.

    The drift one-forms of the curved families are written in the
    expression grammar with the closed-form amplitudes the constructors
    use: the radial primitive A(r)(x1 dx2 - x2 dx1) has A = c/2 on the flat
    chart, A = 2c/(1 + r^2) on the sphere chart and A = 2c/(1 - r^2) on the
    hyperbolic chart.
    """
    catalog = gallery_catalog()
    if name not in catalog:
        raise KeyError(f"unknown gallery entry {name!r}; known: {sorted(catalog)}")
    _, default_c = catalog[name]
    c = default_c if c is None else c

    def box(n, half=0.5):
        return np.tile([-half, half], (n, 1)).tolist()

    r2_2d = "(x1^2 + x2^2)"
    r2_4d = "(x1^2 + x2^2 + x3^2 + x4^2)"
    if name in ("example-2", "example-2-sphere", "example-2-4d"):
        g = ({"kind": "sphere-conformal"} if name == "example-2-sphere"
             else {"kind": "constant",
                   "matrix": np.eye(2 if name == "example-2" else 4).tolist()})
        f = {"example-2": "0.3*x1", "example-2-sphere": "0.1*sin(x1)",
             "example-2-4d": "0.2*x1"}[name]
        n = 4 if name == "example-2-4d" else 2
        return {
            "chart": {"box": box(n), "fd_step": 1e-3},
            "metric": {"kind": "randers", "g": g, "tau": {"kind": "potential", "f": f}},
            "seed": 0,
        }
    if name.startswith("example-2.5"):
        kind = {"example-2.5": "flat", "example-2.5-sphere": "sphere",
                "example-2.5-hyperbolic": "hyperbolic"}[name]
        g = {"flat": {"kind": "constant", "matrix": np.eye(2).tolist()},
             "sphere": {"kind": "sphere-conformal"},
             "hyperbolic": {"kind": "hyperbolic-conformal"}}[kind]
        amp = {"flat": f"({c}/2)",
               "sphere": f"(2*{c}/(1 + {r2_2d}))",
               "hyperbolic": f"(2*{c}/(1 - {r2_2d}))"}[kind]
        tau = {"kind": "expressions",
               "components": [f"-{amp}*x2", f"{amp}*x1"]}
        return {
            "chart": {"box": box(2),
                      "fd_step": _HYPERBOLIC_FD_STEP if kind == "hyperbolic" else 1e-3},
            "metric": {"kind": "randers", "g": g, "tau": tau},
            "seed": 0,
        }
    if name in ("example-3", "example-3-c0"):
        cc = 0.0 if name == "example-3-c0" else c
        tau = {"kind": "expressions",
               "components": [f"-({cc}/2)*x2", f"({cc}/2)*x1",
                              f"-({cc}/2)*x4", f"({cc}/2)*x3"]}
        return {
            "chart": {"box": box(4), "fd_step": 1e-3},
            "metric": {"kind": "randers",
                       "g": {"kind": "constant", "matrix": np.eye(4).tolist()},
                       "tau": tau},
            "seed": 0,
        }
    if name == "fubini-study":
        amp = f"({c}/(2*(1 + {r2_4d})))"
        tau = {"kind": "expressions",
               "components": [f"-{amp}*x2", f"{amp}*x1", f"-{amp}*x4", f"{amp}*x3"]}
        return {
            "chart": {"box": box(4, 0.35), "fd_step": 3e-4},
            "metric": {"kind": "randers", "g": {"kind": "fubini-study"}, "tau": tau},
            "seed": 0,
        }
    raise KeyError(name)


def gallery_catalog() -> dict:
    """Name -> (constructor, default c) for the named gallery entries."""
    return {
        "example-2": (lambda c: make_randers_closed(
            "flat-2d", lambda x: 0.3 * x[..., 0],
            grad_f=lambda x: np.stack([0.3 * np.ones(x.shape[:-1]), np.zeros(x.shape[:-1])], axis=-1)), None),
        "example-2-sphere": (lambda c: make_randers_closed(
            "sphere-2d", lambda x: 0.1 * np.sin(x[..., 0]),
            grad_f=lambda x: np.stack([0.1 * np.cos(x[..., 0]), np.zeros(x.shape[:-1])], axis=-1)), None),
        "example-2-4d": (lambda c: make_randers_closed(
            "flat-4d", lambda x: 0.2 * x[..., 0],
            grad_f=lambda x: np.stack(
                [0.2 * np.ones(x.shape[:-1])] + [np.zeros(x.shape[:-1])] * 3, axis=-1)), None),
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
