"""Numerical toolkit for almost isometries of Finsler metrics.

Capabilities, one module each:

- :mod:`almostiso.chart` - charts, tensor-field evaluators, finite-difference
  exterior/Lie calculus, Runge-Kutta flows;
- :mod:`almostiso.metric` - Finsler norm evaluation (Randers family,
  one-form shifts);
- :mod:`almostiso.duality` - dual convex bodies, barycentric recentering
  ("betterment"), Riemannian detection;
- :mod:`almostiso.geodesic` - nonsymmetric distances, the triangular
  function T(p,q,r) = d(p,q) + d(q,r) - d(p,r), invariance checks;
- :mod:`almostiso.curvature` - finite-difference sectional curvature;
- :mod:`almostiso.symmetry` - almost-Killing dimension counts and invariant
  2-forms;
- :mod:`almostiso.gallery` - certified example configurations;
- :mod:`almostiso.cli` - verification suites and reports.
"""

from .chart import (
    ChartDomain,
    OneFormField,
    RiemannianField,
    TwoFormField,
    VectorField,
    exterior_derivative,
    exterior_derivative_field,
    flow_map,
    flow_point_map,
    gradient_one_form,
    lie_derivative,
)
from .curvature import PlaneAtPoint, christoffels, curvature_sweep, sectional_curvature
from .duality import (
    DirectionGrid,
    SupportSamples,
    betterment_covector,
    betterment_eval,
    direction_grid,
    dual_norm_eval,
    polar_barycenter,
    polar_translation_check,
    riemannian_fit,
)
from .errors import GeometryError
from .gallery import (
    GalleryEntry,
    build_gallery_entry,
    gallery_catalog,
    make_constant_curvature_2d,
    make_flat_kahler_4d,
    make_fubini_study_4d,
    make_randers_closed,
)
from .geodesic import (
    distance,
    distance_batch,
    pullback_delta,
    seeded_triples,
    solver_tolerance_certificate,
    t_invariance_check,
    triangular_batch,
)
from .metric import (
    MetricField,
    RandersData,
    add_one_form,
    convexity_margin,
    randers_eval,
    randers_metric,
)
from .symmetry import (
    AlmostKillingReport,
    VectorFieldAnsatz,
    almost_killing_dimension,
    build_residual,
    invariant_two_forms,
    nullspace_dimension,
    so_generators,
    standard_complex_structure,
    u2_generators,
)

__version__ = "0.1.0"
