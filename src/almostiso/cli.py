"""Command-line interface: verification suites and report emission.

Subcommands
-----------
verify          run the full certificate suite for a gallery entry or config
betterment      dual-body recentering pipeline + Riemannian-detection verdict
dimension       almost-Killing dimension with singular-value spectrum
distance        point-to-point distance: d, refined, cauchy_difference, reverse
curvature       sectional-curvature sweep statistics
invariant-forms invariant 2-forms of a named rotation subalgebra
triangle        triangular function on seeded triples, optionally after a flow

Every run emits one JSON document (or CSV check rows with ``--format csv``).
Exit status: 0 when all checks pass, 1 on a failed check, 2 on usage errors.
Reports are byte-identical across runs with the same configuration and
seed; wall-clock timings appear only under ``--timings``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .chart import ChartDomain, VectorField, flow_point_map
from .config import load_config
from .duality import (
    _betterment_passes,
    direction_grid,
    riemannian_fit,
    SupportSamples,
)
from .errors import GeometryError
from .expressions import compile_expression
from .curvature import curvature_sweep
from .gallery import GalleryEntry, build_gallery_entry, gallery_catalog
from .geodesic import distance, seeded_triples, t_invariance_check, triangular_batch
from .metric import convexity_margin, randers_metric
from .report import CheckRecord, VerificationReport, inputs_digest
from .symmetry import (
    _spectrum_cut,
    almost_killing_dimension,
    flow_cross_validation,
    invariant_two_forms,
    so_generators,
    standard_complex_structure,
    u2_generators,
)

_ALGEBRAS = {
    "so2": lambda: so_generators(2),
    "so3": lambda: so_generators(3),
    "so4": lambda: so_generators(4),
    "u2": u2_generators,
}


def _parse_point(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")], dtype=float)


def _emit(report: VerificationReport, args) -> int:
    text = report.to_csv() if args.format == "csv" else report.to_json(with_timings=args.timings) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _correction_size(delta: np.ndarray, G: np.ndarray | None) -> float:
    """``|b1 - b0|`` in the g-dual norm, or the Euclidean norm if ``G`` is None."""
    return float(np.sqrt(delta @ (delta if G is None else np.linalg.solve(G, delta))))


def _betterment_recovery(entry_or_config, grid_m: int | None, seed: int) -> tuple[float, dict]:
    """Max relative deviation of the recentred norm from sqrt(g) at three points.

    Computed in a g-orthonormal frame per point.  The detail records each
    point's covector and the size of its defect correction ``|b1 - b0|`` in
    the g-dual norm, the witness of the grid's discretisation error.
    """
    chart, data = entry_or_config.chart, entry_or_config.randers
    grid = direction_grid(chart.dim, grid_m)
    pts = chart.sample_points(3, seed=seed, margin=0.1 * chart.edges.min())
    U = grid.directions
    worst = 0.0
    barys, corrections = [], []
    for x in pts:
        norm = data.norm_at(x)
        G = data.g(x)
        frame = np.linalg.inv(np.linalg.cholesky(G)).T
        b0, b = _betterment_passes(norm, grid, frame=frame)
        target = np.sqrt(np.einsum("ki,ij,kj->k", U, G, U))
        worst = max(worst, float(np.abs((norm(U) - U @ b) / target - 1.0).max()))
        barys.append(b.tolist())
        corrections.append(_correction_size(b - b0, G))
    return worst, {"points": pts.tolist(), "barycenters": barys, "corrections": corrections}


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def cmd_verify(args) -> int:
    chart, target, name = _load_target(args)
    data = target.randers
    overrides = {
        "c": args.c,
        "sv_threshold": args.sv_threshold,
        "grid_m": args.grid_m,
        "segments": args.segments,
        "iters": args.iters,
        "seed": args.seed,
    }
    entry = target if isinstance(target, GalleryEntry) else None
    digest = inputs_digest({"config": target.raw, "overrides": overrides} if entry is None
                           else {"example": name, "overrides": overrides})
    if args.emit_config:
        with open(args.emit_config, "w", encoding="utf-8") as fh:
            json.dump(target.raw, fh, indent=2, sort_keys=True)
    expected_dim = _expected_dimension(args, target)

    segments, iters = _solver_params(args, target)
    sv_threshold = args.sv_threshold if args.sv_threshold else 1e-6
    report = VerificationReport(
        suite=f"verify:{name}",
        environment={
            "fd_step": chart.fd_step,
            "grid_m": direction_grid(chart.dim, args.grid_m).m,
            "seed": args.seed,
            "segments": segments,
            "iters": iters,
            "sv_threshold": sv_threshold,
        },
    )

    margin, dt = _timed(lambda: convexity_margin(data, chart.mesh_points(5 if chart.dim == 2 else 3)))
    report.add(CheckRecord("admissibility-margin", digest, margin, 0.0, margin > 0.0, runtime_s=dt))

    if entry is not None:
        for name, (measured, tol) in sorted(entry.certificates.items()):
            if name == "convexity_margin":
                ok = measured > 0.0
            elif name.endswith("curvature_mean"):      # sectional or holomorphic
                ok = abs(measured - entry.curvature_target) <= tol
            else:
                ok = abs(measured) <= tol
            report.add(CheckRecord(f"certificate-{name}", digest, float(measured),
                                   float(tol), bool(ok)))

    (recovery, detail), dt = _timed(lambda: _betterment_recovery(target, args.grid_m, args.seed))
    report.add(CheckRecord("betterment-recovery", digest, recovery, 1e-4,
                           recovery < 1e-4, detail=detail, runtime_s=dt))

    rep, dt = _timed(lambda: almost_killing_dimension(
        chart, data.g, data.tau, dtau=getattr(target, "dtau", None),
        sv_threshold=sv_threshold, seed=args.seed + 101, segments=segments, iters=iters,
        cross_validate=False,
    ))
    dim_ok = True if expected_dim is None else rep.dimension == expected_dim
    report.add(CheckRecord(
        "almost-killing-dimension", digest, float(rep.dimension),
        0.0, dim_ok,
        detail={"expected": expected_dim, "gap": rep.gap,
                "singular_values": rep.singular_values[-16:].tolist()},
        runtime_s=dt,
    ))
    report.add(CheckRecord("spectral-gap", digest, rep.gap, 1e2, rep.gap > 1e2))

    # other cuts of the same spectrum, made as nullspace_dimension makes them
    stable = max(abs(int(_spectrum_cut(rep.singular_values, t)[1].sum()) - rep.dimension)
                 for t in (1e-7, 1e-5))
    report.add(CheckRecord("threshold-stability", digest, float(stable), 0.0, stable == 0))

    cross, dt = _timed(lambda: flow_cross_validation(
        chart, data.g, data.tau, rep.basis, seed=args.seed + 101,
        segments=segments, iters=iters, raise_on_failure=False,
    ))
    tmax = max((c["max_t_diff"] for c in cross), default=0.0)
    report.add(CheckRecord("t-invariance-crossval", digest, tmax, 1e-4,
                           tmax < 1e-4, runtime_s=dt))

    return _emit(report, args)


def _load_target(args) -> tuple[ChartDomain, object, str]:
    if args.config:
        cfg = load_config(args.config)
        return cfg.chart, cfg, "config"
    if args.example not in gallery_catalog():
        raise ValueError(f"unknown example {args.example!r}; "
                         f"known: {', '.join(sorted(gallery_catalog()))}")
    entry = build_gallery_entry(args.example, c=args.c)
    return entry.chart, entry, args.example


def _expected_dimension(args, target) -> int | None:
    """The --expect-dimension flag wins; otherwise a gallery entry's own count."""
    if args.expect_dimension is not None:
        return args.expect_dimension
    return getattr(target, "expected_dimension", None)


def _solver_params(args, target) -> tuple[int, int]:
    """Flags win; otherwise the config's solver block; otherwise defaults."""
    segments = args.segments if args.segments is not None else getattr(target, "segments", 16)
    iters = args.iters if args.iters is not None else getattr(target, "iters", 400)
    return segments, iters


def cmd_betterment(args) -> int:
    chart, target, name = _load_target(args)
    data = target.randers
    grid = direction_grid(chart.dim, args.grid_m)
    x = _parse_point(args.point) if args.point else 0.5 * (chart.lower + chart.upper)
    digest = inputs_digest({"target": name, "point": x.tolist(), "m": grid.m})
    norm = data.norm_at(x)
    G = data.g(x) if args.frame else None
    frame = np.linalg.inv(np.linalg.cholesky(G)).T if args.frame else None
    b0, b = _betterment_passes(norm, grid, frame=frame)
    better_vals = norm(grid.directions) - grid.directions @ b
    fit = riemannian_fit(better_vals, grid)
    report = VerificationReport(
        suite=f"betterment:{name}",
        environment={"grid_m": grid.m, "point": x.tolist(), "seed": args.seed},
    )
    report.add(CheckRecord(
        "riemannian-detection", digest, fit.residual, 1e-6, fit.is_quadratic,
        detail={"barycenter": b.tolist(), "correction": _correction_size(b - b0, G),
                "fitted_matrix": fit.matrix.tolist()},
    ))
    if args.samples_out:
        SupportSamples(grid, 1.0 / better_vals).to_csv(args.samples_out)
    return _emit(report, args)


def cmd_dimension(args) -> int:
    chart, target, name = _load_target(args)
    data = target.randers
    segments, iters = _solver_params(args, target)
    rep = almost_killing_dimension(
        chart, data.g, data.tau, degree=args.degree, dtau=getattr(target, "dtau", None),
        sv_threshold=args.sv_threshold or 1e-6, seed=args.seed + 101,
        cross_validate=not args.skip_crossval, raise_on_failure=False,
        segments=segments, iters=iters,
    )
    digest = inputs_digest({"target": name, "degree": args.degree})
    expected = _expected_dimension(args, target)
    report = VerificationReport(
        suite=f"dimension:{name}",
        environment={"fd_step": rep.fd_step, "sv_threshold": rep.sv_threshold, "seed": args.seed},
    )
    ok = True if expected is None else rep.dimension == expected
    report.add(CheckRecord(
        "almost-killing-dimension", digest, float(rep.dimension), 0.0, ok,
        detail={
            "expected": expected,
            "gap": rep.gap,
            "singular_values": rep.singular_values.tolist(),
            "cross_validation": rep.cross_validation,
            "warning": rep.warning,
        },
    ))
    return _emit(report, args)


def cmd_distance(args) -> int:
    chart, target, name = _load_target(args)
    F = randers_metric(target.randers, chart=chart)
    segments, iters = _solver_params(args, target)
    p, q = _parse_point(args.src), _parse_point(args.dst)
    digest = inputs_digest({"target": name, "from": p.tolist(), "to": q.tolist(),
                            "k": segments, "iters": iters})
    d1 = distance(F, p, q, k=segments, iters=iters)
    d2 = distance(F, p, q, k=2 * segments, iters=2 * iters)
    rev = distance(F, q, p, k=segments, iters=iters)
    report = VerificationReport(
        suite=f"distance:{name}",
        environment={"segments": segments, "iters": iters, "seed": args.seed},
    )
    report.add(CheckRecord(
        "distance", digest, d1, abs(d2 - d1), True,
        detail={"refined": d2, "cauchy_difference": abs(d2 - d1), "reverse": rev},
    ))
    return _emit(report, args)


def cmd_curvature(args) -> int:
    if args.planes < 1:
        raise ValueError(f"--planes must be at least 1, got {args.planes}")
    chart, target, name = _load_target(args)
    J = None
    if args.holomorphic:
        J = (target.complex_structure if isinstance(target, GalleryEntry)
             and target.complex_structure is not None else standard_complex_structure(chart.dim))
    sweep = curvature_sweep(chart, target.randers.g, count=args.planes,
                            seed=args.seed, complex_structure=J)
    digest = inputs_digest({"target": name, "planes": args.planes, "holomorphic": args.holomorphic})
    report = VerificationReport(
        suite=f"curvature:{name}",
        environment={"planes": args.planes, "seed": args.seed, "fd_step": chart.fd_step},
    )
    report.add(CheckRecord(
        "sectional-sweep", digest, sweep.std, args.max_std, sweep.std <= args.max_std,
        detail={"mean": sweep.mean, "std": sweep.std},
    ))
    if args.samples_out:
        sweep.to_csv(args.samples_out)
    return _emit(report, args)


def cmd_invariant_forms(args) -> int:
    gens = _ALGEBRAS[args.algebra]()
    res = invariant_two_forms(gens)
    digest = inputs_digest({"algebra": args.algebra})
    report = VerificationReport(suite=f"invariant-forms:{args.algebra}",
                                environment={"seed": args.seed})
    ok = True if args.expect is None else res.dimension == args.expect
    report.add(CheckRecord(
        "invariant-two-forms", digest, float(res.dimension), 0.0, ok,
        detail={"expected": args.expect,
                "basis": [b.tolist() for b in res.basis]},
    ))
    return _emit(report, args)


def cmd_triangle(args) -> int:
    chart, target, name = _load_target(args)
    F = randers_metric(target.randers, chart=chart)
    segments, iters = _solver_params(args, target)
    triples = seeded_triples(chart, args.triples, seed=args.seed,
                             margin=0.3 * chart.edges.min())
    digest = inputs_digest({"target": name, "triples": args.triples, "seed": args.seed,
                            "flow_field": args.flow_field, "flow_time": args.flow_time})
    report = VerificationReport(
        suite=f"triangle:{name}",
        environment={"segments": segments, "iters": iters, "seed": args.seed},
    )
    if args.flow_field:
        comps = [compile_expression(c, chart.dim) for c in args.flow_field.split(";")]
        if len(comps) != chart.dim:
            print("error: flow field needs one component expression per axis", file=sys.stderr)
            return 2
        K = VectorField(lambda x: np.stack([f(x) for f in comps], axis=-1), chart.dim)
        phi = flow_point_map(chart, K, args.flow_time)
        res = t_invariance_check(F, phi, triples, k=segments, iters=iters)
        report.add(CheckRecord(
            "t-invariance", digest, res.max_diff, args.tolerance,
            res.max_diff < args.tolerance,
            detail={"t_values": res.t_values.tolist(), "t_mapped": res.t_mapped.tolist()},
        ))
        if args.samples_out:
            res.to_csv(args.samples_out)
    else:
        tvals = triangular_batch(F, triples, k=segments, iters=iters)
        report.add(CheckRecord(
            "triangular-values", digest, float(tvals.min()), 0.0,
            bool(tvals.min() > -2e-5),
            detail={"t_values": tvals.tolist()},
        ))
    return _emit(report, args)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("example", nargs="?", default=None,
                   help="gallery entry name (or use --config)")
    p.add_argument("--config", help="JSON metric configuration file")
    p.add_argument("--c", type=float, default=None, help="override the d(tau) constant")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")


def _add_solver(p: argparse.ArgumentParser) -> None:
    p.add_argument("--segments", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="almostiso", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the certificate suite")
    _add_common(p)
    _add_solver(p)
    p.add_argument("--grid-m", type=int, default=None, dest="grid_m")
    p.add_argument("--sv-threshold", type=float, default=None, dest="sv_threshold")
    p.add_argument("--expect-dimension", type=int, default=None, dest="expect_dimension")
    p.add_argument("--emit-config", dest="emit_config",
                   help="also write the equivalent JSON configuration here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("betterment", help="dual-body recentering pipeline")
    _add_common(p)
    p.add_argument("--grid-m", type=int, default=None, dest="grid_m")
    p.add_argument("--point", help="chart point 'x1,x2,...' (default: box center, where "
                   "the tau of every magnetic entry vanishes); write a negative first "
                   "coordinate as --point=-0.1,0")
    p.add_argument("--frame", action="store_true", help="compute in a g-orthonormal frame")
    p.add_argument("--samples-out", dest="samples_out", help="CSV path for recentred samples")
    p.set_defaults(fn=cmd_betterment)

    p = sub.add_parser("dimension", help="almost-Killing dimension with spectrum")
    _add_common(p)
    _add_solver(p)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--sv-threshold", type=float, default=None, dest="sv_threshold")
    p.add_argument("--expect-dimension", type=int, default=None, dest="expect_dimension")
    p.add_argument("--skip-crossval", action="store_true", dest="skip_crossval")
    p.set_defaults(fn=cmd_dimension)

    p = sub.add_parser("distance", help="distance d, refined, cauchy_difference, reverse")
    _add_common(p)
    _add_solver(p)
    p.add_argument("--from", dest="src", required=True,
                   help="start point 'x1,x2,...'; write a negative first coordinate "
                   "as --from=-0.1,0")
    p.add_argument("--to", dest="dst", required=True,
                   help="end point 'x1,x2,...'; write a negative first coordinate "
                   "as --to=-0.1,0")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("curvature", help="sectional curvature sweep")
    _add_common(p)
    p.add_argument("--planes", type=int, default=50)
    p.add_argument("--holomorphic", action="store_true")
    p.add_argument("--max-std", type=float, default=float("inf"), dest="max_std")
    p.add_argument("--samples-out", dest="samples_out")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("invariant-forms", help="invariant 2-forms of a subalgebra")
    p.add_argument("--algebra", choices=sorted(_ALGEBRAS), required=True)
    p.add_argument("--expect", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_invariant_forms)

    p = sub.add_parser("triangle", help="triangular function on seeded triples")
    _add_common(p)
    _add_solver(p)
    p.add_argument("--triples", type=int, default=10)
    p.add_argument("--flow-field", dest="flow_field",
                   help="semicolon-separated component expressions of a flow field")
    p.add_argument("--flow-time", type=float, default=0.3, dest="flow_time")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--samples-out", dest="samples_out")
    p.set_defaults(fn=cmd_triangle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "example", "-") is None and not getattr(args, "config", None):
        print("error: provide a gallery entry name or --config PATH", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
