"""Load metric configurations from JSON files.

Schema (all lengths in chart coordinate units)::

    {
      "chart":  {"box": [[-0.5, 0.5], [-0.5, 0.5]], "fd_step": 1e-3},
      "metric": {
        "kind": "randers",
        "g":   {"kind": "constant", "matrix": [[1, 0], [0, 1]]}
               | {"kind": "sphere-conformal"} | {"kind": "hyperbolic-conformal"}
               | {"kind": "fubini-study"}
               | {"kind": "expressions", "components": [["...", "..."], ...]},
        "tau": {"kind": "constant", "components": [0.1, 0]}
               | {"kind": "expressions", "components": ["0.2*x1", "0"]}
               | {"kind": "potential", "f": "0.1*sin(x1)"}
      },
      "grid":   {"m": 512},
      "solver": {"segments": 16, "iters": 400},
      "seed":   0
    }

Component expressions use the built-in arithmetic grammar (see
:mod:`almostiso.expressions`); no host-language code is ever evaluated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chart import ChartDomain, OneFormField, RiemannianField, _partials
from .expressions import compile_expression
from .gallery import _conformal_field, _fs_metric_components
from .metric import MetricField, RandersData, randers_metric

__all__ = ["RunConfig", "load_config", "config_from_dict"]


@dataclass(frozen=True)
class RunConfig:
    chart: ChartDomain
    randers: RandersData
    metric: MetricField
    grid_m: int | None
    segments: int
    iters: int
    seed: int
    raw: dict


def _g_field(spec: dict, dim: int) -> RiemannianField:
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return RiemannianField.constant(np.asarray(spec["matrix"], dtype=float))
    if kind in ("sphere-conformal", "hyperbolic-conformal"):
        return _conformal_field(kind.split("-")[0], dim)
    if kind == "fubini-study":
        if dim != 4:
            raise ValueError("fubini-study metric needs a 4-dimensional chart")
        return RiemannianField(_fs_metric_components, 4)
    if kind == "expressions":
        comps = spec["components"]
        fns = [[compile_expression(comps[i][j], dim) for j in range(dim)] for i in range(dim)]

        def g_eval(x):
            rows = [np.stack([fns[i][j](x) for j in range(dim)], axis=-1) for i in range(dim)]
            return np.stack(rows, axis=-2)

        return RiemannianField(g_eval, dim)
    raise ValueError(f"unknown metric component kind {kind!r}")


def _tau_field(spec: dict, dim: int, chart: ChartDomain) -> OneFormField:
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return OneFormField.constant(np.asarray(spec["components"], dtype=float))
    if kind == "expressions":
        fns = [compile_expression(c, dim) for c in spec["components"]]
        return OneFormField(lambda x: np.stack([f(x) for f in fns], axis=-1), dim)
    if kind == "potential":
        # a compiled expression is defined on all of R^n, so the centered
        # difference may step past the box (gradient_one_form refuses to)
        f = compile_expression(spec["f"], dim)
        h = chart.fd_step
        return OneFormField(lambda x: np.moveaxis(_partials(f, x, dim, h), 0, -1), dim)
    raise ValueError(f"unknown one-form kind {kind!r}")


def config_from_dict(raw: dict) -> RunConfig:
    chart_spec = raw.get("chart", {})
    box = np.asarray(chart_spec.get("box", [[-0.5, 0.5], [-0.5, 0.5]]), dtype=float)
    chart = ChartDomain(box, float(chart_spec.get("fd_step", 1e-3)))
    dim = chart.dim

    metric_spec = raw.get("metric", {})
    if metric_spec.get("kind", "randers") != "randers":
        raise ValueError("only 'randers' metric configurations are supported")
    g = _g_field(metric_spec.get("g", {"kind": "constant", "matrix": np.eye(dim).tolist()}), dim)
    tau = _tau_field(metric_spec.get("tau", {"kind": "constant",
                                             "components": [0.0] * dim}), dim, chart)
    data = RandersData(g, tau)

    solver = raw.get("solver", {})
    return RunConfig(
        chart=chart,
        randers=data,
        metric=randers_metric(data, chart=chart),
        grid_m=raw.get("grid", {}).get("m"),
        segments=int(solver.get("segments", 16)),
        iters=int(solver.get("iters", 400)),
        seed=int(raw.get("seed", 0)),
        raw=raw,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
