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
      "solver": {"segments": 16, "iters": 400}
    }

Other keys are ignored.

Component expressions use the built-in arithmetic grammar (see
:mod:`almostiso.expressions`); no host-language code is ever evaluated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chart import ChartDomain, OneFormField, RiemannianField, _partials
from .expressions import compile_expression
from .gallery import _METRICS
from .metric import RandersData

__all__ = ["RunConfig", "load_config", "config_from_dict"]


@dataclass(frozen=True)
class RunConfig:
    chart: ChartDomain
    randers: RandersData
    segments: int
    iters: int
    raw: dict


def _shaped(values, shape: tuple, what: str) -> list:
    if np.shape(values) != shape:
        raise ValueError(f"{what} must have shape {shape} on this chart, got {np.shape(values)}")
    return values


def _g_field(spec: dict, dim: int) -> RiemannianField:
    kind = spec.get("kind", "constant")
    if kind == "constant":
        matrix = _shaped(spec["matrix"], (dim, dim), "g matrix")
        return RiemannianField.constant(np.asarray(matrix, dtype=float))
    if kind == "expressions":
        comps = _shaped(spec["components"], (dim, dim), "g components")
        fns = [[compile_expression(comps[i][j], dim) for j in range(dim)] for i in range(dim)]

        def g_eval(x):
            rows = [np.stack([fns[i][j](x) for j in range(dim)], axis=-1) for i in range(dim)]
            return np.stack(rows, axis=-2)

        return RiemannianField(g_eval, dim)
    named = {row.spec["kind"]: row.g for row in _METRICS.values()}
    if kind not in named:
        raise ValueError(f"unknown metric component kind {kind!r}")
    return named[kind](dim)


def _tau_field(spec: dict, dim: int, chart: ChartDomain) -> OneFormField:
    kind = spec.get("kind", "constant")
    if kind == "constant":
        comps = _shaped(spec["components"], (dim,), "tau components")
        return OneFormField.constant(np.asarray(comps, dtype=float))
    if kind == "expressions":
        comps = _shaped(spec["components"], (dim,), "tau components")
        fns = [compile_expression(c, dim) for c in comps]
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

    solver = raw.get("solver", {})
    return RunConfig(
        chart=chart,
        randers=RandersData(g, tau),
        segments=int(solver.get("segments", 16)),
        iters=int(solver.get("iters", 400)),
        raw=raw,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
