"""Tests of the benchmark's own parts: oracles, tolerances, tracer, runner.

Run from the root of the repository:

    python3 -m pytest -q bench

The oracles are checked against facts that do not come from the program
(distances along rays from the origin, the c -> 0 limit, textbook arccos /
arccosh forms, the triangle inequality) and against the program's norm for
infinitesimal steps, which ties each oracle to the metric the program
evaluates.  The solver test confirms second-order convergence, which is
what the distance tolerance assumes.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import almostiso as alm  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

RNG = np.random.default_rng(20240607)


@pytest.fixture(scope="module")
def families():
    return {name: (F, exact, asym) for name, F, exact, asym in workloads.distance_families(alm)}


def _ray(n, r):
    u = RNG.standard_normal(n)
    return r * u / np.linalg.norm(u)


@pytest.mark.parametrize("r", [0.05, 0.2, 0.35])
def test_rays_from_the_origin(r):
    assert np.isclose(oracles.fubini_study(np.zeros(4), _ray(4, r)), np.arctan(r), rtol=1e-13)
    assert np.isclose(oracles.sphere(np.zeros(2), _ray(2, r)), 2 * np.arctan(r), rtol=1e-13)
    assert np.isclose(oracles.disk(np.zeros(2), _ray(2, r)), 2 * np.arctanh(r), rtol=1e-13)


def test_magnetic_tends_to_euclidean_as_c_vanishes():
    p, q = RNG.uniform(-0.4, 0.4, size=(2, 2))
    for c in (1e-3, 1e-5, 1e-7):
        assert abs(oracles.magnetic(p, q, c) - np.linalg.norm(q - p)) < 2 * c
    assert oracles.magnetic(p, q, 0.0) == pytest.approx(np.linalg.norm(q - p), rel=1e-15)


def test_textbook_forms_agree():
    p, q = RNG.uniform(-0.3, 0.3, size=(2, 2))
    stereo = lambda x: np.append(2 * x, 1 - x @ x) / (1 + x @ x)
    assert oracles.sphere(p, q) == pytest.approx(np.arccos(stereo(p) @ stereo(q)), rel=1e-12)
    cosh = 1 + 2 * (q - p) @ (q - p) / ((1 - p @ p) * (1 - q @ q))
    assert oracles.disk(p, q) == pytest.approx(np.arccosh(cosh), rel=1e-12)
    z, w = RNG.uniform(-0.3, 0.3, size=(2, 4))
    zc, wc = z[0::2] + 1j * z[1::2], w[0::2] + 1j * w[1::2]
    cos = abs(1 + np.vdot(zc, wc)) / np.sqrt((1 + np.vdot(zc, zc).real) * (1 + np.vdot(wc, wc).real))
    assert oracles.fubini_study(z, w) == pytest.approx(np.arccos(cos), rel=1e-12)


@pytest.mark.parametrize("oracle,n", [(oracles.sphere, 2), (oracles.disk, 2),
                                      (oracles.fubini_study, 4), (oracles.flat, 4)])
def test_triangle_inequality(oracle, n):
    p, q, r = RNG.uniform(-0.3, 0.3, size=(3, 200, n))
    assert np.all(oracle(p, q) + oracle(q, r) >= oracle(p, r) - 1e-14)


def test_magnetic_asymmetry_is_the_chord_drift():
    p, q = RNG.uniform(-0.4, 0.4, size=(2, 2))
    c = 0.4
    gap = oracles.magnetic(p, q, c) - oracles.magnetic(q, p, c)
    assert gap == pytest.approx(c * (p[0] * q[1] - p[1] * q[0]), abs=1e-15)


@pytest.mark.parametrize("name", ["magnetic", "flat-4d+df", "sphere+df", "disk+df", "fubini-study+df"])
def test_small_steps_follow_the_programs_norm(families, name):
    F, exact, asym = families[name]
    edge = F.chart.edges.min()
    p = RNG.uniform(F.chart.lower + 0.2 * edge, F.chart.upper - 0.2 * edge)
    v = RNG.standard_normal(F.dim)
    eps = 1e-5
    d = exact(p, p + eps * v) / eps
    norm = float(F(p + 0.5 * eps * v, v))
    assert d == pytest.approx(norm, rel=1e-8)
    assert float(asym(p, p + eps * v)) / eps == pytest.approx(norm - float(F(p + 0.5 * eps * v, -v)), rel=1e-6)


@pytest.mark.parametrize("name", ["magnetic", "sphere+df", "disk+df", "fubini-study+df"])
def test_solver_error_is_second_order_and_within_tolerance(families, name):
    F, exact, _ = families[name]
    p, q = workloads.mirrored_chord(F.chart, np.random.default_rng(7))
    ref = float(exact(p, q))
    err = {k: abs(alm.distance(F, p, q, k=k) - ref) / ref for k in (16, 32)}
    assert err[16] <= workloads.distance_tolerance(ref, 16)
    assert err[32] <= err[16] / 3.0


def test_flat_df_solve_is_exact(families):
    # straight segments are optimal and the midpoint rule integrates the
    # df of a quadratic f exactly, so only round-off remains
    F, exact, _ = families["flat-4d+df"]
    p, q = workloads.mirrored_chord(F.chart, np.random.default_rng(7))
    assert alm.distance(F, p, q) == pytest.approx(float(exact(p, q)), rel=1e-12)


def test_tracer_counts_and_restores():
    from almostiso import geodesic, symmetry

    original = (geodesic.distance_batch, symmetry.triangular_batch)
    F = alm.build_gallery_entry("example-2.5").metric()
    tracer = Tracer()
    tracer.install(alm)
    try:
        alm.distance(tracer.norm(F), np.array([-0.2, 0.0]), np.array([0.2, 0.1]), k=4, iters=5)
        assert symmetry.triangular_batch is not original[1]
    finally:
        tracer.uninstall()
    assert (geodesic.distance_batch, symmetry.triangular_batch) == original
    m = tracer.metrics()
    assert m["geodesic.calls"][0] == 1 and m["geodesic.problems"][0] == 1
    assert m["metric.f_calls"][0] > 0 and m["metric.f_rows"][0] >= m["metric.f_calls"][0]
    assert m["geodesic.solve_s"][0] > 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
