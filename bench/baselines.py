"""Layer reference figures: norm evaluation per row, and one solver batch.

Run from the root of the repository:

    python3 bench/baselines.py

Prints microseconds per row of ``F(x, y)`` at 7200 rows for three gallery
metrics, ``g`` alone on the sphere chart, validated against raw ``g()`` for
a constant metric, and the wall time and F-call count of one Fubini-Study
``triangular_batch`` of 10 seeded triples.  These are the baselines the
README records; they are not part of a benchmark run.
"""

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402

import almostiso as alm  # noqa: E402

ROWS = 7200


def call_us(fn, *args, repeat=20):
    """Best-of-``repeat`` microseconds for one call."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def main():
    rng = np.random.default_rng(0)
    for name in ("fubini-study", "example-3", "example-2.5-sphere"):
        entry = alm.build_gallery_entry(name)
        F = entry.metric()
        c = entry.chart
        x = rng.uniform(c.lower * 0.8, c.upper * 0.8, size=(ROWS, c.dim))
        y = rng.standard_normal((ROWS, c.dim))
        print(f"F {name:20s} {call_us(F, x, y) / ROWS:6.3f} us/row")
        if name == "example-2.5-sphere":
            print(f"g {name:20s} {call_us(entry.g, x) / ROWS:6.3f} us/row")
        if name == "example-3":
            print(f"g {name:20s} validated {call_us(entry.g, x):6.0f} us,"
                  f" raw closure {call_us(entry.g.components, x):6.0f} us per call")

    entry = alm.build_gallery_entry("fubini-study")
    calls = [0]
    inner = entry.metric()

    def counted(x, y):
        calls[0] += 1
        return inner(x, y)

    F = alm.MetricField(counted, 4, chart=entry.chart)
    triples = alm.seeded_triples(entry.chart, 10, seed=1)
    t0 = time.perf_counter()
    alm.triangular_batch(F, triples)
    print(f"triangular_batch fubini-study 10 triples: {time.perf_counter() - t0:.1f} s,"
          f" {calls[0]} F-calls")


if __name__ == "__main__":
    main()
