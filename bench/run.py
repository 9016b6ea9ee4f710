"""Benchmark of the almostiso certificate engine.

Run from the root of a checkout:

    python3 bench/run.py --workload distance-oracle --seed 1 --seconds 30 --trace 0

Imports ``almostiso`` from ``src/`` of the checkout, builds the workload's
inputs from ``--seed`` (set-up), runs its operations (timed phase), checks
every output against references computed apart from the program, and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
traces calls into each module and reports the per-layer metrics instead,
writing the spans to ``bench/out/``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# One BLAS thread: the machine has 2 CPUs, and single-threaded BLAS keeps
# timings from depending on what else is running.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("distance-oracle", "verify", "certify")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program():
    """``almostiso`` from ``./src``, refusing any installed copy."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "almostiso", "__init__.py")):
        sys.exit(f"bench: no almostiso sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import almostiso

    if not os.path.abspath(almostiso.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported almostiso from {almostiso.__file__}, not {src}")
    return almostiso


def _median(values):
    v = sorted(values)
    n = len(v)
    return 0.5 * (v[(n - 1) // 2] + v[n // 2])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, HERE)
    alm = _import_program()
    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(alm)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        if args.workload == "distance-oracle":
            rounds = workloads.prepare_distance_oracle(alm, args.seed, args.seconds)
        elif args.workload == "verify":
            rounds = workloads.prepare_verify(alm, args.seed, args.seconds, workdir)
        else:
            rounds = workloads.prepare_certify(alm, args.seed, args.seconds)
        setup_s = time.perf_counter() - _T_START

        times, outcomes = [], []
        t_run = time.perf_counter()
        for ops in rounds:
            times.append([])
            for op in ops:
                t0 = time.perf_counter()
                outcomes.append(op())
                times[-1].append(time.perf_counter() - t0)
        run_s = time.perf_counter() - t_run
    # Each operation at its best over the rounds: other load on a shared host
    # only ever adds time, in episodes of seconds to minutes, and every round
    # repeats the same work.
    best = [min(ts) for ts in zip(*times)]

    failed = [o for o in outcomes if o.failures]
    unexpected = [msg for o in failed if not o.known_fault for msg in o.failures]
    for msg in (m for o in failed for m in o.failures):
        print(f"bench: check failed: {msg}", file=sys.stderr)
    passed = [o for o in outcomes if not o.failures]
    max_err = max((o.err for o in passed), default=0.0)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_s": (sum(best), "s"),
            "op_p50_s": (_median(best), "s"),
            "max_err": (max_err, "1"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    else:
        tracer.uninstall()
        metrics = tracer.metrics()
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "setup_s": setup_s, "run_s": run_s, "round_s": sum(best),
                           "op_s": times})
        print(f"bench: traced run_s {run_s:.3f} s, round_s {sum(best):.3f} s; spans in {path}",
              file=sys.stderr)

    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
