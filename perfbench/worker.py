"""One pass of one workload in a fresh process.

Prints one JSON line with the set-up time, the pass's wall time, the
per-call latencies, the verdict-gate result, the certificate digest, the
peak resident memory and the environment.  `run.py` starts it:

    python3 perfbench/worker.py --workload deciders --seed 0 [--traced]
        [--sweep-workers 2] [--setup-only]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import mpmath
    import mpmath.libmp
    from pscert import exactnum
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "backend": mpmath.libmp.BACKEND, "max_prec": exactnum.MAX_PREC,
            "nproc": len(os.sched_getaffinity(0))}


def _per_call_us(fn, calls: int = 300, repeats: int = 5) -> float:
    """Median over `repeats` batches of the time per call, in microseconds."""
    batches = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(batches)


def interval_microbench() -> dict:
    """Direct timings of the interval core, taken with no wrappers on."""
    from fractions import Fraction
    from pscert.exactnum import RealInterval, nearest_integer_distance
    out = {}
    for prec in (128, 256):
        lo = Fraction(22, 7)
        x = RealInterval(lo, lo + Fraction(1, 10 ** 30), prec=prec)
        y = RealInterval(Fraction(-355, 113), prec=prec)
        out[f"exactnum.mul_sign_us.p{prec}"] = _per_call_us(
            lambda: (x * y).is_negative())
    z = RealInterval(Fraction(1234567, 1000),
                     Fraction(1234567, 1000) + Fraction(1, 10 ** 30), prec=256)
    out["exactnum.nearest_integer_distance_us"] = _per_call_us(
        lambda: nearest_integer_distance(z))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--sweep-workers", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed)
    report = {"setup_s": time.perf_counter() - T0}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.traced:
        import tracing
        report["layers"] = interval_microbench()
        tracer = tracing.Tracer()
        tracer.install()
    res = workloads.run_pass(args.workload, inputs, args.sweep_workers)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        report["layers"].update(tracer.metrics(res.wall_s))
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_sidecar(
            workloads.OUT / f"trace-{args.workload}.jsonl",
            {"workload": args.workload, "seed": args.seed,
             "wall_s": res.wall_s})

    workloads.collect(res)
    attempted, failures = workloads.check(args.workload, res,
                                          workloads.load_expected())
    report.update(wall_s=res.wall_s, sweep_s=res.sweep_s,
                  latencies_s=res.latencies_s, attempted=attempted,
                  failed=len(failures), failures=failures[:20],
                  cert_sha256=workloads.cert_sha256(res),
                  peak_rss_mb=peak_kb / 1024, env=environment())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
