"""pscert benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload a1-window --seed 0 --trace 0

Workloads: a1-window, a1-irreducible, pair-grid, deciders (README.md).
Each pass runs in a fresh `worker.py` process, so no cache outlives a pass.

--trace 0 repeats untraced passes for about --seconds seconds and reports
the end-to-end metrics setup_s, wall_s and peak_rss_mb; it also prints
cert_p50_ms, cert_tail_ms and failed_frac, which is the `failed` /
`attempted` of the result line.
--trace 1 runs one untraced pass, one traced pass and, for workloads with
a sweep, one pass at two sweep workers, and reports the per-layer metrics;
the traced pass writes its spans to perfbench/out/trace-<workload>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every run also appends its full
record, with the environment, to perfbench/out/results.jsonl, which
compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 75)
# Printed and recorded, but not in BENCHMARK.json: on a shared 2-core host
# their spread over ten runs reached 40-50 % (deciders, pair-grid), beyond
# the largest bound the benchmark may set.
UNGATED = {"cert_p50_ms": "ms", "cert_tail_ms": "ms"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    """Run one fresh worker process and return its JSON report."""
    env = dict(os.environ)
    # measure at the default precision cap
    env.pop("PSCERT_MAX_PRECISION", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    # a session of its own, so that a timeout also ends the sweep's pool
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerFailed(f"{' '.join(extra) or 'pass'} timed out") \
                from exc
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n"
                           f"{err[-3000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it; the
    median when there are too few samples for any."""
    for pct in TAIL_PERCENTILES:
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float) -> dict:
    run_worker(workload, seed, "--setup-only")  # fills the bytecode cache
    setup = [run_worker(workload, seed, "--setup-only")["setup_s"]
             for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(run_worker(workload, seed))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    setup += [p["setup_s"] for p in passes]
    # every instance runs once per pass; its latency is the median of its
    # calls, which keeps a host hiccup in one pass out of the distribution
    calls = defaultdict(list)
    for p in passes:
        for key, dt in p["latencies_s"]:
            calls[key].append(dt)
    latencies = [statistics.median(v) for v in calls.values()]
    tail_pct = tail_percentile(len(latencies))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cert_p50_ms": 1000 * statistics.median(latencies),
        "cert_tail_ms": 1000 * (statistics.median(latencies) if tail_pct == 50
                                else percentile(latencies, tail_pct)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    sampled = f"{len(latencies)} calls x {len(passes)} passes"
    notes = {"setup_s": f"median of {len(setup)} cold starts",
             "wall_s": f"median of {len(passes)} passes",
             "cert_p50_ms": sampled,
             "cert_tail_ms": f"p{tail_pct:g}; {sampled}",
             "peak_rss_mb": "median over passes"}
    return {"passes": passes, "metrics": metrics, "notes": notes}


def measure_traced(workload: str, seed: int) -> dict:
    plain = run_worker(workload, seed)
    traced = run_worker(workload, seed, "--traced")
    passes = [plain, traced]
    speedup = 0.0  # no sweep in this workload
    if plain["sweep_s"]:
        two = run_worker(workload, seed, "--sweep-workers", "2")
        passes.append(two)
        speedup = plain["sweep_s"] / two["sweep_s"]
    metrics = dict(traced["layers"])
    metrics["pipeline.sweep_speedup_w2"] = speedup
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {"passes": passes, "metrics": metrics, "notes": {}}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pscert" / "pipeline.py").is_file():
        print(f"no pscert source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    gated = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    units = gated if args.trace else dict(gated, **UNGATED)

    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes, metrics = result["passes"], result["metrics"]
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = dict(passes[0]["env"], commit=git_commit())
    expected = json.loads((HERE / "expected.json").read_text())
    ref_sha = expected["cert_sha256"][args.workload]
    shas = sorted({p["cert_sha256"] for p in passes})
    cert_match = shas == [ref_sha]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  passes {len(passes)}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for name, unit in units.items():
        note = result["notes"].get(name, "")
        if name not in gated:
            note += "; no bound"
        print(f"  {name:40s} {metrics[name]:14.6g} {unit:6s} {note}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted} instances")
    for p in passes:
        for line in p["failures"]:
            print(f"  FAILED {line}")
    if cert_match:
        print(f"cert-bytes sha256 {ref_sha[:16]}... matches the reference")
    else:
        print(f"FLAG cert-bytes differ: sha256 {', '.join(shas)}; "
              f"reference {ref_sha}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "attempted": attempted, "failed": failed,
              "cert_sha256": shas, "cert_match": cert_match,
              "pass_wall_s": [p["wall_s"] for p in passes],
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in gated.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
