"""Spread of one set of benchmark results, or the shift between two sets.

    python3 perfbench/compare.py perfbench/out/results.jsonl
    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds the records that run.py appends to perfbench/out/results.jsonl.
For every workload and end-to-end metric this prints the median of the
untraced runs and their spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.
With two sets it also prints how far the second median moved against the
first, in the direction that is worse.  Traced runs must agree exactly on
every count.  Results taken on different mpmath backends are not compared.

Exit status: 0 when every spread except that of setup_s stays within its
metric's bound, no median worsens by more than the bound and every count
repeats; 1 otherwise; 2 when the sets cannot be compared.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bytes")


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_workload(records: list[dict], trace: int) -> dict:
    out = defaultdict(list)
    for rec in records:
        if rec["trace"] == trace:
            out[rec["workload"]].append(rec)
    return out


def spread(values: list) -> tuple[float, float]:
    """(median, interquartile range over median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    backends = {rec["env"]["backend"] for records in sets for rec in records}
    if len(backends) > 1:
        print(f"refusing to compare results from different mpmath backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    print(f"{'workload':16s} {'metric':14s} " + " ".join(
        f"{'median':>12s} {'spread':>7s}" for _ in sets)
        + ("  worse by  bound" if len(sets) == 2 else ""))
    groups = [by_workload(records, 0) for records in sets]
    # metrics a run records beyond BENCHMARK.json are shown without a bound
    listed = {m["name"] for m in spec["end_to_end"]}
    extra = sorted({name for records in sets for r in records
                    if r["trace"] == 0 for name in r["metrics"]} - listed)
    metrics = spec["end_to_end"] + [
        {"name": name, "better": "lower", "bound": math.inf}
        for name in extra]
    for workload in sorted(set().union(*groups)):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cols, meds = [], []
            for group in groups:
                values = [r["metrics"][name] for r in group.get(workload, [])]
                if not values:
                    cols.append(f"{'-':>12s} {'-':>7s}")
                    meds.append(None)
                    continue
                med, sp = spread(values)
                meds.append(med)
                flag = ""
                if name != "setup_s" and sp > bound:
                    flag, ok = "!", False
                cols.append(f"{med:12.6g} {sp:6.1%}{flag}")
            line = f"{workload:16s} {name:14s} " + " ".join(cols)
            if len(meds) == 2 and None not in meds:
                worse = (meds[1] - meds[0]) / meds[0]
                if metric["better"] == "higher":
                    worse = -worse
                flag = ""
                if worse > bound:
                    flag, ok = "  REGRESSION", False
                line += f"  {worse:8.1%}  {bound:5.0%}{flag}" \
                    if bound < math.inf else f"  {worse:8.1%}"
            print(line)

    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in EXACT_UNITS]
    traced = by_workload([rec for records in sets for rec in records], 1)
    for workload, recs in sorted(traced.items()):
        differ = [name for name in exact
                  if len({r["metrics"][name] for r in recs}) > 1]
        ok = ok and not differ
        print(f"{workload}: {len(recs)} traced runs; counts that differ: "
              f"{', '.join(differ) or 'none'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
