"""The benchmark's four workloads: their inputs, one timed pass, and the
verdict gate that checks every instance against `expected.json`.

Every workload calls only the public `pscert.pipeline`, `membership` and
`criteria` API.  The seed permutes instance order; the instance sets never
change.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from pscert import criteria, membership, pipeline

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

# b <= 42 that the window scan closes
A1_WINDOW = (6, 8, 10, 11, 13)
# cofactors of degree 18..42, closed without a window scan
A1_IRREDUCIBLE = (25, 30, 36, 42)
PAIR_MAX = 60
TRIPLE_SUM_MAX = 30
MOD_P = ((2, 9, 40, 1000003), (3, 8, 40, 1000003), (4, 9, 50, 1000003),
         (5, 12, 60, 1000003), (6, 7, 64, 1000003), (2, 3, 100, 4594399),
         (3, 10, 100, 4594399), (1, 6, 100, 4594399), (2, 4, 5, 101))
# (name, variables, target exponent, generator exponents); the squared
# target and the zero-divisor identity are built separately below
MEMBERSHIP = (("p5 in (p1,p2) n=4", 4, 5, (1, 2)),
              ("p5 in (p1,p3) n=4", 4, 5, (1, 3)),
              ("p5 in (p2,p3) n=3", 3, 5, (2, 3)),
              ("p7 in (p1,p2,p3) n=4", 4, 7, (1, 2, 3)))
UNITY_MAX = 12
NORMAL4_MAX = 200

WORKLOADS = ("a1-window", "a1-irreducible", "pair-grid", "deciders")


@dataclass
class PassResult:
    wall_s: float
    sweep_s: float = 0.0
    latencies_s: list = field(default_factory=list)  # [instance key, s]
    certs: dict = field(default_factory=dict)     # instance key -> bytes
    outcomes: dict = field(default_factory=dict)  # instance key -> observed
    sweep_dirs: list = field(default_factory=list)


def make_inputs(workload: str, seed: int) -> dict:
    """The instances of one workload, in the order the seed gives."""
    rng = random.Random(seed)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    if workload == "a1-window":
        return {"bs": shuffled(A1_WINDOW)}
    if workload == "a1-irreducible":
        return {"bs": shuffled(A1_IRREDUCIBLE)}
    if workload == "pair-grid":
        # run_sweep enumerates the pair grid itself, so its order is fixed
        return {"spec": {"b_max": PAIR_MAX, "c_max": PAIR_MAX}}
    if workload == "deciders":
        ps = membership.power_sum
        queries = [(name, "graded_membership",
                    (ps(n, t), [ps(n, g) for g in gens]))
                   for name, n, t, gens in MEMBERSHIP]
        queries.append(("p2^2 in (p1,p4) n=3", "graded_membership",
                        (ps(3, 2) * ps(3, 2), [ps(3, 1), ps(3, 4)])))
        queries.append(("zero-divisor identity in (p2,p8) n=4",
                        "zerodivisor_identity_check", ()))
        return {"triples": shuffled(triple_instances()),
                "mod_p": shuffled(MOD_P), "membership": shuffled(queries),
                "criteria": shuffled(criteria_calls())}
    raise ValueError(f"unknown workload {workload!r}")


def triple_instances() -> list:
    s = TRIPLE_SUM_MAX
    return [(a, b, c) for a in range(1, s) for b in range(a + 1, s)
            for c in range(b + 1, s) if a + b + c <= s]


def criteria_calls() -> list:
    """The criteria calls of acceptance criterion 9."""
    preds = [("roots_of_unity_case", (case, a, b))
             for a in range(1, UNITY_MAX + 1)
             for b in range(a + 1, UNITY_MAX + 1) for case in (1, 2, 3)]
    return preds + [("normal4", (1, b)) for b in range(2, NORMAL4_MAX + 1)]


@contextmanager
def sampled(name: str, kind: str, sink: list):
    """Time each call of `pipeline.<name>`, where `run_sweep` looks it up,
    into `sink` under the instance key `<kind>-<args>`; restores the
    original on exit."""
    fn = getattr(pipeline, name)

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            sink.append([f"{kind}-" + "-".join(map(str, args)),
                         time.perf_counter() - t0])

    setattr(pipeline, name, timed)
    try:
        yield
    finally:
        setattr(pipeline, name, fn)


def _sweep(mode: str, ranges: dict, workers: int, res: PassResult):
    """Run one sweep, writing its certificate files to a scratch directory
    that `collect` reads back after the timed pass."""
    OUT.mkdir(parents=True, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="sweep-", dir=OUT)
    res.sweep_dirs.append(outdir)
    spec = pipeline.SweepSpec(mode, ranges, [], workers=workers, outdir=outdir)
    t0 = time.perf_counter()
    pipeline.run_sweep(spec)
    res.sweep_s += time.perf_counter() - t0


def collect(res: PassResult):
    """Read the sweeps' certificate files into `res.certs`; remove them."""
    for outdir in res.sweep_dirs:
        for path in sorted(Path(outdir).iterdir()):
            res.certs[path.stem] = path.read_bytes()
        shutil.rmtree(outdir)
    res.sweep_dirs.clear()


def _certify(res: PassResult, key: str, fn, *args):
    t0 = time.perf_counter()
    try:
        cert = fn(*args)
    except Exception as exc:  # a raising instance counts as failed
        res.outcomes[key] = f"raised {exc!r}"
        return
    finally:
        res.latencies_s.append([key, time.perf_counter() - t0])
    res.certs[key] = cert.json_bytes()


def run_pass(workload: str, inputs: dict, sweep_workers: int = 1
             ) -> PassResult:
    """One timed pass over the workload's instances.  Certificates are
    parsed and checked afterwards, outside the timed region."""
    res = PassResult(wall_s=0.0)
    t0 = time.perf_counter()
    if workload in ("a1-window", "a1-irreducible"):
        for b in inputs["bs"]:
            _certify(res, f"a1-{b}", pipeline.certify_a1, b)
    elif workload == "pair-grid":
        with sampled("certify_pair", "pair", res.latencies_s):
            _sweep("pair-a1", inputs["spec"], sweep_workers, res)
    else:
        with sampled("certify_triple", "triple", res.latencies_s):
            _sweep("triple", {"triples": inputs["triples"]}, sweep_workers,
                   res)
        for inst in inputs["mod_p"]:
            _certify(res, "mod-p-" + "-".join(map(str, inst)),
                     pipeline.certify_mod_p, *inst)
        # functions are looked up at call time, so that tracing sees them
        for name, fn, args in inputs["membership"]:
            t1 = time.perf_counter()
            try:
                res.outcomes[name] = getattr(membership, fn)(*args).member
            except Exception as exc:
                res.outcomes[name] = f"raised {exc!r}"
            res.latencies_s.append([name, time.perf_counter() - t1])
        for name, args in inputs["criteria"]:
            key = f"{name}{args}"
            try:
                out = getattr(criteria, name)(*args)
                res.outcomes[key] = (out.holds, out.witness is not None)
            except Exception as exc:
                res.outcomes[key] = f"raised {exc!r}"
    res.wall_s = time.perf_counter() - t0
    return res


# -- the verdict gate ---------------------------------------------------------


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def observe(res: PassResult) -> dict:
    """Observed verdict of every instance, keyed like `expected_verdicts`."""
    seen = dict(res.outcomes)
    for key, blob in res.certs.items():
        cert = json.loads(blob)
        concl = cert["conclusion"]
        undecided = [s["op"] for s in cert["steps"]
                     if s["verdict"] in ("Inconclusive", "Undecided")]
        if cert["kind"] == "a1-pipeline":
            seen[key] = [concl["status"], concl.get("mechanism"),
                         concl.get("m_count"), undecided]
        elif cert["kind"] == "pair":
            out = cert["steps"][0]["outputs"] if cert["steps"] else {}
            seen[key] = [concl["status"], out.get("gcd_degree"),
                         out.get("zero_minus_one_present"),
                         out.get("cube_roots_present")]
        else:
            seen[key] = [concl["status"], undecided]
    return seen


def expected_verdicts(workload: str, expected: dict) -> dict:
    """Expected verdict of every instance of the workload."""
    if workload in ("a1-window", "a1-irreducible"):
        bs = A1_WINDOW if workload == "a1-window" else A1_IRREDUCIBLE
        return {f"a1-{b}": [*expected["a1"][str(b)], []] for b in bs}
    if workload == "pair-grid":
        out = {}
        for b in range(2, PAIR_MAX + 1):
            for c in range(b + 1, PAIR_MAX + 1):
                # criterion 2: no nontrivial zero; trivial zeros by parity
                # and divisibility by 3
                odd = (b * c) % 2 != 0
                cube = b % 3 != 0 and c % 3 != 0
                status = "nonempty-trivial" if odd or cube else "empty"
                out[f"pair-{b}-{c}"] = [status, 0, odd, cube]
        return out
    trivial = {tuple(t) for t in expected["triples_nonempty_trivial"]}
    out = {"triple-" + "-".join(map(str, t)):
           ["nonempty-trivial" if t in trivial else "empty", []]
           for t in triple_instances()}
    for key, status in expected["mod_p"].items():
        out["mod-p-" + key] = [status, []]
    out.update(expected["membership"])
    unity = {tuple(x) for x in expected["roots_of_unity_holds"]}
    for name, args in criteria_calls():
        # (holds, witness emitted): unity witnesses come exactly when the
        # predicate holds; normal4(1, b) holds iff b is even, with no witness
        if name == "roots_of_unity_case":
            out[f"{name}{args}"] = (args in unity, args in unity)
        else:
            out[f"{name}{args}"] = (args[1] % 2 == 0, False)
    return out


def check(workload: str, res: PassResult, expected: dict) -> tuple[int, list]:
    """(instances attempted, descriptions of the failed ones).  An instance
    fails when it raised, came out undecided or Inconclusive, or disagrees
    with its expected verdict."""
    want = expected_verdicts(workload, expected)
    seen = observe(res)
    failures = [f"{key}: expected {want[key]!r}, got {seen.get(key)!r}"
                for key in sorted(want) if seen.get(key) != want[key]]
    failures += [f"{key}: unexpected instance" for key in sorted(seen)
                 if key not in want]
    return len(want), failures


def cert_sha256(res: PassResult) -> str:
    """SHA-256 of the certificate bytes concatenated in instance-key order,
    so that the digest does not depend on the seed."""
    h = hashlib.sha256()
    for key in sorted(res.certs):
        h.update(res.certs[key])
    return h.hexdigest()
