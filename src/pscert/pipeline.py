"""Certification pipelines, replayable JSON certificates, and sweeps.

A Certificate is an ordered record of every operation, input, enclosure, and
verdict that contributed to a conclusion; re-running the steps from the
recorded inputs must reproduce the record exactly.  All numbers are
serialized exactly: rationals as "p/q", interval endpoints as hex-mantissa
dyadics, so replay comparisons can be byte-for-byte.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional

from .analytic import (bound_14_9, c_small_threshold, close_window,
                       general_bounds, lmn3_c_max, max_modulus)
from .errors import PrecisionExhausted
from .exactnum import RealInterval, isqrt, require_prec
from .powersum import build_pq, pair_zset, regseq3_mod_p, regseq3_rational
from .unipoly import certify_irreducible

TOOL_VERSION = "0.1.0"
SCHEMA = 1


# -- exact serialization ------------------------------------------------------


def frac_str(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def dyadic_hex(q: Fraction) -> str:
    """Exact hex-mantissa form of a dyadic rational: [-]0x<man>p<exp>."""
    if q == 0:
        return "0x0p+0"
    num, den = q.numerator, q.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise ValueError("not a dyadic rational")
    sign = "-" if num < 0 else ""
    return f"{sign}0x{abs(num):x}p{-k:+d}"


def parse_dyadic_hex(s: str) -> Fraction:
    man, exp = s.replace("0x", "").split("p")
    return Fraction(int(man, 16)) * Fraction(2) ** int(exp)


def interval_json(x: RealInterval) -> dict:
    """The exact endpoints, and as "approx" each one as a float, or None
    (null) where it lies past the float range."""
    return {"lo": dyadic_hex(x.lo), "hi": dyadic_hex(x.hi),
            "prec": x.prec, "approx": [_approx(x.lo), _approx(x.hi)]}


def _approx(q: Fraction) -> Optional[float]:
    try:
        return float(q)
    except OverflowError:
        return None


def interval_from_json(d: dict) -> RealInterval:
    return RealInterval._exact(parse_dyadic_hex(d["lo"]),
                               parse_dyadic_hex(d["hi"]), d["prec"])


# -- certificates -------------------------------------------------------------


@dataclass
class Certificate:
    kind: str
    inputs: dict
    steps: list = field(default_factory=list)
    caveats: list = field(default_factory=list)
    conclusion: dict = field(default_factory=dict)
    precision_trace: list = field(default_factory=list)

    def add_step(self, op: str, inputs: dict, outputs: dict, verdict: str,
                 prec: Optional[int] = None):
        self.steps.append({"op": op, "inputs": inputs, "outputs": outputs,
                           "verdict": verdict})
        if prec is not None:
            self.precision_trace.append({"op": op, "prec": prec})

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "tool": {"name": "pscert", "version": TOOL_VERSION},
            "kind": self.kind,
            "inputs": self.inputs,
            "steps": self.steps,
            "caveats": self.caveats,
            "conclusion": self.conclusion,
            "precision_trace": self.precision_trace,
        }

    def json_bytes(self) -> bytes:
        return (json.dumps(self.as_dict(), sort_keys=True, indent=2)
                + "\n").encode()

    @property
    def conclusive(self) -> bool:
        return self.conclusion.get("status") in ("closed", "empty",
                                                 "nonempty-trivial",
                                                 "candidate", "decided")


def _report_step(cert: Certificate, rep, prec: Optional[int] = None):
    out = dict(rep.details)
    if rep.value is not None:
        out["value"] = interval_json(rep.value)
    cert.add_step(rep.name, {k: _printable(v) for k, v in rep.inputs.items()},
                  out, rep.verdict, prec)


def _printable(v):
    if isinstance(v, RealInterval):
        return interval_json(v)
    if isinstance(v, Fraction):
        return frac_str(v)
    return v


# -- the a=1 pipeline ---------------------------------------------------------


def certify_a1(b: int, prec: int = 128) -> Certificate:
    """Full emptiness pipeline for the pair zero sets with first exponent 1
    and second exponent b: certifies that no c > b admits a nontrivial
    common zero (for odd b the computed claim covers even c only)."""
    require_prec(prec)
    if b < 2:
        raise ValueError("need b >= 2")
    cert = Certificate("a1-pipeline", {"a": 1, "b": b})
    if b % 2 == 1:
        cert.caveats.append(
            "odd second exponent: computed claim restricted to even c; "
            "the both-odd case is external: Beukers")

    pq = build_pq(b)
    cert.add_step("pq-decomposition", {"n": b},
                  {"deg_P": pq.P.degree, "deg_C": pq.C.degree,
                   "deg_Q": pq.Q.degree}, "conclusive")
    if pq.Q.degree == 0:
        cert.conclusion = {"status": "closed", "mechanism": "vacuous",
                           "detail": "cofactor is constant: no nontrivial roots"}
        return cert

    qprim = pq.Q_zz
    irr = certify_irreducible(qprim)
    cert.add_step("irreducibility", {"poly_coeffs": qprim.coeffs},
                  {"primes": irr.primes,
                   "degree_patterns": [list(p) for p in irr.degree_patterns]},
                  irr.verdict)
    lc = qprim.leading()
    obstructed = irr.verdict == "Irreducible" and lc not in (1, 2)
    cert.add_step("leading-coefficient obstruction",
                  {"leading_coeff": lc},
                  {"applies": obstructed},
                  "Satisfied" if obstructed else "NotApplicable")
    if obstructed:
        cert.conclusion = {
            "status": "closed", "mechanism": "leading-coefficient",
            "detail": f"irreducible primitive cofactor has leading "
                      f"coefficient {lc}, so it divides no power-sum "
                      f"relation polynomial with leading coefficient 2"}
        return cert

    # the modulus and the window scan refine the top root's bracket as they
    # need; a step the precision cap leaves open makes the run undecided
    if irr.verdict == "Irreducible":
        try:
            r = max_modulus(b, Fraction(1, 10 ** 12), prec)
        except PrecisionExhausted as exc:
            cert.conclusion = {"status": "undecided",
                               "detail": "max modulus not enclosed",
                               "reason": str(exc)}
            return cert
        cert.add_step("max-modulus", {"n": b}, {"r": interval_json(r)},
                      "conclusive", prec)
    else:
        r = Fraction(14, 9)
        cert.caveats.append("irreducibility inconclusive: fell back to the "
                            "unconditional modulus lower bound 14/9")
        rep = bound_14_9(_t_of_r(RealInterval(r, prec=prec)))
        _report_step(cert, rep, prec)
        if rep.verdict != "Satisfied":
            cert.conclusion = {"status": "undecided",
                               "detail": "fallback contradiction bound failed"}
            return cert

    small = c_small_threshold(r, b, prec=prec)
    _report_step(cert, small, prec)
    c_lo = small.details["c_excluded_up_to"]
    big = lmn3_c_max(b, prec)
    _report_step(cert, big, prec)
    if big.verdict != "Satisfied":
        cert.conclusion = {"status": "undecided",
                           "detail": "large-c bracket not certified"}
        return cert
    c_hi = big.details["c_max"]

    if c_lo >= c_hi:
        cert.conclusion = {"status": "closed", "mechanism": "disjoint-ranges",
                           "c_lo": c_lo, "c_hi": c_hi}
        return cert

    try:
        window = close_window(b, c_lo, c_hi, prec=max(prec, 256))
    except PrecisionExhausted as exc:
        cert.conclusion = {"status": "undecided",
                           "detail": "theta not narrowed", "reason": str(exc)}
        return cert
    _report_step(cert, window, max(prec, 256))
    if window.verdict == "Satisfied":
        cert.conclusion = {"status": "closed", "mechanism": "window-scan",
                           "c_lo": c_lo, "c_hi": c_hi,
                           "m_count": window.details.get("m_count")}
    else:
        cert.conclusion = {"status": "undecided",
                           "detail": "window scan could not certify",
                           "offending_m": window.details.get("offending_m")}
    return cert


def _t_of_r(r: RealInterval) -> RealInterval:
    return isqrt(r * r - Fraction(1, 4))


# -- other certificate kinds --------------------------------------------------


def certify_pair(b: int, c: int) -> Certificate:
    cert = Certificate("pair", {"b": b, "c": c})
    z = pair_zset(b, c)
    cert.add_step("pair-zero-set", {"b": b, "c": c},
                  {"gcd_degree": z.defining_poly.degree,
                   "zero_minus_one_present": z.zero_minus_one_present,
                   "cube_roots_present": z.cube_roots_present},
                  "conclusive")
    if not z.is_empty:
        status = "candidate"
    elif z.has_trivial_zeros:
        status = "nonempty-trivial"
    else:
        status = "empty"
    cert.conclusion = {"status": status}
    return cert


def certify_triple(a: int, b: int, c: int) -> Certificate:
    cert = Certificate("triple", {"a": a, "b": b, "c": c})
    verdict = regseq3_rational(a, b, c)
    cert.add_step("regular-sequence", {"exponents": list(verdict.exponents)},
                  {"witness": repr(verdict.witness) if verdict.witness else None},
                  verdict.verdict)
    if verdict.verdict == "Regular":
        cert.conclusion = {"status": "empty"}
    else:
        trivial = isinstance(verdict.witness, str)
        cert.conclusion = {"status": "nonempty-trivial" if trivial
                           else "candidate"}
    return cert


def certify_mod_p(a: int, b: int, c: int, p: int) -> Certificate:
    cert = Certificate("mod-p", {"a": a, "b": b, "c": c, "p": p})
    verdict = regseq3_mod_p(a, b, c, p)
    cert.add_step("regular-sequence-mod-p",
                  {"exponents": [a, b, c], "p": p},
                  {"witness": repr(verdict.witness) if verdict.witness else None},
                  verdict.verdict)
    cert.conclusion = {"status": "empty" if verdict.verdict == "Regular"
                       else "candidate"}
    return cert


def certify_general_bounds(a: int, parity: str = "other",
                           b: Optional[int] = None,
                           r: Optional[RealInterval] = None,
                           prec: int = 128) -> Certificate:
    require_prec(prec)
    cert = Certificate("general-bounds",
                       {"a": a, "parity": parity, "b": b,
                        "r": interval_json(r) if r is not None else None})
    reports = general_bounds(a, parity, b=b, r=r, prec=prec)
    decided = True
    for key, rep in reports.items():
        _report_step(cert, rep, prec)
        if rep.verdict == "Undecided":
            decided = False
    cert.conclusion = {"status": "decided" if decided else "undecided"}
    return cert


# -- replay -------------------------------------------------------------------


# the named inputs of each sweep kind, in the order `_run_instance` takes them
_INSTANCE_INPUTS = {"pair": ("b", "c"), "triple": ("a", "b", "c"),
                    "mod-p": ("a", "b", "c", "p")}


def replay_certificate(cert_dict: dict) -> dict:
    """Re-run a certificate from its recorded inputs and return the
    top-level keys whose canonical JSON differs from the record as diffs.
    Pair, triple and mod-p certificates re-run through the sweep's runner
    `_run_instance` (a sweep's error certificate from inputs["instance"]);
    a1-pipeline and general-bounds at their first precision_trace entry's
    precision (128 if none).  Missing or rejected inputs give the diffs
    ["inputs"], and an unknown kind the diff "unknown kind <kind>"."""
    kind, inputs = cert_dict.get("kind"), cert_dict.get("inputs")
    try:
        prec = (cert_dict.get("precision_trace") or [{"prec": 128}])[0]["prec"]
        if kind in _INSTANCE_INPUTS:
            inst = (inputs["instance"] if "instance" in inputs
                    else [inputs[k] for k in _INSTANCE_INPUTS[kind]])
            fd = json.loads(_run_instance((kind, *inst))[1])
        elif kind == "a1-pipeline":
            fd = certify_a1(inputs["b"], prec=prec).as_dict()
        elif kind == "general-bounds":
            r = inputs["r"]
            r = None if r is None else interval_from_json(r)
            fd = certify_general_bounds(inputs["a"], inputs["parity"],
                                        inputs["b"], r, prec=prec).as_dict()
        else:
            return {"match": False, "diffs": [f"unknown kind {kind}"]}
    except (KeyError, TypeError, ValueError):
        return {"match": False, "diffs": ["inputs"]}
    # canonical JSON so tuple/list round-trips compare equal
    diffs = [key for key in sorted(fd.keys() | cert_dict.keys())
             if json.dumps(fd.get(key), sort_keys=True)
             != json.dumps(cert_dict.get(key), sort_keys=True)]
    return {"match": not diffs, "diffs": diffs}


# -- sweeps -------------------------------------------------------------------


# the range keys each sweep mode reads; filters apply to pair-a1 only
_RANGE_KEYS = {"pair-a1": {"b_max", "c_max"}, "triple": {"sum_max", "triples"},
               "mod-p": {"instances"}}
_PAIR_FILTERS = {"6|bc": lambda bc: bc % 6 == 0,
                 "2!|bc": lambda bc: bc % 2 != 0,
                 "3!|bc": lambda bc: bc % 3 != 0}


@dataclass
class SweepSpec:
    """A sweep: its mode, the ranges it enumerates and the filters on
    pair-a1.  An unknown mode, range key or filter, a range value that is
    not an int (b_max, c_max, sum_max), a triple or mod-p exps that is not
    three ints, a mod-p p that is not an int, or workers other than an
    int >= 1, raises ValueError.  A bool is not an int here."""
    mode: str  # "pair-a1" | "triple" | "mod-p"
    ranges: dict = field(default_factory=dict)
    filters: list = field(default_factory=list)
    workers: int = 1
    outdir: Optional[str] = None

    def __post_init__(self):
        if self.mode not in _RANGE_KEYS:
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        extra = sorted(set(self.ranges) - _RANGE_KEYS[self.mode])
        known = _PAIR_FILTERS if self.mode == "pair-a1" else {}
        extra += [f for f in self.filters if f not in known]
        if extra:
            raise ValueError(f"unknown range keys or filters for sweep mode "
                             f"{self.mode!r}: {extra}")
        bad = [f"{k}={v!r}" for k, v in self.ranges.items()
               if k in ("b_max", "c_max", "sum_max") and type(v) is not int]
        if self.ranges.get("triples") is not None:
            bad += [repr(t) for t in _entries(self.ranges["triples"])
                    if not _ints(t, 3)]
        for inst in _entries(self.ranges.get("instances", [])):
            if (not isinstance(inst, dict) or set(inst) != {"exps", "p"}
                    or not _ints(inst["exps"], 3)
                    or type(inst["p"]) is not int):
                bad.append(repr(inst))
        if bad:
            raise ValueError(f"bad sweep instance values for mode "
                             f"{self.mode!r}: {bad}")
        if type(self.workers) is not int or self.workers < 1:
            raise ValueError(f"bad workers {self.workers!r}: need an int >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        extra = sorted(set(d) - {f.name for f in fields(cls)})
        if extra:
            raise ValueError(f"unknown sweep spec keys {extra}")
        return cls(**d)


def _entries(v) -> list:
    """A list or tuple of entries as a list; anything else as one entry."""
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _ints(v, n: int) -> bool:
    """Whether v is a list or tuple of n ints, no bool among them."""
    return (isinstance(v, (list, tuple)) and len(v) == n
            and all(type(x) is int for x in v))


def _sweep_instances(spec: SweepSpec) -> list[tuple]:
    if spec.mode == "pair-a1":
        b_max = spec.ranges.get("b_max", 20)
        c_max = spec.ranges.get("c_max", b_max)
        return [("pair", b, c) for b in range(2, b_max + 1)
                for c in range(b + 1, c_max + 1)
                if all(_PAIR_FILTERS[f](b * c) for f in spec.filters)]
    if spec.mode == "triple":
        triples = spec.ranges.get("triples")
        if triples is None:
            s_max = spec.ranges.get("sum_max", 20)
            triples = [(a, b, c) for a in range(1, s_max)
                       for b in range(a + 1, s_max)
                       for c in range(b + 1, s_max) if a + b + c <= s_max]
        return [("triple", *t) for t in triples]
    return [("mod-p", *inst["exps"], inst["p"])
            for inst in spec.ranges.get("instances", [])]


def _run_instance(inst: tuple) -> tuple[str, bytes, str]:
    kind = inst[0]
    name = kind + "-" + "-".join(str(x) for x in inst[1:]) + ".json"
    try:
        if kind == "pair":
            cert = certify_pair(inst[1], inst[2])
        elif kind == "triple":
            cert = certify_triple(inst[1], inst[2], inst[3])
        else:
            cert = certify_mod_p(inst[1], inst[2], inst[3], inst[4])
        status = cert.conclusion["status"]
        return name, cert.json_bytes(), status
    except Exception as exc:
        err = Certificate(kind, {"instance": list(inst[1:])})
        err.conclusion = {"status": "undecided", "error": repr(exc)}
        return name, err.json_bytes(), "undecided"


_CHUNK = 8  # instances per task handed to a sweep worker


def _run_chunk(chunk: list) -> list[tuple[str, bytes, str]]:
    return [_run_instance(inst) for inst in chunk]


def _results(spec: SweepSpec, instances: list) -> Iterator[tuple]:
    """Each instance's (file name, certificate bytes, status), in instance
    order, as the runs complete.  At more than one worker the pool holds at
    most 2 * workers chunks beyond the one whose results are being taken."""
    if spec.workers > 1 and len(instances) > 1:
        # imported only here, so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            pending = deque()
            for i in range(0, len(instances), _CHUNK):
                pending.append(pool.submit(_run_chunk,
                                           instances[i:i + _CHUNK]))
                if len(pending) > 2 * spec.workers:
                    yield from pending.popleft().result()
            while pending:
                yield from pending.popleft().result()
    else:
        yield from map(_run_instance, instances)


def run_sweep(spec: SweepSpec) -> dict:
    """Run every instance of the sweep, write one certificate file per
    instance (if an output directory is set), and return the summary.

    The output directory is made before the first instance runs, so a bad
    one fails at once.  Each file is written as soon as its instance
    completes, in instance order, and nothing keeps the certificates
    after that: an interrupted sweep leaves a prefix of complete files,
    and the certificates waiting in memory stay bounded in number as the
    instance count grows, at any worker count (`_results`).  Output is
    deterministic and independent of the worker count."""
    instances = _sweep_instances(spec)
    out = Path(spec.outdir) if spec.outdir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    counts = {"empty": 0, "nonempty-trivial": 0, "candidate": 0,
              "undecided": 0}
    for name, blob, status in _results(spec, instances):
        counts[status] = counts.get(status, 0) + 1
        if out:
            (out / name).write_bytes(blob)
    return {"mode": spec.mode, "instances": len(instances), "counts": counts}
