"""Certification pipelines, replayable JSON certificates, and sweeps.

A Certificate is an ordered record of every operation, input, enclosure, and
verdict that contributed to a conclusion; re-running the steps from the
recorded inputs must reproduce the record exactly.  All numbers are
serialized exactly: rationals as "p/q", interval endpoints as hex-mantissa
dyadics, so replay comparisons can be byte-for-byte.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .analytic import (bound_14_9, c_small_threshold, close_window,
                       general_bounds, isolate_segment_roots, lmn3_c_max,
                       max_modulus)
from .exactnum import RealInterval, isqrt
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
    sign = 1
    if s.startswith("-"):
        sign, s = -1, s[1:]
    man, exp = s[2:].split("p")
    return sign * Fraction(int(man, 16)) * Fraction(2) ** int(exp)


def interval_json(x: RealInterval) -> dict:
    return {"lo": dyadic_hex(x.lo), "hi": dyadic_hex(x.hi),
            "prec": x.prec, "approx": [float(x.lo), float(x.hi)]}


def interval_from_json(d: dict) -> RealInterval:
    return RealInterval(parse_dyadic_hex(d["lo"]), parse_dyadic_hex(d["hi"]),
                        prec=d["prec"])


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

    qprim = pq.Q.primitive_part()
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

    if irr.verdict == "Irreducible":
        r = max_modulus(b, width=Fraction(1, 10 ** 12), prec=prec)
        cert.add_step("max-modulus", {"n": b}, {"r": interval_json(r)},
                      "conclusive", prec)
    else:
        r = RealInterval(Fraction(14, 9), Fraction(14, 9), prec=prec)
        cert.caveats.append("irreducibility inconclusive: fell back to the "
                            "unconditional modulus lower bound 14/9")
        rep = bound_14_9(_t_of_r(r))
        _report_step(cert, rep, prec)
        if rep.verdict != "Satisfied":
            cert.conclusion = {"status": "undecided",
                               "detail": "fallback contradiction bound failed"}
            return cert

    small = c_small_threshold(r, b)
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

    roots = isolate_segment_roots(b, target_width=Fraction(1, 10 ** 12),
                                  prec=prec)
    window = close_window(b, roots[-1], c_lo, c_hi, prec=max(prec, 256))
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
    if verdict.verdict == "Unknown":
        cert.conclusion = {"status": "undecided"}
    elif verdict.verdict == "Regular":
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
    cert.conclusion = {"status": {"Regular": "empty",
                                  "NotRegular": "candidate",
                                  "Unknown": "undecided"}[verdict.verdict]}
    return cert


def certify_general_bounds(a: int, parity: str = "other",
                           b: Optional[int] = None,
                           r: Optional[RealInterval] = None,
                           prec: int = 128) -> Certificate:
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


def replay_certificate(cert_dict: dict) -> dict:
    """Re-run a certificate's pipeline from its recorded inputs and compare;
    any difference in steps, verdicts, or conclusion is reported."""
    kind = cert_dict["kind"]
    inputs = cert_dict["inputs"]
    prec = 128
    for entry in cert_dict.get("precision_trace", []):
        prec = entry["prec"]
        break
    if kind == "a1-pipeline":
        fresh = certify_a1(inputs["b"], prec=prec)
    elif kind == "pair":
        fresh = certify_pair(inputs["b"], inputs["c"])
    elif kind == "triple":
        fresh = certify_triple(inputs["a"], inputs["b"], inputs["c"])
    elif kind == "mod-p":
        fresh = certify_mod_p(inputs["a"], inputs["b"], inputs["c"],
                              inputs["p"])
    elif kind == "general-bounds":
        r = inputs.get("r")
        fresh = certify_general_bounds(
            inputs["a"], inputs.get("parity", "other"), inputs.get("b"),
            interval_from_json(r) if r else None, prec=prec)
    else:
        return {"match": False, "diffs": [f"unknown kind {kind}"]}
    diffs = []
    fd = fresh.as_dict()
    for key in ("steps", "conclusion", "caveats"):
        # canonical JSON so tuple/list round-trips compare equal
        if json.dumps(fd[key], sort_keys=True) != \
                json.dumps(cert_dict.get(key), sort_keys=True):
            diffs.append(key)
    return {"match": not diffs, "diffs": diffs}


# -- sweeps -------------------------------------------------------------------


@dataclass
class SweepSpec:
    mode: str  # "pair-a1" | "triple" | "mod-p"
    ranges: dict = field(default_factory=dict)
    filters: list = field(default_factory=list)
    workers: int = 1
    outdir: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        return cls(mode=d["mode"], ranges=d.get("ranges", {}),
                   filters=d.get("filters", []), workers=d.get("workers", 1),
                   outdir=d.get("outdir"))


def _pair_passes(b: int, c: int, filters) -> bool:
    for f in filters:
        if f == "6|bc" and (b * c) % 6 != 0:
            return False
        if f == "2!|bc" and (b * c) % 2 == 0:
            return False
        if f == "3!|bc" and (b * c) % 3 == 0:
            return False
    return True


def _sweep_instances(spec: SweepSpec) -> list[tuple]:
    if spec.mode == "pair-a1":
        b_max = spec.ranges.get("b_max", 20)
        c_max = spec.ranges.get("c_max", b_max)
        return [("pair", b, c) for b in range(2, b_max + 1)
                for c in range(b + 1, c_max + 1)
                if _pair_passes(b, c, spec.filters)]
    if spec.mode == "triple":
        triples = spec.ranges.get("triples")
        if triples is None:
            s_max = spec.ranges.get("sum_max", 20)
            triples = [(a, b, c) for a in range(1, s_max)
                       for b in range(a + 1, s_max)
                       for c in range(b + 1, s_max) if a + b + c <= s_max]
        return [("triple", *t) for t in triples]
    if spec.mode == "mod-p":
        return [("mod-p", *inst["exps"], inst["p"])
                for inst in spec.ranges.get("instances", [])]
    raise ValueError(f"unknown sweep mode {spec.mode!r}")


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


def run_sweep(spec: SweepSpec) -> dict:
    """Run every instance of the sweep, write one certificate file per
    instance (if an output directory is set), and return the summary.
    Output is deterministic and independent of the worker count: results
    are collected in input order."""
    instances = _sweep_instances(spec)
    if spec.workers > 1 and len(instances) > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(_run_instance, instances, chunksize=8))
    else:
        results = [_run_instance(i) for i in instances]
    counts = {"empty": 0, "nonempty-trivial": 0, "candidate": 0,
              "undecided": 0}
    if spec.outdir:
        out = Path(spec.outdir)
        out.mkdir(parents=True, exist_ok=True)
    for name, blob, status in results:
        counts[status] = counts.get(status, 0) + 1
        if spec.outdir:
            (Path(spec.outdir) / name).write_bytes(blob)
    return {"mode": spec.mode, "instances": len(results), "counts": counts}
