"""Command-line interface.

Every subcommand prints a human-readable report, or a JSON document under
--json (before or after the subcommand); --precision follows only the
subcommands that read it.  Exit codes: 0 for a conclusive result, 2 for an
undecided one, 1 for usage or internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .analytic import isolate_segment_roots, max_modulus
from .criteria import (ExponentSet, conjecture4_conditions,
                       factorial_divisibility, normal4)
from .exactnum import RealInterval
from .membership import (MultiPoly, graded_membership, power_sum,
                         zerodivisor_identity_target)
from .pipeline import (SweepSpec, certify_a1, certify_general_bounds,
                       interval_json, run_sweep)
from .powersum import (build_pq, pair_zset, regseq2, regseq3_mod_p,
                       regseq3_rational, triple_zset)
from .unipoly import ExactPoly


def poly_str(p: ExactPoly, var: str = "x") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            term = str(c)
        else:
            mono = var if k == 1 else f"{var}^{k}"
            if c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}{mono}"
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _bits(text: str) -> int:
    # escalation doubles the precision, so from 0 or below it never ends
    bits = int(text)
    if bits < 1:
        raise argparse.ArgumentTypeError("precision must be at least 1 bit")
    return bits


def _digits(text: str) -> int:
    # the target width is 10^-digits, a Fraction only for digits >= 0
    digits = int(text)
    if digits < 0:
        raise argparse.ArgumentTypeError("digits must be at least 0")
    return digits


def _exps(text: str) -> list[int]:
    return [int(t) for t in text.replace(" ", "").split(",") if t]


def _parse_poly_spec(spec: str, nvars: int) -> MultiPoly:
    """'p5', 'p2^2', products 'p1*p2^3' (exponents at least 1), or
    'zerodivisor-identity'."""
    if spec == "zerodivisor-identity":
        if nvars != 4:
            raise ValueError("zerodivisor-identity is a four-variable target")
        return zerodivisor_identity_target()
    result = None
    for token in spec.split("*"):
        token = token.strip()
        if "^" in token:
            base, exp = token.split("^")
            e = int(exp)
            if e < 1:
                raise ValueError(f"exponent must be at least 1 in {token!r}")
        else:
            base, e = token, 1
        if not base.startswith("p"):
            raise ValueError(f"bad polynomial token {token!r}")
        f = power_sum(nvars, int(base[1:]))
        term = f
        for _ in range(e - 1):
            term = term * f
        result = term if result is None else result * term
    if result is None:
        raise ValueError("empty polynomial spec")
    return result


def _emit(payload: dict, as_json: bool, lines: list[str]):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in lines:
            print(line)


# -- subcommand handlers ------------------------------------------------------


def cmd_pq(args) -> int:
    pq = build_pq(args.n)
    _emit({"n": args.n, "P": pq.P.coeffs, "C": pq.C.coeffs,
           "Q": [str(c) for c in pq.Q.coeffs]},
          args.json,
          [f"P_{args.n} = {poly_str(pq.P)}",
           f"C_{args.n} = {poly_str(pq.C)}",
           f"Q_{args.n} = {poly_str(pq.Q)}"])
    return 0


def cmd_pair(args) -> int:
    z = pair_zset(args.b, args.c)
    _emit({"b": args.b, "c": args.c, "empty": z.is_empty,
           "gcd_degree": z.defining_poly.degree,
           "zero_minus_one_present": z.zero_minus_one_present,
           "cube_roots_present": z.cube_roots_present},
          args.json,
          [f"nontrivial zero set: {'empty' if z.is_empty else 'nonempty'}",
           f"gcd(Q_{args.b}, Q_{args.c}) = {poly_str(z.defining_poly)}",
           f"trivial zeros 0,-1: {z.zero_minus_one_present}; "
           f"cube roots: {z.cube_roots_present}"])
    return 0


def cmd_triple(args) -> int:
    z = triple_zset(args.a, args.b, args.c)
    _emit({"exps": [args.a, args.b, args.c], "empty": z.is_empty,
           "defining_degree": z.defining_poly.degree},
          args.json,
          [f"nontrivial zero set: {'empty' if z.is_empty else 'nonempty'}",
           f"defining polynomial: {poly_str(z.defining_poly)}"])
    return 0


def cmd_regseq(args) -> int:
    exps = _exps(args.exps)
    if len(exps) == 2:
        v = regseq2(exps[0], exps[1], args.char)
    elif len(exps) == 3:
        if args.char:
            v = regseq3_mod_p(exps[0], exps[1], exps[2], args.char)
        else:
            v = regseq3_rational(exps[0], exps[1], exps[2])
    else:
        raise ValueError("regseq supports 2 or 3 exponents")
    _emit({"exponents": list(v.exponents), "field": v.field,
           "verdict": v.verdict, "witness": repr(v.witness)},
          args.json,
          [f"{v.verdict} over {v.field}"
           + (f" (witness: {v.witness})" if v.witness is not None else "")])
    return 0


def cmd_criteria(args) -> int:
    A = ExponentSet(_exps(args.set))
    results = [factorial_divisibility(A)]
    if len(A) == 4:
        results.append(conjecture4_conditions(A))
    _emit({"set": list(A), "results": [
        {"name": r.name, "holds": r.holds, "details": r.details}
        for r in results]},
          args.json,
          [f"{r.name}: {'holds' if r.holds else 'fails'}  {r.details}"
           for r in results])
    return 0


def cmd_normal4(args) -> int:
    r = normal4(args.a, args.b)
    _emit({"a": args.a, "b": args.b, "normal": r.holds,
           "details": r.details},
          args.json,
          [f"normal: {r.holds}  {r.details}"])
    return 0


def cmd_member(args) -> int:
    target = _parse_poly_spec(args.target, args.nvars)
    gens = [_parse_poly_spec(g, args.nvars) for g in args.gens.split(",")]
    ans = graded_membership(target, gens)
    _emit({"member": ans.member, "degree": ans.degree_bound,
           "cofactor_terms": [len(c.terms) for c in ans.cofactors]
           if ans.cofactors else None},
          args.json,
          [f"member: {ans.member} (graded piece of degree {ans.degree_bound})"])
    return 0


def cmd_roots(args) -> int:
    width = Fraction(1, 10 ** args.digits)
    roots = isolate_segment_roots(args.n, target_width=width,
                                  prec=args.precision)
    mm = max_modulus(args.n, width, args.precision) if roots else None
    lines = [f"Q_{args.n}: {len(roots)} segment root(s)"]
    payload = {"n": args.n, "count": len(roots), "roots": []}
    for r in roots:
        payload["roots"].append({"t": interval_json(r.t)})
        lines.append(f"  t in [{float(r.t.lo):.{args.digits}f}, "
                     f"{float(r.t.hi):.{args.digits}f}]")
    if mm is not None:
        payload["max_modulus"] = interval_json(mm)
        lines.append(f"max modulus in [{float(mm.lo):.{args.digits}f}, "
                     f"{float(mm.hi):.{args.digits}f}]")
    _emit(payload, args.json, lines)
    return 0


def cmd_certify(args) -> int:
    cert = certify_a1(args.b, prec=args.precision)
    if args.emit:
        with open(args.emit, "wb") as fh:
            fh.write(cert.json_bytes())
    _emit(cert.as_dict(), args.json,
          [f"kind: {cert.kind}", f"conclusion: {cert.conclusion}"]
          + [f"caveat: {c}" for c in cert.caveats])
    return 0 if cert.conclusive else 2


def cmd_bounds(args) -> int:
    r = None
    if args.r:
        q = Fraction(args.r)
        r = RealInterval(q, q, prec=args.precision)
    cert = certify_general_bounds(args.a, args.parity, args.b, r,
                                  prec=args.precision)
    _emit(cert.as_dict(), args.json,
          [f"{s['op']}: {s['verdict']}  {s['outputs']}"
           for s in cert.steps])
    return 0 if cert.conclusive else 2


def cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        spec = SweepSpec.from_dict(json.load(fh))
    summary = run_sweep(spec)
    _emit(summary, args.json,
          [f"mode: {summary['mode']}, instances: {summary['instances']}",
           f"counts: {summary['counts']}"])
    return 2 if summary["counts"].get("undecided") else 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pscert",
        description="emptiness certification for power-sum zero sets")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    # --json also after the verb; its default there is SUPPRESS, so an
    # absent verb-level flag leaves the top-level value standing
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         default=argparse.SUPPRESS,
                         help="machine-readable output")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--precision", type=_bits, default=128,
                           help="starting working precision in bits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pq", parents=[as_json],
                       help="P_n, trivial factor, cofactor")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_pq)

    p = sub.add_parser("pair", parents=[as_json],
                       help="nontrivial common zeros of two cofactors")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("triple", parents=[as_json],
                       help="three-exponent nontrivial zero set")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(fn=cmd_triple)

    p = sub.add_parser("regseq", parents=[as_json],
                       help="regular-sequence verdict")
    p.add_argument("--exps", required=True, help="comma-separated exponents")
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(fn=cmd_regseq)

    p = sub.add_parser("criteria", parents=[as_json],
                       help="arithmetic criteria on an exponent set")
    p.add_argument("--set", required=True)
    p.set_defaults(fn=cmd_criteria)

    p = sub.add_parser("normal4", parents=[as_json],
                       help="normality in four variables")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(fn=cmd_normal4)

    p = sub.add_parser("member", parents=[as_json],
                       help="graded ideal membership")
    p.add_argument("--target", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--nvars", type=int, required=True)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("roots", parents=[as_json, precision],
                       help="certified segment roots of a cofactor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--digits", type=_digits, default=12)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("certify", parents=[as_json, precision],
                       help="emptiness pipeline for the exponents (1, b, c)")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--emit", default=None, help="certificate output file")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("bounds", parents=[as_json, precision],
                       help="general-exponent bound family")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--r", default=None, help="rational modulus, e.g. 21/20")
    p.add_argument("--parity", default="other",
                   choices=["exactly-one-even", "other"])
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("sweep", parents=[as_json],
                       help="run a sweep from a JSON spec file")
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except Exception as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(args, "json", False):
            print(json.dumps(diag, sort_keys=True))
        else:
            print(f"error: {diag['error']}: {diag['message']}",
                  file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
