"""Power-sum specific polynomials and common-zero decisions.

Builds P_n(z) = 1 + z^n + (-1-z)^n with its trivial factor C_n (supported on
{0, -1, omega, omega^2}) and cofactor Q_n, and decides regular-sequence
questions for two and three power sums over characteristic 0 and over prime
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import BadPrime, DivisionFailure
from .unipoly import (ExactPoly, GF, QQ, QuotientElem, ZZ, factor_mod_p,
                      poly_gcd, quotient_poly_gcd, resultant_bivariate,
                      squarefree_part)


@dataclass
class PQDecomposition:
    n: int
    P: ExactPoly  # over ZZ
    C: ExactPoly  # over ZZ
    Q: ExactPoly  # over QQ, P = C * Q exactly


@dataclass
class ZSet:
    """Nontrivial common-zero set plus trivial-zero bookkeeping."""
    defining_poly: ExactPoly  # over QQ; constant means empty
    zero_minus_one_present: bool
    cube_roots_present: bool
    exponents: tuple

    @property
    def is_empty(self) -> bool:
        return self.defining_poly.is_constant()

    @property
    def has_trivial_zeros(self) -> bool:
        return self.zero_minus_one_present or self.cube_roots_present


@dataclass
class RegSeqVerdict:
    exponents: tuple
    field: str
    verdict: str  # "Regular" | "NotRegular" | "Unknown"
    witness: Optional[object] = None


def build_p(n: int, ring=ZZ) -> ExactPoly:
    """1 + z^n + (-1-z)^n, expanded exactly."""
    coeffs = [0] * (n + 1)
    coeffs[0] += 1
    coeffs[n] += 1
    sign = 1 if n % 2 == 0 else -1
    b = 1
    for k in range(n + 1):
        coeffs[k] += sign * b
        b = b * (n - k) // (k + 1)
    return ExactPoly(coeffs, ring)


def trivial_factor(n: int, ring=ZZ) -> ExactPoly:
    """The factor of P_n supported on {0, -1, omega, omega^2}, by n mod 6."""
    z = ExactPoly([0, 1], ring)
    z1 = ExactPoly([1, 1], ring)
    w = ExactPoly([1, 1, 1], ring)
    table = {
        0: ExactPoly([1], ring),
        1: z * z1 * w * w,
        2: w,
        3: z * z1,
        4: w * w,
        5: z * z1 * w,
    }
    return table[n % 6]


def build_pq(n: int) -> PQDecomposition:
    if n < 2:
        raise ValueError("n must be at least 2")
    P = build_p(n)
    C = trivial_factor(n)
    try:
        Q = P.to_ring(QQ).exact_div(C.to_ring(QQ))
    except DivisionFailure as exc:  # pragma: no cover - would be a bug
        raise DivisionFailure(f"C_{n} does not divide P_{n}") from exc
    return PQDecomposition(n, P, C, Q)


def pair_zset(b: int, c: int) -> ZSet:
    """Z(b, c): roots of gcd(Q_b, Q_c), plus trivial-zero flags from the
    parity / mod-3 divisibility rules."""
    if not 2 <= b < c:
        raise ValueError("need 2 <= b < c")
    qb = build_pq(b).Q
    qc = build_pq(c).Q
    g = poly_gcd(qb, qc) if not (qb.is_constant() or qc.is_constant()) \
        else ExactPoly.one(QQ)
    return ZSet(
        defining_poly=g,
        zero_minus_one_present=(b * c) % 2 != 0,
        cube_roots_present=(b % 3 != 0 and c % 3 != 0),
        exponents=(b, c),
    )


def _system_polys(a: int, b: int, c: int, ring=ZZ) -> list[ExactPoly]:
    """The three x-polynomials every alpha in Z(a,b,c) must satisfy:
    (1+x^i)^j - (-1)^{i+j} (1+x^j)^i for pairs of exponents."""
    out = []
    for (i, j) in ((a, b), (a, c), (b, c)):
        left = _one_plus_pow(i, j, ring)
        right = _one_plus_pow(j, i, ring)
        sign = 1 if (i + j) % 2 == 0 else -1
        out.append(left - right.scale(sign))
    return out


def _one_plus_pow(i: int, j: int, ring) -> ExactPoly:
    """(1 + x^i)^j expanded."""
    base = ExactPoly([1] + [0] * (i - 1) + [1], ring)
    result = ExactPoly.one(ring)
    power = base
    e = j
    while e:
        if e & 1:
            result = result * power
        power = power * power
        e >>= 1
    return result


def _strip_trivial(f: ExactPoly) -> ExactPoly:
    """Remove all factors x, x+1, x^2+x+1 from a rational polynomial."""
    for lin in (ExactPoly([0, 1], QQ), ExactPoly([1, 1], QQ),
                ExactPoly([1, 1, 1], QQ)):
        while not f.is_constant():
            q, r = f.divmod(lin)
            if r.is_zero():
                f = q
            else:
                break
    return f


def _y_poly(exp: int, ring) -> list[ExactPoly]:
    """1 + x^e + y^e as a y-coefficient list over K[x]."""
    const = ExactPoly([1] + [0] * (exp - 1) + [1], ring)
    return [const] + [ExactPoly.zero(ring)] * (exp - 1) + [ExactPoly.one(ring)]


def _y_existence(q: ExactPoly, exps: tuple[int, int, int]):
    """For squarefree q over a field, decide on which factors of q the three
    y-polynomials share a common y-root, via quotient-ring gcds with dynamic
    splitting.  Returns (factors_with_root, factors_without)."""
    ring = q.ring
    polys = []
    for e in exps:
        ypoly = [QuotientElem(c, q) for c in _y_poly(e, ring)]
        polys.append(ypoly)
    with_root, without = [], []
    for modulus, gcd_y in quotient_poly_gcd(polys):
        if len(gcd_y) - 1 >= 1:
            with_root.append(modulus)
        else:
            without.append(modulus)
    return with_root, without


def triple_zset(a: int, b: int, c: int):
    """Z(a, b, c) for 2 <= a < b < c, gcd 1: gcd of the three pair
    polynomials, trivial factors stripped, then the mandatory y-existence
    check on the surviving squarefree residual."""
    if not (2 <= a < b < c):
        raise ValueError("need 2 <= a < b < c")
    if math.gcd(math.gcd(a, b), c) != 1:
        raise ValueError("need gcd(a, b, c) = 1")
    polys = [p.to_ring(QQ) for p in _system_polys(a, b, c)]
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    g = _strip_trivial(g)
    flags = dict(
        zero_minus_one_present=(a * b * c) % 2 != 0,
        cube_roots_present=(a % 3 and b % 3 and c % 3) != 0,
        exponents=(a, b, c),
    )
    if g.is_constant():
        return ZSet(ExactPoly.one(QQ), **flags)
    q = squarefree_part(g).to_ring(QQ).monic()
    with_root, _ = _y_existence(q, (a, b, c))
    if not with_root:
        return ZSet(ExactPoly.one(QQ), **flags)
    poly = ExactPoly.one(QQ)
    for fac in with_root:
        poly = poly * fac
    return ZSet(poly.monic(), **flags)


def regseq2(a: int, b: int, characteristic: int = 0) -> RegSeqVerdict:
    """p_a, p_b in two variables: regular iff char != 2 and a/d or b/d even."""
    if a <= 0 or b <= 0 or a == b:
        raise ValueError("need distinct positive exponents")
    d = math.gcd(a, b)
    field = "QQ" if characteristic == 0 else f"GF({characteristic})"
    if characteristic == 2:
        return RegSeqVerdict((a, b), field, "NotRegular", witness="char 2")
    if (a // d) % 2 == 0 or (b // d) % 2 == 0:
        return RegSeqVerdict((a, b), field, "Regular")
    return RegSeqVerdict((a, b), field, "NotRegular",
                         witness="both reduced exponents odd: common zero (1, -1)")


def regseq3_rational(a: int, b: int, c: int) -> RegSeqVerdict:
    """p_a, p_b, p_c in three variables over characteristic 0."""
    if not 0 < a < b < c:
        raise ValueError("need 0 < a < b < c")
    d = math.gcd(math.gcd(a, b), c)
    a, b, c = a // d, b // d, c // d
    exps = (a, b, c)
    if (a * b * c) % 2 != 0:
        return RegSeqVerdict(exps, "QQ", "NotRegular",
                             witness="trivial zeros {0, -1}: all exponents odd")
    if a % 3 and b % 3 and c % 3:
        return RegSeqVerdict(exps, "QQ", "NotRegular",
                             witness="trivial cube-root zeros: 3 divides no exponent")
    if a == 1:
        z = pair_zset(b, c)
        if z.is_empty:
            return RegSeqVerdict(exps, "QQ", "Regular")
        return RegSeqVerdict(exps, "QQ", "NotRegular", witness=z.defining_poly)
    z = triple_zset(a, b, c)
    if z.is_empty:
        return RegSeqVerdict(exps, "QQ", "Regular")
    return RegSeqVerdict(exps, "QQ", "NotRegular", witness=z.defining_poly)


def regseq3_mod_p(a: int, b: int, c: int, p: int) -> RegSeqVerdict:
    """Existence of a common projective zero of p_a, p_b, p_c over the
    algebraic closure of F_p, by exhaustive chart cover:
    (z=1) via elimination, (z=0, y=1) via univariate gcd, plus (1,0,0)."""
    if not 0 < a < b < c:
        raise ValueError("need 0 < a < b < c")
    if p == 2:
        raise BadPrime("p = 2 not supported")
    if (a * b * c) % p == 0:
        raise BadPrime("p divides an exponent")
    ring = GF(p)
    field = f"GF({p})"
    exps = (a, b, c)

    # chart z = 0, y = 1: common root of x^a + 1, x^b + 1, x^c + 1
    def xk1(k):
        return ExactPoly([1] + [0] * (k - 1) + [1], ring)

    g0 = poly_gcd(poly_gcd(xk1(a), xk1(b)), xk1(c))
    if g0.degree >= 1:
        return RegSeqVerdict(exps, field, "NotRegular",
                             witness=("chart z=0", g0))
    # the single remaining point (1, 0, 0): p_a = 1 != 0 there, never a zero

    # chart z = 1
    if a == 1:
        pb = build_p(b, ring)
        pc = build_p(c, ring)
        g = poly_gcd(pb, pc)
        if g.degree >= 1:
            return RegSeqVerdict(exps, field, "NotRegular", witness=("chart z=1", g))
        return RegSeqVerdict(exps, field, "Regular")

    f1, f2, f3 = _y_poly(a, ring), _y_poly(b, ring), _y_poly(c, ring)
    r12 = resultant_bivariate(f1, f2)
    r13 = resultant_bivariate(f1, f3)
    h = poly_gcd(r12, r13) if not (r12.is_zero() or r13.is_zero()) else None
    if h is None:
        # a whole curve of common solutions of two of the equations
        h = r12 if r13.is_zero() else r13
        if h.is_zero():
            # both eliminations degenerate; do not guess
            return RegSeqVerdict(exps, field, "Unknown",
                                 witness=("chart z=1", "shared components"))
    if h.degree < 1:
        return RegSeqVerdict(exps, field, "Regular")
    for q, _mult in factor_mod_p(squarefree_part(h)):
        with_root, _ = _y_existence(q.monic(), exps)
        if with_root:
            return RegSeqVerdict(exps, field, "NotRegular",
                                 witness=("chart z=1", with_root[0]))
    return RegSeqVerdict(exps, field, "Regular")
