"""Power-sum specific polynomials and common-zero decisions.

Builds P_n(z) = 1 + z^n + (-1-z)^n with its trivial factor C_n (supported on
{0, -1, omega, omega^2}) and cofactor Q_n, and decides regular-sequence
questions for two and three power sums over characteristic 0 and over prime
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import BadPrime, VerificationFailed
from .unipoly import (ExactPoly, GF, QQ, ZZ, _half_xgcd, _is_prime, _w_form,
                      poly_gcd, squarefree_part)


@dataclass(frozen=True)
class PQDecomposition:
    n: int
    P: ExactPoly  # over ZZ
    C: ExactPoly  # over ZZ
    Q: ExactPoly  # over ZZ, P = C * Q exactly
    Q_zz: ExactPoly  # over ZZ, the primitive part of Q (positive leading)
    R: ExactPoly  # over ZZ, the invariant form: Q_zz = w^(2k) R(W / w^2)


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
    verdict: str  # "Regular" | "NotRegular"
    witness: Optional[object] = None


def build_p(n: int) -> ExactPoly:
    """1 + z^n + (-1-z)^n, expanded exactly."""
    coeffs = [0] * (n + 1)
    coeffs[0] += 1
    coeffs[n] += 1
    sign = 1 if n % 2 == 0 else -1
    b = 1
    for k in range(n + 1):
        coeffs[k] += sign * b
        b = b * (n - k) // (k + 1)
    return ExactPoly(coeffs, ZZ)


def trivial_factor(n: int) -> ExactPoly:
    """The factor of P_n supported on {0, -1, omega, omega^2}: z (z + 1)
    if n is odd, times (z^2 + z + 1)^m with m = 0, 2, 1 for n = 0, 1, 2
    mod 3 (omega is a double root of P_n when n = 1 mod 3)."""
    c = ExactPoly([0, 1, 1] if n % 2 else [1], ZZ)
    for _ in range((0, 2, 1)[n % 3]):
        c = c * ExactPoly([1, 1, 1], ZZ)
    return c


def _trivial_zeros(*exps: int) -> tuple[bool, bool]:
    """(every exponent odd, 3 divides no exponent): whether the power sums
    share the trivial zeros z in {0, -1}, i.e. coordinates 0 and +-1, and
    the cube-root zeros (1, omega, omega^2)."""
    return all(e % 2 for e in exps), all(e % 3 for e in exps)


def build_pq(n: int) -> PQDecomposition:
    """P_n = C_n * Q_n.  Built once per n and process; every caller gets the
    same object, so its polynomials must not be mutated."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return _pq(n)


@lru_cache(maxsize=None)
def _pq(n: int) -> PQDecomposition:
    """The decomposition of P_n, with the invariant form R_n of Q_n.

    The roots of Q_n are closed under z -> 1/z and z -> -1-z, and
    p_n(1, z, -1-z) has e1 = 0, so by Newton's identities it is a weighted
    form in e2 = -(w + 1) and e3 = -w, with w = z^2 + z.  Hence, with
    W = (w + 1)^3 and k = deg(Q_n) / 6,
    Q_n(z) = sum_j r_j W^j w^(2(k-j)) = w^(2k) R_n(W / w^2),
    where R_n(J) = sum_j r_j J^j has degree k and r_k = Q_n(0) != 0.
    `_invariant_form` peels R_n off Q_n over ZZ and raises
    VerificationFailed unless the identity holds exactly."""
    P = build_p(n)
    C = trivial_factor(n)
    Q = P.exact_div(C)  # exact over ZZ, since C is monic
    Q_zz = Q.primitive_part()
    return PQDecomposition(n, P, C, Q, Q_zz, _invariant_form(Q_zz))


def _invariant_form(q: ExactPoly) -> ExactPoly:
    """R over ZZ with q = sum_j r_j W^j w^(2(k-j)), w = z^2 + z,
    W = (w + 1)^3, k = deg(q) / 6 and R(J) = sum_j r_j J^j, for an integer
    polynomial q.  First q = S(w) (`unipoly._w_form`); then r_k, ..., r_0
    in turn are read off the low end of S and r_j (w + 1)^(3j) w^(2(k-j))
    is subtracted.  The form is exact only if nothing is left and
    r_k = q(0) is nonzero; anything else raises VerificationFailed."""
    if q.constant() == 0:
        raise VerificationFailed("invariant form needs q(0) = r_k != 0")
    s = _w_form(q.coeffs)
    if s is None:
        raise VerificationFailed("q is not a polynomial in z^2 + z")
    k = q.degree // 6
    r = [0] * (k + 1)
    for j in range(k, -1, -1):
        low = 2 * (k - j)
        r[j] = rj = s[low]
        if rj:
            for i in range(3 * j + 1):
                s[low + i] -= rj * math.comb(3 * j, i)
    if any(s):
        raise VerificationFailed("q is not a form in (z^2 + z + 1)^3 and "
                                 "(z^2 + z)^2")
    return ExactPoly(r, ZZ)


def pair_zset(b: int, c: int) -> ZSet:
    """Z(b, c): roots of gcd(Q_b, Q_c), plus trivial-zero flags from the
    parity / mod-3 divisibility rules.  The gcd is decided on the invariant
    forms R_b, R_c first (see `_pair_gcd`)."""
    if not 2 <= b < c:
        raise ValueError("need 2 <= b < c")
    pb, pc = build_pq(b), build_pq(c)
    return ZSet(_pair_gcd(pb.Q_zz, pb.R, pc.Q_zz, pc.R),
                *_trivial_zeros(b, c), (b, c))


def _pair_gcd(qb: ExactPoly, rb: ExactPoly, qc: ExactPoly,
              rc: ExactPoly) -> ExactPoly:
    """Monic gcd(qb, qc) over QQ, for cofactors with invariant forms rb, rc
    (`_invariant_form`).  A common root z0 of qb and qc has w(z0) != 0,
    since at w = 0 each form equals its r_k != 0; so J(z0) = W / w^2 is a
    finite common root of rb and rc.  A constant gcd(rb, rc), of degree at
    most deg(q) / 6, therefore proves gcd(qb, qc) = 1.  Only a nonconstant
    one sends the pair to the z-degree gcd, which gives the exact zero set."""
    if (rb.is_constant() or rc.is_constant()
            or poly_gcd(rb, rc).is_constant()):
        return ExactPoly.one(QQ)
    return poly_gcd(qb, qc).to_ring(QQ).monic()


def _one_plus_pow(i: int, j: int, ring) -> ExactPoly:
    """(1 + x^i)^j expanded: the binomial C(j, k) at x^(i k)."""
    coeffs = [0] * (i * j + 1)
    for k in range(j + 1):
        coeffs[i * k] = math.comb(j, k)
    return ExactPoly(coeffs, ring)


@lru_cache(maxsize=None)
def _reciprocal_form(i: int, j: int) -> ExactPoly:
    """F over ZZ with f = x^e (1 + x)^r x^(deg F) F(x + 1/x), r in {0, 1},
    for the pair polynomial f = (1 + x^i)^j - (-1)^(i+j) (1 + x^j)^i.
    x^(ij) f(1/x) = f(x), so f / x^e is palindromic; f(1) = 2^j -+ 2^i != 0
    for i != j, so it is never anti-palindromic.  Cached per pair: callers
    must not mutate F."""
    sign = 1 if (i + j) % 2 == 0 else -1
    return _palindromic_form([
        u - sign * v for u, v in zip(_one_plus_pow(i, j, ZZ).coeffs,
                                     _one_plus_pow(j, i, ZZ).coeffs)])


def _palindromic_form(c: list) -> ExactPoly:
    """F over ZZ with sum_k c_k x^k = x^e (1 + x)^r x^(deg F) F(x + 1/x),
    r in {0, 1}, for the coefficients c of a nonzero integer polynomial.
    After x^e is stripped, an odd degree is divided once by x + 1, and the
    even palindrome c_0..c_(2m) left is x^m (c_m + sum_(k>=1) c_(m+k)
    V_k(x + 1/x)), with V_k(x + 1/x) = x^k + x^(-k): V_0 = 2, V_1 = y,
    V_(k+1) = y V_k - V_(k-1).  A nonzero remainder or a coefficient list
    that is not its own reverse raises VerificationFailed."""
    if not any(c):
        raise VerificationFailed("the zero polynomial has no reciprocal form")
    e = next(k for k, ck in enumerate(c) if ck)
    c = c[e:]
    while not c[-1]:
        c.pop()
    if len(c) % 2 == 0:  # odd degree: synthetic division by x + 1
        for k in range(len(c) - 1, 0, -1):
            c[k - 1] -= c[k]
        if c[0]:
            raise VerificationFailed("x + 1 does not divide an odd-degree "
                                     "palindrome")
        c = c[1:]
    if c != c[::-1]:
        raise VerificationFailed("the polynomial is not palindromic")
    m = len(c) // 2
    out = [0] * (m + 1)
    out[0] = c[m]
    v_prev, v = [2], [0, 1]
    for k in range(1, m + 1):
        ck = c[m + k]
        if ck:
            for t, vt in enumerate(v):
                out[t] += ck * vt
        v_next = [0] + v  # y V_k - V_(k-1)
        for t, wt in enumerate(v_prev):
            v_next[t] -= wt
        v_prev, v = v, v_next
    return ExactPoly(out, ZZ)


def _from_reciprocal(G: ExactPoly) -> ExactPoly:
    """x^(deg G) G(x + 1/x) over QQ, by Horner on the homogenised form:
    H <- (x^2 + 1) H + g_k x^(d-k) for k = d-1, ..., 0, from H = g_d."""
    d = G.degree
    h = [G.leading()]
    for k in range(d - 1, -1, -1):
        h = [u + v for u, v in zip(h + [0, 0], [0, 0] + h)]
        h[d - k] += G.coeffs[k]
    return ExactPoly(h, QQ)


def _y_resultant(a: int, b: int, ring) -> ExactPoly:
    """Res_y(1 + x^a + y^a, 1 + x^b + y^b) in closed form.  With
    u = 1 + x^a, v = 1 + x^b and g = gcd(a, b) it is
    (-1)^(a+g) ((-u)^(b/g) - (-v)^(a/g))^g: the b-th powers of the roots of
    y^a = -u run g times over the roots of z^(a/g) = (-u)^(b/g).  The
    identity holds in Z[u, v], so over every ring.

    For 0 < a < b it is never zero over GF(p) with p not dividing b: the
    x^a coefficient of (-u)^(b/g) is +-(b/g), a unit mod p, and (-v)^(a/g)
    holds only the powers x^(kb) with b > a, so the base is nonzero, and
    so is its g-th power over a field."""
    g = math.gcd(a, b)
    u_pow = _one_plus_pow(a, b // g, ring).scale((-1) ** (b // g))
    v_pow = _one_plus_pow(b, a // g, ring).scale((-1) ** (a // g))
    base = u_pow - v_pow
    out = ExactPoly.one(ring).scale((-1) ** (a + g))
    for _ in range(g):
        out = out * base
    return out


def _y_existence(q: ExactPoly, exps: tuple[int, int, int]):
    """For squarefree monic q over a field, decide on which factors of q the
    three curves 1 + x^e + y^e share a y-root.  Returns
    (factors_with_root, factors_without); their product is q.

    Over K[x]/(q) each curve is the binomial y^e - c with c = -1 - x^e, and
    a gcd of binomials is again a binomial.  For e >= f >= 1, over a field:
    if e = f there is a common root iff c = d; if d = 0 the only candidate
    root is y = 0, a common root iff c = 0; otherwise
    gcd(y^e - c, y^f - d) = gcd(y^f - d, y^(e-f) - c/d), since
    y^e = d y^(e-f) modulo y^f - d.  The exponents run through Euclid.
    K[x]/(q) is a product of fields, so every zero test splits q into the
    factor where the element vanishes and the factor where it is a unit
    (`_split`), and the loop goes on over each factor (dynamic evaluation,
    Della Dora-Dicrescenzo-Duval 1985), so q is never factored beyond what
    the zero tests split off.  Both three-exponent deciders reach it
    through `_y_root_part`."""
    ring = q.ring
    with_root, without = [], []
    # a factor m of q and the binomials (e, c) whose common y-roots over
    # K[x]/(m) are still open; the first two fold into one binomial
    stack = [(q, [(e, -_one_plus_pow(e, 1, ring)) for e in exps])]
    while stack:
        m, binomials = stack.pop()
        if len(binomials) == 1:
            with_root.append(m)
            continue
        (e, c), (f, d), *rest = binomials
        if e < f:
            (e, c), (f, d) = (f, d), (e, c)
        c, d = c % m, d % m
        for part, vanishes in _split(c - d if e == f else d, m):
            if e == f:
                if vanishes:
                    stack.append((part, [(e, c)] + rest))
                else:
                    without.append(part)
            elif vanishes:  # d = 0: y = 0 is a common root iff c = 0
                for sub, c_zero in _split(c, part):
                    if c_zero:
                        stack.append((sub, [(f, d)] + rest))
                    else:
                        without.append(sub)
            else:
                g, s = _half_xgcd(d % part, part)  # s d = g, a unit
                stack.append((part, [(f, d), (e - f, c * (s // g) % part)]
                              + rest))
    return with_root, without


def _y_root_part(h: ExactPoly, exps: tuple[int, int, int]) -> ExactPoly:
    """The monic product of the factors of squarefree_part(h), a
    nonconstant x-polynomial over a field, over which the three curves
    1 + x^e + y^e share a y-root (`_y_existence`); 1 when there is none."""
    out = ExactPoly.one(h.ring)
    for fac in _y_existence(squarefree_part(h), exps)[0]:
        out = out * fac
    return out


def _split(t: ExactPoly, m: ExactPoly) -> list[tuple[ExactPoly, bool]]:
    """Split a squarefree monic m by t: pairs (factor, t vanishes on it),
    gcd(m, t) where t is zero and m / gcd(m, t) where t is a unit, each
    present only if nonconstant.  An unsplit m comes back as itself."""
    g = poly_gcd(m, t)
    if g.degree == 0:
        return [(m, False)]
    if g.degree == m.degree:
        return [(m, True)]
    return [(g, True), (m.exact_div(g), False)]


def triple_zset(a: int, b: int, c: int):
    """Z(a, b, c) for 2 <= a < b < c, gcd 1: gcd of the three pair
    polynomials, trivial factors stripped (`_triple_gcd`), then the
    mandatory y-existence check on its squarefree part (`_y_root_part`)."""
    if not (2 <= a < b < c):
        raise ValueError("need 2 <= a < b < c")
    if math.gcd(math.gcd(a, b), c) != 1:
        raise ValueError("need gcd(a, b, c) = 1")
    g = _triple_gcd(a, b, c)
    poly = g if g.is_constant() else _y_root_part(g, (a, b, c))
    return ZSet(poly, *_trivial_zeros(a, b, c), (a, b, c))


def _triple_gcd(a: int, b: int, c: int) -> ExactPoly:
    """The monic gcd over QQ of the pair polynomials f_ab, f_ac, f_bc with
    every factor x, x + 1 and x^2 + x + 1 removed, for any a < b < c.

    It is decided on the reciprocal forms (`_reciprocal_form`): with
    Phi(G) = x^(deg G) G(x + 1/x), multiplicative and free of the root 0,
    Phi(y - y0) = x^2 - y0 x + 1 has two distinct roots unless y0 = +-2,
    so Phi commutes with gcd away from y = +-2.  y = 2 (x = 1) is never a
    root, as f(1) != 0; y = -2 gives x + 1 and y = -1 gives x^2 + x + 1,
    so stripping y + 2 and y + 1 from G = gcd(F_ab, F_ac, F_bc) first
    leaves Phi(G) equal to the stripped gcd of the f, exactly."""
    g = _reciprocal_form(a, b)
    for i, j in ((a, c), (b, c)):
        if g.is_constant():
            break
        g = poly_gcd(g, _reciprocal_form(i, j))
    g = g.to_ring(QQ).monic()
    # y + 2 = (x + 1)^2 / x and y + 1 = (x^2 + x + 1) / x
    for lin in (ExactPoly([2, 1], QQ), ExactPoly([1, 1], QQ)):
        while not g.is_constant():
            q, r = g.divmod(lin)
            if not r.is_zero():
                break
            g = q
    return _from_reciprocal(g)  # monic, as g is


def regseq2(a: int, b: int, characteristic: int = 0) -> RegSeqVerdict:
    """p_a, p_b in two variables: regular iff char != 2 and a/d or b/d even.
    The characteristic must be 0 or a prime, else BadPrime is raised."""
    if a <= 0 or b <= 0 or a == b:
        raise ValueError("need distinct positive exponents")
    if characteristic and not _is_prime(characteristic):
        raise BadPrime(f"characteristic {characteristic} is not 0 or a prime")
    d = math.gcd(a, b)
    field = "QQ" if characteristic == 0 else f"GF({characteristic})"
    if characteristic == 2:
        return RegSeqVerdict((a, b), field, "NotRegular", witness="char 2")
    if not _trivial_zeros(a // d, b // d)[0]:
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
    all_odd, no_three = _trivial_zeros(*exps)
    if all_odd:
        return RegSeqVerdict(exps, "QQ", "NotRegular",
                             witness="trivial zeros {0, -1}: all exponents odd")
    if no_three:
        return RegSeqVerdict(exps, "QQ", "NotRegular",
                             witness="trivial cube-root zeros: 3 divides no exponent")
    z = pair_zset(b, c) if a == 1 else triple_zset(a, b, c)
    if z.is_empty:
        return RegSeqVerdict(exps, "QQ", "Regular")
    return RegSeqVerdict(exps, "QQ", "NotRegular", witness=z.defining_poly)


def regseq3_mod_p(a: int, b: int, c: int, p: int) -> RegSeqVerdict:
    """Existence of a common projective zero of p_a, p_b, p_c over the
    algebraic closure of F_p, for any odd prime p not dividing abc (else
    BadPrime), by exhaustive chart cover: (z=0, y=1) via univariate gcd,
    the point (1,0,0), and (z=1) by the gcd of the closed-form resultants
    of p_a with p_b and with p_c (`_y_resultant`): P_b and P_c for a = 1,
    where y = -1 - x is a common root over every factor of the gcd.  For
    a >= 2, the squarefree part of the gcd goes to `_y_root_part`, as in
    `triple_zset`, and the chart z = 1 witness is the part of it where a
    common y-root exists: the radical of the x-elimination polynomial of
    the three curves."""
    if not 0 < a < b < c:
        raise ValueError("need 0 < a < b < c")
    if p == 2:
        raise BadPrime("p = 2 not supported")
    if not _is_prime(p):
        raise BadPrime(f"{p} is not a prime")
    if (a * b * c) % p == 0:
        raise BadPrime("p divides an exponent")
    ring = GF(p)
    field = f"GF({p})"
    exps = (a, b, c)

    # chart z = 0, y = 1: common root of x^a + 1, x^b + 1, x^c + 1
    fa, fb, fc = (_one_plus_pow(e, 1, ring) for e in exps)
    g0 = poly_gcd(poly_gcd(fa, fb), fc)
    if g0.degree >= 1:
        return RegSeqVerdict(exps, field, "NotRegular",
                             witness=("chart z=0", g0))
    # the single remaining point (1, 0, 0): p_a = 1 != 0 there, never a zero

    # chart z = 1; both resultants are nonzero, as p divides neither b nor c
    h = poly_gcd(_y_resultant(a, b, ring), _y_resultant(a, c, ring))
    if h.degree < 1:
        return RegSeqVerdict(exps, field, "Regular")
    if a == 1:  # y = -1 - x is a common root over every factor of h
        return RegSeqVerdict(exps, field, "NotRegular",
                             witness=("chart z=1", h))
    root_part = _y_root_part(h, exps)
    if root_part.is_constant():
        return RegSeqVerdict(exps, field, "Regular")
    return RegSeqVerdict(exps, field, "NotRegular",
                         witness=("chart z=1", root_part))
