"""Dense univariate polynomial algebra over Q, Z, and prime fields.

Coefficients are stored constant term first.  Ring tags are "QQ", "ZZ", or
("GF", p).  The gcd over Q/Z runs through the primitive-part subresultant
sequence over Z (deterministic), with a modular shortcut for detecting
trivial gcds: if the gcd mod a prime not dividing either leading
coefficient is constant, the rational gcd is constant.

Also provides: univariate resultants, squarefree part, factorization over
F_p, multi-prime irreducibility certificates over Z, and quotient-ring
arithmetic with dynamic splitting.

One distinct-degree kernel serves both F_p consumers.  It applies the
Frobenius map h -> h^p mod f as a precomputed matrix (rows x^(i*p) mod f)
and yields the blocks (d, product of the degree-d factors).  The
irreducibility certificate reads its factor-degree patterns straight from
the blocks (`ddf_degrees`); `factor_mod_p` splits the blocks further by
Cantor-Zassenhaus equal-degree splitting.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import DivisionFailure, DomainError, RingMismatch

RingTag = Union[str, tuple]

QQ = "QQ"
ZZ = "ZZ"


def GF(p: int) -> tuple:
    return ("GF", p)


def _zero(ring: RingTag):
    return Fraction(0) if ring == QQ else 0


def _one(ring: RingTag):
    return Fraction(1) if ring == QQ else 1


class ExactPoly:
    """Dense univariate polynomial with exact coefficients."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs: Sequence, ring: RingTag = QQ):
        if isinstance(ring, tuple):
            p = ring[1]
            coeffs = [int(c) % p for c in coeffs]
        elif ring == QQ:
            coeffs = [Fraction(c) for c in coeffs]
        else:
            coeffs = [int(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = coeffs
        self.ring = ring

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingTag = QQ) -> "ExactPoly":
        return cls([], ring)

    @classmethod
    def one(cls, ring: RingTag = QQ) -> "ExactPoly":
        return cls([_one(ring)], ring)

    @classmethod
    def x(cls, ring: RingTag = QQ) -> "ExactPoly":
        return cls([_zero(ring), _one(ring)], ring)

    @classmethod
    def monomial(cls, degree: int, coeff=1, ring: RingTag = QQ) -> "ExactPoly":
        return cls([_zero(ring)] * degree + [coeff], ring)

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            return _zero(self.ring)
        return self.coeffs[-1]

    def constant(self):
        return self.coeffs[0] if self.coeffs else _zero(self.ring)

    def __getitem__(self, i: int):
        return self.coeffs[i] if i < len(self.coeffs) else _zero(self.ring)

    def __eq__(self, other):
        return isinstance(other, ExactPoly) and self.ring == other.ring and \
            self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, tuple(self.coeffs)))

    def _check(self, other: "ExactPoly"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __repr__(self):
        return f"ExactPoly({self.coeffs}, ring={self.ring})"

    # -- ring maps ------------------------------------------------------------

    def to_ring(self, ring: RingTag) -> "ExactPoly":
        if ring == self.ring:
            return self
        if self.ring == ZZ:
            return ExactPoly(self.coeffs, ring)
        if self.ring == QQ and ring == ZZ:
            if any(c.denominator != 1 for c in self.coeffs):
                raise RingMismatch("non-integer coefficients")
            return ExactPoly([c.numerator for c in self.coeffs], ZZ)
        if self.ring == QQ and isinstance(ring, tuple):
            p = ring[1]
            out = []
            for c in self.coeffs:
                if c.denominator % p == 0:
                    raise RingMismatch(f"denominator divisible by {p}")
                out.append(c.numerator * pow(c.denominator, -1, p) % p)
            return ExactPoly(out, ring)
        raise RingMismatch(f"cannot map {self.ring} to {ring}")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly([self[i] + other[i] for i in range(n)], self.ring)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPoly([self[i] - other[i] for i in range(n)], self.ring)

    def __neg__(self):
        return ExactPoly([-c for c in self.coeffs], self.ring)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return ExactPoly.zero(self.ring)
        out = [_zero(self.ring)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ExactPoly(out, self.ring)

    __rmul__ = __mul__
    __radd__ = __add__

    def _coerce(self, other) -> "ExactPoly":
        if isinstance(other, ExactPoly):
            return other
        return ExactPoly([other], self.ring)

    def scale(self, s) -> "ExactPoly":
        return ExactPoly([c * s for c in self.coeffs], self.ring)

    def divmod(self, other: "ExactPoly") -> tuple["ExactPoly", "ExactPoly"]:
        """Division with remainder; over ZZ the divisor's leading coefficient
        must divide exactly at every step (use over fields otherwise)."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ring = self.ring
        rem = list(self.coeffs)
        dlead = other.leading()
        dq = other.degree
        if len(rem) - 1 < dq:
            return ExactPoly.zero(ring), ExactPoly(rem, ring)
        quot = [_zero(ring)] * (len(rem) - dq)
        inv = None
        if isinstance(ring, tuple):
            inv = pow(dlead, -1, ring[1])
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if not c:
                continue
            if ring == QQ:
                q = c / dlead
            elif inv is not None:
                q = c * inv % ring[1]
            else:
                if c % dlead:
                    raise DivisionFailure("inexact leading division over ZZ")
                q = c // dlead
            quot[i - dq] = q
            for j, b in enumerate(other.coeffs):
                rem[i - dq + j] -= q * b
        return ExactPoly(quot, ring), ExactPoly(rem[:dq], ring)

    def __floordiv__(self, other):
        return self.divmod(self._coerce(other))[0]

    def __mod__(self, other):
        return self.divmod(self._coerce(other))[1]

    def exact_div(self, other: "ExactPoly") -> "ExactPoly":
        if self.ring == ZZ:
            q, r = self.to_ring(QQ).divmod(other.to_ring(QQ))
            if not r.is_zero():
                raise DivisionFailure("inexact polynomial division")
            return q.to_ring(ZZ)
        q, r = self.divmod(other)
        if not r.is_zero():
            raise DivisionFailure("inexact polynomial division")
        return q

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if isinstance(self.ring, tuple) and isinstance(acc, int):
            acc %= self.ring[1]
        return acc

    def derivative(self) -> "ExactPoly":
        return ExactPoly([i * c for i, c in enumerate(self.coeffs)][1:], self.ring)

    def monic(self) -> "ExactPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        ring = self.ring
        if ring == QQ:
            return self.scale(Fraction(1) / lead)
        if isinstance(ring, tuple):
            return self.scale(pow(lead, -1, ring[1]))
        raise RingMismatch("monic() needs a field ring tag")

    def content(self) -> int:
        """Content over ZZ (gcd of coefficients, sign of leading coeff)."""
        if self.ring != ZZ:
            raise RingMismatch("content() is defined over ZZ")
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        if g == 0:
            return 0
        return g if self.leading() > 0 else -g

    def primitive_part(self) -> "ExactPoly":
        if self.ring == QQ:
            return _rational_to_primitive(self)
        c = self.content()
        if c == 0:
            return self
        return ExactPoly([a // c for a in self.coeffs], ZZ)

    def shift_compose_negate(self) -> "ExactPoly":
        """p(-1 - x), used for the power-sum constructions."""
        # compose with (-1 - x) by Horner
        res = ExactPoly.zero(self.ring)
        arg = ExactPoly([-_one(self.ring), -_one(self.ring)], self.ring)
        for c in reversed(self.coeffs):
            res = res * arg + ExactPoly([c], self.ring)
        return res


def _rational_to_primitive(f: ExactPoly) -> ExactPoly:
    """Primitive integer polynomial proportional to f (positive leading coeff)."""
    if f.is_zero():
        return ExactPoly.zero(ZZ)
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    return ExactPoly(ints, ZZ).primitive_part()


# -- gcd and resultants -------------------------------------------------------


def poly_gcd(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """Greatest common divisor; monic over fields, primitive over ZZ."""
    if f.ring != g.ring:
        raise RingMismatch(f"{f.ring} vs {g.ring}")
    if f.is_zero() and g.is_zero():
        raise ZeroDivisionError("gcd(0, 0)")
    if f.is_zero():
        return _gcd_normalize(g)
    if g.is_zero():
        return _gcd_normalize(f)
    if isinstance(f.ring, tuple):
        a, b = f, g
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()
    # Q or Z: compute over Z via the subresultant sequence
    fz = f.primitive_part()
    gz = g.primitive_part()
    if _modular_gcd_is_trivial(fz, gz):
        one = ExactPoly.one(f.ring)
        return one
    gz_prim = _subresultant_gcd(fz, gz)
    if f.ring == ZZ:
        return gz_prim
    return gz_prim.to_ring(QQ).monic()


def _gcd_normalize(h: ExactPoly) -> ExactPoly:
    if isinstance(h.ring, tuple) or h.ring == QQ:
        return h.monic()
    return h.primitive_part()


_GCD_CHECK_PRIME = (1 << 31) - 1  # Mersenne prime, convenient and large


def _modular_gcd_is_trivial(f: ExactPoly, g: ExactPoly) -> bool:
    """Sound shortcut: gcd over Q is constant if gcd mod p is, for p not
    dividing either leading coefficient."""
    p = _GCD_CHECK_PRIME
    if f.leading() % p == 0 or g.leading() % p == 0:
        return False
    fp = f.to_ring(GF(p))
    gp = g.to_ring(GF(p))
    return poly_gcd(fp, gp).degree == 0


def _subresultant_gcd(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """Primitive gcd of primitive integer polynomials via the primitive
    pseudo-remainder sequence (deterministic, coefficient growth kept down
    by taking primitive parts at every step)."""
    if f.degree < g.degree:
        f, g = g, f
    a, b = f, g
    while not b.is_zero():
        if b.degree == 0:
            return ExactPoly([1], ZZ)
        r = _pseudo_rem(a, b).primitive_part()
        a, b = b, r
    result = a.primitive_part()
    if result.leading() < 0:
        result = -result
    return result


def _pseudo_rem(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    d = a.degree - b.degree
    lead = b.leading()
    scaled = a.scale(lead ** (d + 1))
    _, r = scaled.to_ring(QQ).divmod(b.to_ring(QQ))
    return r.to_ring(ZZ)


def resultant(f: ExactPoly, g: ExactPoly):
    """Resultant of univariate polynomials; exact scalar in the coefficient
    ring.  Zero iff the inputs share a nonconstant factor."""
    if f.ring != g.ring:
        raise RingMismatch(f"{f.ring} vs {g.ring}")
    ring = f.ring
    if isinstance(ring, tuple):
        p = ring[1]
        return _resultant_field(f, g, lambda c: pow(c, -1, p),
                                lambda x: x % p)
    fq, gq = f.to_ring(QQ), g.to_ring(QQ)
    res = _resultant_field(fq, gq, lambda c: Fraction(1) / c, lambda x: x)
    if ring == ZZ:
        return int(res)
    return res


def _resultant_field(f: ExactPoly, g: ExactPoly, inv, norm):
    zero = _zero(f.ring)
    if f.is_zero() or g.is_zero():
        return norm(zero)
    acc = _one(f.ring)
    a, b = f, g
    sign = 1
    while True:
        if b.degree == 0:
            acc = norm(acc * _pow(b.leading(), a.degree, norm))
            return norm(acc if sign > 0 else -acc)
        if a.degree < b.degree:
            if (a.degree * b.degree) % 2:
                sign = -sign
            a, b = b, a
            continue
        r = a % b
        if r.is_zero():
            return norm(zero)
        if (a.degree * b.degree) % 2:
            sign = -sign
        acc = norm(acc * _pow(b.leading(), a.degree - r.degree, norm))
        a, b = b, r


def _pow(base, e, norm):
    out = 1
    for _ in range(e):
        out = norm(out * base)
    return out


def squarefree_part(f: ExactPoly) -> ExactPoly:
    """Product of the distinct irreducible factors of f (primitive over Z/Q,
    monic over prime fields)."""
    if f.is_zero():
        raise ZeroDivisionError("squarefree part of zero")
    if f.is_constant():
        return _gcd_normalize(f) if not f.is_zero() else f
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return _gcd_normalize(f)
    if f.ring == ZZ:
        return f.primitive_part().exact_div(g).primitive_part()
    return _gcd_normalize(f.exact_div(g))


# -- factorization over prime fields ------------------------------------------


def factor_mod_p(f: ExactPoly) -> list[tuple[ExactPoly, int]]:
    """Factor a nonzero polynomial over F_p (p odd) into monic irreducibles
    with multiplicities.  Squarefree decomposition feeds each squarefree
    part to the distinct-degree kernel `_ddf_blocks`; equal-degree splitting
    then runs on its blocks only."""
    ring = f.ring
    if not isinstance(ring, tuple):
        raise RingMismatch(f"factor_mod_p needs a prime field, not {ring}")
    p = ring[1]
    if f.is_zero():
        raise ZeroDivisionError("factor of zero")
    factors: dict[ExactPoly, int] = {}
    stack = [(f.monic(), 1)]
    while stack:
        g, mult = stack.pop()
        if g.degree == 0:
            continue
        d = poly_gcd(g, g.derivative())
        if d.degree == g.degree:
            # g = h(x)^p
            step = p
            h = ExactPoly([g[i * step] for i in range(g.degree // step + 1)], ring)
            stack.append((h, mult * p))
            continue
        if d.degree > 0:
            stack.append((g.exact_div(d), mult))
            stack.append((d, mult))
            continue
        for deg, block in _ddf_blocks(g):
            for q in _equal_degree_split(block, deg, p):
                factors[q] = factors.get(q, 0) + mult
    return sorted(factors.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs))


def ddf_degrees(f: ExactPoly) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of a squarefree f over F_p,
    read from its distinct-degree blocks without splitting them."""
    if not isinstance(f.ring, tuple):
        raise RingMismatch(f"ddf_degrees needs a prime field, not {f.ring}")
    if poly_gcd(f, f.derivative()).degree > 0:
        raise DomainError("ddf_degrees needs a squarefree polynomial")
    return tuple(sorted(d for d, block in _ddf_blocks(f.monic())
                        for _ in range(block.degree // d)))


def _ddf_blocks(f: ExactPoly) -> list[tuple[int, ExactPoly]]:
    """Distinct-degree factorization of a monic squarefree f over F_p: pairs
    (d, g) where g is the monic product of the degree-d irreducible factors.

    The Frobenius map h -> h^p mod f is linear over F_p, so it is applied as
    a matrix whose column j holds coefficient j of x^(i*p) mod f over all i
    (von zur Gathen-Shoup).  h stays reduced mod f rather than mod the
    unfactored rest v: gcd(v, h - x) is the same because v divides f."""
    ring = f.ring
    p = ring[1]
    n = f.degree
    x = ExactPoly.x(ring)
    xp = _powmod(x, p, f)
    rows = [ExactPoly.one(ring)]
    for _ in range(1, n):
        rows.append(rows[-1] * xp % f)
    columns = [[row[j] for row in rows] for j in range(n)]
    blocks = []
    h = x
    v = f
    d = 0
    while v.degree > 0:
        d += 1
        if 2 * d > v.degree:
            blocks.append((v.degree, v))
            break
        hc = h.coeffs
        h = ExactPoly([sum(map(operator.mul, hc, col)) for col in columns], ring)
        g = poly_gcd(v, h - x)
        if g.degree > 0:
            blocks.append((d, g))
            v = v.exact_div(g)
    return blocks


def _powmod(base: ExactPoly, e: int, mod: ExactPoly) -> ExactPoly:
    result = ExactPoly.one(base.ring)
    base = base % mod
    while e:
        if e & 1:
            result = result * base % mod
        base = base * base % mod
        e >>= 1
    return result


def _equal_degree_split(f: ExactPoly, d: int, p: int) -> list[ExactPoly]:
    """Cantor-Zassenhaus with a deterministic RNG seed for reproducibility."""
    if f.degree == d:
        return [f.monic()]
    ring = f.ring
    rng = random.Random(0xC0FFEE ^ hash((p, d, tuple(f.coeffs))) & 0xFFFFFFFF)
    while True:
        a = ExactPoly([rng.randrange(p) for _ in range(f.degree)], ring)
        if a.degree < 1:
            continue
        g = poly_gcd(f, a)
        if not 0 < g.degree < f.degree:
            b = _powmod(a, (p ** d - 1) // 2, f) - ExactPoly.one(ring)
            g = poly_gcd(f, b)
            if not 0 < g.degree < f.degree:
                continue
        return _equal_degree_split(g, d, p) + _equal_degree_split(f.exact_div(g), d, p)


# -- irreducibility certificates over Z ---------------------------------------


@dataclass
class IrreducibilityCertificate:
    polynomial: ExactPoly
    primes: list[int]
    degree_patterns: list[tuple[int, ...]]
    verdict: str  # "Irreducible" | "Inconclusive"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_from(start: int):
    n = start if start % 2 else start + 1
    while True:
        if _is_prime(n):
            yield n
        n += 2


def _subset_sums(degrees: Sequence[int]) -> frozenset:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return frozenset(sums)


def certify_irreducible(f: ExactPoly, prime_budget: int = 40) -> IrreducibilityCertificate:
    """Sufficient irreducibility certificate over Z via factor-degree patterns
    modulo several large primes.  "Irreducible" is sound; "Inconclusive" is
    always a permitted outcome."""
    fz = f.to_ring(ZZ) if f.ring != ZZ else f
    deg = fz.degree
    achievable = None
    primes_used = []
    patterns = []
    disc = resultant(fz, fz.derivative())
    if disc == 0:  # no prime would be usable
        raise DomainError("certify_irreducible needs a squarefree "
                          "nonconstant polynomial")
    gen = _primes_from((1 << 30) + 1)
    while len(primes_used) < prime_budget:
        p = next(gen)
        if fz.leading() % p == 0 or disc % p == 0:
            continue
        degs = ddf_degrees(fz.to_ring(GF(p)))
        primes_used.append(p)
        patterns.append(degs)
        sums = _subset_sums(degs)
        achievable = sums if achievable is None else achievable & sums
        if achievable == frozenset({0, deg}):
            return IrreducibilityCertificate(fz, primes_used, patterns, "Irreducible")
    return IrreducibilityCertificate(fz, primes_used, patterns, "Inconclusive")


# -- quotient-ring arithmetic with dynamic splitting --------------------------


@dataclass
class Split:
    """Nontrivial factorization of a quotient modulus, discovered during an
    attempted inversion.  A normal outcome, not an error."""
    factors: tuple[ExactPoly, ExactPoly]


@dataclass(frozen=True)
class QuotientElem:
    representative: ExactPoly
    modulus: ExactPoly

    def __post_init__(self):
        object.__setattr__(self, "representative",
                           self.representative % self.modulus)

    def _check(self, other: "QuotientElem"):
        if self.modulus != other.modulus:
            raise RingMismatch("mismatched quotient moduli")

    def __add__(self, other):
        self._check(other)
        return QuotientElem(self.representative + other.representative, self.modulus)

    def __sub__(self, other):
        self._check(other)
        return QuotientElem(self.representative - other.representative, self.modulus)

    def __mul__(self, other):
        self._check(other)
        return QuotientElem(self.representative * other.representative, self.modulus)

    def is_zero(self) -> bool:
        return self.representative.is_zero()

    def inverse_or_split(self):
        """Inverse when the representative is a unit mod the modulus;
        otherwise a Split of the modulus."""
        g, s = _half_xgcd(self.representative, self.modulus)
        if g.degree == 0:
            inv = s.scale(_inv_scalar(g.leading(), self.modulus.ring))
            return QuotientElem(inv, self.modulus)
        co = self.modulus.exact_div(g)
        return Split((_gcd_normalize(g), _gcd_normalize(co)))


def _inv_scalar(c, ring: RingTag):
    if ring == QQ:
        return Fraction(1) / c
    if isinstance(ring, tuple):
        return pow(c, -1, ring[1])
    raise RingMismatch("inverse needs a field")


def _half_xgcd(a: ExactPoly, m: ExactPoly):
    """gcd(a, m) plus the Bezout coefficient of a."""
    r0, r1 = m, a
    s0, s1 = ExactPoly.zero(a.ring), ExactPoly.one(a.ring)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    return r0, s0


def quotient_poly_gcd(polys: Sequence[Sequence[QuotientElem]]):
    """gcd of y-polynomials with coefficients in K[x]/(q), with dynamic
    splitting of the modulus.

    Each y-polynomial is a list of QuotientElem (constant term first).
    Returns a list of (modulus factor, gcd as list of ExactPoly reps) pairs
    covering all branches of the splitting tree.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    modulus = polys[0][0].modulus
    raw = [[c.representative for c in p] for p in polys]
    return _qgcd_branch(raw, modulus)


def _qgcd_branch(raw_polys, modulus: ExactPoly):
    polys = []
    for p in raw_polys:
        coeffs = [c % modulus for c in p]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if coeffs:
            polys.append(coeffs)
    if not polys:
        return [(modulus, [])]
    g = polys[0]
    for p in polys[1:]:
        branches = _euclid_quotient(g, p, modulus)
        if any(m.degree != modulus.degree for m, _ in branches):
            # the modulus split: redo the whole fold on every factor
            return [out for m, _ in branches
                    for out in _qgcd_branch(raw_polys, m)]
        g = branches[0][1]
    return _make_monic_branch(g, modulus)


def _euclid_quotient(a, b, modulus: ExactPoly):
    """One Euclidean gcd over K[x]/(q)[y]; yields (modulus, gcd) and may
    instead surface a split by yielding sub-branches."""
    a = [c % modulus for c in a]
    b = [c % modulus for c in b]
    while True:
        b = _trim(b, modulus)
        if not b:
            return [(modulus, _trim(a, modulus))]
        lead = QuotientElem(b[-1], modulus)
        inv = lead.inverse_or_split()
        if isinstance(inv, Split):
            results = []
            for fac in inv.factors:
                results.extend(_qgcd_branch([a, b], fac))
            return results
        binv = inv.representative
        bm = [c * binv % modulus for c in b]
        r = _poly_mod_quotient(a, bm, modulus)
        a, b = bm, r


def _trim(p, modulus):
    p = [c % modulus for c in p]
    while p and p[-1].is_zero():
        p.pop()
    return p


def _poly_mod_quotient(a, b_monic, modulus):
    a = [c % modulus for c in a]
    db = len(b_monic) - 1
    while len(a) - 1 >= db:
        if a[-1].is_zero():
            a.pop()
            continue
        c = a[-1]
        shift = len(a) - 1 - db
        for i, bc in enumerate(b_monic):
            a[shift + i] = (a[shift + i] - c * bc) % modulus
        a.pop()
    return a


def _make_monic_branch(g, modulus):
    """Branches (modulus factor, monic gcd) for g; a zero-divisor leading
    coefficient splits the modulus and each factor is normalized anew."""
    g = _trim(g, modulus)
    if not g:
        return [(modulus, [])]
    inv = QuotientElem(g[-1], modulus).inverse_or_split()
    if isinstance(inv, Split):
        return [out for fac in inv.factors for out in _qgcd_branch([g], fac)]
    return [(modulus, [c * inv.representative % modulus for c in g])]
