"""Dense univariate polynomial algebra over Q, Z, and prime fields.

Coefficients are stored constant term first.  Ring tags are "QQ", "ZZ", or
("GF", p).  The gcd over Q/Z runs through the primitive-part subresultant
sequence over Z (deterministic), with a modular shortcut for detecting
trivial gcds: if the gcd mod a prime not dividing either leading
coefficient is constant, the rational gcd is constant.

Also provides: the squarefree part over every ring, p-th powers over F_p
included, multi-prime irreducibility certificates over Z, and
`_half_xgcd`, the inverse modulo a polynomial.  The deciders factor
nothing: they hand a squarefree part to `powersum._y_existence`, which
splits it only where a zero test does.  The one gcd over K[x]/(q) they
need is that of the binomials y^e - c, a binomial whose exponent comes
from Euclid on the exponents; `_y_existence` runs it and divides by
`_half_xgcd` inverses.

All F_p arithmetic runs in one packed kernel on flat int lists (`_fp_mul`,
`_fp_divmod`, `_fp_gcd`, and `_FpModulus` for a fixed modulus); the GF
branch of `ExactPoly` delegates to it, so there is a single F_p path.  A
product is one big-int multiply by Kronecker substitution: coefficient i
sits in bits [i*w, (i+1)*w) of a Python int, and w is the bit length of
terms * (p - 1)**2, where `terms` bounds the number of residue products
that meet in one slot.  No slot can then carry into the next, so unpacking
each slot and reducing it mod p gives the exact product.  Modulo f of
degree n, `_FpModulus` keeps the packed rows x^(n+k) mod f: each high slot
of a product is read, reduced mod p and folded into the packed low half as
c_k * row_k.  A low slot then holds at most 2n - 1 terms, so slots are
sized for 2n - 1 terms, which is at most 2*bits(p) + bits(2n) bits.  A
list result unpacks the low half once; the chains of products (x^p mod f,
the Frobenius rows) reduce each low slot mod p in place and stay packed
from one product to the next.

One distinct-degree kernel serves the irreducibility certificate.  It
applies the Frobenius map h -> h^p mod f as sum h_i * row_i over the
packed rows x^(i*p) mod f and yields the blocks (d, product of the
degree-d factors).
It takes one gcd per run of up to four degrees, with the product of their
h_d - x mod f, and splits that gcd by degree only when it is nontrivial.
Euclid takes its usual step, a quotient of degree 1, as one reduced pass,
and x^p mod f squares the monomials x^j, 2j < n, by a shift.  The
irreducibility certificate tries the primes above 2^30 in order, each
certified by Miller-Rabin once per process (`_next_prime` is cached), and
reads its factor-degree patterns straight from the blocks; for a
polynomial H(z^2 + z), such as the cofactors Q_n, it runs the kernel on H
at half the degree and splits each block by the quadratic character of
1 + 4w (`_w_form`).  No block is split into its irreducible factors, and
no path draws random numbers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Optional, Sequence, Union

from .errors import BadPrime, DivisionFailure, DomainError, RingMismatch

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
    def monomial(cls, degree: int, coeff=1, ring: RingTag = QQ) -> "ExactPoly":
        return cls([_zero(ring)] * degree + [coeff], ring)

    @classmethod
    def _wrap(cls, coeffs: list, ring: RingTag) -> "ExactPoly":
        """Adopt a list that is already canonical for `ring` (reduced, no
        trailing zeros), such as an F_p kernel result, without a copy."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        out.ring = ring
        return out

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
        return ExactPoly([a + b for a, b in self._aligned(other)], self.ring)

    def __sub__(self, other):
        return ExactPoly([a - b for a, b in self._aligned(other)], self.ring)

    def _aligned(self, other):
        """Coefficient pairs of self and other, the shorter padded with 0."""
        other = self._coerce(other)
        self._check(other)
        return zip_longest(self.coeffs, other.coeffs,
                           fillvalue=_zero(self.ring))

    def __neg__(self):
        return ExactPoly([-c for c in self.coeffs], self.ring)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        if isinstance(self.ring, tuple):
            return ExactPoly._wrap(_fp_mul(self.coeffs, other.coeffs,
                                           self.ring[1]), self.ring)
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
        if isinstance(ring, tuple):
            q, r = _fp_divmod(self.coeffs, other.coeffs, ring[1])
            return ExactPoly._wrap(q, ring), ExactPoly._wrap(r, ring)
        rem = list(self.coeffs)
        dlead = other.leading()
        dq = other.degree
        if len(rem) - 1 < dq:
            return ExactPoly.zero(ring), ExactPoly(rem, ring)
        quot = [_zero(ring)] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if not c:
                continue
            if ring == QQ:
                q = c / dlead
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
        """The quotient, or DivisionFailure if the division leaves a
        remainder or, over ZZ, has a quotient that is not integral."""
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


def _rational_to_primitive(f: ExactPoly) -> ExactPoly:
    """Primitive integer polynomial proportional to f (positive leading coeff)."""
    if f.is_zero():
        return ExactPoly.zero(ZZ)
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    return ExactPoly(ints, ZZ).primitive_part()


# -- the F_p kernel ------------------------------------------------------------
#
# Polynomials over F_p as flat int lists, constant term first, every entry
# in [0, p) and no trailing zeros ([] is zero).  Every function returns a
# fresh list in that form, which `ExactPoly._wrap` adopts as it is.


def _slot_bits(p: int, terms: int) -> int:
    """Width of a Kronecker slot that holds any sum of `terms` products of
    two residues mod p: such a sum is at most terms * (p - 1)**2."""
    return (terms * (p - 1) ** 2).bit_length()


def _pack(a: list, w: int) -> int:
    """The integer sum of a[i] * 2**(i*w)."""
    acc = 0
    for c in reversed(a):
        acc = (acc << w) | c
    return acc


def _unpack(x: int, w: int, count: int, p: int) -> list:
    """Slots 0 .. count-1 of x, each reduced mod p (trailing zeros kept)."""
    mask = (1 << w) - 1
    return [((x >> s) & mask) % p for s in range(0, count * w, w)]


def _fp_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _fp_mul(a: list, b: list, p: int) -> list:
    """a * b by Kronecker substitution: coefficient k of the product is a sum
    of at most min(len a, len b) products of residues, so slots of
    `_slot_bits` that many terms never carry into each other."""
    if not a or not b:
        return []
    w = _slot_bits(p, min(len(a), len(b)))
    x = _pack(a, w)
    x = x * x if a is b else x * _pack(b, w)
    return _fp_trim(_unpack(x, w, len(a) + len(b) - 1, p))


def _fp_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b.  Every row but the last
    updates the entries without reducing them; one update moves an entry by
    less than p**2, so they stay small ints.  The last row's pass reduces
    the remainder."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for s in range(len(a) - 1 - db, 0, -1):
        c = q[s] = r[s + db] * inv % p
        if c:
            r[s:s + db] = [u - c * v for u, v in zip(r[s:s + db], low)]
    c = q[0] = r[db] * inv % p
    return q, _fp_trim([(u - c * v) % p for u, v in zip(r, low)])


def _fp_monic(a: list, p: int) -> list:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd by Euclid; [] only for gcd(0, 0).  The usual step, a
    quotient q1 x + q0 of degree 1, takes one reduced pass:
    r_j = a_j - q0 b_j - q1 b_(j-1)."""
    while b:
        if len(a) == len(b) + 1 > 2:
            inv = pow(b[-1], -1, p)
            low = b[:-1]
            q1 = a[-1] * inv % p
            q0 = (a[-2] - q1 * low[-1]) * inv % p
            r = _fp_trim([(u - q0 * v - q1 * w) % p
                          for u, v, w in zip(a, low, [0] + low)])
        else:
            r = _fp_divmod(a, b, p)[1]
        a, b = b, r
    return _fp_monic(a, p)


class _FpModulus:
    """Arithmetic modulo a fixed f of degree n >= 1 over F_p, on lists of
    length at most n, or on such lists packed at this modulus's slot width.

    A packed product has at most 2n slots.  Its high half reduces by the
    packed rows x^(n+k) mod f, k = 0 .. n-1 (`_fold`): each high slot is
    read, reduced mod p and added to the packed low half as that multiple
    of row k.  A low slot then holds at most 2n - 1 terms: for a product of
    two lists of length n, n product terms plus n - 1 row terms; for such a
    product times x, n - 1 product terms plus n row terms.  So slots of
    `_slot_bits(p, 2n - 1)` never carry; since 2n - 1 < 2n the width is at
    most 2 * bits(p) + bits(2n).  The same width serves `apply`, whose
    slots take at most n terms."""

    __slots__ = ("f", "p", "n", "w", "mask", "low_mask", "rows")

    def __init__(self, f: list, p: int):
        n = len(f) - 1
        self.f, self.p, self.n = f, p, n
        self.w = w = _slot_bits(p, 2 * n - 1)
        self.mask = (1 << w) - 1
        self.low_mask = (1 << (n * w)) - 1
        inv = pow(f[-1], -1, p)
        # x^n mod f, then each row x times the last, whose slot n folds
        # by row 0
        self.rows = [_pack([(p - c) * inv % p for c in f[:-1]], w)]
        for _ in range(n - 1):
            self.rows.append(self._reduce(self.rows[-1] << w))

    def mulmod(self, a: list, b: list) -> list:
        if not a or not b:
            return []
        x = _pack(a, self.w)
        x = x * x if a is b else x * _pack(b, self.w)
        return _fp_trim(_unpack(self._fold(x), self.w, self.n, self.p))

    def _fold(self, x: int) -> int:
        """The packed product x with its high slots folded into the low
        half, lowest first, as each is read: n slots, not yet reduced mod
        p."""
        p, w, mask = self.p, self.w, self.mask
        high = x >> (self.n * w)
        x &= self.low_mask
        for row in self.rows:
            if not high:
                break
            x += (high & mask) % p * row
            high >>= w
        return x

    def _reduce(self, x: int) -> int:
        """The packed product x reduced mod f and left packed: each slot of
        its fold is reduced mod p where it sits."""
        x = self._fold(x)
        p, w, mask = self.p, self.w, self.mask
        out = 0
        for s in range(0, x.bit_length(), w):
            out |= (((x >> s) & mask) % p) << s
        return out

    def powmod(self, a: list, e: int) -> list:
        """a^e mod f, by left-to-right square and multiply, on packed values
        that are unpacked once at the end.  For a = x, out is the monomial
        x^j while 2j < n, so squaring it and multiplying it by x only shift
        it; after that each multiply by x shifts the square before its one
        reduction."""
        n, w = self.n, self.w
        if len(a) > n:
            a = _fp_divmod(a, self.f, self.p)[1]
        by_x = a == [0, 1]
        j = 0 if by_x else n
        ax = _pack(a, w)
        out = 1
        for bit in bin(e)[2:]:
            if 2 * j < n:
                j = 2 * j + (bit == "1")
                out = 1 << (j * w)
                if j == n:
                    out = self._reduce(out)
                continue
            out *= out
            if bit == "1":
                out = out << w if by_x else self._reduce(out) * ax
            out = self._reduce(out)
        return _fp_trim(_unpack(out, w, n, self.p))

    def power_rows(self, h: list) -> list[int]:
        """h^i mod f for i = 0 .. n-1, packed, with h packed once: with
        h = x^p mod f these are the rows of the Frobenius map."""
        hx = _pack(h, self.w)
        rows = [1]
        for _ in range(self.n - 1):
            rows.append(self._reduce(rows[-1] * hx))
        return rows

    def apply(self, h: list, rows: list[int]) -> list:
        """Sum of h[i] * rows[i], for rows packed at this slot width: with
        the Frobenius rows, h -> h^p mod f."""
        return _fp_trim(_unpack(sum(map(operator.mul, h, rows)), self.w,
                                self.n, self.p))


# -- gcd -----------------------------------------------------------------------


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
        return ExactPoly._wrap(_fp_gcd(f.coeffs, g.coeffs, f.ring[1]), f.ring)
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
    return len(_fp_gcd([c % p for c in f.coeffs], [c % p for c in g.coeffs],
                       p)) == 1


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
    """The remainder of lc(b)^(d+1) a by b over ZZ, d = deg a - deg b: that
    multiple of a has an integral quotient, so each leading division is
    exact."""
    d = a.degree - b.degree
    return a.scale(b.leading() ** (d + 1)).divmod(b)[1]


def _half_xgcd(a: ExactPoly, m: ExactPoly):
    """gcd(a, m) plus the Bezout coefficient of a: s a = gcd mod m, so s
    divided by a constant gcd is the inverse of a modulo m."""
    r0, r1 = m, a
    s0, s1 = ExactPoly.zero(a.ring), ExactPoly.one(a.ring)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    return r0, s0


def squarefree_part(f: ExactPoly) -> ExactPoly:
    """Product of the distinct irreducible factors of f (primitive over Z,
    monic over a field).  Over F_p, f' = 0 means f = H(x)^p with H read
    from the coefficients f[i*p]; and f / gcd(f, f') drops every factor
    whose multiplicity p divides, which stays in gcd(f, f') alone, so the
    squarefree part of that gcd is folded back in by an lcm."""
    if f.is_zero():
        raise ZeroDivisionError("squarefree part of zero")
    if f.is_constant():
        return _gcd_normalize(f)
    df = f.derivative()
    if df.is_zero():
        return squarefree_part(ExactPoly(f.coeffs[::f.ring[1]], f.ring))
    g = poly_gcd(f, df)
    if g.degree == 0:
        return _gcd_normalize(f)
    if f.ring == ZZ:
        return f.primitive_part().exact_div(g).primitive_part()
    s = _gcd_normalize(f.exact_div(g))
    if isinstance(f.ring, tuple):
        t = squarefree_part(g)
        s = s * t.exact_div(poly_gcd(s, t))
    return s


# -- distinct-degree factorization over prime fields --------------------------


def _ddf_pattern(f: ExactPoly) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of a monic squarefree f
    over F_p, read from its distinct-degree blocks without splitting them."""
    return tuple(sorted(d for d, block in _ddf_blocks(f)
                        for _ in range(block.degree // d)))


_DDF_RUN = 4  # degrees whose gcd with the unfactored rest is taken at once


def _ddf_blocks(f: ExactPoly) -> list[tuple[int, ExactPoly]]:
    """Distinct-degree factorization of a monic squarefree f over F_p: pairs
    (d, g) where g is the monic product of the degree-d irreducible factors
    (`_ddf_run`)."""
    mod = _FpModulus(f.coeffs, f.ring[1])
    frobenius = mod.power_rows(mod.powmod([0, 1], mod.p))
    return [(d, ExactPoly._wrap(g, f.ring))
            for d, g in _ddf_run(mod, frobenius)]


def _ddf_run(mod: _FpModulus, frobenius: list[int]) -> list[tuple[int, list]]:
    """The blocks (d, g) of the monic squarefree modulus f of `mod`, given
    the packed rows x^(i*p) mod f of its Frobenius map.

    The Frobenius map h -> h^p mod f is linear over F_p, so it is applied as
    a matrix with rows x^(i*p) mod f (von zur Gathen-Shoup), packed once.
    h stays reduced mod f rather than mod the unfactored rest v:
    gcd(v, h - x) is the same because v divides f.  The degrees go in runs
    of up to `_DDF_RUN`: one gcd of v with the product of their h_d - x
    mod f finds the factors of every degree in the run, and only when it is
    nontrivial is it split by gcd(g, h_d - x) in increasing d, dividing g
    and v by each block (v has no factor of degree below the run, so a
    factor dividing h_d - x has degree d once the smaller degrees of the
    run are divided out)."""
    p = mod.p
    blocks = []
    h = [0, 1]
    v = mod.f
    d = 0
    while len(v) > 1:
        run = min(_DDF_RUN, (len(v) - 1) // 2 - d)
        if run < 1:  # no factor of degree <= d and 2(d + 1) > deg v
            blocks.append((len(v) - 1, v))
            break
        diffs, product = [], [1]
        for _ in range(run):
            h = mod.apply(h, frobenius)
            hx = h + [0] * (2 - len(h))
            hx[1] = (hx[1] - 1) % p
            diffs.append(_fp_trim(hx))
            product = mod.mulmod(product, diffs[-1])
        g = _fp_gcd(v, product, p)
        for k, hx in enumerate(diffs, d + 1):
            if len(g) > 1:
                # the last degree of the run takes what is left of g
                block = g if k == d + run else _fp_gcd(g, hx, p)
                if len(block) > 1:
                    blocks.append((k, block))
                    v = _fp_divmod(v, block, p)[0]
                    g = _fp_divmod(g, block, p)[0]
        d += run
    return blocks


# -- irreducibility certificates over Z ---------------------------------------


@dataclass
class IrreducibilityCertificate:
    polynomial: ExactPoly
    primes: list[int]
    degree_patterns: list[tuple[int, ...]]
    verdict: str  # "Irreducible" | "Inconclusive"


# Miller-Rabin with the first 13 primes as bases is deterministic below
# psi_13 (Sorenson-Webster); 318665857834031151167461 = psi_12 passes every
# base up to 37, so the bound needs base 41.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # psi_13


def _is_prime(n: int) -> bool:
    """Whether n is prime, certified for n < psi_13; BadPrime from there on,
    since psi_13 itself passes every base."""
    if n >= _MR_LIMIT:
        raise BadPrime(f"{n} >= psi_13 = {_MR_LIMIT}: primality is "
                       "certified only below it")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


@lru_cache(maxsize=None)
def _next_prime(n: int) -> int:
    """The least odd prime above n.  Cached, so that the certificate searches
    of one process certify each prime once; the cache is a pure function
    of n, so threads sharing it see the same primes."""
    n += 1 + n % 2  # the next odd number
    while not _is_prime(n):
        n += 2
    return n


def _primes_from(start: int):
    """The odd primes from start on, in increasing order."""
    n = start - 1
    while True:
        n = _next_prime(n)
        yield n


def _subset_sums(degrees: Sequence[int]) -> frozenset:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return frozenset(sums)


def certify_irreducible(f: ExactPoly) -> IrreducibilityCertificate:
    """Sufficient irreducibility certificate over Z via factor-degree patterns
    modulo up to 40 large primes.  "Irreducible" is sound; "Inconclusive"
    is always a permitted outcome.  A polynomial in z^2 + z has its
    patterns read from its half-degree form (`_w_form`, `_w_pattern`);
    any other polynomial from its own distinct-degree blocks."""
    fz = f.to_ring(ZZ)
    deg = fz.degree
    achievable = None
    primes_used = []
    patterns = []
    if deg < 1 or poly_gcd(fz, fz.derivative()).degree > 0:
        # a repeated factor over Q repeats mod every prime: none is usable
        raise DomainError("certify_irreducible needs a squarefree "
                          "nonconstant polynomial")
    h = _w_form(fz.coeffs)
    gen = _primes_from((1 << 30) + 1)
    while len(primes_used) < 40:
        p = next(gen)
        if fz.leading() % p == 0:
            continue
        degs = _pattern(fz, p) if h is None else _w_pattern(h, p)
        if degs is None:
            # f mod p has a repeated factor: p divides the discriminant
            continue
        primes_used.append(p)
        patterns.append(degs)
        sums = _subset_sums(degs)
        achievable = sums if achievable is None else achievable & sums
        if achievable == frozenset({0, deg}):
            return IrreducibilityCertificate(fz, primes_used, patterns, "Irreducible")
    return IrreducibilityCertificate(fz, primes_used, patterns, "Inconclusive")


def _pattern(fz: ExactPoly, p: int) -> Optional[tuple[int, ...]]:
    """The factor-degree pattern of f mod p, for p not dividing lc(f), or
    None when f mod p has a repeated factor."""
    fp = fz.to_ring(GF(p))
    if len(_fp_gcd(fp.coeffs, fp.derivative().coeffs, p)) > 1:
        return None
    return _ddf_pattern(fp.monic())


def _w_form(coeffs: list) -> Optional[list]:
    """H with f(z) = H(z^2 + z), constant term first, for the integer
    coefficients of f; None when f is not a polynomial in w = z^2 + z.
    f is divided by z^2 + z again and again, and each remainder must be a
    constant: the next coefficient of H.

    Mod an odd prime p not dividing lc(H), f_p = f mod p and H_p = H mod p
    keep their degrees, and f_p factors through H_p (`_w_pattern`):

    - Skip test.  f_p' = (2z + 1) H_p'(z^2 + z).  A repeated root z0 of f_p
      is a root w0 = z0^2 + z0 of H_p with H_p'(w0) = 0 or z0 = -1/2, that
      is w0 = -1/4; conversely every root of H_p is some z0^2 + z0, and
      H_p(-1/4) = 0 makes -1/2 a double root of f_p.  So f_p is squarefree
      iff H_p is squarefree and H_p(-1/4) != 0: exactly when
      gcd(f_p, f_p') = 1.
    - Splitting rule.  Let g divide H_p, irreducible of degree d, with a
      root w0 in F_(p^d).  The roots of z^2 + z - w0 are (-1 +- s) / 2 with
      s^2 = 1 + 4 w0 != 0.  If 1 + 4 w0 is a square in F_(p^d), both lie in
      F_p(w0) = F_(p^d), and as w0 = z^2 + z also F_p(z) = F_(p^d): g(z^2 + z)
      is two distinct irreducibles of degree d.  Otherwise z has degree 2
      over F_(p^d), and g(z^2 + z) is irreducible of degree 2d.
    - Character.  x in F_(p^d) is a square iff x^((p^d - 1)/2) = 1.  For the
      block B of the r factors of degree d, c = (1 + 4w)^((p^d - 1)/2) mod B
      is 1 or -1 modulo each factor, so gcd(B, c - 1) has degree d times
      the number of factors with a square.  As
      (p^d - 1)/2 = (p - 1)/2 * (1 + p + ... + p^(d - 1)), c is the product
      of a^(p^i), i < d, for a = (1 + 4w)^((p - 1)/2): Frobenius steps.
    - Norm.  x^((p^d - 1)/2) = N(x)^((p - 1)/2) for the norm N to F_p, so
      for r = 1 the character is the Legendre symbol of
      N(1 + 4 w0) = prod_i (1 + 4 w_i) = (-4)^d B(-1/4) over the conjugates
      w_i, as B(-1/4) = prod_i (-1/4 - w_i)."""
    h, rest = [], list(coeffs)
    while rest:
        for i in range(len(rest) - 1, 1, -1):  # divide by z^2 + z
            rest[i - 1] -= rest[i]
        if len(rest) > 1 and rest[1]:
            return None
        h.append(rest[0])
        rest = rest[2:]
    return h


def _w_pattern(h: list, p: int) -> Optional[tuple[int, ...]]:
    """The factor-degree pattern of f = H(z^2 + z) mod p, for H from
    `_w_form` and an odd p not dividing lc(H), or None when f mod p has a
    repeated factor.  It runs the distinct-degree kernel on H mod p, at half
    the degree of f, and splits each block by the quadratic character of
    1 + 4w: a factor of degree d gives {d, d} where that is a square and
    {2d} where it is not (`_w_form`)."""
    hp = [c % p for c in h]
    quarter = -pow(4, -1, p) % p  # -1/4
    at_quarter = 0
    for c in reversed(hp):
        at_quarter = (at_quarter * quarter + c) % p
    if not at_quarter or len(_fp_gcd(
            hp, _fp_trim([i * c % p for i, c in enumerate(hp)][1:]), p)) > 1:
        return None
    mod = _FpModulus(_fp_monic(hp, p), p)
    frobenius = mod.power_rows(mod.powmod([0, 1], p))
    half = (p - 1) // 2
    degs = []
    for d, block in _ddf_run(mod, frobenius):
        r = (len(block) - 1) // d
        if r == 1:
            norm = pow(-4, d, p) * ExactPoly._wrap(block, GF(p))(quarter)
            squares = int(pow(norm, half, p) == 1)
        else:
            on_block = _FpModulus(block, p)
            c = t = on_block.powmod([1, 4 % p], half)
            for _ in range(d - 1):
                t = _fp_divmod(mod.apply(t, frobenius), block, p)[1]
                c = on_block.mulmod(c, t)
            c[0] = (c[0] - 1) % p
            squares = (len(_fp_gcd(block, _fp_trim(c), p)) - 1) // d
        degs += [d, d] * squares + [2 * d] * (r - squares)
    return tuple(sorted(degs))
