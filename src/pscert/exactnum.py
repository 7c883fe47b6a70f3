"""Exact scalars and certified interval arithmetic.

Scalars: arbitrary-size integers (Python int), rationals (fractions.Fraction)
and exact roots of unity.

Intervals: a RealInterval holds two raw mpf endpoints and its own precision
and calls mpmath.libmp.libmpi directly, so every operation returns an
outward-rounded enclosure of the exact image.  Precision rule: a binary
operation runs at the largest precision among its interval operands, and an
int or Fraction operand is rounded outward at that precision; a unary
function runs at its operand's precision; pi_interval takes the precision
as an argument; constructors default to DEFAULT_PREC (64 bits).  Callers
escalate by relabelling with at_prec, up to the fixed cap MAX_PREC (16384
bits).  The interval code neither reads nor writes mpmath's global context,
so it is thread-safe.  ComplexBox is a pair of RealIntervals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from mpmath.libmp import (from_int, from_rational, fzero, mpf_cmp, mpf_lt,
                          mpf_neg, mpf_pos, mpf_sign)
from mpmath.libmp.libmpi import (mpi_add, mpi_atan2, mpi_cos, mpi_div,
                                 mpi_exp, mpi_log, mpi_mul, mpi_neg, mpi_pi,
                                 mpi_pow_int, mpi_sin, mpi_sqrt, mpi_sub)

from .errors import AmbiguousEnclosure, DomainError
from .unipoly import ExactPoly, ZZ

DEFAULT_PREC = 64
MAX_PREC = 16384


def require_prec(prec: int) -> None:
    """Reject a working precision below one bit: escalation doubles the
    precision it starts from, so from 0 or below it would never end."""
    if prec < 1:
        raise ValueError(f"precision must be at least 1 bit, got {prec}")


class RealInterval:
    """Closed interval [lo, hi] with exact binary endpoints.

    Immutable; arithmetic returns new enclosures computed with outward
    rounding at the precision given by the rule in the module docstring.
    """

    __slots__ = ("_mpi", "prec")

    def __init__(self, lo, hi=None, prec: int = DEFAULT_PREC):
        if hi is None:
            hi = lo
        lo_raw = _endpoint_raw(lo, upper=False, prec=prec)
        hi_raw = _endpoint_raw(hi, upper=True, prec=prec)
        if mpf_lt(hi_raw, lo_raw):
            raise DomainError("interval endpoints out of order")
        self._mpi = (lo_raw, hi_raw)
        self.prec = prec

    @classmethod
    def _wrap(cls, mpi, prec: int) -> "RealInterval":
        obj = object.__new__(cls)
        obj._mpi = mpi
        obj.prec = prec
        return obj

    # -- exact endpoint access ------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return _mpf_to_fraction(self._mpi[0])

    @property
    def hi(self) -> Fraction:
        return _mpf_to_fraction(self._mpi[1])

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        q = Fraction(value)
        return self.lo <= q <= self.hi

    def contains_zero(self) -> bool:
        return _sign(self._mpi[0]) <= 0 <= _sign(self._mpi[1])

    def is_positive(self) -> bool:
        return _sign(self._mpi[0]) > 0

    def is_negative(self) -> bool:
        return _sign(self._mpi[1]) < 0

    def at_prec(self, prec: int) -> "RealInterval":
        """The same endpoints, relabelled: later operations run at `prec`."""
        return RealInterval._wrap(self._mpi, prec)

    # -- arithmetic -----------------------------------------------------------

    def _operand(self, other) -> tuple["RealInterval", int]:
        """`other` as an interval, and the precision the operation runs at."""
        if isinstance(other, RealInterval):
            return other, max(self.prec, other.prec)
        return RealInterval(other, prec=self.prec), self.prec

    def __add__(self, other):
        other, prec = self._operand(other)
        return RealInterval._wrap(mpi_add(self._mpi, other._mpi, prec), prec)

    __radd__ = __add__

    def __sub__(self, other):
        other, prec = self._operand(other)
        return RealInterval._wrap(mpi_sub(self._mpi, other._mpi, prec), prec)

    def __rsub__(self, other):
        other, prec = self._operand(other)
        return RealInterval._wrap(mpi_sub(other._mpi, self._mpi, prec), prec)

    def __mul__(self, other):
        other, prec = self._operand(other)
        return RealInterval._wrap(mpi_mul(self._mpi, other._mpi, prec), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other, prec = self._operand(other)
        if other.contains_zero():
            raise DomainError("division by an interval containing zero")
        return RealInterval._wrap(mpi_div(self._mpi, other._mpi, prec), prec)

    def __rtruediv__(self, other):
        other, prec = self._operand(other)
        if self.contains_zero():
            raise DomainError("division by an interval containing zero")
        return RealInterval._wrap(mpi_div(other._mpi, self._mpi, prec), prec)

    def __neg__(self):
        return RealInterval._wrap(mpi_neg(self._mpi, self.prec), self.prec)

    def __abs__(self):
        lo, hi = self._mpi
        if _sign(lo) >= 0:
            return self
        if _sign(hi) <= 0:
            return -self
        neg_lo = mpf_neg(lo)
        top = neg_lo if mpf_cmp(neg_lo, hi) > 0 else hi
        # rounded up at prec, as an endpoint built from its exact value is
        return RealInterval._wrap((fzero, mpf_pos(top, self.prec, "c")),
                                  self.prec)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k < 0:
            return 1 / (self ** (-k))
        out = RealInterval._wrap(mpi_pow_int(self._mpi, k, self.prec),
                                 self.prec)
        if k % 2 == 0 and out.lo < 0:
            out = RealInterval(0, out.hi, prec=self.prec)
        return out

    def __repr__(self):
        return f"RealInterval[{float(self.lo)!r}, {float(self.hi)!r}]"


def _coerce(x) -> RealInterval:
    if isinstance(x, RealInterval):
        return x
    return RealInterval(x)


def _endpoint_raw(x, upper: bool, prec: int):
    """Raw mpf tuple for an endpoint, rounded outward when inexact."""
    if isinstance(x, Fraction):
        return from_rational(x.numerator, x.denominator, prec,
                             "c" if upper else "f")
    if isinstance(x, int):
        return from_int(x)
    raise TypeError(f"cannot build interval endpoint from {type(x)!r}")


def _sign(raw) -> int:
    """Sign of a raw mpf endpoint, compared without building a Fraction;
    a non-finite endpoint raises as `_mpf_to_fraction` does."""
    if not raw[1] and raw[2]:
        raise DomainError("non-finite interval endpoint")
    return mpf_sign(raw)


def _mpf_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0:
        if exp != 0:
            raise DomainError("non-finite interval endpoint")
        return Fraction(0)
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


# -- elementary functions -----------------------------------------------------


def pi_interval(prec: int) -> RealInterval:
    return RealInterval._wrap(mpi_pi(prec), prec)


def _unary(x: RealInterval, fn) -> RealInterval:
    return RealInterval._wrap(fn(x._mpi, x.prec), x.prec)


def iexp(x) -> RealInterval:
    return _unary(_coerce(x), mpi_exp)


def ilog(x) -> RealInterval:
    x = _coerce(x)
    if x.lo <= 0:
        raise DomainError("log of an interval touching (-inf, 0]")
    return _unary(x, mpi_log)


# icos and isin serve the tests (as a trigonometric oracle) and the
# benchmark's operation counts; no certifying path takes trigonometry


def icos(x) -> RealInterval:
    return _unary(_coerce(x), mpi_cos)


def isin(x) -> RealInterval:
    return _unary(_coerce(x), mpi_sin)


def isqrt(x) -> RealInterval:
    x = _coerce(x)
    if x.lo < 0:
        raise DomainError("sqrt of an interval touching negatives")
    return _unary(x, mpi_sqrt)


def iatan2(y: RealInterval, x: RealInterval) -> RealInterval:
    y, x = _coerce(y), _coerce(x)
    prec = max(y.prec, x.prec)
    return RealInterval._wrap(mpi_atan2(y._mpi, x._mpi, prec), prec)


def nearest_integer_distance(x: RealInterval) -> RealInterval:
    """Enclosure of min over integers m of |x - m|.

    Requires width(x) < 1/4.  If x straddles a half-integer the conservative
    envelope is returned (lower end 0 is allowed only when an integer lies
    inside x).
    """
    lo, hi = x.lo, x.hi
    if hi - lo >= Fraction(1, 4):
        raise AmbiguousEnclosure("interval too wide to locate nearest integer")

    def dist(q: Fraction) -> Fraction:
        fl = math.floor(q)
        return min(q - fl, fl + 1 - q)

    d_lo = dist(lo)
    d_hi = dist(hi)
    out_lo = min(d_lo, d_hi)
    out_hi = max(d_lo, d_hi)
    if math.floor(lo) != math.floor(hi) or lo == math.floor(lo):
        # an integer lies inside the interval
        out_lo = Fraction(0)
    if math.floor(2 * lo) != math.floor(2 * hi):
        # a half-integer (or integer) lies inside; distance peaks at 1/2
        out_hi = max(out_hi, Fraction(1, 2)) if _contains_half(lo, hi) else out_hi
    return RealInterval(out_lo, out_hi, prec=x.prec)


def _contains_half(lo: Fraction, hi: Fraction) -> bool:
    k = math.floor(2 * lo)
    for j in (k, k + 1, k + 2):
        if j % 2 != 0 and lo <= Fraction(j, 2) <= hi:
            return True
    return False


class ComplexBox:
    """Rectangular enclosure of a complex number: re x im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = _coerce(re)
        self.im = _coerce(im)

    def conj(self) -> "ComplexBox":
        return ComplexBox(self.re, -self.im)

    def __add__(self, other):
        other = _coerce_box(other)
        return ComplexBox(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce_box(other)
        return ComplexBox(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_box(other)
        den = other.re ** 2 + other.im ** 2
        if den.contains_zero():
            raise DomainError("division by a box containing zero")
        return ComplexBox((self.re * other.re + self.im * other.im) / den,
                          (self.im * other.re - self.re * other.im) / den)

    def __rtruediv__(self, other):
        return _coerce_box(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return 1 / (self ** (-k))
        result = ComplexBox(1, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def __repr__(self):
        return f"ComplexBox({self.re!r}, {self.im!r})"


def _coerce_box(x) -> ComplexBox:
    if isinstance(x, ComplexBox):
        return x
    if isinstance(x, RealInterval):
        return ComplexBox(x, RealInterval(0, 0, prec=x.prec))
    return ComplexBox(RealInterval(x), RealInterval(0))


# -- exact roots of unity -----------------------------------------------------


class UnityRoot:
    """The exact root of unity e^{2*pi*i*j/k}, stored as a reduced fraction j/k."""

    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int):
        if order <= 0:
            raise ValueError("order must be positive")
        exponent %= order
        g = math.gcd(exponent, order) if exponent else order
        self.order = order // g
        self.exponent = exponent // g

    def __mul__(self, other: "UnityRoot") -> "UnityRoot":
        k = self.order * other.order // math.gcd(self.order, other.order)
        e = self.exponent * (k // self.order) + other.exponent * (k // other.order)
        return UnityRoot(k, e)

    def __pow__(self, n: int) -> "UnityRoot":
        return UnityRoot(self.order, self.exponent * n)

    def inverse(self) -> "UnityRoot":
        return UnityRoot(self.order, -self.exponent)

    def __eq__(self, other):
        return isinstance(other, UnityRoot) and \
            (self.order, self.exponent) == (other.order, other.exponent)

    def __hash__(self):
        return hash((self.order, self.exponent))

    def is_one(self) -> bool:
        return self.exponent == 0

    def __repr__(self):
        return f"UnityRoot(order={self.order}, exponent={self.exponent})"


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial."""
    poly = ExactPoly([-1] + [0] * (n - 1) + [1], ZZ)  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(ExactPoly(cyclotomic_coeffs(d), ZZ))
    return tuple(poly.coeffs)


def unity_sum_is_zero(roots: Iterable[UnityRoot]) -> bool:
    """Decide exactly whether a finite sum of roots of unity vanishes."""
    roots = list(roots)
    if not roots:
        return True
    lcm = 1
    for r in roots:
        lcm = lcm * r.order // math.gcd(lcm, r.order)
    coeffs = [0] * lcm
    for r in roots:
        coeffs[r.exponent * (lcm // r.order) % lcm] += 1
    phi = ExactPoly(cyclotomic_coeffs(lcm), ZZ)
    return ExactPoly(coeffs, ZZ).divmod(phi)[1].is_zero()
