"""Exact scalars and certified interval arithmetic.

Scalars: arbitrary-size integers (Python int), rationals (fractions.Fraction)
and exact roots of unity.

Intervals: a RealInterval holds two dyadic endpoints, each a pair (m, e) of
integers for m * 2**e, and its own precision.  Every operation rounds each
endpoint correctly in its own direction, the lower end down and the upper
end up, to a dyadic of `prec` bits.  Precision rule: a binary operation runs
at the largest precision among its interval operands, and an int or
Fraction operand is rounded outward at that precision; a unary function
runs at its operand's precision; pi_interval takes the precision as an
argument; constructors default to DEFAULT_PREC (64 bits), round Fraction
endpoints and keep int endpoints exact.  Callers escalate by relabelling
with at_prec, up to the fixed cap MAX_PREC (16384 bits).  There is no
global state but caches of pi and log 2, and no dependency but the standard
library: only icos and isin borrow mpmath's.  ComplexBox is a pair of
RealIntervals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

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
    """Closed interval [lo, hi] with exact binary endpoints; immutable,
    rounded and sized by the rules in the module docstring."""

    __slots__ = ("_lo", "_hi", "prec")

    def __init__(self, lo, hi=None, prec: int = DEFAULT_PREC):
        require_prec(prec)
        self._lo = _endpoint(lo, prec, up=False)
        self._hi = _endpoint(lo if hi is None else hi, prec, up=True)
        if hi is not None and _less(self._hi, self._lo):
            raise DomainError("interval endpoints out of order")
        self.prec = prec

    @classmethod
    def _wrap(cls, lo, hi, prec: int) -> "RealInterval":
        obj = object.__new__(cls)
        obj._lo, obj._hi, obj.prec = lo, hi, prec
        return obj

    @classmethod
    def _exact(cls, lo: Fraction, hi: Fraction, prec: int) -> "RealInterval":
        """Dyadic endpoints kept exactly, however many bits they carry."""
        bits = max(prec, lo.numerator.bit_length(), hi.numerator.bit_length())
        return cls(lo, hi, prec=bits).at_prec(prec)

    # -- exact endpoint access ------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return _fraction(self._lo)

    @property
    def hi(self) -> Fraction:
        return _fraction(self._hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi

    def contains_zero(self) -> bool:
        return self._lo[0] <= 0 <= self._hi[0]

    def is_positive(self) -> bool:
        return self._lo[0] > 0

    def is_negative(self) -> bool:
        return self._hi[0] < 0

    def at_prec(self, prec: int) -> "RealInterval":
        """The same endpoints, relabelled: later operations run at `prec`."""
        require_prec(prec)
        return RealInterval._wrap(self._lo, self._hi, prec)

    # -- arithmetic -----------------------------------------------------------

    def _operand(self, other) -> tuple["RealInterval", int]:
        """`other` as an interval, and the precision the operation runs at."""
        if isinstance(other, RealInterval):
            return other, max(self.prec, other.prec)
        return RealInterval(other, prec=self.prec), self.prec

    def __add__(self, other):
        other, prec = self._operand(other)
        return RealInterval._wrap(_add(self._lo, other._lo, prec, False),
                                  _add(self._hi, other._hi, prec, True), prec)

    __radd__ = __add__

    def __sub__(self, other):
        other, prec = self._operand(other)
        return _sub(self, other, prec)

    def __rsub__(self, other):
        other, prec = self._operand(other)
        return _sub(other, self, prec)

    def __mul__(self, other):
        other, prec = self._operand(other)
        (a, b), (c, d) = (self._lo, self._hi), (other._lo, other._hi)
        if c[0] < 0 < d[0]:  # the factor of one sign, if any, second
            (a, b), (c, d) = (c, d), (a, b)
        if c[0] >= 0:  # the extreme products, as mpmath's mpi_mul takes them
            lo, hi = (a, c if a[0] >= 0 else d), (b, d if b[0] >= 0 else c)
        elif d[0] <= 0:
            lo, hi = (b, c if b[0] >= 0 else d), (a, d if a[0] >= 0 else c)
        else:
            lo = (a, d) if _less(_times(a, d), _times(b, c)) else (b, c)
            hi = (b, d) if _less(_times(a, c), _times(b, d)) else (a, c)
        return RealInterval._wrap(_round(*_times(*lo), prec, False),
                                  _round(*_times(*hi), prec, True), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other, prec = self._operand(other)
        return _div_interval(self, other, prec)

    def __rtruediv__(self, other):
        other, prec = self._operand(other)
        return _div_interval(other, self, prec)

    def __neg__(self):
        (lm, le), (hm, he) = self._lo, self._hi
        return RealInterval._wrap(_round(-hm, he, self.prec, False),
                                  _round(-lm, le, self.prec, True), self.prec)

    def __abs__(self):
        (lm, le), hi = self._lo, self._hi
        if lm >= 0:
            return self
        if hi[0] <= 0:
            return -self
        top = hi if _less((-lm, le), hi) else (-lm, le)
        return RealInterval._wrap((0, 0), _round(*top, self.prec, True),
                                  self.prec)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k < 0:
            return 1 / (self ** (-k))
        if k < 2:  # x ** 0 is 1, and x ** 1 is x unrounded
            return self if k else RealInterval(1, prec=self.prec)
        lo, hi = self._lo, self._hi
        if k % 2 == 0 and lo[0] < 0:  # an even power folds the negatives
            top = hi if _less((-lo[0], lo[1]), hi) else lo
            lo, hi = ((0, 0), top) if hi[0] > 0 else (hi, lo)
        p = self.prec
        return RealInterval._wrap(_round(lo[0] ** k, lo[1] * k, p, False),
                                  _round(hi[0] ** k, hi[1] * k, p, True), p)

    def __repr__(self):
        return f"RealInterval[{float(self.lo)!r}, {float(self.hi)!r}]"


def _coerce(x) -> RealInterval:
    return x if isinstance(x, RealInterval) else RealInterval(x)


def _sub(x: RealInterval, y: RealInterval, prec: int) -> RealInterval:
    (lm, le), (hm, he) = y._lo, y._hi
    return RealInterval._wrap(_add(x._lo, (-hm, he), prec, False),
                              _add(x._hi, (-lm, le), prec, True), prec)


def _div_interval(x: RealInterval, y: RealInterval, prec: int) -> RealInterval:
    """x / y, each end divided by the end of y that makes it extreme."""
    if y.contains_zero():
        raise DomainError("division by an interval containing zero")
    (a, b), (c, d) = (x._lo, x._hi), (y._lo, y._hi)
    if c[0] < 0:  # x / y = (-x) / (-y)
        a, b, c, d = (-b[0], b[1]), (-a[0], a[1]), (-d[0], d[1]), (-c[0], c[1])
    return RealInterval._wrap(_div(a, d if a[0] >= 0 else c, prec, False),
                              _div(b, c if b[0] >= 0 else d, prec, True), prec)


# -- dyadic endpoints ---------------------------------------------------------
# An endpoint is (m, e) for m * 2**e with m odd, or (0, 0).  Each helper
# rounds its exact result to `prec` bits, toward +inf if `up`, else -inf.


def _round(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    n = m.bit_length() - prec
    if n > 0:
        m = -(-m >> n) if up else m >> n
        e += n
    if not m:
        return 0, 0
    n = (m & -m).bit_length() - 1  # the trailing zeros
    return m >> n, e + n


def _endpoint(x, prec: int, up: bool) -> tuple[int, int]:
    if isinstance(x, Fraction):
        return _div((x.numerator, 0), (x.denominator, 0), prec, up)
    if isinstance(x, int):
        return _round(x, 0, x.bit_length() or 1, up)
    raise TypeError(f"cannot build interval endpoint from {type(x)!r}")


def _fraction(v) -> Fraction:
    m, e = v
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _times(u, v) -> tuple[int, int]:
    return u[0] * v[0], u[1] + v[1]


def _less(u, v) -> bool:
    e = min(u[1], v[1])
    return u[0] << (u[1] - e) < v[0] << (v[1] - e)


def _add(u, v, prec: int, up: bool) -> tuple[int, int]:
    e = min(u[1], v[1])
    return _round((u[0] << (u[1] - e)) + (v[0] << (v[1] - e)), e, prec, up)


def _div(u, v, prec: int, up: bool) -> tuple[int, int]:
    (m, e), (n, f) = u, v
    if n < 0:
        m, n = -m, -n
    # q has prec + 2 bits or more, so prec-bit dyadics near it are even
    # integers, and an inexact m / n, inside (q, q + 1), rounds as q + 1/2
    s = max(0, prec + 2 + n.bit_length() - m.bit_length())
    q, r = divmod(m << s, n)
    if r:
        q, s = 2 * q + 1, s + 1
    return _round(q, e - f - s, prec, up)


def _sqrt(u, prec: int, up: bool) -> tuple[int, int]:
    m, e = u
    if not m:
        return 0, 0
    s = max(0, 2 * prec + 4 - m.bit_length())
    s += (s - e) & 1  # an even exponent e - s
    r = math.isqrt(m << s)
    e = (e - s) // 2
    if r * r != m << s:  # as in _div
        r, e = 2 * r + 1, e - 1
    return _round(r, e, prec, up)


# -- transcendental endpoints -------------------------------------------------
# A bracket(wp) gives (lo, hi, sh) with lo * 2**sh <= value <= hi * 2**sh,
# hi - lo a few units of 2**-wp relative to the value; a fixed-point X is
# X * 2**-w, and errors count units of 2**-w.  Ziv's loop never ends on an
# exact value (exp 0, log 1, atan2 on the axis), so those are answered first.


def _ziv(bracket, prec: int, up: bool) -> tuple[int, int]:
    wp = prec + 16
    while True:
        lo, hi, sh = bracket(wp)
        out = _round(lo, sh, prec, up)
        if out == _round(hi, sh, prec, up):
            return out
        wp *= 2


def _odd_series(z: int, w: int, alternate: bool, n=0) -> tuple[int, int]:
    """atan(z) (alternate) or atanh(z), 0 <= z <= 1/2, and its error: each
    power (exact floors, for z = 2**w // n) is less than 8/3 off, each term
    less than 3.7, and the terms left after the powers reach 0 below 3.6."""
    z2, total, power, j = z * z >> w, 0, z, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if alternate and j & 1 else term
        power = power // (n * n) if n else power * z2 >> w
        j += 1
    return total, 4 * j + 4


@lru_cache(maxsize=None)
def _constant(name: str, w: int) -> int:
    """pi or log 2 times 2**w, less than 2 off, for w a multiple of 64:
    the series below are less than 2**(g - 1) off at w + g bits."""
    g = w.bit_length() + 6
    # Machin's 16 atan(1/5) - 4 atan(1/239), and 2 atanh(1/3)
    terms = [(16, 5, True), (-4, 239, True)] if name == "pi" \
        else [(2, 3, False)]
    return sum(c * _odd_series((1 << w + g) // n, w + g, alternate, n)[0]
               for c, n, alternate in terms) >> g


def _fixed(name: str, wp: int) -> int:
    """pi or log 2 times 2**wp, less than 3 off; wp is rounded up to a
    multiple of 64 bits, so that the cache sees few precisions."""
    w = -(-wp // 64) * 64
    return _constant(name, w) >> (w - wp)


def _pi(prec: int, up: bool) -> tuple[int, int]:
    return _ziv(lambda wp: (_fixed("pi", wp) - 3, _fixed("pi", wp) + 3, -wp),
                prec, up)


def _exp(u, prec: int, up: bool) -> tuple[int, int]:
    m, e = u
    if not m:
        return 1, 0
    big = max(m.bit_length() + e, 0)  # |x| < 2**big

    def bracket(wp):
        # x = k log 2 + r, 0 <= r < log 2, and exp(r) = exp(r / 2**s)**(2**s)
        s = math.isqrt(wp) // 2 + 1  # halvings before the series
        w = wp + big + s + 10
        x = m << (e + w) if e + w >= 0 else m >> -(e + w)
        k, r = divmod(x, _fixed("ln2", w))
        err = 3 * abs(k) + 1  # |r - (x - k log 2) 2**w| < err
        # at p = w + s bits r < 1/2; each term is less than 4 low, and the
        # rest sum below 8: exp lies in [lo, lo + d]
        p = w + s
        lo, t, j = 1 << p, 1 << p, 1
        while t:
            t = (t * r >> p) // j
            lo += t
            j += 1
        d = 4 * j + 8
        for _ in range(s):
            lo, d = lo * lo >> p, ((2 * lo + d) * d >> p) + 2
        # the error in r moves exp(r) < 2.01 by less than err * 2**(s + 3)
        return lo - (err << (s + 3)), lo + d + (err << (s + 3)), k - p
    return _ziv(bracket, prec, up)


def _log(u, prec: int, up: bool) -> tuple[int, int]:
    m, e = u
    if (m, e) == (1, 0):
        return 0, 0
    bl = m.bit_length()
    n = bl + e - (4 * m < 3 << bl)  # x = y 2**n with 3/4 <= y < 3/2

    def bracket(wp):
        # log y = 2**(t + 1) atanh(z), z = (y' - 1) / (y' + 1), y' = y**2**-t
        t = math.isqrt(wp // 32) + 1  # few roots: an isqrt costs 5-10 products
        w = wp + t + n.bit_length() + 10
        one, sh = 1 << w, e - n + w
        y = m << sh if sh >= 0 else m >> -sh  # less than 1 low
        for _ in range(t):  # each root's error below 0.58 of the last, + 1
            y = math.isqrt(y << w)
        z = ((y - one) << w) // (y + one)  # less than 3 off
        total, err = _odd_series(abs(z), w, False)
        total = (total if z >= 0 else -total) << (t + 1)
        err = ((err + 4) << (t + 1)) + 3 * abs(n)
        mid = total + n * _fixed("ln2", w)
        return mid - err, mid + err, -w
    return _ziv(bracket, prec, up)


def _atan2(y, x, prec: int, up: bool) -> tuple[int, int]:
    """The angle of (x, y) in [-pi, pi], as mpmath's mpf_atan2 defines it:
    atan2(0, x) is 0 for x >= 0 and pi for x < 0."""
    if not y[0]:
        return (0, 0) if x[0] >= 0 else _pi(prec, up)
    if y[0] < 0:
        m, e = _atan2((-y[0], y[1]), x, prec, not up)
        return -m, e

    def bracket(wp):
        # (X, Y) -> (X + |(X, Y)|, Y) halves the angle, t times to below pi/8
        # for the series in Y / X; as Y >= 2**(w - 1), X less than 1 off
        # moves it by less than 2 units, and the t steps by less than 4.3
        t = math.isqrt(wp // 8) + 3
        w = wp + t + 10
        s = max(0, w - y[0].bit_length())
        Y, s = y[0] << s, x[1] + s - y[1]  # x and y times 2**(s - y[1])
        X = x[0] << s if s >= 0 else x[0] >> -s
        for _ in range(t):
            r = math.isqrt(X * X + Y * Y)
            X = X + r if X >= 0 else Y * Y // (r - X)  # without cancellation
        a, err = _odd_series((Y << w) // X, w, True)
        return (a - err - 6) << t, (a + err + 6) << t, -w
    return _ziv(bracket, prec, up)


# -- elementary functions -----------------------------------------------------


def pi_interval(prec: int) -> RealInterval:
    require_prec(prec)
    return RealInterval._wrap(_pi(prec, False), _pi(prec, True), prec)


def _monotone(fn, x: RealInterval) -> RealInterval:
    return RealInterval._wrap(fn(x._lo, x.prec, False),
                              fn(x._hi, x.prec, True), x.prec)


def iexp(x) -> RealInterval:
    return _monotone(_exp, _coerce(x))


def ilog(x) -> RealInterval:
    x = _coerce(x)
    if x._lo[0] <= 0:
        raise DomainError("log of an interval touching (-inf, 0]")
    return _monotone(_log, x)


def isqrt(x) -> RealInterval:
    x = _coerce(x)
    if x._lo[0] < 0:
        raise DomainError("sqrt of an interval touching negatives")
    return _monotone(_sqrt, x)


def iatan2(y: RealInterval, x: RealInterval) -> RealInterval:
    """The angles of the box x + iy, from the corners mpmath's mpi_atan2
    takes; a box meeting the negative real axis gets [-pi, pi]."""
    y, x = _coerce(y), _coerce(x)
    prec = max(y.prec, x.prec)
    (ya, yb), (xa, xb) = (y._lo, y._hi), (x._lo, x._hi)
    if xa[0] >= 0:  # right half-plane
        lo = _atan2(ya, xb if ya[0] >= 0 else xa, prec, False)
        hi = _atan2(yb, xa if yb[0] >= 0 else xb, prec, True)
    elif ya[0] >= 0:  # upper half-plane
        lo = _atan2(yb if xb[0] <= 0 else ya, xb, prec, False)
        hi = _atan2(ya, xa, prec, True)
    elif yb[0] < 0:  # lower half-plane
        lo = _atan2(yb, xa, prec, False)
        hi = _atan2(ya if xb[0] <= 0 else yb, xb, prec, True)
    else:
        hi = _pi(prec, True)
        lo = (-hi[0], hi[1])
    return RealInterval._wrap(lo, hi, prec)


def icos(x) -> RealInterval:
    from mpmath.libmp.libmpi import mpi_cos
    return _via_mpmath(mpi_cos, _coerce(x))


def isin(x) -> RealInterval:
    from mpmath.libmp.libmpi import mpi_sin
    return _via_mpmath(mpi_sin, _coerce(x))


def _via_mpmath(fn, x: RealInterval) -> RealInterval:
    """icos and isin serve the tests, as an oracle, and the benchmark's
    counts; no certifying path takes them, and so none takes mpmath."""
    # a raw mpf is (sign, |m|, e, bits) with m odd, or all zeros for 0
    raw = [(int(m < 0), abs(m), e, abs(m).bit_length()) for m, e in
           (x._lo, x._hi)]
    ends = [(-int(man) if sign else int(man), exp) for sign, man, exp, _ in
            fn(tuple(raw), x.prec)]
    return RealInterval._wrap(*ends, x.prec)


def nearest_integer_distance(x: RealInterval) -> RealInterval:
    """Enclosure of min over integers m of |x - m|, for width(x) < 1/4: the
    lower end is 0 when x holds an integer, the upper 1/2 when it holds a
    half-integer, and otherwise each is the distance from an end of x."""
    lo, hi = x.lo, x.hi
    if hi - lo >= Fraction(1, 4):
        raise AmbiguousEnclosure("interval too wide to locate nearest integer")
    ends = [abs(q - round(q)) for q in (lo, hi)]
    half = Fraction(1, 2)
    has_half = math.floor(hi - half) >= math.ceil(lo - half)
    return RealInterval(0 if math.floor(hi) >= math.ceil(lo) else min(ends),
                        half if has_half else max(ends), prec=x.prec)


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
