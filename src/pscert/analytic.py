"""Certified numerics for the zero-geometry and diophantine bounds.

The roots of Q_n on the canonical segment z = -1/2 + i t, t > sqrt(3)/2,
are located by integers alone.  On the segment w = z^2 + z = -rho with
rho = |z|^2 = 1/4 + t^2, so the invariant form R_n of `powersum` gives
Q_zz(z) = S_n(rho) = sum_j r_j (1 - rho)^(3j) rho^(2(k-j)), and the
segment roots are the k = deg R_n roots of S_n in (1, inf).  The count law
certifies them: R_n(-J) has exactly k coefficient sign changes, so by
Descartes' rule there are at most k, and k strict sign changes of S_n
between neighbouring separators show at least k, each simple.  The
separators come from a sample grid of angles u in (1/2, 2/3), mapped to
rho = 1/4 + tan^2(u pi) / 4 in floating point and rounded to 64-bit
dyadics; they are untrusted, and only the exact signs of S_n certify.

A segment root is held as its rho-bracket alone.  Integer Newton refines
it to 2^-bits, t = sqrt(rho - 1/4) and the modulus r = sqrt(rho) are
enclosed from it, and bits double from the working precision until the
enclosure asked for is narrow enough; the top root is reached only by
`max_modulus` (its r) and `close_window` (its theta).  Every doubling runs
in `_escalate`, and one still open at the cap raises PrecisionExhausted
(the c-bracket gives "Undecided").  No trigonometry is taken.  Every bound
evaluation returns a BoundReport whose verdict is derived from interval
endpoints only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Optional

from .errors import (AmbiguousEnclosure, DomainError, PrecisionExhausted,
                     VerificationFailed)
from . import exactnum
from .exactnum import (ComplexBox, RealInterval, iatan2, iexp, ilog, isqrt,
                       pi_interval, require_prec)
from .powersum import build_pq


@dataclass
class SegmentRoot:
    """One root alpha = -1/2 + i t of Q_n on the upper segment, the index-th
    by decreasing rho = |alpha|^2 = 1/4 + t^2: rho is enclosed by the
    root's refined bracket of `_segment_form`, and t = sqrt(rho - 1/4)."""
    n: int
    index: int
    rho: RealInterval
    t: RealInterval

    def alpha(self, prec: int = 128) -> ComplexBox:
        return ComplexBox(RealInterval(Fraction(-1, 2), prec=prec),
                          self.t.at_prec(prec))

    def modulus(self) -> RealInterval:
        """|alpha| = sqrt(rho), which needs no t."""
        return isqrt(self.rho)


@dataclass
class BoundReport:
    name: str
    inputs: dict
    value: Optional[RealInterval]
    verdict: str  # "Satisfied" | "Violated" | "Undecided"
    details: dict = dc_field(default_factory=dict)


# -- the exact layer: squared moduli of the segment roots ---------------------


def _int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_changes(coeffs) -> int:
    signs = [_int_sign(c) for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _scaled(s, x: int, b: int) -> int:
    """2^(b d) s(x / 2^b) for s of degree d, exactly (Horner)."""
    acc, scale = 0, 1
    for c in reversed(s):
        acc = acc * x + c * scale
        scale <<= b
    return acc


def _scaled_with_slope(s, x: int, b: int) -> tuple[int, int]:
    """`_scaled(s, x, b)` and `_scaled(ds, x, b)` for the derivative ds of
    s, from one Horner pass: 2^(b d) s(y) is F(x) = sum s_i x^i 2^(b (d - i))
    at y = x / 2^b, and the pass carries F' = 2^(b (d - 1)) s'(y) along."""
    acc, slope, scale = 0, 0, 1
    for c in reversed(s):
        slope = slope * x + acc
        acc = acc * x + c * scale
        scale <<= b
    return acc, slope


@lru_cache(maxsize=None)
def _segment_form(n: int) -> tuple[tuple[int, ...], tuple]:
    """S_n and one bracket per segment root, certified by the count law.

    S_n(rho) = sum_j r_j (1 - rho)^(3j) rho^(2(k-j)), built from the
    invariant form R_n(J) = sum_j r_j J^j, is Q_zz on the segment, where
    w = -rho and W = (1 - rho)^3 with rho = 1/4 + t^2.  J = (1 - rho)^3 /
    rho^2 maps (1, inf) decreasingly onto (-inf, 0), so the roots of S_n
    above 1 are the negative roots of R_n, with multiplicity.  The count
    law: R_n(-J) must have k = deg R_n coefficient sign changes, so by
    Descartes' rule S_n has at most k roots above 1; k disjoint brackets
    above 1 with a strict sign change each then hold exactly one simple
    root each.  The brackets are the neighbouring separators, for
    `_sample_points(n, shrink)` with shrink rising from 0 to 7, between
    which S_n has strictly opposite signs.  Either check failing raises
    VerificationFailed.  A bracket is (lo, hi, b, sign of S_n at lo / 2^b),
    the root lies in (lo / 2^b, hi / 2^b), and the brackets are listed by
    decreasing rho, which is increasing u."""
    r = [int(c) for c in build_pq(n).R.coeffs]
    k = len(r) - 1
    if _sign_changes(c if j % 2 == 0 else -c for j, c in enumerate(r)) != k:
        raise VerificationFailed(f"R_{n}(-J) does not have {k} sign changes")
    s = [0] * (3 * k + 1)
    for j, rj in enumerate(r):
        for i in range(3 * j + 1):
            s[2 * (k - j) + i] += (-1) ** i * math.comb(3 * j, i) * rj
    for shrink in range(8):
        # rho(u) in floats, as x / 2^64; only separators above 1 count,
        # since Descartes' bound holds there
        xs = {int(math.ldexp(0.25 + math.tan(math.pi * u) ** 2 / 4, 64))
              for u in map(float, _sample_points(n, shrink))}
        seps = sorted((x for x in xs if x > 1 << 64), reverse=True)
        signs = [_int_sign(_scaled(s, x, 64)) for x in seps]
        brackets = tuple((lo, hi, 64, sign_lo) for hi, lo, sign_hi, sign_lo
                         in zip(seps, seps[1:], signs, signs[1:])
                         if sign_hi * sign_lo < 0)
        if len(brackets) == k:
            return tuple(s), brackets
    raise VerificationFailed(f"the sample grids found {len(brackets)} of the "
                             f"{k} segment roots of Q_{n}")


def _refine(s, lo: int, hi: int, b: int, sign_lo: int, bits: int) -> tuple:
    """Narrow the bracket (lo, hi) / 2^b of a single root of s, with
    sign(s(lo / 2^b)) = sign_lo, to at most two grid steps of 2^-bits.

    Integer Newton runs on the grid x / 2^b and doubles b each round.  A
    Newton point x is accepted only after s is checked to change sign
    strictly between x - 1 and x + 1, inside the current bracket; otherwise
    one exact bisection step is taken.  The bracket never leaves the
    starting one, so it keeps its single root.

    Each round evaluates s and s' at the midpoint once, in one Horner pass,
    and the bisection step reuses that value of s.  The sign check reads
    s(x + 1) only when s(x - 1) has sign_lo: in the bracket, the one simple
    root leaves s with sign sign_lo left of it and -sign_lo right of it, so
    a strict sign change between x - 1 and x + 1 needs exactly those two
    signs, and the check accepts the same points as
    sign(s(x - 1)) * sign(s(x + 1)) < 0 would."""
    while b < bits or hi - lo > 2:
        if b < bits:
            nb = min(max(2 * b, 32), bits)
            lo, hi, b = lo << (nb - b), hi << (nb - b), nb
        mid = (lo + hi) // 2
        value, slope = _scaled_with_slope(s, mid, b)
        if slope:
            x = mid - value // slope
            if (lo <= x - 1 and x + 1 <= hi
                    and _int_sign(_scaled(s, x - 1, b)) == sign_lo
                    and _int_sign(_scaled(s, x + 1, b)) == -sign_lo):
                lo, hi = x - 1, x + 1
                continue
        sign_mid = _int_sign(value)
        if sign_mid == 0:  # the root is mid itself
            lo, hi = mid - 1, mid + 1
            sign_lo = _int_sign(_scaled(s, lo, b))
        elif sign_mid == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, b, sign_lo


@lru_cache(maxsize=None)
def _rho_bracket(n: int, i: int, bits: int) -> tuple:
    """The i-th segment root's bracket of `_segment_form`, refined to at
    most two grid steps of 2^-bits, or of its own 2^-b where b is finer
    (from the one at bits // 2, which is cached)."""
    s, brackets = _segment_form(n)
    start = brackets[i]
    if bits < start[2]:
        return _rho_bracket(n, i, start[2])
    if bits // 2 > start[2]:
        start = _rho_bracket(n, i, bits // 2)
    return _refine(s, *start, bits)


# -- segment roots ------------------------------------------------------------


def _sample_points(n: int, shrink: int) -> list[Fraction]:
    """Points covering (1/2, 2/3): the grid k/n and one point past each end
    of it, with midpoints added when shrink > 0."""
    grid = range(n // 2 + 1, (2 * n - 1) // 3 + 1)  # 1/2 < k/n < 2/3
    lo_gap = (Fraction(grid[0], n) - Fraction(1, 2)) if grid else Fraction(1, 6)
    hi_gap = (Fraction(2, 3) - Fraction(grid[-1], n)) if grid else Fraction(1, 6)
    delta_lo = lo_gap / (2 ** shrink)
    delta_hi = hi_gap / (2 ** shrink)
    pts = [Fraction(1, 2) + delta_lo / 2]
    pts += [Fraction(k, n) for k in grid]
    pts.append(Fraction(2, 3) - delta_hi / 2)
    if shrink > 0:
        # midpoint refinement pass for stubborn counts
        pts = sorted(pts + [(u1 + u2) / 2 for u1, u2 in zip(pts, pts[1:])])
    return pts


def _require_width(width) -> Fraction:
    """A target width as an exact Fraction, rejected below or at 0: the
    refinement narrows toward it, so it would never end."""
    width = Fraction(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return width


def _escalate(attempt, prec: int):
    """attempt(p) for p = prec, 2 prec, 4 prec, ...: the first result that
    is not None, or None once p has reached `exactnum.MAX_PREC`.  Every
    precision escalation in this module runs here."""
    while (result := attempt(prec)) is None and prec < exactnum.MAX_PREC:
        prec *= 2
    return result


def _refined(n: int, index: int, prec: int, enclose, done) -> tuple:
    """The index-th segment root of Q_n by decreasing rho, with its bracket
    refined to 2^-bits and bits doubling from `prec` until done(enclose(root))
    holds: the root and that enclosure.  A constant Q_n raises ValueError,
    and the precision cap PrecisionExhausted."""
    if not _segment_form(n)[1]:
        raise ValueError(f"Q_{n} is constant")

    def attempt(bits: int):
        lo, hi, b, _ = _rho_bracket(n, index, bits)
        rho = RealInterval(Fraction(lo, 1 << b), Fraction(hi, 1 << b),
                           prec=bits)
        root = SegmentRoot(n, index, rho, isqrt(rho - Fraction(1, 4)))
        value = enclose(root)
        return (root, value) if done(value) else None

    found = _escalate(attempt, prec)
    if found is None:
        raise PrecisionExhausted(f"precision cap at n={n}, root {index}")
    return found


def isolate_segment_roots(n: int, target_width=Fraction(1, 10 ** 12),
                          prec: int = 128) -> list[SegmentRoot]:
    """All roots of Q_n on the segment, each with a t-enclosure no wider
    than the target, in increasing t."""
    require_prec(prec)
    target = _require_width(target_width)
    k = len(_segment_form(n)[1])
    return [_refined(n, i, prec, lambda root: root.t,
                     lambda t: t.width <= target)[0]
            for i in reversed(range(k))]


def max_modulus(n: int, width=Fraction(1, 10 ** 9), prec: int = 128) -> RealInterval:
    """Enclosure of the largest root modulus of Q_n, no wider than `width`.

    The maximum is attained on the segment: each orbit contributes moduli
    {r, r, 1, 1, 1/r, 1/r} with r = sqrt(1/4 + t^2) > 1, and the largest r
    is sqrt(rho) of the top segment root, the one of largest rho.
    """
    require_prec(prec)
    width = _require_width(width)
    r = _refined(n, 0, prec, SegmentRoot.modulus,
                 lambda r: r.width <= width)[1]
    if not r.lo > 1:
        raise VerificationFailed(
            f"maximal modulus of Q_{n} not certified above 1")
    return r


# -- individual bounds --------------------------------------------------------


def bound_14_9(t: RealInterval) -> BoundReport:
    """Contribution of one orbit of six zeros to 2|f(omega)|:
    (t^2 - 3/4)^3 / (1/4 + t^2)^2.  Satisfied = certified below 1/2
    (the small-modulus contradiction branch)."""
    value = (t ** 2 - Fraction(3, 4)) ** 3 / (Fraction(1, 4) + t ** 2) ** 2
    half = Fraction(1, 2)
    if value.hi < half:
        verdict = "Satisfied"
    elif value.lo > half:
        verdict = "Violated"
    else:
        verdict = "Undecided"
    return BoundReport("group-of-six contribution vs 1/2",
                       {"t": t}, value, verdict)


def c_small_threshold(r: RealInterval | Fraction, b: int,
                      prec: int = 128) -> BoundReport:
    """pi * r^b / 2; every c up to floor(lower endpoint) is excluded.

    r is a lower bound on the maximal modulus and must be at least 14/9.
    An interval is checked on its lower endpoint.  An exact Fraction is
    checked exactly and then enclosed at `prec` (an enclosure of 14/9
    itself reaches below 14/9)."""
    require_prec(prec)
    if isinstance(r, Fraction):
        if r < Fraction(14, 9):
            raise ValueError("requires r >= 14/9")
        r = RealInterval(r, prec=prec)
    elif r.lo < Fraction(14, 9):
        raise ValueError("requires r >= 14/9")
    prec = max(r.prec, 128)
    value = pi_interval(prec) * r.at_prec(prec) ** b / 2
    return BoundReport("small-c exclusion threshold", {"r": r, "b": b},
                       value, "Satisfied",
                       details={"c_excluded_up_to": math.floor(value.lo)})


def _c_bracket(rhs: Fraction | RealInterval,
               prec: int = 128) -> tuple[int, str]:
    """Largest integer c with c / (log c)^2 <= rhs on the increasing branch
    (c >= 8 > e^2): c = 8 is checked, and then only c_max and c_max + 1 from
    an untrusted guess (`_c_guess`).  A check compares c exactly with
    rhs_lo L_lo^2 (L_lo > 0) and rhs_hi L_hi^2 for an enclosure L of log c
    that doubles from `prec` bits while undecided; an exact rhs is both
    endpoints.  A wrong guess is corrected by galloping outward in doubling
    steps, which become bisection once the bracket is closed.

    No c above 2^99, the last power of two below 10^30, is checked: a c_max
    of 2^99 or more gives "Undecided" with c = 2^100.  A check undecided at
    `exactnum.MAX_PREC` gives "Undecided" with the c it left undecided (8 if
    that is c = 8).  An "Undecided" c is never a claimed c_max."""
    rhs_lo, rhs_hi = ((rhs, rhs) if isinstance(rhs, Fraction)
                      else (rhs.lo, rhs.hi))

    def le(c: int, p: int) -> Optional[bool]:
        log_c = ilog(RealInterval(c, prec=p))
        if log_c.lo > 0 and c <= rhs_lo * log_c.lo ** 2:
            return True
        if c > rhs_hi * log_c.hi ** 2:
            return False
        return None

    if _escalate(partial(le, 8), prec) is not True:
        return 8, "Undecided"
    top = 2 ** 99
    lo, hi, step = 8, None, 1  # lo checked <= rhs, hi checked > rhs
    c = min(max(_c_guess((rhs_lo + rhs_hi) / 2), 9), top)
    while hi is None or hi - lo > 1:
        res = _escalate(partial(le, c), prec)
        if res is None:
            return c, "Undecided"
        if res and c == top:
            return 2 * top, "Undecided"
        lo, hi = (c, hi) if res else (lo, c)
        mid = lo + step if hi is None else (lo + hi) // 2
        c = min(lo + step, mid, top) if res else max(hi - step, mid)
        step *= 2
    return lo, "Satisfied"


def _c_guess(rhs: Fraction) -> int:
    """Untrusted floor of the fixed point of c = rhs (log c)^2 above 8, by
    iteration in floats.  An rhs past 10^31 (c_max past 10^30) is clipped
    to fit a float."""
    r = float(min(rhs, 10 ** 31))
    c = max(r, 8.0)
    for _ in range(64):
        c = r * math.log(c) ** 2
    return int(c)


def lmn3_c_max(b: int, prec: int = 128) -> BoundReport:
    """Largest integer c with c/(log c)^2 <= 320 b^2 + 2 b^3 / 3."""
    require_prec(prec)
    if b < 6:
        raise ValueError("need b >= 6")
    rhs_q = 320 * b * b + Fraction(2 * b ** 3, 3)
    c_max, verdict = _c_bracket(rhs_q, prec)
    return BoundReport("large-c exclusion bound", {"b": b, "rhs": rhs_q},
                       RealInterval(c_max, c_max, prec=prec), verdict,
                       details={"c_max": c_max})


def general_bounds(a: int, parity_profile: str = "other",
                   b: Optional[int] = None,
                   r: Optional[RealInterval] = None,
                   prec: int = 128) -> dict[str, BoundReport]:
    """Bound family for the general-exponent regime: the b-range bound, the
    r lower bound, the root-of-unity exclusion threshold, and (given b, r)
    the finite c-bracket, which is "Undecided" while log r is not
    certified positive.  The parity profile is "exactly-one-even" or
    "other"; anything else raises ValueError."""
    require_prec(prec)
    if a < 2:
        raise ValueError("need a >= 2")
    if parity_profile not in ("exactly-one-even", "other"):
        raise ValueError(f"unknown parity profile {parity_profile!r}")
    one_even = parity_profile == "exactly-one-even"
    b_cap = 600 * a * a if one_even else 600 * a * a * 2 ** a
    reports: dict[str, BoundReport] = {}
    reports["b_range"] = BoundReport(
        "finite b range", {"a": a, "parity": parity_profile},
        RealInterval(b_cap, b_cap, prec=prec), "Satisfied",
        details={"b_strictly_below": b_cap})
    denom = 10 * a if one_even else 10 * a * 2 ** a
    r_lo = iexp(RealInterval(Fraction(1, denom), prec=prec))
    reports["r_lower"] = BoundReport(
        "r lower bound", {"a": a, "parity": parity_profile}, r_lo, "Satisfied",
        details={"formula": f"exp(1/{denom})"})
    if b is not None and r is not None:
        logr = ilog(r.at_prec(prec))
        lhs = RealInterval(2 * b ** 8, 2 * b ** 8, prec=prec)
        rpow = iexp(logr * b)
        if rpow.lo > lhs.hi:
            verdict = "Satisfied"
        elif rpow.hi < lhs.lo:
            verdict = "Violated"
        else:
            verdict = "Undecided"
        reports["unity_exclusion"] = BoundReport(
            "root-of-unity exclusion (2 b^8 <= r^b)", {"b": b, "r": r},
            rpow, verdict, details={"threshold": 2 * b ** 8})
        if logr.is_positive():
            c_max, verdict = _c_bracket((1 + 1 / logr) * (3 * (a * b) ** 6),
                                        prec)
            value, details = RealInterval(c_max, prec=prec), {"c_max": c_max}
        else:
            value, verdict = None, "Undecided"
            details = {"c_max": None, "reason": "log r is not certified positive"}
        reports["c_bracket"] = BoundReport(
            "finite c bracket", {"a": a, "b": b, "r": r}, value, verdict,
            details=details)
    return reports


# -- the finite window scan ---------------------------------------------------


def window_theta(b: int, zeta: SegmentRoot, prec: int = 256) -> RealInterval:
    """|arg(1 + zeta^-b)| for the maximal-modulus segment root zeta."""
    require_prec(prec)
    alpha = zeta.alpha(prec)
    w = ComplexBox(1, 0) + alpha ** (-b)
    if not w.re.is_positive():
        raise DomainError("argument branch assumption violated")
    return abs(iatan2(w.im, w.re))


def close_window(b: int, c_lo: int, c_hi: int,
                 prec: int = 256) -> BoundReport:
    """Certify that no integer c in (c_lo, c_hi] can satisfy the near-integer
    condition |c theta + m pi| <= 9 |zeta|^{-c} for the top segment root
    zeta of Q_b: every m whose m pi/|theta| reaches above c_lo and starts
    no further than the threshold above c_hi lies further than
    9 |zeta|^{-c_lo} / |theta| from every integer.

    theta is taken at the bits of zeta's bracket, doubling from `prec`
    until its relative width is below min(10^-13, 1/(64 c_hi)).  The scan
    runs in exact fixed point (`_window_scan`).  With the dyadic
    pi/|theta| enclosure [A_lo, A_hi] / 2^K, m pi/|theta| lies in
    [m A_lo, m A_hi] / 2^K, no wider than an outward-rounded product would
    be.  Two running integers stand for it: the fractional part f = m A_lo
    mod 2^K of its lower end, and the gap g = 2^K - f - m (A_hi - A_lo) from
    its upper end to the next integer, each stepped by one addition.  Its
    distance to the nearest integer is min(f, g), <= 0 exactly when an
    integer lies inside, and is compared with floor(threshold * 2^K)
    (`_scan_limit`).  That reading needs the enclosure narrower than 1/4,
    which holds below one bound on m, computed once."""
    require_prec(prec)
    inputs = {"b": b, "c_lo": c_lo, "c_hi": c_hi}
    if c_lo >= c_hi:
        return BoundReport("window scan", inputs, None, "Satisfied",
                           details={"m_count": 0})
    rel = min(Fraction(1, 10 ** 13), Fraction(1, 64 * c_hi))

    def theta_of(root: SegmentRoot) -> RealInterval:
        theta = window_theta(b, root, root.rho.prec)
        if not theta.is_positive():
            raise DomainError("theta enclosure is not bounded away from 0")
        return theta

    root, theta = _refined(b, 0, prec, theta_of,
                           lambda theta: theta.width / theta.lo < rel)
    pi_over_theta = pi_interval(root.rho.prec) / theta
    modulus = root.modulus()
    threshold = iexp(-ilog(modulus) * c_lo) * 9 / theta

    lo, hi = pi_over_theta.lo, pi_over_theta.hi
    k = max(lo.denominator, hi.denominator).bit_length() - 1
    a_lo, a_hi = ((q.numerator << k) // q.denominator for q in (lo, hi))
    m_count, m, dist = _window_scan(k, a_lo, a_hi, c_lo, c_hi,
                                    _scan_limit(threshold.hi, k))
    dist = None if dist is None else float(Fraction(dist, 1 << k))
    if m is not None:
        return BoundReport("window scan", inputs, pi_over_theta, "Undecided",
                           details={"offending_m": m, "distance": dist})
    return BoundReport("window scan", inputs, pi_over_theta, "Satisfied",
                       details={"m_count": m_count, "min_distance": dist,
                                "pi_over_theta": (float(lo), float(hi))})


def _window_scan(k: int, a_lo: int, a_hi: int, c_lo: int, c_hi: int,
                 limit: int) -> tuple[int, Optional[int], Optional[int]]:
    """Scan [m A_lo, m A_hi] / 2^K for every m with m A_hi > c_lo 2^K and
    m A_lo <= c_hi 2^K + limit: (m_count, the first m within limit / 2^K of
    an integer or None, 2^K times its distance or else the least one).  The
    first m too wide to read, m_wide, raises AmbiguousEnclosure."""
    one = 1 << k
    width = a_hi - a_lo
    start = max(1, (c_lo << k) // a_hi + 1)
    stop = ((c_hi << k) + limit) // a_lo + 1
    m_wide = -(-one // (4 * width)) if width else stop
    step = a_lo & (one - 1)
    drop = step + width
    f = start * a_lo & (one - 1)
    g = one - f - start * width
    best = one  # the least distance so far, always above limit
    for m in range(start, min(stop, m_wide)):
        if f < best or g < best:
            dist = f if f < g else g
            if dist <= limit:
                return stop - start, m, max(dist, 0)
            best = dist
        f += step
        g -= drop
        if f >= one:
            f -= one
            g += one
    if max(start, m_wide) < stop:
        raise AmbiguousEnclosure("interval too wide to locate nearest integer")
    return max(stop - start, 0), None, best if stop > start else None


def _scan_limit(bound: Fraction, k: int) -> int:
    """floor(bound * 2^k): an integer dist has dist / 2^k > bound exactly
    when dist > floor(bound * 2^k)."""
    return (bound.numerator << k) // bound.denominator
