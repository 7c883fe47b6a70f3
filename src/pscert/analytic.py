"""Certified numerics for the zero-geometry and diophantine bounds.

Roots of Q_n on the canonical segment Re(z) = -1/2, t > sqrt(3)/2 are
isolated through the sign pattern of s(theta) = 2 cos(n theta)
+ (2|cos theta|)^n on theta = k pi / n inside (pi/2, 2pi/3), where the sign
is exact: the second term is strictly below 2 there, so the grid sign is
(-1)^k.  Brackets are refined by interval bisection.  Every bound evaluation
returns a BoundReport whose verdict is derived from interval endpoints only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .errors import (AmbiguousEnclosure, DomainError, PrecisionExhausted,
                     VerificationFailed, WidthUnreachable)
from . import exactnum
from .exactnum import (ComplexBox, RealInterval, iatan2, icos, icos_sin,
                       iexp, ilog, isqrt, pi_interval)
from .powersum import build_pq


@dataclass
class SegmentRoot:
    """One root alpha = -1/2 + i t of Q_n on the upper segment, bracketed by
    theta = u * pi with exact rational u endpoints."""
    n: int
    t: RealInterval
    u_lo: Fraction  # theta bracket (u_lo * pi, u_hi * pi), s-sign known at ends
    u_hi: Fraction

    def alpha(self, prec: int = 128) -> ComplexBox:
        return ComplexBox(RealInterval(Fraction(-1, 2), prec=prec),
                          self.t.at_prec(prec))


@dataclass
class BoundReport:
    name: str
    inputs: dict
    value: Optional[RealInterval]
    verdict: str  # "Satisfied" | "Violated" | "Undecided"
    details: dict = dc_field(default_factory=dict)


# -- segment root isolation ---------------------------------------------------


def _sign_s(u: Fraction, n: int, prec: int = 64) -> int:
    """Certified sign of s(u*pi) = 2 cos(n u pi) + (2 cos(u pi))^n for
    u in (1/2, 2/3); 0 if undecidable at the cap."""
    while True:
        theta = pi_interval(prec) * u
        val = 2 * icos(theta * n) + (2 * abs(icos(theta))) ** n
        if val.is_positive():
            return 1
        if val.is_negative():
            return -1
        if prec >= exactnum.MAX_PREC:
            return 0
        prec *= 2


def _sample_points(n: int, shrink: int) -> list[tuple[Fraction, int | None]]:
    """(u, known sign or None) pairs covering (1/2, 2/3); grid signs exact."""
    pts: list[tuple[Fraction, int | None]] = []
    grid = [k for k in range(n // 2 + 1, (2 * n) // 3 + 1)
            if Fraction(1, 2) < Fraction(k, n) < Fraction(2, 3)]
    lo_gap = (Fraction(grid[0], n) - Fraction(1, 2)) if grid else Fraction(1, 6)
    hi_gap = (Fraction(2, 3) - Fraction(grid[-1], n)) if grid else Fraction(1, 6)
    delta_lo = lo_gap / (2 ** shrink)
    delta_hi = hi_gap / (2 ** shrink)
    pts.append((Fraction(1, 2) + delta_lo / 2, None))
    for k in grid:
        pts.append((Fraction(k, n), 1 if k % 2 == 0 else -1))
    pts.append((Fraction(2, 3) - delta_hi / 2, None))
    if shrink > 0:
        # midpoint refinement pass for stubborn counts
        refined: list[tuple[Fraction, int | None]] = []
        for (u1, s1), (u2, s2) in zip(pts, pts[1:]):
            refined.append((u1, s1))
            refined.append(((u1 + u2) / 2, None))
        refined.append(pts[-1])
        pts = refined
    return pts


def isolate_segment_roots(n: int, target_width=Fraction(1, 10 ** 12),
                          prec: int = 128) -> list[SegmentRoot]:
    """All roots of Q_n on the segment, each refined to the target t-width.

    The number of sign-change brackets must equal deg(Q_n)/6; a persistent
    mismatch is a hard error.
    """
    if n < 6:
        raise ValueError("need n >= 6")
    qdeg = build_pq(n).Q.degree
    expected = qdeg // 6
    if expected == 0:
        return []
    for shrink in range(0, 8):
        pts = _sample_points(n, shrink)
        signs = []
        ok = True
        for u, s in pts:
            if s is None:
                s = _sign_s(u, n)
                if s == 0:
                    ok = False
                    break
            signs.append((u, s))
        if not ok:
            continue
        brackets = [(u1, u2) for (u1, s1), (u2, s2) in zip(signs, signs[1:])
                    if s1 != s2]
        if len(brackets) == expected:
            roots = [_bisect_root(n, u1, u2, target_width, prec)
                     for (u1, u2) in brackets]
            # theta increasing <-> t decreasing; report in increasing t
            roots.sort(key=lambda r: r.t.lo)
            return roots
    raise RuntimeError(
        f"segment sign changes never matched deg(Q_{n})/6 = {expected}")


def _bisect_root(n: int, u_lo: Fraction, u_hi: Fraction, target_width,
                 prec: int) -> SegmentRoot:
    s_lo = _sign_s(u_lo, n, prec)
    target = Fraction(target_width)
    # t at the bracket ends by (u, prec): a step moves one end only, and an
    # escalation recomputes both
    t_at: dict[tuple[Fraction, int], RealInterval] = {}

    def t_end(u: Fraction) -> RealInterval:
        key = (u, prec)
        if key not in t_at:
            t_at[key] = _t_of(u, prec)
        return t_at[key]

    while True:
        # t is decreasing in u on (1/2, 2/3)
        t = RealInterval(t_end(u_hi).lo, t_end(u_lo).hi, prec=prec)
        if t.width <= target:
            return SegmentRoot(n, t, u_lo, u_hi)
        mid = (u_lo + u_hi) / 2
        s_mid = _sign_s(mid, n, prec)
        if s_mid == 0:
            if prec >= exactnum.MAX_PREC:
                raise WidthUnreachable(f"precision cap at n={n}")
            prec *= 2
            continue
        if s_mid == s_lo:
            u_lo = mid
        else:
            u_hi = mid
        if prec < exactnum.MAX_PREC and (u_hi - u_lo) < Fraction(1, 2 ** (prec // 2)):
            prec *= 2


def _t_of(u: Fraction, prec: int) -> RealInterval:
    """t = -tan(u*pi)/2, from one cos-sin enclosure of theta = u*pi."""
    c, s = icos_sin(pi_interval(prec) * u)
    if not c.is_negative():
        raise DomainError("theta bracket escaped (pi/2, 2pi/3)")
    return s / (-c) / 2


def refine_segment_root(root: SegmentRoot, target_width,
                        prec: int = 256) -> SegmentRoot:
    return _bisect_root(root.n, root.u_lo, root.u_hi, target_width, prec)


def max_modulus(n: int, width=Fraction(1, 10 ** 9), prec: int = 128) -> RealInterval:
    """Enclosure of the largest root modulus of Q_n.

    The maximum is attained on the segment: each orbit contributes moduli
    {r, r, 1, 1, 1/r, 1/r} with r = sqrt(1/4 + t^2) > 1.
    """
    roots = isolate_segment_roots(n, target_width=width, prec=prec)
    if not roots:
        raise ValueError(f"Q_{n} is constant")
    return top_modulus(roots[-1], width, prec)  # largest t


def top_modulus(top: SegmentRoot, width=Fraction(1, 10 ** 9),
                prec: int = 128) -> RealInterval:
    """Enclosure of |top| = sqrt(1/4 + t^2) of the given width, refining a
    copy of the segment root as needed; `top` itself is left unchanged."""
    while True:
        r = isqrt(Fraction(1, 4) + top.t.at_prec(prec) ** 2)
        if r.width <= Fraction(width):
            if not r.lo > 1:
                raise VerificationFailed(
                    f"maximal modulus of Q_{top.n} not certified above 1")
            return r
        prec *= 2
        top = refine_segment_root(top, Fraction(width) / 8, prec)


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


def lmn_lower(d: int, h: RealInterval, k: int, prec: int = 128) -> RealInterval:
    """Effective lower bound on |alpha^k - 1| for a degree-d algebraic number
    of height h on the unit circle (linear-forms-in-logarithms type):
    exp(-(9/8) (22 pi + d h) max{34, d log(k/2) + 10}^2)."""
    pi = pi_interval(prec)
    inner = ilog(RealInterval(Fraction(k, 2), prec=prec)) * d + 10
    m = _interval_max(inner, Fraction(34))
    expo = (pi * 22 + h.at_prec(prec) * d) * (m ** 2) * Fraction(9, 8)
    return iexp(-expo)


def _interval_max(x: RealInterval, c: Fraction) -> RealInterval:
    if x.hi <= c:
        return RealInterval(c, c, prec=x.prec)
    if x.lo >= c:
        return x
    return RealInterval(c, x.hi, prec=x.prec)


def _c_bracket(rhs: RealInterval, prec: int = 128) -> tuple[int, str]:
    """Largest integer c with c / (log c)^2 <= rhs, by certified integer
    bisection on the increasing branch (c >= 8 > e^2)."""

    def f(c: int, p: int) -> RealInterval:
        return RealInterval(c, c, prec=p) / ilog(RealInterval(c, c, prec=p)) ** 2

    def cmp_le(c: int) -> Optional[bool]:
        p = prec
        while True:
            v = f(c, p)
            if v.hi <= rhs.lo:
                return True
            if v.lo > rhs.hi:
                return False
            if p >= exactnum.MAX_PREC:
                return None
            p *= 2

    hi = 16
    while cmp_le(hi) is True:
        hi *= 2
        if hi > 10 ** 30:
            return hi, "Undecided"
    lo = 8
    while hi - lo > 1:
        mid = (lo + hi) // 2
        res = cmp_le(mid)
        if res is None:
            return mid, "Undecided"
        if res:
            lo = mid
        else:
            hi = mid
    return lo, "Satisfied"


def lmn3_c_max(b: int, prec: int = 128) -> BoundReport:
    """Largest integer c with c/(log c)^2 <= 320 b^2 + 2 b^3 / 3."""
    if b < 6:
        raise ValueError("need b >= 6")
    rhs_q = 320 * b * b + Fraction(2 * b ** 3, 3)
    rhs = RealInterval(rhs_q, rhs_q, prec=prec)
    c_max, verdict = _c_bracket(rhs, prec)
    return BoundReport("large-c exclusion bound", {"b": b, "rhs": rhs_q},
                       RealInterval(c_max, c_max, prec=prec), verdict,
                       details={"c_max": c_max})


def general_bounds(a: int, parity_profile: str = "other",
                   b: Optional[int] = None,
                   r: Optional[RealInterval] = None,
                   prec: int = 128) -> dict[str, BoundReport]:
    """Bound family for the general-exponent regime: the b-range bound, the
    r lower bound, the root-of-unity exclusion threshold, and (given b, r)
    the finite c-bracket."""
    if a < 2:
        raise ValueError("need a >= 2")
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
        rhs = (1 + 1 / logr) * (3 * (a * b) ** 6)
        c_max, verdict = _c_bracket(rhs, prec)
        reports["c_bracket"] = BoundReport(
            "finite c bracket", {"a": a, "b": b, "r": r},
            RealInterval(c_max, c_max, prec=prec), verdict,
            details={"c_max": c_max})
    return reports


# -- the finite window scan ---------------------------------------------------


def window_theta(b: int, zeta: SegmentRoot, prec: int = 256) -> RealInterval:
    """|arg(1 + zeta^-b)| for the maximal-modulus segment root zeta."""
    alpha = zeta.alpha(prec)
    w = ComplexBox(1, 0) + alpha ** (-b)
    if not w.re.is_positive():
        raise DomainError("argument branch assumption violated")
    return abs(iatan2(w.im, w.re))


def close_window(b: int, zeta: SegmentRoot, c_lo: int, c_hi: int,
                 prec: int = 256) -> BoundReport:
    """Certify that no integer c in (c_lo, c_hi] can satisfy the near-integer
    condition |c theta + m pi| <= 9 |zeta|^{-c}.

    Enumerates every integer m with m pi/|theta| in the window and certifies
    that the distance from m pi/|theta| to the nearest integer exceeds the
    scaled threshold 9 |zeta|^{-c_lo} / |theta|.

    The scan runs in exact fixed point.  The dyadic endpoints of the
    pi/|theta| enclosure are A_lo / 2^K and A_hi / 2^K, so m pi/|theta| lies
    in [m A_lo, m A_hi] / 2^K, and that interval is stepped from one m to the
    next by adding A_lo and A_hi.  The integer part of an endpoint is its
    top bits (>> K) and its distance to the nearest integer comes from its
    low K bits; the threshold is compared by cross-multiplying.  Nothing is
    rounded, so each enclosure is no wider than an outward-rounded interval
    product m * (pi/|theta|) would be.
    """
    if c_lo >= c_hi:
        return BoundReport("window scan", {"b": b, "c_lo": c_lo, "c_hi": c_hi},
                           None, "Satisfied", details={"m_count": 0})
    root = zeta
    t_width = Fraction(1, 10 ** 24)
    while True:
        root = refine_segment_root(root, t_width, prec)
        theta = window_theta(b, root, prec)
        if not theta.is_positive():
            raise DomainError("theta enclosure is not bounded away from 0")
        rel = theta.width / theta.lo
        if rel < min(Fraction(1, 10 ** 13), Fraction(1, 64 * c_hi)):
            break
        if prec >= exactnum.MAX_PREC:
            raise PrecisionExhausted("cannot narrow theta")
        prec *= 2
        t_width /= 10 ** 12

    pi_over_theta = pi_interval(prec) / theta
    modulus = isqrt(Fraction(1, 4) + root.t.at_prec(prec) ** 2)
    threshold = iexp(-ilog(modulus) * c_lo) * 9 / theta

    lo, hi = pi_over_theta.lo, pi_over_theta.hi
    k = max(lo.denominator, hi.denominator).bit_length() - 1
    a_lo, a_hi = ((q.numerator << k) // q.denominator for q in (lo, hi))
    window_lo, window_hi = c_lo << k, c_hi << k
    bound = threshold.hi

    m_lo = max(1, window_lo // a_hi)
    m_hi = -(-window_hi // a_lo)
    x_lo, x_hi = m_lo * a_lo, m_lo * a_hi
    m_checked = 0
    min_dist = None
    for m in range(m_lo, m_hi + 1):
        if x_lo <= window_hi and x_hi > window_lo:
            m_checked += 1
            dist = _fixed_point_distance(x_lo, x_hi, k)
            if min_dist is None or dist < min_dist:
                min_dist = dist
            if not _exceeds(dist, k, bound):
                return BoundReport(
                    "window scan", {"b": b, "c_lo": c_lo, "c_hi": c_hi},
                    pi_over_theta, "Undecided",
                    details={"offending_m": m,
                             "distance": float(Fraction(dist, 1 << k))})
        x_lo += a_lo
        x_hi += a_hi
    return BoundReport(
        "window scan", {"b": b, "c_lo": c_lo, "c_hi": c_hi},
        pi_over_theta, "Satisfied",
        details={"m_count": m_checked,
                 "min_distance": (float(Fraction(min_dist, 1 << k))
                                  if min_dist is not None else None),
                 "pi_over_theta": (float(lo), float(hi))})


def _fixed_point_distance(x_lo: int, x_hi: int, k: int) -> int:
    """2^k times the lower end of the distance from [x_lo, x_hi] / 2^k to the
    nearest integer: 0 when an integer lies inside, else the smaller distance
    of the two endpoints.  Like exactnum.nearest_integer_distance, it needs
    the interval narrower than 1/4."""
    one = 1 << k
    if 4 * (x_hi - x_lo) >= one:
        raise AmbiguousEnclosure("interval too wide to locate nearest integer")
    f_lo = x_lo & (one - 1)
    if f_lo == 0 or x_lo >> k != x_hi >> k:
        return 0
    f_hi = x_hi & (one - 1)
    return min(f_lo, one - f_lo, f_hi, one - f_hi)


def _exceeds(dist: int, k: int, bound: Fraction) -> bool:
    """Exactly whether dist / 2^k > bound."""
    return dist * bound.denominator > bound.numerator << k
