"""Certified root isolation on the canonical segment and the bound family."""

import math
import random
import signal
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import libmpi

from pscert import analytic, exactnum, pipeline
from pscert.analytic import (BoundReport, _rho_bracket, _sample_points,
                             _scan_limit, _segment_form, _window_scan,
                             bound_14_9, c_small_threshold, close_window,
                             general_bounds, isolate_segment_roots,
                             lmn3_c_max, max_modulus, window_theta)
from pscert.errors import (AmbiguousEnclosure, DomainError,
                           PrecisionExhausted, VerificationFailed)
from pscert.exactnum import (ComplexBox, RealInterval, icos, ilog, isin,
                             isqrt, nearest_integer_distance, pi_interval)
from pscert.pipeline import certify_a1, certify_general_bounds
from pscert.powersum import build_pq
from pscert.unipoly import ZZ, ExactPoly


def _sign_s(u: Fraction, n: int, prec: int = 64) -> int:
    """Trigonometric oracle: certified sign of s(u pi) = 2 cos(n u pi)
    + (2 cos(u pi))^n for u in (1/2, 2/3), which has the sign of P_n at
    -1/2 + i t with t = -tan(u pi) / 2; 0 if undecidable at the cap."""
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


def eval_p_on_box(n: int, box: ComplexBox) -> ComplexBox:
    """Interval evaluation of P_n on a complex box (Horner)."""
    acc = ComplexBox(0, 0)
    for c in reversed(build_pq(n).P.coeffs):
        acc = acc * box + ComplexBox(int(c), 0)
    return acc


def eval_q_on_box(n: int, box: ComplexBox) -> ComplexBox:
    coeffs = build_pq(n).Q.coeffs
    acc = ComplexBox(0, 0)
    for c in reversed(coeffs):
        acc = acc * box + ComplexBox(Fraction(c), 0)
    return acc


class TestIsolation:
    def test_count_law(self):
        for n in range(2, 61):
            roots = isolate_segment_roots(n)
            assert len(roots) == build_pq(n).Q.degree // 6, n

    def test_empty_for_constant_cofactor(self):
        for n in (2, 3, 4, 5, 7):
            assert build_pq(n).Q.degree == 0
            assert _segment_form(n)[1] == (), n
            assert isolate_segment_roots(n) == [], n

    def test_b8_root_value(self):
        (root,) = isolate_segment_roots(8, target_width=Fraction(1, 10 ** 12))
        t_ref = Fraction(2513228157188, 10 ** 12)
        assert abs(root.t.mid - t_ref) < Fraction(1, 10 ** 9)

    def test_root_certification(self):
        for n in range(6, 61):
            if build_pq(n).Q.degree == 0:
                continue
            for root in isolate_segment_roots(n):
                val = eval_p_on_box(n, root.alpha(192))
                assert val.contains_zero(), n

    def test_orbit_closure(self):
        for n in (8, 12, 18, 24, 30):
            for root in isolate_segment_roots(n):
                alpha = root.alpha(128)
                conj = alpha.conj()
                orbit = {"alpha": alpha, "conj": conj,
                         "conj_over_alpha": conj / alpha,
                         "alpha_over_conj": alpha / conj,
                         "inv_alpha": 1 / alpha, "inv_conj": 1 / conj}
                for name, box in orbit.items():
                    assert eval_q_on_box(n, box).contains_zero(), (n, name)

    def test_refinement(self):
        (root,) = isolate_segment_roots(8)
        (fine,) = isolate_segment_roots(8, Fraction(1, 10 ** 30), prec=256)
        assert fine.t.width <= Fraction(1, 10 ** 30)
        assert root.t.lo <= fine.t.lo and fine.t.hi <= root.t.hi

    def test_refinement_past_the_cap_is_unreachable(self, monkeypatch):
        monkeypatch.setattr(exactnum, "MAX_PREC", 64)
        with pytest.raises(PrecisionExhausted, match="precision cap"):
            max_modulus(8, Fraction(1, 10 ** 60), prec=64)
        with pytest.raises(PrecisionExhausted, match="precision cap"):
            isolate_segment_roots(8, Fraction(1, 10 ** 60), prec=64)

    def test_certify_a1_takes_no_trigonometry(self, monkeypatch):
        """Segment roots are refined in rho alone: certifying takes no
        cosine or sine enclosure, at any step."""
        calls = []

        def counted(name):
            real = getattr(libmpi, name)
            return lambda *args: calls.append(name) or real(*args)
        # icos and isin import mpmath's functions when called, so the
        # patched ones are what they run
        for name in ("mpi_cos", "mpi_sin", "mpi_cos_sin"):
            monkeypatch.setattr(libmpi, name, counted(name))
        for b in (6, 8, 10, 11, 13, 30, 42):
            assert certify_a1(b).conclusion["status"] == "closed", b
        assert calls == []
        icos(RealInterval(1)), isin(RealInterval(1))  # the count sees calls
        assert {"mpi_cos", "mpi_sin"} <= set(calls)

    def test_classification_matches_trig_oracle(self):
        """sign s(u) = sigma_n sign(lc S_n) (-1)^N(u), N(u) the number of
        roots with u* < u, that is of roots of S_n above rho(u) =
        1 / (4 cos^2(u pi)), counted from sympy's isolating intervals, and
        sigma_n = sign(C_n on the segment) sign(lc Q / lc Q_zz); seeded u
        in (1/2, 2/3) for n = 6..60."""
        rng = random.Random(11)
        rho = sympy.symbols("rho")
        for n in range(6, 61):
            pq = build_pq(n)
            if pq.R.degree == 0:
                continue
            s = _segment_form(n)[0]
            S = sympy.Poly(list(reversed(s)), rho)
            roots = [ab for ab, _ in S.intervals(eps=sympy.Rational(1, 10 ** 6))]
            sigma = (_sign_on_segment(pq.C) * _sign(pq.Q.coeffs[-1])
                     * _sign(pq.Q_zz.coeffs[-1]) * _sign(s[-1]))
            us = [Fraction(1, 2) + Fraction(rng.randrange(1, 10 ** 6),
                                            6 * 10 ** 6) for _ in range(8)]
            for u in us + _sample_points(n, 0):
                # for even n, the first sample point lies within about
                # (pi / n)^n of a root
                prec = 128
                while True:
                    rho_u = 1 / (4 * icos(pi_interval(prec) * u) ** 2)
                    settled = [_settle(S, ab, rho_u.lo, rho_u.hi)
                               for ab in roots]
                    if all(b < rho_u.lo or a > rho_u.hi for a, b in settled):
                        break
                    prec *= 2
                above = sum(bool(a > rho_u.hi) for a, _ in settled)
                assert _sign_s(u, n) == sigma * (-1) ** above, (n, u)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _settle(S, ab, lo, hi) -> tuple:
    """The isolating interval ab of a real root of the sympy polynomial S,
    refined until it lies inside [lo, hi] or misses it."""
    (a, b), lo, hi = ab, sympy.Rational(lo), sympy.Rational(hi)
    while not (lo <= a and b <= hi or b < lo or hi < a):
        a, b = S.refine_root(a, b, eps=(b - a) / 16)
    return a, b


def _inside(S, ab, lo, hi) -> bool:
    a, b = _settle(S, ab, lo, hi)
    return bool(lo <= a and b <= hi)


def _sign_on_segment(c) -> int:
    """Sign of the real value of C_n at -1/2 + i, exact in Q(i)."""
    re, im = Fraction(0), Fraction(0)
    for a in reversed(c.coeffs):  # (re + i im) (-1/2 + i) + a
        re, im = -re / 2 - im + a, re - im / 2
    assert im == 0
    return _sign(re)


class TestExactLayer:
    """The exact integer layer against sympy: the count law, the grid
    brackets and their Newton refinements, for n = 2..120."""

    SPREAD = (8, 11, 13, 19, 25, 30, 36, 42, 49, 53, 60)
    RANGE = range(2, 121)

    @staticmethod
    def _polys(n):
        J, rho = sympy.symbols("J rho")
        r = [int(c) for c in build_pq(n).R.coeffs]
        R = sympy.Poly(list(reversed(r)), J)
        S = sympy.Poly(list(reversed(_segment_form(n)[0])), rho)
        return R, S, J, rho

    @staticmethod
    def _ends(lo, hi, b):
        return sympy.Rational(lo, 2 ** b), sympy.Rational(hi, 2 ** b)

    def test_counts_match_sympy(self):
        for n in self.RANGE:
            R, S, J, rho = self._polys(n)
            k = R.degree()
            R_neg = sympy.Poly(R.as_expr().subs(J, -J), J)
            assert R_neg.count_roots(0, None) == k, n
            assert S.eval(1) != 0 and len(S.intervals(inf=1)) == k, n
            assert len(_segment_form(n)[1]) == k, n
            # S_n = sum_j r_j (1 - rho)^(3j) rho^(2(k-j))
            one_minus, x = sympy.Poly(1 - rho, rho), sympy.Poly(rho, rho)
            assert S == sum((c * one_minus ** (3 * j) * x ** (2 * (k - j))
                             for j, c in enumerate(reversed(R.all_coeffs()))),
                            sympy.Poly(0, rho)), n

    def test_brackets_hold_one_sympy_root_each(self):
        """As many disjoint brackets above 1 as sympy finds roots of S_n
        there, each with a strict sign change of S_n at its ends in sympy's
        exact evaluation: each holds exactly one of those roots."""
        for n in self.RANGE:
            R, S, _, _ = self._polys(n)
            brackets = _segment_form(n)[1]  # by decreasing rho
            # S_n has deg R_n roots above 1 (`test_counts_match_sympy`)
            assert len(brackets) == R.degree(), n
            for lo, hi, b, sign_lo in brackets:
                lo_q, hi_q = self._ends(lo, hi, b)
                assert bool(lo_q > 1), n
                assert int(sympy.sign(S.eval(lo_q))) == sign_lo != 0, n
                assert int(sympy.sign(S.eval(hi_q))) == -sign_lo, n
            ends = [Fraction(lo, 2 ** b) for lo, hi, b, _ in brackets]
            tops = [Fraction(hi, 2 ** b) for lo, hi, b, _ in brackets]
            assert all(lo >= hi for lo, hi in zip(ends, tops[1:])), n

    def test_refined_brackets_hold_their_root(self):
        """A sub-bracket of a one-root bracket with a strict sign change of
        S_n at its ends (sympy's exact evaluation) holds that root: every
        root's for the spread of n, and the top root's, the one the
        pipeline refines, for every n."""
        for n in self.RANGE:
            _, S, _, _ = self._polys(n)
            brackets = _segment_form(n)[1]
            if n not in self.SPREAD:
                brackets = brackets[:1]
            for i, (lo0, hi0, b0, _) in enumerate(brackets):
                for bits in (1, 64, 128, 512) if n in self.SPREAD else (128,):
                    lo, hi, b, sign_lo = _rho_bracket(n, i, bits)
                    assert b == max(bits, b0) and 0 < hi - lo <= 2, (n, i)
                    assert lo0 << (b - b0) <= lo and hi <= hi0 << (b - b0)
                    lo_q, hi_q = self._ends(lo, hi, b)
                    assert int(sympy.sign(S.eval(lo_q))) == sign_lo != 0
                    assert int(sympy.sign(S.eval(hi_q))) == -sign_lo

    @pytest.mark.parametrize("n", [6, 8, 13, 25, 42, 60])
    def test_enclosures_hold_the_sympy_roots(self, n):
        """rho, t = sqrt(rho - 1/4) and r = sqrt(rho) of every segment root,
        at two widths, the finer one reached by doubling from 8 bits, hold
        sympy's root of S_n above 1, isolated to 10^-40 and refined further
        where an enclosure is narrower."""
        _, S, _, _ = self._polys(n)
        eps = sympy.Rational(1, 10 ** 40)
        xs = [ab for ab, _ in S.intervals(eps=eps, inf=1)]  # increasing
        quarter = Fraction(1, 4)
        for width, prec in ((Fraction(1, 10 ** 12), 128),
                            (Fraction(1, 10 ** 30), 8)):
            roots = isolate_segment_roots(n, width, prec)  # increasing t
            assert len(roots) == len(xs), n
            for x, root in zip(xs, roots):
                t, r = root.t, root.modulus()
                assert 0 < t.lo and t.width <= width, n
                assert _inside(S, x, root.rho.lo, root.rho.hi), n
                assert _inside(S, x, t.lo ** 2 + quarter, t.hi ** 2 + quarter)
                assert _inside(S, x, r.lo ** 2, r.hi ** 2), n
            r = max_modulus(n, width, prec)
            assert r.width <= width and _inside(S, xs[-1], r.lo ** 2, r.hi ** 2)

    def test_top_bracket_inside_max_modulus_squared(self):
        for n in (8, 11, 25, 42):
            lo, hi, b, _ = _rho_bracket(n, 0, 128)
            mm2 = max_modulus(n) ** 2
            assert mm2.lo < Fraction(lo, 2 ** b) < Fraction(hi, 2 ** b) < mm2.hi

    @given(s=st.lists(st.integers(min_value=-10 ** 40, max_value=10 ** 40),
                      min_size=1, max_size=40),
           x=st.integers(min_value=-2 ** 300, max_value=2 ** 300),
           b=st.integers(min_value=0, max_value=256))
    @settings(max_examples=300, deadline=None)
    @example(s=[5], x=-3, b=0)
    @example(s=[0, 0, 7], x=0, b=256)
    def test_value_and_slope_in_one_pass(self, s, x, b):
        ds = [i * c for i, c in enumerate(s)][1:]
        assert analytic._scaled_with_slope(s, x, b) == \
            (analytic._scaled(s, x, b), analytic._scaled(ds, x, b))

    def test_coarse_grid_raises(self, monkeypatch):
        """A sample grid that misses roots yields no brackets: every shrink
        from 0 to 7 is tried, and then VerificationFailed."""
        asked = []

        def coarse(n, shrink):
            asked.append((n, shrink))
            return [Fraction(11, 20), Fraction(3, 5)]
        monkeypatch.setattr(analytic, "_sample_points", coarse)
        _segment_form.cache_clear()
        try:
            with pytest.raises(VerificationFailed, match="found [01] of the 3"):
                _segment_form(25)
        finally:
            _segment_form.cache_clear()
        assert asked == [(25, shrink) for shrink in range(8)]

    @pytest.mark.parametrize("r, why", [
        ([20, 126, 75, -5], "sign changes"),  # R_25 with r_3 negated: 2 of 3
        ([1, 1, 1], "found 0 of the 2"),      # 2 sign changes, no real root
    ])
    def test_count_law_failure_raises(self, monkeypatch, r, why):
        class Fake:
            R = ExactPoly(r, ZZ)
        monkeypatch.setattr(analytic, "build_pq",
                            lambda n: Fake if n == 25 else build_pq(n))
        _segment_form.cache_clear()
        try:
            with pytest.raises(VerificationFailed, match=why):
                isolate_segment_roots(25)
        finally:
            _segment_form.cache_clear()


class TestMaxModulus:
    def test_b8(self):
        mm = max_modulus(8)
        assert Fraction(25624, 10 ** 4) < mm.lo
        assert mm.hi < Fraction(25626, 10 ** 4)

    def test_above_14_ninths_for_6(self):
        assert max_modulus(6).lo > Fraction(14, 9)

    def test_large_root_band(self):
        for n in (12, 14, 16):
            assert max_modulus(n).lo >= Fraction(383, 100)

    def test_matches_largest_t(self):
        roots = isolate_segment_roots(10)
        top = max(roots, key=lambda r: r.t.lo)
        expected = isqrt(Fraction(1, 4) + top.t.at_prec(128) ** 2)
        mm = max_modulus(10)
        assert mm.lo <= expected.hi and expected.lo <= mm.hi

    def test_top_modulus_matches_and_keeps_root(self):
        # max_modulus refines the cached bracket an isolated top root came
        # from; its r^2 must meet that root's rho and leave the root as is
        width = Fraction(1, 10 ** 12)
        top = isolate_segment_roots(13, target_width=width)[-1]
        t_before = (top.t.lo, top.t.hi, top.rho.lo, top.rho.hi)
        mm = max_modulus(13, width=width)
        assert mm.lo ** 2 <= top.rho.hi and top.rho.lo <= mm.hi ** 2
        assert (top.t.lo, top.t.hi, top.rho.lo, top.rho.hi) == t_before


def _top_modulus_oracle(n: int, width: Fraction, prec: int) -> RealInterval:
    """max_modulus as its own loop computed it before escalation moved to
    `analytic._escalate`: sqrt(rho) of the top root's bracket, at bits
    doubling from prec until it is no wider than width."""
    bits = prec
    while True:
        lo, hi, b, _ = _rho_bracket(n, 0, bits)
        r = isqrt(RealInterval(Fraction(lo, 1 << b), Fraction(hi, 1 << b),
                               prec=bits))
        if r.width <= width:
            return r
        bits *= 2


class TestTopSegmentRoot:
    """`max_modulus` and `close_window` refine only the bracket of the root
    of largest t, index 0; it must be the root full isolation reports
    last."""

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("n", [6, 8, 13, 25, 42])
    def test_is_the_last_isolated_root(self, n, prec):
        width = Fraction(1, 10 ** 12)
        top, _ = analytic._refined(n, 0, prec, lambda root: root.t,
                                   lambda t: t.width <= width)
        last = isolate_segment_roots(n, prec=prec)[-1]
        assert (top.n, top.index, top.rho.lo, top.rho.hi, top.t.lo,
                top.t.hi) == (last.n, last.index, last.rho.lo, last.rho.hi,
                              last.t.lo, last.t.hi)

    @pytest.mark.parametrize("n, width, prec", [
        (6, Fraction(1, 10 ** 9), 128), (8, Fraction(1, 10 ** 9), 256),
        (13, Fraction(1, 10 ** 12), 128), (25, Fraction(1, 10 ** 9), 128),
        (42, Fraction(1, 10 ** 20), 256)])
    def test_max_modulus_unchanged(self, n, width, prec):
        before = _top_modulus_oracle(n, width, prec)
        mm = max_modulus(n, width=width, prec=prec)
        assert (mm.lo, mm.hi, mm.prec) == (before.lo, before.hi, before.prec)

    def test_constant_q_has_no_top_root(self):
        with pytest.raises(ValueError, match="constant"):
            max_modulus(7)
        with pytest.raises(ValueError, match="Q_5 is constant"):
            max_modulus(5)
        with pytest.raises(ValueError, match="Q_7 is constant"):
            close_window(7, 1, 2)


class TestBounds:
    def test_14_9_constant(self):
        t = isqrt(RealInterval(Fraction(14, 9) ** 2 - Fraction(1, 4),
                               prec=128))
        rep = bound_14_9(t)
        assert rep.verdict == "Satisfied"
        assert Fraction(4885, 10 ** 4) < rep.value.lo
        assert rep.value.hi < Fraction(4890, 10 ** 4)

    def test_14_9_violated_for_large_root(self):
        (root,) = isolate_segment_roots(8)
        rep = bound_14_9(root.t)
        assert rep.verdict == "Violated"
        assert rep.value.lo > Fraction(1, 2)

    def test_14_9_boundary(self):
        t = isqrt(RealInterval(Fraction(3, 4) + Fraction(1, 10 ** 6),
                               prec=128))
        rep = bound_14_9(t)
        assert rep.verdict == "Satisfied"
        assert rep.value.hi < Fraction(1, 10 ** 6)

    def test_c_small_threshold_b8(self):
        rep = c_small_threshold(max_modulus(8), 8)
        assert rep.details["c_excluded_up_to"] >= 2500

    def test_c_small_threshold_b43(self):
        rep = c_small_threshold(Fraction(14, 9), 43)
        assert rep.value.lo > 10 ** 6

    def test_c_small_threshold_rejects_interval_below_14_9(self):
        # only the upper endpoint of [6/5, 8/5] reaches 14/9
        with pytest.raises(ValueError):
            c_small_threshold(RealInterval(Fraction(6, 5), Fraction(8, 5),
                                           prec=128), 8)
        with pytest.raises(ValueError):
            c_small_threshold(RealInterval(Fraction(14, 9), prec=128), 8)

    def test_c_small_threshold_exact_r(self):
        with pytest.raises(ValueError):
            c_small_threshold(Fraction(14, 9) - Fraction(1, 10 ** 30), 8)
        rep = c_small_threshold(Fraction(14, 9), 8, prec=96)
        enclosure = RealInterval(Fraction(14, 9), prec=96)
        assert rep.inputs["r"].prec == 96
        assert (rep.inputs["r"].lo, rep.inputs["r"].hi) == \
            (enclosure.lo, enclosure.hi)

    def test_c_small_monotone(self):
        r1 = Fraction(14, 9)
        r2 = RealInterval(Fraction(2), Fraction(2), prec=128)
        for b in (8, 12, 20):
            assert c_small_threshold(r1, b).value.hi < \
                c_small_threshold(r2, b).value.lo
            assert c_small_threshold(r1, b).value.hi < \
                c_small_threshold(r1, b + 1).value.lo

    def test_lmn3_c_max_b8(self):
        rep = lmn3_c_max(8)
        assert rep.verdict == "Satisfied"
        assert 45 * 10 ** 5 <= rep.details["c_max"] <= 55 * 10 ** 5

    def test_lmn3_rhs_b8(self):
        rep = lmn3_c_max(8)
        assert rep.inputs["rhs"] == 320 * 64 + Fraction(1024, 3)

    def test_lmn3_contradiction_b43(self):
        # small-c threshold at r = 14/9 exceeds the large-c cap: the two
        # regimes overlap and every c is excluded
        c_lo = c_small_threshold(Fraction(14, 9), 43) \
            .details["c_excluded_up_to"]
        c_hi = lmn3_c_max(43).details["c_max"]
        assert c_lo >= c_hi

    def test_lmn3_monotone_in_b(self):
        vals = [lmn3_c_max(b).details["c_max"] for b in (8, 12, 16, 24)]
        assert vals == sorted(vals)


class TestGeneralBounds:
    def test_a2_constants(self):
        rep = general_bounds(2, "other")
        assert rep["b_range"].details["b_strictly_below"] == 9600
        assert rep["r_lower"].details["formula"] == "exp(1/80)"
        rep = general_bounds(2, "exactly-one-even")
        assert rep["b_range"].details["b_strictly_below"] == 2400
        assert rep["r_lower"].details["formula"] == "exp(1/20)"

    def test_r_lower_encloses_exp(self):
        rep = general_bounds(2, "other")["r_lower"]
        # exp(1/80) = 1.012578...
        assert Fraction(10125, 10 ** 4) < rep.value.lo
        assert rep.value.hi < Fraction(10126, 10 ** 4)

    def test_c_bracket_finite(self):
        r = RealInterval(Fraction(21, 20), Fraction(21, 20), prec=128)
        rep = general_bounds(2, "other", b=7, r=r)["c_bracket"]
        assert rep.verdict == "Satisfied"
        assert rep.details["c_max"] > 0

    def test_c_bracket_start_is_checked(self):
        # 8 / (log 8)^2 = 1.85 > 1: no c >= 8 qualifies
        assert analytic._c_bracket(RealInterval(1)) == (8, "Undecided")

    def test_c_bracket_undecided_doubling_is_no_c_max(self, monkeypatch):
        # an rhs enclosing 32 / (log 32)^2 leaves c = 32 undecided at the cap
        monkeypatch.setattr(exactnum, "MAX_PREC", 64)
        c = RealInterval(32, 32, prec=64)
        rhs = c / ilog(c) ** 2
        assert analytic._c_bracket(rhs, 64)[1] == "Undecided"

    def test_unity_exclusion_direction(self):
        big_r = RealInterval(Fraction(4), Fraction(4), prec=128)
        rep = general_bounds(2, "other", b=20, r=big_r)["unity_exclusion"]
        assert rep.verdict == "Satisfied"  # 4^20 >> 2 * 20^8

    def test_requires_a_at_least_2(self):
        with pytest.raises(ValueError):
            general_bounds(1)

    @pytest.mark.parametrize("parity", ["Exactly-One-Even", "odd", ""])
    def test_unknown_parity_raises(self, parity):
        with pytest.raises(ValueError, match="parity"):
            general_bounds(2, parity)
        with pytest.raises(ValueError, match="parity"):
            certify_general_bounds(2, parity)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_log_r_not_positive_leaves_the_c_bracket_undecided(self, p):
        # 21/20 rounded to p bits reaches down to 1, so log r contains 0
        r = RealInterval(Fraction(21, 20), prec=p)
        cert = certify_general_bounds(2, "other", 7, r, prec=p)
        assert cert.conclusion == {"status": "undecided"}
        (step,) = [s for s in cert.steps if s["op"] == "finite c bracket"]
        assert step["verdict"] == "Undecided"
        assert step["outputs"]["reason"] == "log r is not certified positive"

    def test_r_below_one_over_e_leaves_the_c_bracket_undecided(self):
        # log r < -1 makes 1 + 1/log r positive, but no r < 1 bounds a modulus
        r = RealInterval(Fraction(1, 3), prec=128)
        rep = general_bounds(2, "other", b=7, r=r)["c_bracket"]
        assert (rep.verdict, rep.details["c_max"]) == ("Undecided", None)


def _c_max_by_bisection(rhs: RealInterval, prec: int = 128) -> int:
    """c_max as `_c_bracket` found it before the two-point check: c /
    (log c)^2 enclosed afresh for each c, doubling from 16, then bisection."""

    def le(c):
        p = prec
        while True:
            c_iv = RealInterval(c, c, prec=p)
            v = c_iv / ilog(c_iv) ** 2
            if v.hi <= rhs.lo:
                return True
            if v.lo > rhs.hi:
                return False
            assert p < exactnum.MAX_PREC
            p *= 2

    lo, hi = 8, 16
    assert le(lo)
    while le(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if le(mid) else (lo, mid)
    return lo


class TestCBracket:
    """c_max from an untrusted guess, certified at c_max and c_max + 1."""

    @pytest.mark.parametrize("b", [6, 8, 10, 11, 13])
    def test_lmn3_decided_from_any_precision(self, b):
        c_max = lmn3_c_max(b).details["c_max"]
        for prec in [*range(2, 17), 24, 64, 128]:
            rep = lmn3_c_max(b, prec)
            assert (rep.verdict, rep.details["c_max"]) == \
                ("Satisfied", c_max), prec

    def test_lmn3_matches_bisection(self):
        for b in range(6, 201):
            rhs = 320 * b * b + Fraction(2 * b ** 3, 3)
            rep = lmn3_c_max(b)
            assert rep.verdict == "Satisfied"
            assert rep.details["c_max"] == \
                _c_max_by_bisection(RealInterval(rhs, rhs, prec=128)), b

    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("b", [7, 20, 40])
    @pytest.mark.parametrize("r", [Fraction(21, 20), Fraction(11, 10),
                                   Fraction(3, 2)])
    def test_general_bounds_match_bisection(self, a, b, r):
        r = RealInterval(r, prec=128)
        rep = general_bounds(a, "other", b=b, r=r)["c_bracket"]
        rhs = (1 + 1 / ilog(r)) * (3 * (a * b) ** 6)
        assert rep.verdict == "Satisfied"
        assert rep.details["c_max"] == _c_max_by_bisection(rhs)

    @pytest.mark.parametrize("offset", [-10 ** 9, -1000, -122, -3, -1, 1, 2,
                                        122, 10 ** 6])
    def test_wrong_guess_is_corrected(self, monkeypatch, offset):
        rhs = 320 * 8 ** 2 + Fraction(2 * 8 ** 3, 3)
        c_max = lmn3_c_max(8).details["c_max"]
        monkeypatch.setattr(analytic, "_c_guess", lambda rhs: c_max + offset)
        assert analytic._c_bracket(rhs) == (c_max, "Satisfied")

    @pytest.mark.parametrize("guess", [None, 9, 2 ** 98, 10 ** 31])
    def test_checked_range_ends_at_2_to_the_99(self, monkeypatch, guess):
        if guess is not None:
            monkeypatch.setattr(analytic, "_c_guess", lambda rhs: guess)
        checked = []

        def logged(x):
            checked.append(x.lo)
            return ilog(x)
        monkeypatch.setattr(analytic, "ilog", logged)

        def f(c):
            c_iv = RealInterval(c, prec=256)
            return c_iv / ilog(c_iv) ** 2

        def rhs_with_c_max(c):
            assert f(c).hi < f(c + 1).lo
            return (f(c).hi + f(c + 1).lo) / 2

        top = 2 ** 99
        assert analytic._c_bracket(rhs_with_c_max(top - 1)) == \
            (top - 1, "Satisfied")
        assert analytic._c_bracket(rhs_with_c_max(top)) == \
            (2 * top, "Undecided")
        assert analytic._c_bracket(Fraction(10 ** 400)) == \
            (2 * top, "Undecided")
        assert max(checked) == top

    def test_right_guess_checks_two_points(self, monkeypatch):
        seen = []

        def logged(x):
            seen.append(x.lo)
            return ilog(x)
        monkeypatch.setattr(analytic, "ilog", logged)
        c_max = lmn3_c_max(8).details["c_max"]
        assert seen == [8, c_max, c_max + 1]


def _work_began(*args, **kwargs):
    raise RuntimeError("work began before the precision check")


class TestPrecisionArgument:
    """Escalation doubles the starting precision, so below 1 bit it would
    never end: every public entry point rejects that before any work."""

    @pytest.fixture(scope="class")
    def root(self):
        return isolate_segment_roots(8)[0]

    CALLS = {
        "certify_a1": lambda root, p: certify_a1(8, prec=p),
        "certify_general_bounds": lambda root, p: certify_general_bounds(
            2, "other", 7, RealInterval(Fraction(21, 20)), prec=p),
        "isolate_segment_roots":
            lambda root, p: isolate_segment_roots(8, prec=p),
        "max_modulus": lambda root, p: max_modulus(8, prec=p),
        "c_small_threshold":
            lambda root, p: c_small_threshold(Fraction(14, 9), 8, prec=p),
        "lmn3_c_max": lambda root, p: lmn3_c_max(8, prec=p),
        "general_bounds":
            lambda root, p: general_bounds(2, b=7, r=RealInterval(2), prec=p),
        "window_theta": lambda root, p: window_theta(8, root, prec=p),
        "close_window":
            lambda root, p: close_window(8, 2920, 4947180, prec=p),
    }

    @pytest.mark.parametrize("prec", [0, -5])
    @pytest.mark.parametrize("name", CALLS)
    def test_rejected_at_once(self, monkeypatch, root, name, prec):
        for mod, work in [(pipeline, "build_pq"), (analytic, "build_pq"),
                          (analytic, "ilog"), (analytic, "iexp"),
                          (analytic, "isqrt"), (analytic, "iatan2"),
                          (analytic, "pi_interval"),
                          (analytic, "_segment_form"),
                          (analytic, "_rho_bracket")]:
            monkeypatch.setattr(mod, work, _work_began)
        # a Ziv loop never returns at a precision below 1 bit
        signal.signal(signal.SIGALRM, _work_began)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            with pytest.raises(ValueError, match="precision"):
                self.CALLS[name](root, prec)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


class TestWidthArgument:
    """Refinement narrows toward the target width, so at 0 or below it
    would never end: every public width is rejected before any work."""

    CALLS = {
        "isolate_segment_roots":
            lambda w: isolate_segment_roots(8, target_width=w),
        "max_modulus": lambda w: max_modulus(8, width=w),
    }

    @pytest.mark.parametrize("width", [0, -1, Fraction(-1, 10 ** 12)])
    @pytest.mark.parametrize("name", CALLS)
    def test_rejected_at_once(self, monkeypatch, name, width):
        for work in ("_segment_form", "_rho_bracket", "isqrt"):
            monkeypatch.setattr(analytic, work, _work_began)
        signal.signal(signal.SIGALRM, _work_began)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            with pytest.raises(ValueError, match="width must be positive"):
                self.CALLS[name](width)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


class TestCloseWindow:
    def test_degenerate_window(self):
        rep = close_window(8, 100, 100)
        assert rep.verdict == "Satisfied"
        assert rep.details["m_count"] == 0

    def test_b8_window(self):
        rep = close_window(8, 2920, 4947180)
        assert rep.verdict == "Satisfied"
        assert rep.details["m_count"] <= 1000
        # the reference digits are truncated, so compare with tolerance
        ref = Fraction(584032375784959, 10 ** 11)
        tol = Fraction(1, 10 ** 8)
        assert ref - tol < rep.value.lo and rep.value.hi < ref + tol
        assert rep.value.width < tol

    def test_m1_distance(self):
        # the first multiple: pi/|theta| is ~0.324 away from the integer 5840
        (root,) = isolate_segment_roots(8, Fraction(1, 10 ** 24), prec=256)
        theta = window_theta(8, root, 256)
        from pscert.exactnum import nearest_integer_distance, pi_interval
        x = pi_interval(256) / theta
        d = nearest_integer_distance(x)
        assert Fraction(32, 100) < d.lo < d.hi < Fraction(33, 100)

    def test_value_just_above_c_hi_is_scanned(self):
        # 34 pi/|theta| = 198571.0078 lies within the threshold 0.0124 of
        # c = 198571, which is in the window (15, 198571]
        for c_hi in (198571, 198572):
            rep = close_window(8, 15, c_hi)
            assert rep.verdict == "Undecided", c_hi
            assert rep.details["offending_m"] == 34

    def test_theta_too_wide_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(exactnum, "MAX_PREC", 128)
        with pytest.raises(PrecisionExhausted, match="precision cap at n=8"):
            close_window(8, 1, 10 ** 40, prec=128)

    def test_theta_touching_zero_is_a_domain_error(self, monkeypatch):
        for theta in (RealInterval(0, Fraction(1, 10), prec=256),
                      RealInterval(Fraction(-1, 10), Fraction(-1, 20),
                                   prec=256)):
            monkeypatch.setattr(analytic, "window_theta",
                                lambda b, zeta, prec, theta=theta: theta)
            with pytest.raises(DomainError):
                close_window(8, 2920, 4947180)


def _scan_case(k, m, a_lo, a_hi, span=1, limit=0):
    """Arguments of `_window_scan` whose scan starts at or just below m:
    c_lo is the largest integer below m A_hi / 2^K, and c_hi = c_lo + span."""
    c_lo = max(0, -(-m * a_hi >> k) - 1)
    return k, a_lo, a_hi, c_lo, c_lo + span, limit


@st.composite
def window_scans(draw):
    """`_window_scan` arguments for scans of at most a few dozen m, with
    pi/|theta| = A_lo / 2^K at least 1/8, and a width A_hi - A_lo that is
    small, at the 1/4 limit of an m of the scan, or just past it."""
    k = draw(st.integers(0, 96))
    one = 1 << k
    a_lo = draw(st.integers(max(1, one >> 3), one << 8))
    m = draw(st.integers(1, 10 ** 6))
    at = -(-one // (4 * (m + draw(st.integers(0, 24)))))  # m + j too wide
    delta = draw(st.one_of(st.integers(0, 3), st.integers(0, at + 2),
                           st.integers(max(0, at - 1), at + 1)))
    limit = draw(st.one_of(st.integers(0, 3), st.integers(0, one >> 4)))
    return _scan_case(k, m, a_lo, a_lo + delta, draw(st.integers(0, 3)),
                      limit)


def _scan_oracle(k, a_lo, a_hi, c_lo, c_hi, limit):
    """`_window_scan` by brute force: each exact enclosure m [A_lo, A_hi] /
    2^K goes to exactnum.nearest_integer_distance; ("wide", m) at the first
    m too wide for it."""
    one = 1 << k
    lo, hi = Fraction(a_lo, one), Fraction(a_hi, one)
    ms = range(max(1, math.floor(c_lo / hi) + 1),
               math.floor((c_hi + Fraction(limit, one)) / lo) + 1)
    best = None
    for m in ms:
        prec = max(k, (m * a_hi).bit_length()) + 8  # every endpoint exact
        x = RealInterval(m * lo, m * hi, prec=prec)
        assert (x.lo, x.hi) == (m * lo, m * hi)
        if x.width >= Fraction(1, 4):
            with pytest.raises(AmbiguousEnclosure):
                nearest_integer_distance(x)
            return "wide", m
        dist = nearest_integer_distance(x).lo * one
        assert dist.denominator == 1
        assert (dist == 0) == (math.ceil(x.lo) <= x.hi)
        if dist <= limit:
            return len(ms), m, int(dist)
        best = dist if best is None else min(best, dist)
    return len(ms), None, best


class TestFixedPointScan:
    """The running-fractional-part scan against a per-m interval oracle."""

    @given(case=window_scans())
    @settings(max_examples=300, deadline=None)
    @example(case=_scan_case(4, 3, 16, 16))    # integer endpoints
    @example(case=_scan_case(4, 1, 17, 19))    # inside (1, 2)
    @example(case=_scan_case(4, 1, 15, 17))    # straddles 1
    @example(case=_scan_case(4, 1, 31, 33))    # straddles 2
    @example(case=_scan_case(4, 1, 24, 24, limit=8))   # exactly 3/2
    @example(case=_scan_case(8, 2, 100, 132))  # width exactly 1/4
    def test_matches_nearest_integer_distance(self, case):
        expected = _scan_oracle(*case)
        if expected[0] == "wide":
            with pytest.raises(AmbiguousEnclosure):
                _window_scan(*case)
        else:
            assert _window_scan(*case) == expected

    def test_examples_reach_their_edge(self):
        assert _window_scan(*_scan_case(4, 3, 16, 16)) == (1, 3, 0)
        assert _window_scan(*_scan_case(4, 1, 17, 19)) == (1, None, 1)
        assert _window_scan(*_scan_case(4, 1, 15, 17)) == (2, 1, 0)
        assert _window_scan(*_scan_case(4, 1, 24, 24, limit=8)) == (1, 1, 8)
        assert _window_scan(*_scan_case(4, 1, 24, 24, limit=7)) == \
            (1, None, 8)
        assert _scan_oracle(*_scan_case(8, 2, 100, 132)) == ("wide", 2)

    @given(bound=st.fractions(0, 1), k=st.integers(0, 96),
           dist=st.integers(0, 1 << 20))
    def test_scan_limit_is_exact(self, bound, k, dist):
        assert (dist > _scan_limit(bound, k)) == (Fraction(dist, 1 << k) > bound)


class TestVerdictStability:
    def test_reports_stable_under_precision_doubling(self):
        t = isqrt(RealInterval(Fraction(14, 9) ** 2 - Fraction(1, 4),
                               prec=128))
        t2 = isqrt(RealInterval(Fraction(14, 9) ** 2 - Fraction(1, 4),
                                prec=256))
        assert bound_14_9(t).verdict == bound_14_9(t2).verdict
        assert lmn3_c_max(8, prec=128).details == \
            lmn3_c_max(8, prec=256).details
        r1 = max_modulus(8, prec=128)
        r2 = max_modulus(8, prec=256)
        assert c_small_threshold(r1, 8).details == \
            c_small_threshold(r2, 8).details
