"""Certified root isolation on the canonical segment and the bound family."""

from fractions import Fraction

import pytest

from pscert.analytic import (BoundReport, SegmentRoot, _sign_s, bound_14_9,
                             c_small_threshold, close_window, eval_p_on_box,
                             general_bounds, isolate_segment_roots, lmn3_c_max,
                             lmn_lower, max_modulus, refine_segment_root,
                             ten_delta_check, window_theta)
from pscert.errors import PreconditionUnverifiable
from pscert.exactnum import ComplexBox, RealInterval, isqrt
from pscert.powersum import build_pq


def eval_q_on_box(n: int, box: ComplexBox) -> ComplexBox:
    coeffs = build_pq(n).Q.coeffs
    acc = ComplexBox(0, 0)
    for c in reversed(coeffs):
        acc = acc * box + ComplexBox(Fraction(c), 0)
    return acc


class TestIsolation:
    def test_count_law(self):
        for n in range(6, 41):
            q = build_pq(n).Q
            roots = isolate_segment_roots(n) if q.degree else []
            assert len(roots) == q.degree // 6, n

    def test_empty_for_constant_cofactor(self):
        assert isolate_segment_roots(7) == []

    def test_b8_root_value(self):
        (root,) = isolate_segment_roots(8, target_width=Fraction(1, 10 ** 12))
        t_ref = Fraction(2513228157188, 10 ** 12)
        assert abs(root.t.mid - t_ref) < Fraction(1, 10 ** 9)

    def test_bracket_signs_differ(self):
        for root in isolate_segment_roots(14):
            assert _sign_s(root.u_lo, 14) * _sign_s(root.u_hi, 14) == -1

    def test_root_certification(self):
        for n in range(6, 31):
            if build_pq(n).Q.degree == 0:
                continue
            for root in isolate_segment_roots(n):
                val = eval_p_on_box(n, root.alpha(192))
                assert val.contains_zero(), n

    def test_orbit_closure(self):
        for n in (8, 12, 18, 24, 30):
            for root in isolate_segment_roots(n):
                for name, box in root.orbit.items():
                    assert eval_q_on_box(n, box).contains_zero(), (n, name)

    def test_refinement(self):
        (root,) = isolate_segment_roots(8)
        fine = refine_segment_root(root, Fraction(1, 10 ** 30), prec=256)
        assert fine.t.width <= Fraction(1, 10 ** 30)
        assert root.t.lo <= fine.t.lo and fine.t.hi <= root.t.hi


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
        r = RealInterval(Fraction(14, 9), Fraction(14, 9), prec=128)
        rep = c_small_threshold(r, 43)
        assert rep.value.lo > 10 ** 6

    def test_c_small_monotone(self):
        r1 = RealInterval(Fraction(14, 9), Fraction(14, 9), prec=128)
        r2 = RealInterval(Fraction(2), Fraction(2), prec=128)
        for b in (8, 12, 20):
            assert c_small_threshold(r1, b).value.hi < \
                c_small_threshold(r2, b).value.lo
            assert c_small_threshold(r1, b).value.hi < \
                c_small_threshold(r1, b + 1).value.lo

    def test_lmn_lower_positive_and_monotone(self):
        h = RealInterval(Fraction(1), Fraction(1), prec=128)
        prev = None
        for k in (10, 100, 1000, 10 ** 6):
            v = lmn_lower(6, h, k)
            assert v.lo > 0
            if prev is not None:
                assert v.hi <= prev.hi  # non-increasing in k
            prev = v

    def test_lmn_small_k_max_branch(self):
        # d log(k/2) + 10 below 34: the 34 branch is used, so the bound is
        # independent of k
        h = RealInterval(0, 0, prec=128)
        a = lmn_lower(1, h, 2)
        b = lmn_lower(1, h, 4)
        assert a.lo == b.lo and a.hi == b.hi

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
        r = RealInterval(Fraction(14, 9), Fraction(14, 9), prec=128)
        c_lo = c_small_threshold(r, 43).details["c_excluded_up_to"]
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

    def test_unity_exclusion_direction(self):
        big_r = RealInterval(Fraction(4), Fraction(4), prec=128)
        rep = general_bounds(2, "other", b=20, r=big_r)["unity_exclusion"]
        assert rep.verdict == "Satisfied"  # 4^20 >> 2 * 20^8

    def test_requires_a_at_least_2(self):
        with pytest.raises(ValueError):
            general_bounds(1)


class TestTenDelta:
    def test_omega_exact_zero_delta(self):
        im = isqrt(RealInterval(Fraction(3, 4), prec=128))
        w = ComplexBox(Fraction(-1, 2), im)
        rep = ten_delta_check(w, RealInterval(0, 0))
        assert rep.verdict == "Satisfied"
        assert rep.value.hi < Fraction(1, 10 ** 30)

    def test_near_omega(self):
        w = ComplexBox(Fraction(-1, 2), Fraction(87, 100))
        rep = ten_delta_check(w, RealInterval(Fraction(1, 100),
                                              Fraction(1, 100)))
        assert rep.verdict == "Satisfied"
        assert rep.value.hi <= Fraction(1, 10)

    def test_precondition_violation(self):
        w = ComplexBox(Fraction(5), Fraction(0))
        with pytest.raises(PreconditionUnverifiable):
            ten_delta_check(w, RealInterval(Fraction(1, 100),
                                            Fraction(1, 100)))

    def test_delta_range(self):
        w = ComplexBox(Fraction(1), Fraction(0))
        with pytest.raises(PreconditionUnverifiable):
            ten_delta_check(w, RealInterval(Fraction(1), Fraction(1)))


class TestCloseWindow:
    def test_degenerate_window(self):
        (root,) = isolate_segment_roots(8)
        rep = close_window(8, root, 100, 100)
        assert rep.verdict == "Satisfied"
        assert rep.details["m_count"] == 0

    def test_b8_window(self):
        (root,) = isolate_segment_roots(8)
        rep = close_window(8, root, 2920, 4947180)
        assert rep.verdict == "Satisfied"
        assert rep.details["m_count"] <= 1000
        # the reference digits are truncated, so compare with tolerance
        ref = Fraction(584032375784959, 10 ** 11)
        tol = Fraction(1, 10 ** 8)
        assert ref - tol < rep.value.lo and rep.value.hi < ref + tol
        assert rep.value.width < tol

    def test_m1_distance(self):
        # the first multiple: pi/|theta| is ~0.324 away from the integer 5840
        (root,) = isolate_segment_roots(8)
        root = refine_segment_root(root, Fraction(1, 10 ** 24), prec=256)
        theta = window_theta(8, root, 256)
        from pscert.exactnum import nearest_integer_distance, pi_interval
        x = pi_interval(256) / theta
        d = nearest_integer_distance(x)
        assert Fraction(32, 100) < d.lo < d.hi < Fraction(33, 100)


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
