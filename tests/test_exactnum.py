"""Interval kernel, exact root-of-unity arithmetic, and enclosure policies."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, from_rational

from pscert import exactnum
from pscert.errors import AmbiguousEnclosure, DomainError
from pscert.exactnum import (ComplexBox, RealInterval, UnityRoot,
                             cyclotomic_coeffs, iatan2, icos, iexp,
                             ilog, isin, isqrt, nearest_integer_distance,
                             pi_interval, unity_sum_is_zero)

rationals = st.fractions(min_value=-100, max_value=100,
                         max_denominator=10 ** 6)


class TestRealInterval:
    def test_exact_fraction_endpoints_contain_value(self):
        q = Fraction(1, 3)
        iv = RealInterval(q, q, prec=64)
        assert iv.lo <= q <= iv.hi
        assert iv.lo < iv.hi  # 1/3 is not dyadic: outward rounding is strict

    def test_dyadic_is_exact(self):
        q = Fraction(5, 8)
        iv = RealInterval(q, q, prec=64)
        assert iv.lo == q == iv.hi

    @given(a=rationals, b=rationals)
    @settings(max_examples=60, deadline=None)
    def test_sum_containment(self, a, b):
        iv = RealInterval(a, a) + RealInterval(b, b)
        assert iv.lo <= a + b <= iv.hi

    @given(a=rationals, b=rationals)
    @settings(max_examples=60, deadline=None)
    def test_product_containment(self, a, b):
        iv = RealInterval(a, a) * RealInterval(b, b)
        assert iv.lo <= a * b <= iv.hi

    @given(a=rationals, b=rationals.filter(lambda q: abs(q) > Fraction(1, 50)))
    @settings(max_examples=60, deadline=None)
    def test_quotient_containment(self, a, b):
        iv = RealInterval(a, a) / RealInterval(b, b)
        assert iv.lo <= Fraction(a, b) <= iv.hi

    def test_division_by_zero_straddle(self):
        with pytest.raises(DomainError):
            RealInterval(1, 1) / RealInterval(-1, 1)

    @given(a=rationals, k=st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_power_containment(self, a, k):
        iv = RealInterval(a, a) ** k
        assert iv.lo <= a ** k <= iv.hi

    def test_even_power_nonnegative(self):
        iv = RealInterval(-2, 3) ** 2
        assert iv.lo >= 0
        assert iv.hi >= 9

    def test_at_prec_refines_not_widens(self):
        q = Fraction(1, 7)
        coarse = RealInterval(q, q, prec=32)
        fine = coarse.at_prec(256)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi

    def test_precision_rule(self):
        x = RealInterval(1, prec=256)
        third = RealInterval(Fraction(1, 3), prec=256)
        y = x * Fraction(1, 3)  # the Fraction is rounded at 256 bits
        assert y.prec == 256 and (y.lo, y.hi) == (third.lo, third.hi)
        assert (RealInterval(1, prec=64) + x).prec == 256
        assert icos(x.at_prec(96)).prec == 96

    def test_endpoints_out_of_order_rejected(self):
        with pytest.raises(DomainError):
            RealInterval(2, 1)


NEGATIVE_ZERO = (1, 0, 0, 0)  # a raw mpf zero with its sign bit set


def _raw(q, bits: int, upper: bool):
    if q == "-0":
        return NEGATIVE_ZERO
    return from_rational(q.numerator, q.denominator, bits,
                         "c" if upper else "f")


def _fraction_abs(iv: RealInterval) -> RealInterval:
    """`abs` as it reads on exact Fraction endpoints."""
    if iv.lo >= 0:
        return iv
    if iv.hi <= 0:
        return -iv
    return RealInterval(0, max(-iv.lo, iv.hi), prec=iv.prec)


class TestRawComparisons:
    """The sign tests and `abs` compare raw mpf endpoints; each must give
    what the same comparison gives on exact Fraction endpoints, including
    exact zero, a negative zero and equal endpoints, and with endpoints
    carrying more bits than the interval's precision."""

    endpoint = st.one_of(rationals, st.sampled_from([Fraction(0), "-0"]))

    @given(a=endpoint, b=st.one_of(st.none(), endpoint),
           bits=st.sampled_from([8, 53, 200]),
           prec=st.sampled_from([4, 16, 64, 128]))
    @example(a=Fraction(0), b=None, bits=53, prec=64)
    @example(a="-0", b=None, bits=53, prec=64)
    @example(a="-0", b=Fraction(3), bits=53, prec=64)
    @example(a=Fraction(-3), b="-0", bits=53, prec=64)
    @example(a=Fraction(-5, 3), b=None, bits=200, prec=4)
    @example(a=Fraction(-7, 3), b=Fraction(7, 3), bits=200, prec=4)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_comparisons(self, a, b, bits, prec):
        b = a if b is None else b
        lo_q, hi_q = sorted((a, b), key=lambda q: 0 if q == "-0" else q)
        iv = RealInterval._wrap((_raw(lo_q, bits, False),
                                 _raw(hi_q, bits, True)), prec)
        lo, hi = iv.lo, iv.hi
        assert iv.contains_zero() == (lo <= 0 <= hi)
        assert iv.is_positive() == (lo > 0)
        assert iv.is_negative() == (hi < 0)
        got, want = abs(iv), _fraction_abs(iv)
        assert (got._mpi, got.prec) == (want._mpi, want.prec)

    def test_non_finite_endpoint_raises(self):
        iv = RealInterval._wrap((from_rational(-1, 1, 53, "f"), finf), 64)
        for check in (iv.contains_zero, iv.is_negative, iv.__abs__):
            with pytest.raises(DomainError):
                check()


class TestTranscendental:
    def test_pi_enclosure(self):
        pi = pi_interval(128)
        assert Fraction(314159265, 10 ** 8) < pi.lo
        assert pi.hi < Fraction(31415926536, 10 ** 10)
        assert pi.width < Fraction(1, 2 ** 100)

    def test_exp_log_roundtrip(self):
        x = RealInterval(Fraction(3, 2), Fraction(3, 2), prec=128)
        back = ilog(iexp(x))
        assert back.contains(Fraction(3, 2))

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            ilog(RealInterval(-1, 1))

    def test_cos_sin_identity(self):
        x = RealInterval(Fraction(7, 5), Fraction(7, 5), prec=128)
        s = icos(x) ** 2 + isin(x) ** 2
        assert s.contains(Fraction(1))
        assert s.width < Fraction(1, 2 ** 64)

    def test_sqrt(self):
        r = isqrt(Fraction(2))
        assert r.lo ** 2 <= 2 <= r.hi ** 2

    def test_atan2_quadrant(self):
        th = iatan2(RealInterval(1, 1, prec=128),
                    RealInterval(-1, -1, prec=128))
        # angle of (-1 + i) is 3*pi/4
        assert Fraction(23, 10) < th.lo < th.hi < Fraction(24, 10)


class TestNearestIntegerDistance:
    def test_clear_case(self):
        d = nearest_integer_distance(RealInterval(Fraction(52, 10),
                                                  Fraction(53, 10)))
        assert d.lo > Fraction(19, 100)
        assert d.hi < Fraction(31, 100)

    def test_integer_inside_gives_zero_lower(self):
        d = nearest_integer_distance(RealInterval(Fraction(299, 100),
                                                  Fraction(301, 100)))
        assert d.lo == 0

    def test_half_integer_inside_gives_half_upper(self):
        d = nearest_integer_distance(RealInterval(Fraction(249, 100),
                                                  Fraction(251, 100)))
        assert d.hi == Fraction(1, 2)

    def test_wide_interval_rejected(self):
        with pytest.raises(AmbiguousEnclosure):
            nearest_integer_distance(RealInterval(0, 1))

    @given(q=st.fractions(min_value=-50, max_value=50, max_denominator=997))
    @settings(max_examples=80, deadline=None)
    def test_point_distance_exact(self, q):
        d = nearest_integer_distance(RealInterval(q, q))
        true = min(q - math.floor(q), math.ceil(q) - q)
        assert d.lo <= true <= d.hi


class TestComplexBox:
    def test_mul_matches_components(self):
        z = ComplexBox(Fraction(1, 2), Fraction(1, 3))
        w = z * z
        assert w.re.contains(Fraction(1, 4) - Fraction(1, 9))
        assert w.im.contains(Fraction(1, 3))

    def test_inverse_roundtrip(self):
        z = ComplexBox(Fraction(3), Fraction(-4))
        back = (1 / z) * z
        assert back.re.contains(Fraction(1))
        assert back.im.contains(Fraction(0))

    def test_pow_negative(self):
        z = ComplexBox(Fraction(1), Fraction(1))
        w = z ** -2
        # (1+i)^-2 = -i/2
        assert w.re.contains(Fraction(0))
        assert w.im.contains(Fraction(-1, 2))


class TestUnityRoot:
    def test_reduction(self):
        assert UnityRoot(12, 8) == UnityRoot(3, 2)

    def test_mul_pow_inverse(self):
        a = UnityRoot(7, 3)
        assert (a * a.inverse()).is_one()
        assert a ** 7 == UnityRoot(1, 0)

    def test_cyclotomic_degrees(self):
        for n in range(1, 30):
            phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert len(cyclotomic_coeffs(n)) - 1 == phi

    def test_cyclotomic_matches_sympy(self):
        x = sympy.Symbol("x")
        for n in range(1, 201):
            oracle = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
            assert cyclotomic_coeffs(n) == tuple(reversed(oracle)), n

    def test_sum_vanishing(self):
        omega = UnityRoot(3, 1)
        assert unity_sum_is_zero([omega, omega ** 2, UnityRoot(1, 0)])
        assert not unity_sum_is_zero([omega, UnityRoot(1, 0)])
        assert unity_sum_is_zero([UnityRoot(2, 1), UnityRoot(1, 0)])

    @given(n=st.integers(min_value=2, max_value=24))
    @settings(max_examples=23, deadline=None)
    def test_full_orbit_sums_to_zero(self, n):
        assert unity_sum_is_zero([UnityRoot(n, j) for j in range(n)])


class TestPrecisionCap:
    def test_cap_is_a_constant(self):
        # the environment has no say: a fresh interpreter with the old
        # override variable set still reads the fixed cap
        env = dict(os.environ, PSCERT_MAX_PRECISION="64",
                   PYTHONPATH=str(Path(exactnum.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c",
             "from pscert import exactnum; print(exactnum.MAX_PREC)"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert int(out.stdout) == exactnum.MAX_PREC == 16384
