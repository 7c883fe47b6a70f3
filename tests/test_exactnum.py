"""Interval kernel and enclosure policies, and the exact root-of-unity
arithmetic of `criteria`.

mpmath, like sympy, serves here as an oracle only: the correct-rounding
properties compare each endpoint with a Ziv loop over mpmath's values."""

import math
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (from_man_exp, mpf_atan2, mpf_exp, mpf_log, mpf_pi,
                          mpf_sqrt, to_rational)

from pscert import exactnum
from pscert.criteria import UnityRoot, cyclotomic_coeffs, unity_sum_is_zero
from pscert.errors import AmbiguousEnclosure, DomainError
from pscert.exactnum import (RealInterval, iatan2, icos, iexp, ilog, isin,
                             isqrt, nearest_integer_distance, pi_interval)

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


def _fraction_abs(iv: RealInterval) -> RealInterval:
    """`abs` as it reads on exact Fraction endpoints."""
    if iv.lo >= 0:
        return iv
    if iv.hi <= 0:
        return -iv
    return RealInterval(0, max(-iv.lo, iv.hi), prec=iv.prec)


class TestRawComparisons:
    """The sign tests and `abs` compare the dyadic endpoints; each must give
    what the same comparison gives on exact Fraction endpoints, including
    exact zero and equal endpoints, and with endpoints carrying more bits
    than the interval's precision."""

    endpoint = st.one_of(rationals, st.just(Fraction(0)))

    @given(a=endpoint, b=st.one_of(st.none(), endpoint),
           bits=st.sampled_from([8, 53, 200]),
           prec=st.sampled_from([4, 16, 64, 128]))
    @example(a=Fraction(0), b=None, bits=53, prec=64)
    @example(a=Fraction(0), b=Fraction(3), bits=53, prec=64)
    @example(a=Fraction(-3), b=Fraction(0), bits=53, prec=64)
    @example(a=Fraction(-5, 3), b=None, bits=200, prec=4)
    @example(a=Fraction(-7, 3), b=Fraction(7, 3), bits=200, prec=4)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_comparisons(self, a, b, bits, prec):
        b = a if b is None else b
        iv = RealInterval(*sorted((a, b)), prec=bits).at_prec(prec)
        lo, hi = iv.lo, iv.hi
        assert iv.contains_zero() == (lo <= 0 <= hi)
        assert iv.is_positive() == (lo > 0)
        assert iv.is_negative() == (hi < 0)
        got, want = abs(iv), _fraction_abs(iv)
        assert (got.lo, got.hi, got.prec) == (want.lo, want.hi, want.prec)

    def test_only_exact_endpoints(self):
        # no endpoint is ever non-finite: a float, infinite or not, is refused
        for bad in (float("inf"), float("nan"), 0.5):
            with pytest.raises(TypeError):
                RealInterval(bad)


def _directed(q: Fraction, prec: int, up: bool) -> Fraction:
    """q rounded to `prec` significant bits, toward +inf if up, else -inf."""
    if q == 0:
        return q
    k = abs(q.numerator).bit_length() - q.denominator.bit_length()
    if abs(q) < Fraction(2) ** k:
        k -= 1  # now 2**k <= |q| < 2**(k + 1)
    scaled = q / Fraction(2) ** (k + 1 - prec)
    return (math.ceil(scaled) if up else math.floor(scaled)) \
        * Fraction(2) ** (k + 1 - prec)


def _mpf(q: Fraction):
    k = q.denominator.bit_length() - 1
    assert q.denominator == 1 << k, "oracle inputs are dyadic"
    return from_man_exp(q.numerator, -k)


def _oracle(fn, args, prec: int, up: bool) -> Fraction:
    """fn(*args) correctly rounded at prec bits: mpmath's nearest value at
    wp bits, widened by 8 units of its last place, is taken to enclose the
    exact one, and wp doubles until both ends round alike (Ziv's loop).
    The exact cases (exp 0, log 1, atan2 on the positive axis, square
    roots of squares) never round alike, so they are answered first."""
    if fn is mpf_sqrt and args[0] >= 0:
        n, d = args[0].numerator, args[0].denominator
        if math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d:
            return _directed(Fraction(math.isqrt(n), math.isqrt(d)), prec, up)
    if (fn, *args) in ((mpf_exp, 0), (mpf_log, 1)):
        return Fraction(1 if fn is mpf_exp else 0)
    if fn is mpf_atan2 and args[0] == 0 and args[1] >= 0:
        return Fraction(0)
    wp = prec + 10
    while True:
        assert wp < 1 << 17, "the oracle found no rounding"
        v = Fraction(*to_rational(fn(*map(_mpf, args), wp, "n")))
        margin = abs(v) / Fraction(2) ** (wp - 3)
        lo, hi = (_directed(v + t, prec, up) for t in (-margin, margin))
        if lo == hi:
            return lo
        wp *= 2


SCALARS = st.one_of(
    st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e,  # dyadic
              st.integers(-2 ** 80, 2 ** 80), st.integers(-120, 40)),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                 max_denominator=10 ** 9),
    st.integers(-10 ** 400, 10 ** 400),  # kept exact, wider than prec
)
PRECS = st.one_of(st.integers(1, 80), st.integers(1, 4096))


@st.composite
def intervals(draw, scalars=SCALARS, prec=None):
    a, b = sorted((draw(scalars), draw(scalars)))
    return RealInterval(a, b, prec=draw(PRECS) if prec is None else prec)


def _outward(values, prec: int) -> tuple[Fraction, Fraction]:
    return (_directed(min(values), prec, False),
            _directed(max(values), prec, True))


class TestCorrectRounding:
    """Each endpoint is the correctly rounded extreme of the exact image,
    rounded down for the lower end and up for the upper one, at the
    operation's precision, with the endpoint choices of mpmath's libmpi;
    the results are compared as exact Fractions."""

    @given(a=SCALARS, prec=PRECS)
    @settings(max_examples=60, deadline=None)
    def test_construction(self, a, prec):
        iv = RealInterval(a, prec=prec)
        if isinstance(a, int):  # kept exact
            assert iv.lo == iv.hi == a
        else:
            assert (iv.lo, iv.hi) == _outward([a], prec)

    @given(data=st.data(), prec=PRECS)
    @settings(max_examples=60, deadline=None)
    def test_arithmetic(self, data, prec):
        x = data.draw(intervals(prec=prec))
        y = data.draw(intervals(prec=prec))
        ends = [(p, q) for p in (x.lo, x.hi) for q in (y.lo, y.hi)]
        got = {"+": x + y, "-": x - y, "*": x * y}
        want = {"+": _outward([x.lo + y.lo, x.hi + y.hi], prec),
                "-": _outward([x.lo - y.hi, x.hi - y.lo], prec),
                "*": _outward([p * q for p, q in ends], prec)}
        if not y.contains_zero():
            got["/"] = x / y
            want["/"] = _outward([p / q for p, q in ends], prec)
        for op, iv in got.items():
            assert (iv.lo, iv.hi, iv.prec) == (*want[op], prec), op

    @given(x=intervals(), k=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_neg_abs_pow(self, x, k):
        lo, hi, p = x.lo, x.hi, x.prec
        assert ((-x).lo, (-x).hi) == _outward([-hi, -lo], p)
        if lo >= 0:  # abs of a nonnegative interval is the interval itself
            assert (abs(x).lo, abs(x).hi) == (lo, hi)
        else:
            ends = [0] if hi >= 0 else [-hi]
            assert (abs(x).lo, abs(x).hi) == \
                (_directed(min(ends), p, False),
                 _directed(max(-lo, hi), p, True))
        got = x ** k
        if k < 2:  # x ** 0 is [1, 1], and x ** 1 is x unrounded
            assert (got.lo, got.hi) == ((1, 1) if k == 0 else (lo, hi))
        else:
            fold = k % 2 == 0 and lo < 0 < hi  # an even power reaches 0
            image = [lo ** k, hi ** k] + ([0] if fold else [])
            assert (got.lo, got.hi) == _outward(image, p)

    @given(x=intervals(SCALARS.map(abs)))
    @example(x=RealInterval(4, 9, prec=3))
    @example(x=RealInterval(0, 2, prec=64))
    @settings(max_examples=60, deadline=None)
    def test_sqrt(self, x):
        assume(x.lo >= 0)
        got = isqrt(x)
        assert got.lo == _oracle(mpf_sqrt, [x.lo], x.prec, False)
        assert got.hi == _oracle(mpf_sqrt, [x.hi], x.prec, True)

    @given(x=intervals(st.one_of(
        st.fractions(min_value=-2 ** 20, max_value=2 ** 20,
                     max_denominator=10 ** 9),
        st.integers(-2 ** 20, 2 ** 20))))
    @example(x=RealInterval(0, prec=53))
    @example(x=RealInterval(-10 ** 6, prec=200))
    # mpmath's own exp rounds this up to 1 at 30 bits, below the value
    @example(x=RealInterval(Fraction(400225145638665, 2 ** 93), prec=30))
    @settings(max_examples=60, deadline=None)
    def test_exp(self, x):
        got = iexp(x)
        assert got.lo == _oracle(mpf_exp, [x.lo], x.prec, False)
        assert got.hi == _oracle(mpf_exp, [x.hi], x.prec, True)

    @given(x=intervals(SCALARS.map(abs)))
    @example(x=RealInterval(1, prec=7))
    @example(x=RealInterval(Fraction(1, 3), 10 ** 300, prec=128))
    @settings(max_examples=60, deadline=None)
    def test_log(self, x):
        assume(x.lo > 0)
        got = ilog(x)
        assert got.lo == _oracle(mpf_log, [x.lo], x.prec, False)
        assert got.hi == _oracle(mpf_log, [x.hi], x.prec, True)

    @given(prec=PRECS)
    @settings(max_examples=30, deadline=None)
    def test_pi(self, prec):
        got = pi_interval(prec)
        assert got.lo == _oracle(lambda wp, rnd: mpf_pi(wp, rnd), [], prec,
                                 False)
        assert got.hi == _oracle(lambda wp, rnd: mpf_pi(wp, rnd), [], prec,
                                 True)

    @given(data=st.data(), prec=PRECS)
    @example(data=None, prec=8)
    @settings(max_examples=60, deadline=None)
    def test_atan2(self, data, prec):
        if data is None:  # on the positive real axis and past the origin
            y, x = RealInterval(0, prec=prec), RealInterval(2, 5, prec=prec)
        else:
            y, x = (data.draw(intervals(prec=prec)) for _ in range(2))
        got = iatan2(y, x)
        if x.lo < 0 and y.lo < 0 <= y.hi:  # across the negative real axis
            top = _oracle(mpf_atan2, [Fraction(0), Fraction(-1)], prec, True)
            assert (got.lo, got.hi) == (-top, top)
            return
        assume(not (x.contains_zero() and y.contains_zero()))
        # away from the origin and the cut the angle is extreme at corners
        corners = [(q, p) for q in (y.lo, y.hi) for p in (x.lo, x.hi)]
        assert got.lo == min(_oracle(mpf_atan2, c, prec, False)
                             for c in corners)
        assert got.hi == max(_oracle(mpf_atan2, c, prec, True)
                             for c in corners)


class TestErrorBrackets:
    """Every bracket a Ziv loop rounds must enclose the exact value, at any
    working precision: an error bound that fails shows here at coarse
    precisions, where the brackets are wide, while the rounded results at
    the precisions the loops choose would seldom show it."""

    FUNCTIONS = {"exp": (exactnum._exp, mpf_exp),
                 "log": (exactnum._log, mpf_log),
                 "atan2": (exactnum._atan2, mpf_atan2),
                 "pi": (lambda prec, up: exactnum._pi(prec, up),
                        lambda wp, rnd: mpf_pi(wp, rnd))}

    @given(name=st.sampled_from(sorted(FUNCTIONS)),
           args=st.lists(st.one_of(
               st.fractions(min_value=-2 ** 20, max_value=2 ** 20,
                            max_denominator=10 ** 12),
               st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e,
                         st.integers(-2 ** 80, 2 ** 80),
                         st.integers(-150, -60))).filter(bool),
               min_size=2, max_size=2),
           prec=PRECS, up=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_brackets_enclose_value(self, name, args, prec, up):
        mine, theirs = self.FUNCTIONS[name]
        args = [RealInterval(q, prec=prec).lo for q in args]
        # a negative y takes the loop of -y, whose brackets would not match
        args = {"exp": args[:1], "log": [abs(args[0])], "pi": [],
                "atan2": [abs(args[0]), args[1]]}[name]
        brackets, real = [], exactnum._ziv

        def checking(bracket, prec, up):
            brackets.extend(bracket(wp) for wp in (2, 5, 12, 40, 130))
            return real(bracket, prec, up)
        with mock.patch.object(exactnum, "_ziv", checking):
            mine(*[exactnum._endpoint(q, 1 << 20, False) for q in args],
                 prec, up)
        assume(brackets)  # log 1 is exact, and takes no loop
        wp = 1000
        v = Fraction(*to_rational(theirs(*map(_mpf, args), wp, "n")))
        margin = abs(v) / Fraction(2) ** (wp - 3)
        for lo, hi, sh in brackets:
            assert lo * Fraction(2) ** sh <= v - margin
            assert v + margin <= hi * Fraction(2) ** sh


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


def _nearest_integer_distance_cases(lo: Fraction, hi: Fraction):
    """The earlier case analysis of nearest_integer_distance, as oracle."""
    def dist(q: Fraction) -> Fraction:
        fl = math.floor(q)
        return min(q - fl, fl + 1 - q)

    out_lo, out_hi = sorted((dist(lo), dist(hi)))
    if math.floor(lo) != math.floor(hi) or lo == math.floor(lo):
        out_lo = Fraction(0)
    if math.floor(2 * lo) != math.floor(2 * hi) and any(
            j % 2 and lo <= Fraction(j, 2) <= hi
            for j in range(math.floor(2 * lo), math.floor(2 * lo) + 3)):
        out_hi = max(out_hi, Fraction(1, 2))
    return out_lo, out_hi


class TestNearestIntegerDistance:
    @given(lo=st.fractions(min_value=-50, max_value=50, max_denominator=64),
           width=st.fractions(min_value=0, max_value=Fraction(63, 256),
                              max_denominator=256))
    @example(lo=Fraction(5, 2), width=Fraction(0))
    @example(lo=Fraction(3), width=Fraction(1, 8))
    @example(lo=Fraction(23, 8), width=Fraction(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_matches_case_analysis(self, lo, width):
        x = RealInterval(lo, lo + width, prec=64)
        want = RealInterval(*_nearest_integer_distance_cases(x.lo, x.hi),
                            prec=64)
        got = nearest_integer_distance(x)
        assert (got.lo, got.hi) == (want.lo, want.hi)

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


def _hung(*args):
    raise RuntimeError("no answer within the alarm")


class TestPrecisionArgument:
    """A precision below 1 bit would keep a Ziv loop from ending, or round
    to nothing: the constructor, at_prec and pi_interval refuse it at once,
    so every operation that could take it does."""

    CALLS = {
        "fraction_at_0": lambda: RealInterval(Fraction(1, 3), prec=0),
        "fraction_at_-5": lambda: RealInterval(Fraction(1, 3), prec=-5),
        "pi_interval_at_0": lambda: pi_interval(0),
        "sum_at_0": lambda: RealInterval(2, prec=0) + Fraction(1, 3),
        "exp_at_0": lambda: iexp(RealInterval(1, prec=0)),
        "sqrt_at_prec_0": lambda: isqrt(RealInterval(2).at_prec(0)),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_rejected_at_once(self, name):
        signal.signal(signal.SIGALRM, _hung)
        signal.setitimer(signal.ITIMER_REAL, 3)
        try:
            with pytest.raises(ValueError, match="precision"):
                self.CALLS[name]()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


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
