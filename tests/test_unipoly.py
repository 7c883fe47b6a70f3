"""Exact univariate polynomial arithmetic: gcd, resultants, squarefree
parts and distinct-degree patterns over prime fields, irreducibility
certificates, and the y-gcds of the power-sum binomials over K[x]/(q)."""

import hashlib
import operator
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ as ZZ_domain
from sympy.polys.galoistools import gf_pow_mod

from pscert import powersum, unipoly
from pscert.errors import BadPrime, DivisionFailure, DomainError, RingMismatch
from pscert.powersum import build_p, build_pq
from pscert.unipoly import (GF, QQ, ZZ, ExactPoly, _half_xgcd,
                            certify_irreducible, poly_gcd, squarefree_part)

small_polys = st.lists(st.integers(min_value=-9, max_value=9),
                       min_size=1, max_size=6).map(lambda c: ExactPoly(c, ZZ))


def _by_index(f: ExactPoly, g: ExactPoly, op) -> ExactPoly:
    """f + g or f - g (op = operator.add or sub) by the per-index
    definition: coefficient i of each operand through __getitem__, which
    reads 0 past the end."""
    n = max(len(f.coeffs), len(g.coeffs))
    return ExactPoly([op(f[i], g[i]) for i in range(n)], f.ring)


def _nonzero(p: ExactPoly) -> bool:
    return not p.is_zero()


def _sympy_poly(f: ExactPoly, x):
    if f.ring == ZZ:
        return sympy.Poly(list(reversed(f.coeffs)), x, domain="ZZ")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(f.coeffs)], x, domain="QQ")


def _from_sympy(poly, ring) -> ExactPoly:
    return ExactPoly([Fraction(int(c.p), int(c.q))
                      for c in reversed(poly.all_coeffs())], ring)


def _y_poly(exp: int, ring) -> list[ExactPoly]:
    """1 + x^e + y^e as a y-coefficient list over K[x]."""
    const = ExactPoly([1] + [0] * (exp - 1) + [1], ring)
    return [const] + [ExactPoly.zero(ring)] * (exp - 1) + [ExactPoly.one(ring)]


def resultant(f: ExactPoly, g: ExactPoly):
    """Oracle: resultant of univariate polynomials by a Euclid over the
    field, an exact scalar in the coefficient ring.  Zero iff the inputs
    share a nonconstant factor."""
    if f.ring != g.ring:
        raise RingMismatch(f"{f.ring} vs {g.ring}")
    ring = f.ring
    if isinstance(ring, tuple):
        p = ring[1]
        return _resultant_field(f, g, lambda x: x % p)
    fq, gq = f.to_ring(QQ), g.to_ring(QQ)
    res = _resultant_field(fq, gq, lambda x: x)
    if ring == ZZ:
        return int(res)
    return res


def _resultant_field(f: ExactPoly, g: ExactPoly, norm):
    zero = Fraction(0) if f.ring == QQ else 0
    if f.is_zero() or g.is_zero():
        return norm(zero)
    acc = Fraction(1) if f.ring == QQ else 1
    a, b = f, g
    sign = 1
    while True:
        if b.degree == 0:
            acc = norm(acc * pow(b.leading(), a.degree))
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
        acc = norm(acc * pow(b.leading(), a.degree - r.degree))
        a, b = b, r


def resultant_bivariate(f_y, g_y) -> ExactPoly:
    """Oracle for the closed-form y-resultant of the mod-p decider: Res_y of
    bivariate polynomials given as y-coefficient lists whose entries are
    ExactPoly in x (all over the same field ring).

    Computed by evaluation at interpolation points x = 0, 1, 2, ... that keep
    the y-degrees intact, followed by exact Lagrange interpolation.
    """
    ring = None
    for c in list(f_y) + list(g_y):
        ring = c.ring
        break
    f_y = [c for c in f_y]
    g_y = [c for c in g_y]
    while f_y and f_y[-1].is_zero():
        f_y.pop()
    while g_y and g_y[-1].is_zero():
        g_y.pop()
    if not f_y or not g_y:
        return ExactPoly.zero(ring)
    m = len(f_y) - 1
    n = len(g_y) - 1
    max_x_f = max(c.degree for c in f_y)
    max_x_g = max(c.degree for c in g_y)
    dbound = m * max_x_g + n * max_x_f + 1
    modulus = ring[1] if isinstance(ring, tuple) else None
    if modulus is not None and modulus <= dbound + m + n:
        raise RingMismatch("field too small for interpolation")
    points = []
    values = []
    x0 = 0
    lead_f, lead_g = f_y[-1], g_y[-1]
    while len(points) < dbound:
        if lead_f(x0) == 0 or lead_g(x0) == 0:
            x0 += 1
            continue
        fv = ExactPoly([c(x0) for c in f_y], ring)
        gv = ExactPoly([c(x0) for c in g_y], ring)
        points.append(x0)
        values.append(resultant(fv, gv))
        x0 += 1
    return _interpolate(points, values, ring)


def _interpolate(xs, ys, ring) -> ExactPoly:
    """The polynomial of degree < len(xs) through (xs[i], ys[i]): Newton's
    divided differences, exact in the field, then Horner's rule on a plain
    coefficient list (one O(n) step per node)."""
    modulus = ring[1] if isinstance(ring, tuple) else None
    n = len(xs)
    coef = list(ys)
    if modulus is None:
        for j in range(1, n):
            for i in range(n - 1, j - 1, -1):
                coef[i] = Fraction(coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    else:
        inverse: dict = {}  # node difference -> its inverse mod p
        for j in range(1, n):
            for i in range(n - 1, j - 1, -1):
                d = xs[i] - xs[i - j]
                inv = inverse.get(d)
                if inv is None:
                    inv = inverse[d] = pow(d, -1, modulus)
                coef[i] = (coef[i] - coef[i - 1]) * inv % modulus
    # poly <- poly * (x - x0) + c, highest Newton term first
    poly: list = []
    for c, x0 in zip(reversed(coef), reversed(xs)):
        poly = [a - x0 * b for a, b in zip([c] + poly, poly + [0])]
        if modulus is not None:
            poly = [a % modulus for a in poly]
    return ExactPoly(poly, ring)


class TestArithmetic:
    def test_degree_and_zero(self):
        assert ExactPoly([0, 0], ZZ).degree == -1
        assert ExactPoly([3], ZZ).degree == 0
        assert ExactPoly([1, 0, 2], ZZ).degree == 2

    def test_divmod_over_field(self):
        f = ExactPoly([Fraction(2), Fraction(3), Fraction(1)], QQ)  # (x+1)(x+2)
        g = ExactPoly([Fraction(1), Fraction(1)], QQ)
        q, r = f.divmod(g)
        assert r.is_zero()
        assert q == ExactPoly([Fraction(2), Fraction(1)], QQ)

    def test_exact_div_failure(self):
        f = ExactPoly([1, 0, 1], QQ)
        g = ExactPoly([1, 1], QQ)
        with pytest.raises(DivisionFailure):
            f.exact_div(g)

    def test_exact_div_over_zz_needs_an_integral_quotient(self):
        g = ExactPoly([2, 2], ZZ)  # 2x + 2, not primitive
        assert (g * ExactPoly([3, 1], ZZ)).exact_div(g) == \
            ExactPoly([3, 1], ZZ)
        with pytest.raises(DivisionFailure):  # quotient (x + 1) / 2
            ExactPoly([1, 2, 1], ZZ).exact_div(g)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            ExactPoly([1], ZZ) + ExactPoly([Fraction(1)], QQ)

    def test_eval_horner(self):
        f = ExactPoly([1, -2, 1], ZZ)  # (x-1)^2
        assert f(1) == 0 and f(3) == 4

    def test_primitive_part(self):
        f = ExactPoly([Fraction(2, 3), Fraction(4, 3)], QQ)
        assert f.primitive_part() == ExactPoly([1, 2], ZZ)

    @given(ring=st.sampled_from([ZZ, QQ, GF(7), GF(4594399)]),
           low=st.lists(st.integers(-50, 50), max_size=6),
           other=st.lists(st.integers(-50, 50), max_size=6),
           top=st.lists(st.integers(-50, 50), max_size=4),
           den=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_add_sub_match_the_per_index_definition(self, ring, low, other,
                                                    top, den):
        scale = Fraction(1, den) if ring == QQ else 1

        def poly(coeffs):
            return ExactPoly([c * scale for c in coeffs], ring)
        # f and g share their top coefficients, so f - g and f + (-g)
        # cancel there; h has its own length
        f = poly(low + top)
        g = poly((other + [0] * len(low))[:len(low)] + top)
        h = poly(other)
        for x, y in ((f, g), (f, -g), (g, f), (f, h), (h, f), (h, h)):
            assert x + y == _by_index(x, y, operator.add)
            assert x - y == _by_index(x, y, operator.sub)

    @given(f=small_polys, g=small_polys)
    @settings(max_examples=50, deadline=None)
    def test_mul_degree_additive(self, f, g):
        if f.is_zero() or g.is_zero():
            assert (f * g).is_zero()
        else:
            assert (f * g).degree == f.degree + g.degree


class TestGcd:
    def test_known_gcd(self):
        # (x-1)(x+2) and (x-1)(x-3) over QQ
        f = ExactPoly([Fraction(-2), Fraction(1), Fraction(1)], QQ)
        g = ExactPoly([Fraction(3), Fraction(-4), Fraction(1)], QQ)
        assert poly_gcd(f, g) == ExactPoly([Fraction(-1), Fraction(1)], QQ)

    def test_coprime(self):
        f = ExactPoly([1, 1], QQ)
        g = ExactPoly([2, 1], QQ)
        assert poly_gcd(f, g).degree == 0

    @given(f=small_polys.filter(_nonzero), g=small_polys.filter(_nonzero),
           h=small_polys.filter(lambda p: p.degree >= 1))
    @settings(max_examples=40, deadline=None)
    def test_common_factor_detected(self, f, g, h):
        d = poly_gcd((f * h).to_ring(QQ), (g * h).to_ring(QQ))
        _, r = h.to_ring(QQ).monic().divmod(d) if d.degree >= h.degree \
            else d.divmod(h.to_ring(QQ).monic())
        # gcd must be divisible by h (or h by gcd when extra factors coincide)
        q, rem = d.divmod(h.to_ring(QQ).monic()) if d.degree >= h.degree \
            else (None, None)
        if q is not None:
            assert rem.is_zero()
        else:
            assert d.degree >= 0  # never lost entirely
            qq, rr = h.to_ring(QQ).monic().divmod(d)
            assert d.degree >= 1 or h.degree == 0

    def test_gcd_over_gf(self):
        p = 7
        f = ExactPoly([1, 0, 1], GF(p)) * ExactPoly([3, 1], GF(p))
        g = ExactPoly([2, 1, 1], GF(p)) * ExactPoly([3, 1], GF(p))
        d = poly_gcd(f, g)
        assert d == ExactPoly([3, 1], GF(p)).monic()

    def test_integer_gcd_primitive(self):
        f = ExactPoly([2, 2], ZZ) * ExactPoly([1, 0, 3], ZZ)
        g = ExactPoly([4, 4], ZZ) * ExactPoly([5, 1], ZZ)
        d = poly_gcd(f, g)
        assert d == ExactPoly([1, 1], ZZ)


class TestResultant:
    def test_linear_pair(self):
        # Res(x - a, x - b) = a - b up to sign convention: here (b - a)
        f = ExactPoly([Fraction(-3), Fraction(1)], QQ)
        g = ExactPoly([Fraction(-5), Fraction(1)], QQ)
        assert abs(resultant(f, g)) == 2

    def test_common_root_gives_zero(self):
        f = ExactPoly([Fraction(-1), Fraction(1)], QQ)
        g = ExactPoly([Fraction(1), Fraction(-2), Fraction(1)], QQ)
        assert resultant(f, g) == 0

    def test_product_of_evaluations(self):
        # Res(f, g) = lc(f)^deg(g) * prod g(root_i) for f = (x-1)(x-2)
        f = ExactPoly([Fraction(2), Fraction(-3), Fraction(1)], QQ)
        g = ExactPoly([Fraction(1), Fraction(1), Fraction(1)], QQ)
        assert abs(resultant(f, g)) == abs(g(Fraction(1)) * g(Fraction(2)))

    @given(f=small_polys.filter(lambda p: p.degree >= 1),
           g=small_polys.filter(lambda p: p.degree >= 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_iff_common_factor(self, f, g):
        r = resultant(f.to_ring(QQ), g.to_ring(QQ))
        common = poly_gcd(f.to_ring(QQ), g.to_ring(QQ)).degree >= 1
        assert (r == 0) == common

    def test_bivariate_example(self):
        # Res_y(1 + x + y, 1 + x^2 + y^2) = 2 + 2x + 2x^2
        ring = QQ
        f = [ExactPoly([Fraction(1), Fraction(1)], ring), ExactPoly.one(ring)]
        g = [ExactPoly([Fraction(1), Fraction(0), Fraction(1)], ring),
             ExactPoly.zero(ring), ExactPoly.one(ring)]
        r = resultant_bivariate(f, g)
        assert r == ExactPoly([Fraction(2), Fraction(2), Fraction(2)], ring)

    def test_bivariate_mod_p(self):
        p = 10007
        ring = GF(p)
        f = [ExactPoly([1, 1], ring), ExactPoly.one(ring)]
        g = [ExactPoly([1, 0, 1], ring), ExactPoly.zero(ring),
             ExactPoly.one(ring)]
        r = resultant_bivariate(f, g)
        assert r == ExactPoly([2, 2, 2], ring)

    # the mod-p deciders of the benchmark; the digest covers the 16
    # y-resultants of the a >= 2 instances, and the two of
    # (1, 6, 100, 4594399) are P_6 and P_100 mod 4594399
    MOD_P = ((2, 9, 40, 1000003), (3, 8, 40, 1000003), (4, 9, 50, 1000003),
             (5, 12, 60, 1000003), (6, 7, 64, 1000003), (2, 3, 100, 4594399),
             (3, 10, 100, 4594399), (1, 6, 100, 4594399), (2, 4, 5, 101))
    # SHA-256 of every y-resultant of those instances, recorded from the
    # interpolating resultant_bivariate before the closed form replaced it
    MOD_P_RESULTANTS = \
        "d7f2d8afea7e8d479ce45c58d1a6c274aeca5648ad924dc9521416c37106698f"

    def test_bivariate_golden_mod_p_instances(self, monkeypatch):
        outs, a1_outs = [], []

        real = powersum._y_resultant

        def capture(a, b, ring):
            r = real(a, b, ring)
            (a1_outs if a == 1 else outs).append((r.ring, r.coeffs))
            return r

        monkeypatch.setattr(powersum, "_y_resultant", capture)
        for inst in self.MOD_P:
            outs.append(("instance", inst))
            try:
                powersum.regseq3_mod_p(*inst)
            except Exception as exc:
                outs.append(("raised", repr(exc)))
        assert sum(1 for o in outs if o[0] != "instance") == 16
        digest = hashlib.sha256(repr(outs).encode()).hexdigest()
        assert digest == self.MOD_P_RESULTANTS
        ring = GF(4594399)
        assert a1_outs == [(ring, build_p(n).to_ring(ring).coeffs)
                           for n in (6, 100)]

    @given(coeffs=st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=1, max_size=9),
           gaps=st.lists(st.integers(min_value=1, max_value=4),
                         min_size=9, max_size=9),
           p=st.sampled_from([101, 1000003]))
    @settings(max_examples=60, deadline=None)
    def test_interpolation_recovers_polynomial(self, coeffs, gaps, p):
        xs = [sum(gaps[:i]) for i in range(len(coeffs))]
        for ring in (GF(p), QQ):
            f = ExactPoly(coeffs, ring)
            assert _interpolate(xs, [f(x) for x in xs], ring) == f

    @given(a=st.integers(min_value=1, max_value=8),
           b=st.integers(min_value=1, max_value=12),
           p=st.sampled_from([101, 103, 1009]))
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_interpolation(self, a, b, p):
        assume(a != b)
        rational = resultant_bivariate(_y_poly(a, QQ), _y_poly(b, QQ))
        assert powersum._y_resultant(a, b, QQ) == rational
        ring = GF(p)
        if p > 2 * a * b + a + b + 1:
            oracle = resultant_bivariate(_y_poly(a, ring), _y_poly(b, ring))
        else:
            # too few interpolation nodes in GF(p); both polynomials are
            # monic in y, so the rational resultant reduces mod p
            oracle = rational.to_ring(ring)
        assert powersum._y_resultant(a, b, ring) == oracle

    @given(a=st.integers(min_value=1, max_value=30),
           b=st.integers(min_value=2, max_value=30),
           p=st.sampled_from([3, 5, 7, 11, 13, 101]))
    @settings(max_examples=80, deadline=None)
    @example(a=2, b=9, p=5)
    @example(a=4, b=25, p=3)
    def test_never_zero_mod_p(self, a, b, p):
        # regseq3_mod_p takes gcd(r12, r13) with no zero branch: for a < b
        # and p not dividing ab (p < b included) the resultant is nonzero
        assume(a < b and (a * b) % p != 0)
        assert not powersum._y_resultant(a, b, GF(p)).is_zero()


# -- schoolbook oracle for the packed F_p kernel --------------------------------

KERNEL_PRIMES = (2, 3, 7, 101, 2 ** 31 - 1, 1073741827)


def _sb_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _sb_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _sb_trim(out)


def _sb_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i] * inv % p
        q[i - db] = c
        for j, y in enumerate(b):
            r[i - db + j] = (r[i - db + j] - c * y) % p
    return _sb_trim(q), _sb_trim(r[:db])


def _sb_gcd(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, _sb_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _sb_powmod(a: list, e: int, f: list, p: int) -> list:
    out, base = [1], _sb_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _sb_divmod(_sb_mul(out, base, p), f, p)[1]
        base = _sb_divmod(_sb_mul(base, base, p), f, p)[1]
        e >>= 1
    return _sb_divmod(out, f, p)[1]


@st.composite
def _fp_polys(draw, count: int, nonzero_last: int = 0):
    """p and `count` coefficient lists of length 0..64 over F_p; the last
    `nonzero_last` of them are nonzero."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    coeff = st.integers(min_value=0, max_value=p - 1)
    polys = []
    for k in range(count):
        nonzero = k >= count - nonzero_last
        c = draw(st.lists(coeff, min_size=int(nonzero), max_size=64))
        if nonzero:
            c[-1] = c[-1] or 1
        polys.append(_sb_trim(c))
    return p, polys


class TestFpKernel:
    """The packed F_p kernel against the schoolbook oracle above, on random
    inputs and on the pinned edge cases: zero, constants, and the largest
    slot load, all coefficients p - 1 at the maximum length."""

    @staticmethod
    def frobenius(h: list, f: list, p: int) -> list:
        mod = unipoly._FpModulus(f, p)
        rows = mod.power_rows(mod.powmod([0, 1], p))
        return mod.apply(h, rows)

    @given(_fp_polys(2))
    @settings(max_examples=150, deadline=None)
    def test_mul(self, data):
        p, (a, b) = data
        assert unipoly._fp_mul(a, b, p) == _sb_mul(a, b, p)
        assert unipoly._fp_mul(a, a, p) == _sb_mul(a, a, p)

    @given(_fp_polys(2, nonzero_last=1))
    @settings(max_examples=150, deadline=None)
    def test_divmod_and_gcd(self, data):
        p, (a, b) = data
        assert unipoly._fp_divmod(a, b, p) == _sb_divmod(a, b, p)
        assert unipoly._fp_gcd(a, b, p) == _sb_gcd(a, b, p)

    @given(_fp_polys(3, nonzero_last=1))
    @settings(max_examples=100, deadline=None)
    def test_mulmod(self, data):
        p, (a, b, f) = data
        assume(len(f) >= 2)
        a, b = _sb_divmod(a, f, p)[1], _sb_divmod(b, f, p)[1]
        mod = unipoly._FpModulus(f, p)
        assert mod.mulmod(a, b) == _sb_divmod(_sb_mul(a, b, p), f, p)[1]
        assert mod.mulmod(a, a) == _sb_divmod(_sb_mul(a, a, p), f, p)[1]

    @given(_fp_polys(2, nonzero_last=1))
    @settings(max_examples=30, deadline=None)
    def test_frobenius_step(self, data):
        # (sum h_i x^i)^p = sum h_i x^(i p) over F_p
        p, (h, f) = data
        assume(len(f) >= 2)
        h = _sb_divmod(h, f, p)[1]
        assert self.frobenius(h, f, p) == _sb_powmod(h, p, f, p)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_edge_cases(self, p):
        full = [p - 1] * 64
        f = [p - 1] * 65
        mod = unipoly._FpModulus(f, p)
        for a, b in (([], full), (full, []), ([], []), ([5 % p or 1], full),
                     (full, [p - 1]), (full, full)):
            assert unipoly._fp_mul(a, b, p) == _sb_mul(a, b, p)
            assert mod.mulmod(a, b) == _sb_divmod(_sb_mul(a, b, p), f, p)[1]
            if b:
                assert unipoly._fp_divmod(a, b, p) == _sb_divmod(a, b, p)
            assert unipoly._fp_gcd(a, b, p) == _sb_gcd(a, b, p)
        assert mod.mulmod(full, full) == \
            _sb_divmod(_sb_mul(full, full, p), f, p)[1]
        assert self.frobenius(full, f, p) == _sb_powmod(full, p, f, p)
        assert self.frobenius([], f, p) == []
        assert mod.powmod(full, 0) == [1]

    def test_exactpoly_gf_routes_through_the_kernel(self, monkeypatch):
        calls = []
        for name in ("_fp_mul", "_fp_divmod", "_fp_gcd"):
            real = getattr(unipoly, name)
            monkeypatch.setattr(unipoly, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        f = ExactPoly([3, 1, 4, 1, 5], GF(101))
        g = ExactPoly([2, 7, 1], GF(101))
        f * g
        f.divmod(g)
        poly_gcd(f, g)  # Euclid calls _fp_divmod in turn
        assert calls[:3] == ["_fp_mul", "_fp_divmod", "_fp_gcd"]


class TestFactorModP:
    def test_squarefree_part(self):
        lin = ExactPoly([1, 1], ZZ)
        f = lin * lin * lin * ExactPoly([1, 0, 1], ZZ)
        sf = squarefree_part(f)
        assert sf.to_ring(QQ).monic() == \
            (ExactPoly([1, 1], ZZ) * ExactPoly([1, 0, 1], ZZ)).to_ring(QQ).monic()

    def test_multiplicity_divisible_by_p(self):
        # over GF(3) the derivative of (x + 1)^3 is 0, so f / gcd(f, f')
        # alone would drop that factor: it stays in gcd(f, f'), or f is a
        # cube outright, and squarefree_part finds it either way
        ring = GF(3)
        lin, other = ExactPoly([1, 1], ring), ExactPoly([2, 1], ring)
        cube = lin * lin * lin
        assert squarefree_part(cube * other) == lin * other
        assert squarefree_part(cube) == lin

    @given(p=st.sampled_from([3, 5, 7]),
           base=st.lists(st.integers(min_value=0, max_value=6), min_size=1,
                         max_size=5),
           planted=st.lists(st.integers(min_value=0, max_value=6),
                            min_size=2, max_size=3),
           power=st.integers(min_value=1, max_value=2))
    @settings(max_examples=80, deadline=None)
    def test_squarefree_part_matches_sympy_mod_p(self, p, base, planted,
                                                 power):
        # base * g^(p^power), a factor whose multiplicity p divides, and
        # for power 2 one that is a p-th power of a p-th power
        f = ExactPoly(base, GF(p))
        g = ExactPoly(planted, GF(p))
        assume(not f.is_zero() and g.degree >= 1)
        for _ in range(p ** power):
            f = f * g
        oracle = _gf(f.coeffs, p, sympy.Symbol("x")).sqf_part().monic()
        assert squarefree_part(f).coeffs == _from_gf(oracle, p)


def ddf_degrees(f: ExactPoly) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of a squarefree f over F_p,
    read from the distinct-degree kernel's blocks without splitting them."""
    if poly_gcd(f, f.derivative()).degree > 0:
        raise DomainError("ddf_degrees needs a squarefree polynomial")
    return unipoly._ddf_pattern(f.monic())


class TestDistinctDegree:
    @pytest.mark.parametrize("b", [12, 25, 42])
    def test_patterns_match_sympy(self, b):
        q = build_pq(b).Q.primitive_part()
        cert = certify_irreducible(q)
        x = sympy.Symbol("x")
        for p, pattern in list(zip(cert.primes, cert.degree_patterns))[:3]:
            poly = sympy.Poly(list(reversed(q.coeffs)), x, modulus=p)
            _, factors = poly.factor_list()
            oracle = sorted(g.degree() for g, mult in factors for _ in range(mult))
            assert ddf_degrees(q.to_ring(GF(p))) == pattern == tuple(oracle)

    @given(p=st.sampled_from([3, 5, 7, 101]),
           coeffs=st.lists(st.integers(min_value=0, max_value=100),
                           min_size=1, max_size=9))
    @settings(max_examples=80, deadline=None)
    def test_pattern_matches_factor_mod_p(self, p, coeffs):
        # the oracle is sympy's factorization mod p
        f = ExactPoly(coeffs + [1], GF(p))
        assume(poly_gcd(f, f.derivative()).degree == 0)
        pattern = ddf_degrees(f)
        _, factors = _gf(f.coeffs, p, sympy.Symbol("x")).factor_list()
        assert pattern == tuple(sorted(g.degree() for g, _ in factors))
        assert sum(pattern) == f.degree

    def test_rejects_repeated_factor(self):
        lin = ExactPoly([1, 1], GF(7))
        with pytest.raises(DomainError):
            ddf_degrees(lin * lin * ExactPoly([1, 0, 1], GF(7)))


ORACLE_PRIMES = (3, 5, 7, 101, (1 << 30) + 3)


def _gf(a: list, p: int, x) -> sympy.Poly:
    """A constant-first list over F_p as a sympy polynomial mod p."""
    return sympy.Poly(list(reversed(a)) or [0], x, modulus=p)


def _from_gf(poly: sympy.Poly, p: int) -> list:
    return _sb_trim([int(c) % p for c in reversed(poly.all_coeffs())])


def _sb_monic(a: list, p: int) -> list:
    return [c * pow(a[-1], -1, p) % p for c in a] if a else []


@st.composite
def _oracle_poly(draw, p: int, max_degree: int, monic: bool = False):
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                           max_size=max_degree + 1))
    if monic:
        coeffs.append(1)
    return _sb_trim(coeffs)


@st.composite
def _sparse_or_dense_modulus(draw, p: int):
    """A modulus f of degree 1..40: dense, or x^n + c x^j with c != 0, whose
    x^n mod f = -c x^j is short."""
    n = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=n - 1))
        c = draw(st.integers(min_value=1, max_value=p - 1))
        f = [0] * (n + 1)
        f[j], f[n] = c, 1
        return f
    f = draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                      min_size=n + 1, max_size=n + 1))
    f[-1] = f[-1] or 1
    return f


class TestKernelSympyOracle:
    """The F_p kernel's Euclid, power of x and distinct-degree blocks
    against sympy over GF(p)."""

    @given(data=st.data(), p=st.sampled_from(ORACLE_PRIMES))
    @settings(max_examples=120, deadline=None)
    def test_fp_gcd(self, data, p):
        # a planted common factor h makes nontrivial gcds common
        a, b, h = (data.draw(_oracle_poly(p, 12)) for _ in range(3))
        a, b = _sb_mul(a, h, p), _sb_mul(b, h, p)
        x = sympy.Symbol("x")
        oracle = _sb_monic(_from_gf(_gf(a, p, x).gcd(_gf(b, p, x)), p), p)
        assert unipoly._fp_gcd(a, b, p) == oracle
        assert unipoly._fp_gcd(b, a, p) == oracle

    @given(data=st.data(), p=st.sampled_from(ORACLE_PRIMES))
    @settings(max_examples=120, deadline=None)
    def test_powmod_of_x(self, data, p):
        f = data.draw(_sparse_or_dense_modulus(p))
        e = data.draw(st.sampled_from([p, p * p, None])) or \
            data.draw(st.integers(min_value=0, max_value=p ** 3))
        oracle = gf_pow_mod([1, 0], e, list(reversed(f)), p, ZZ_domain)
        got = unipoly._FpModulus(f, p).powmod([0, 1], e)
        assert got == _sb_trim([int(c) % p for c in reversed(oracle)])

    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_powmod_of_x_past_the_monomials(self, p):
        # x^n mod x^n + c x^j is the monomial -c x^j: the powers of x stay
        # sparse after the first reduction but are no longer x^(2j)
        for n, j in ((7, 3), (8, 0), (16, 15), (33, 1)):
            f = [0] * (n + 1)
            f[j], f[n] = 2, 1
            mod = unipoly._FpModulus(f, p)
            for e in (n - 1, n, n + 1, 2 * n, 3 * n + 1, p, p * p):
                oracle = gf_pow_mod([1, 0], e, list(reversed(f)), p, ZZ_domain)
                assert mod.powmod([0, 1], e) == \
                    _sb_trim([int(c) % p for c in reversed(oracle)]), (n, j, e)

    @given(data=st.data(), p=st.sampled_from(ORACLE_PRIMES))
    @settings(max_examples=80, deadline=None)
    def test_ddf_blocks(self, data, p):
        # products of small random factors give several factors of one
        # degree and degrees on both sides of a run boundary
        f = [1]
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            f = _sb_mul(f, data.draw(_oracle_poly(p, 6, monic=True)), p)
        assume(len(f) > 1 and len(unipoly._fp_gcd(
            f, _sb_trim([i * c % p for i, c in enumerate(f)][1:]), p)) == 1)
        x = sympy.Symbol("x")
        by_degree = {}
        for g, mult in _gf(f, p, x).factor_list()[1]:
            assert mult == 1
            by_degree[g.degree()] = by_degree.get(g.degree(), 1) * g
        oracle = {d: _sb_monic(_from_gf(g, p), p) for d, g in by_degree.items()}
        blocks = unipoly._ddf_blocks(ExactPoly(f, GF(p)))
        assert [d for d, _ in blocks] == sorted(oracle)
        assert {d: g.coeffs for d, g in blocks} == oracle


MODULUS_PRIMES = (3, 101, 4594399, (1 << 30) + 3)


@st.composite
def _modulus_case(draw):
    """p, a modulus f of degree 1..45 with any nonzero leading coefficient,
    and two lists a, b of length at most deg f, reduced mod f."""
    p = draw(st.sampled_from(MODULUS_PRIMES))
    n = draw(st.integers(min_value=1, max_value=45))
    coeff = st.integers(min_value=0, max_value=p - 1)
    f = draw(st.lists(coeff, min_size=n + 1, max_size=n + 1))
    f[-1] = f[-1] or p - 1
    a, b = (_sb_trim(draw(st.lists(coeff, max_size=n))) for _ in range(2))
    return p, f, a, b


class TestFpModulusOracle:
    """`_FpModulus` keeps products packed between reductions; every entry
    point must agree with the unpacked kernel: a product by `_fp_mul`, then
    its remainder by `_fp_divmod`."""

    @staticmethod
    def oracle_powmod(a: list, e: int, f: list, p: int) -> list:
        out, base = [1], unipoly._fp_divmod(a, f, p)[1]
        for bit in bin(e)[2:]:
            out = unipoly._fp_divmod(unipoly._fp_mul(out, out, p), f, p)[1]
            if bit == "1":
                out = unipoly._fp_divmod(unipoly._fp_mul(out, base, p), f,
                                         p)[1]
        return out

    @given(case=_modulus_case())
    @settings(max_examples=200, deadline=None)
    def test_mulmod(self, case):
        p, f, a, b = case
        mod = unipoly._FpModulus(f, p)
        for u, v in ((a, b), (a, a), (b, b)):
            assert mod.mulmod(u, v) == \
                unipoly._fp_divmod(unipoly._fp_mul(u, v, p), f, p)[1]

    @given(case=_modulus_case(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_powmod(self, case, data):
        p, f, a, _ = case
        e = data.draw(st.sampled_from([0, 1, 2, p, (p - 1) // 2, None]))
        if e is None:
            e = data.draw(st.integers(min_value=0, max_value=p ** 2))
        mod = unipoly._FpModulus(f, p)
        for base in ([0, 1], a):
            assert mod.powmod(base, e) == \
                self.oracle_powmod(base, e, f, p), (base, e)

    @given(case=_modulus_case())
    @settings(max_examples=100, deadline=None)
    def test_power_rows(self, case):
        p, f, h, _ = case
        mod = unipoly._FpModulus(f, p)
        rows = mod.power_rows(h)
        assert len(rows) == len(f) - 1
        power = [1]
        for row in rows:
            assert unipoly._fp_trim(unipoly._unpack(row, mod.w, mod.n,
                                                    p)) == power
            power = unipoly._fp_divmod(unipoly._fp_mul(power, h, p), f,
                                       p)[1]

    @pytest.mark.parametrize("p", MODULUS_PRIMES)
    def test_full_slots(self, p):
        # every coefficient p - 1 at degree 45: the largest slot loads
        f = [p - 1] * 46
        full = [p - 1] * 45
        mod = unipoly._FpModulus(f, p)
        assert mod.mulmod(full, full) == \
            unipoly._fp_divmod(unipoly._fp_mul(full, full, p), f, p)[1]
        for e in (2, p, (p - 1) // 2):
            for base in ([0, 1], full):
                assert mod.powmod(base, e) == self.oracle_powmod(base, e, f,
                                                                 p)


class TestGcdOracle:
    """poly_gcd against sympy's gcd on products with a planted common
    factor: equal up to the primitive normalisation over ZZ (positive
    leading coefficient) and the monic one over QQ."""

    int_coeffs = st.lists(st.integers(min_value=-20, max_value=20),
                          min_size=1, max_size=7)
    rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)

    @given(a=int_coeffs, b=int_coeffs, h=int_coeffs)
    @settings(max_examples=80, deadline=None)
    def test_over_zz(self, a, b, h):
        f = ExactPoly(a, ZZ) * ExactPoly(h, ZZ)
        g = ExactPoly(b, ZZ) * ExactPoly(h, ZZ)
        assume(not f.is_zero() and not g.is_zero())
        x = sympy.Symbol("x")
        _, oracle = _sympy_poly(f, x).gcd(_sympy_poly(g, x)).primitive()
        if oracle.LC() < 0:
            oracle = -oracle
        assert poly_gcd(f, g) == _from_sympy(oracle, ZZ)

    @given(a=st.lists(rational, min_size=1, max_size=7),
           b=st.lists(rational, min_size=1, max_size=7),
           h=st.lists(rational, min_size=1, max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_over_qq(self, a, b, h):
        f = ExactPoly(a, QQ) * ExactPoly(h, QQ)
        g = ExactPoly(b, QQ) * ExactPoly(h, QQ)
        assume(not f.is_zero() and not g.is_zero())
        x = sympy.Symbol("x")
        oracle = _sympy_poly(f, x).gcd(_sympy_poly(g, x)).monic()
        assert poly_gcd(f, g) == _from_sympy(oracle, QQ)


class TestIrreducibility:
    def test_irreducible_quadratic(self):
        cert = certify_irreducible(ExactPoly([1, 0, 1], ZZ))
        assert cert.verdict == "Irreducible"
        assert len(cert.primes) == len(cert.degree_patterns)

    def test_never_claims_irreducible_for_reducible(self):
        f = ExactPoly([1, 1], ZZ) * ExactPoly([1, 0, 1], ZZ)
        cert = certify_irreducible(f)
        assert cert.verdict == "Inconclusive"

    def test_cyclotomic_like(self):
        # x^4 + x^3 + x^2 + x + 1
        cert = certify_irreducible(ExactPoly([1, 1, 1, 1, 1], ZZ))
        assert cert.verdict == "Irreducible"

    @pytest.mark.parametrize("coeffs", [[1, 2, 1], [3]])
    def test_zero_discriminant_raises(self, coeffs):
        # (x+1)^2 repeats a factor modulo every prime, and a constant has
        # no pattern to read; run in a subprocess so that a hang fails the
        # test
        script = textwrap.dedent(f"""
            from pscert.errors import DomainError
            from pscert.unipoly import ZZ, ExactPoly, certify_irreducible
            try:
                certify_irreducible(ExactPoly({coeffs}, ZZ))
            except DomainError:
                raise SystemExit(0)
            raise SystemExit(3)
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
        try:
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail(f"certify_irreducible({coeffs}) did not return")
        assert proc.returncode == 0, proc.stderr

    def test_skips_prime_dividing_discriminant(self):
        # f = x^2 - 3 p0 for the first prime p0 the search tries: f mod p0
        # is x^2, a repeated factor, so p0 must not be used
        p0 = next(unipoly._primes_from((1 << 30) + 1))
        cert = certify_irreducible(ExactPoly([-3 * p0, 0, 1], ZZ))
        assert cert.verdict == "Irreducible"
        assert p0 not in cert.primes

    def test_first_primes_above_2_30(self):
        # the primes every certificate draws from, recorded while each
        # search ran Miller-Rabin afresh
        primes = [p for p, _ in zip(unipoly._primes_from((1 << 30) + 1),
                                    range(48))]
        assert hashlib.sha256(repr(primes).encode()).hexdigest() == \
            "aa518f65aa911d03188684dc9f6e91ff51c863b502447b7d1fef36af14d2a121"

    def test_primes_are_certified_once(self, monkeypatch):
        first = certify_irreducible(build_pq(36).Q_zz)
        real, tested = unipoly._is_prime, []
        monkeypatch.setattr(unipoly, "_is_prime",
                            lambda n: tested.append(n) or real(n))
        second = certify_irreducible(build_pq(42).Q_zz)
        assert first.verdict == second.verdict == "Irreducible"
        assert max(second.primes) <= max(first.primes)
        assert tested == []

    def test_patterns_consistent(self):
        f = ExactPoly([2, 0, 0, 0, 0, 0, 1], ZZ)
        cert = certify_irreducible(f)
        for pat in cert.degree_patterns:
            assert sum(pat) == f.degree


def _product(factors, ring) -> ExactPoly:
    out = ExactPoly.one(ring)
    for f in factors:
        out = out * f
    return out


W = ExactPoly([0, 1, 1], ZZ)  # z^2 + z


@st.composite
def _w_inputs(draw):
    """(H, p, kind): an integer H of degree 1..10 and an oracle prime p not
    dividing lc(H).  kind "quarter" plants the factor w + 1/4 mod p, so
    H(-1/4) = 0 mod p; "square" plants a squared factor of degree 1..2."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    coeff = st.integers(min_value=-30, max_value=30)
    kind = draw(st.sampled_from(["plain", "quarter", "square"]))
    if kind == "quarter":
        planted = [ExactPoly([pow(4, -1, p), 1], ZZ)]
    elif kind == "square":
        g = ExactPoly(draw(st.lists(coeff, min_size=2, max_size=3)), ZZ)
        planted = [g, g]
    else:
        planted = []
    room = 10 - sum(g.degree for g in planted)
    base = ExactPoly(draw(st.lists(coeff, min_size=1, max_size=room + 1)),
                     ZZ)
    h = _product([base] + planted, ZZ)
    assume(h.degree >= 1 and h.leading() % p)
    return h, p, kind


class TestHalfDegreePatterns:
    """`certify_irreducible` on f = H(z^2 + z): the distinct-degree kernel
    on H mod p plus a quadratic character per block, against the
    degree-n kernel and sympy."""

    @given(case=_w_inputs())
    @example(case=(ExactPoly([1, 4], ZZ), 101, "quarter"))  # (2z + 1)^2
    @example(case=(ExactPoly([-2, 1], ZZ), 7, "plain"))  # (z + 2)(z - 1)
    @example(case=(ExactPoly([1, 1], ZZ), 3, "plain"))  # z^2 + z + 1
    @settings(max_examples=200, deadline=None)
    def test_matches_full_degree_and_sympy(self, case):
        h, p, kind = case
        f = h(W)
        assert unipoly._w_form(f.coeffs) == h.coeffs
        got = unipoly._w_pattern(h.coeffs, p)
        # the skip decision is the degree-n test gcd(f, f') != 1 mod p
        fp = f.to_ring(GF(p))
        skip = len(unipoly._fp_gcd(fp.coeffs, fp.derivative().coeffs, p)) > 1
        assert (got is None) == skip
        if kind != "plain":
            assert got is None
        if got is not None:
            _, factors = _gf(fp.coeffs, p, sympy.Symbol("x")).factor_list()
            oracle = sorted(g.degree() for g, mult in factors
                            for _ in range(mult))
            assert got == unipoly._ddf_pattern(fp.monic()) == tuple(oracle)

    @given(coeffs=st.lists(st.integers(min_value=-40, max_value=40),
                           min_size=2, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_skip_matches_the_exactpoly_test(self, coeffs):
        # primes dividing 4^d H(-1/4) or disc(H) make f mod p repeat a
        # factor; the flat skip test must refuse exactly those the test on
        # ExactPoly does
        assume(coeffs[-1] != 0)
        d = len(coeffs) - 1
        quarter = sum(c * (-1) ** i * 4 ** (d - i)
                      for i, c in enumerate(coeffs))
        disc = sympy.discriminant(sympy.Poly(list(reversed(coeffs)),
                                             sympy.Symbol("w")))
        planted = {q for n in (quarter, int(disc)) if n
                   for q in sympy.factorint(abs(n)) if q % 2}
        for p in sorted(planted | set(ORACLE_PRIMES)):
            if coeffs[-1] % p == 0:
                continue
            hp = ExactPoly(coeffs, GF(p))
            skip = not hp(-pow(4, -1, p) % p) or len(unipoly._fp_gcd(
                hp.coeffs, hp.derivative().coeffs, p)) > 1
            assert (unipoly._w_pattern(coeffs, p) is None) == skip, p
            if p in planted:
                assert skip, p

    def test_not_a_polynomial_in_w(self):
        for coeffs in ([0, 2, 1], [0, 0, 0, 1], [1, 1], [5, 0, 1]):
            assert unipoly._w_form(coeffs) is None
        assert unipoly._w_form([3, 1, 1]) == [3, 1]

    def test_certificates_match_generic_path(self, monkeypatch):
        cofactors = [build_pq(n).Q_zz for n in range(6, 61)]
        cofactors = [q for q in cofactors if q.degree > 0]  # Q_7 = 1
        half = [certify_irreducible(q) for q in cofactors]
        monkeypatch.setattr(unipoly, "_w_form", lambda coeffs: None)
        for q, cert in zip(cofactors, half):
            assert certify_irreducible(q) == cert, q.degree

    def test_cofactors_take_the_half_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("degree-n kernel on a polynomial in w")
        monkeypatch.setattr(unipoly, "_pattern", refuse)
        assert certify_irreducible(build_pq(42).Q_zz).verdict == "Irreducible"
        reducible = (W + ExactPoly([1], ZZ)) * (W + ExactPoly([3], ZZ))
        assert certify_irreducible(reducible).verdict == "Inconclusive"


PSI_12 = 318665857834031151167461  # strong pseudoprime to bases 2..37
PSI_13 = 3317044064679887385961981  # strong pseudoprime to bases 2..41


class TestIsPrime:
    def test_psi_12_is_composite(self):
        assert PSI_12 == 399165290221 * 798330580441
        assert not unipoly._is_prime(PSI_12)

    def test_refused_from_psi_13_on(self):
        assert PSI_13 == 1287836182261 * 2575672364521
        for n in (PSI_13, PSI_13 + 2, 10 ** 30 + 57):
            with pytest.raises(BadPrime):
                unipoly._is_prime(n)
        below = sympy.prevprime(PSI_13)
        assert unipoly._is_prime(below)

    def test_agrees_with_sympy(self):
        # the strong pseudoprimes psi_1 .. psi_11, Carmichael numbers, and
        # random integers of every size below psi_13
        sample = [2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  561, 41041, 825265, 321197185, 0, 1, 2, 3, 4, 41, 43,
                  41 * 43, (1 << 61) - 1, (1 << 61) + 1]
        rng = random.Random(13)
        for bits in range(2, PSI_13.bit_length()):
            sample += [rng.getrandbits(bits) | 1 for _ in range(20)]
            q = sympy.nextprime(rng.getrandbits(bits // 2 + 1))
            sample += [q * sympy.nextprime(q), sympy.nextprime(1 << bits)]
        for n in sample:
            if n < PSI_13:
                assert unipoly._is_prime(n) == sympy.isprime(n), n


@st.composite
def _y_existence_inputs(draw):
    """A field, exponents a < b < c <= 8, and a squarefree monic q of degree
    at most 8 built from x, x + 1, x - 1, x^2 + x + 1, the x^e + 1 and one
    random monic factor, each taken while the degree stays at most 8."""
    ring = draw(st.sampled_from([QQ, GF(2), GF(3), GF(7), GF(13)]))
    exps = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=8),
                                     min_size=3, max_size=3))))
    pool = [[0, 1], [1, 1], [-1, 1], [1, 1, 1]]
    pool += [[1] + [0] * (e - 1) + [1] for e in exps]
    pool.append(draw(st.lists(st.integers(min_value=-5, max_value=5),
                              min_size=1, max_size=3)) + [1])
    picks = draw(st.permutations(pool))[:draw(st.integers(1, 4))]
    prod = ExactPoly.one(ring)
    for coeffs in picks:
        factor = ExactPoly(coeffs, ring)
        if prod.degree + factor.degree <= 8:
            prod = prod * factor
    x = sympy.Symbol("x")
    domain = {} if ring == QQ else {"modulus": ring[1]}
    sqf = sympy.Poly([int(c) for c in reversed(prod.coeffs)], x,
                     **domain).sqf_part().monic()
    return ring, exps, _from_sympy(sqf, ring)


class TestQuotientGcd:
    """`powersum._y_existence`: the common y-roots of 1 + x^e + y^e,
    e = a, b, c, over K[x]/(q), by a Euclid on the binomials y^e - c that
    splits q at each zero test.  Pinned cases over GF(101) cover every
    branch kept, a coefficient that vanishes on one factor only, and a
    split modulus; a hypothesis test checks the result against sympy's
    lex Groebner basis."""

    def test_split_on_reducible_modulus(self):
        ring = GF(7)
        modulus = ExactPoly([6, 0, 1], ring)  # x^2 - 1 = (x-1)(x+1)
        parts = powersum._split(ExactPoly([6, 1], ring), modulus)  # x - 1
        assert parts == [(ExactPoly([6, 1], ring), True),
                         (ExactPoly([1, 1], ring), False)]

    def test_invertible_element(self):
        ring = GF(7)
        modulus = ExactPoly([1, 0, 1], ring)  # irreducible mod 7
        x = ExactPoly([0, 1], ring)
        g, s = _half_xgcd(x, modulus)
        assert g.degree == 0
        assert (s // g) * x % modulus == ExactPoly.one(ring)
        assert powersum._split(x, modulus) == [(modulus, False)]

    def test_quotient_poly_gcd_branches(self):
        # q = x (x + 1), exponents (1, 3, 5): the common roots are y = -1
        # over x = 0 and y = 0 over x = -1.  Modulo q, -1 - x^5 = -1 - x^3
        # = -1 - x, which vanishes on x + 1 only, so q splits and each
        # factor keeps its root.
        ring = GF(101)
        q = ExactPoly([0, 1, 1], ring)
        with_root, without = powersum._y_existence(q, (1, 3, 5))
        assert sorted(with_root, key=lambda f: f.coeffs) == \
            [ExactPoly([0, 1], ring), ExactPoly([1, 1], ring)]
        assert without == []

    def test_quotient_poly_gcd_keeps_every_branch(self):
        # q = x (x - 1), exponents (3, 5, 7): y = -1 is a common root over
        # x = 0; over x = 1, y^3 = y^5 = -2 forces y^2 = 1 and then
        # y^3 = -2 fails.  The last zero test splits q and both factors
        # are kept, one on each side.
        ring = GF(101)
        q = ExactPoly([0, -1, 1], ring)
        with_root, without = powersum._y_existence(q, (3, 5, 7))
        assert with_root == [ExactPoly([0, 1], ring)]
        assert without == [ExactPoly([-1, 1], ring)]

    def test_zero_divisor_leading_coefficient_splits(self):
        # q = (x + 1)(x - 1), exponents (3, 5, 7): d = -1 - x^3 vanishes
        # on x + 1 only.  There y = 0 is the only candidate root, and it is
        # one since -1 - x^5 vanishes too; over x = 1 there is no root.
        ring = GF(101)
        q = ExactPoly([-1, 0, 1], ring)
        with_root, without = powersum._y_existence(q, (3, 5, 7))
        assert with_root == [ExactPoly([1, 1], ring)]
        assert without == [ExactPoly([-1, 1], ring)]

    @given(_y_existence_inputs())
    @settings(max_examples=80, deadline=None)
    def test_matches_groebner_elimination(self, inputs):
        # the factors with a root multiply to the monic generator of the
        # elimination ideal (q, 1 + x^e + y^e) in K[x], which for a
        # squarefree q is the product of its factors over which the
        # three curves meet
        ring, exps, q = inputs
        with_root, without = powersum._y_existence(q, exps)
        assert _product(with_root + without, ring) == q
        x, y = sympy.symbols("x y")
        domain = {} if ring == QQ else {"modulus": ring[1]}
        gens = [sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                            for c in reversed(q.coeffs)], x, **domain).as_expr()]
        gens += [1 + x ** e + y ** e for e in exps]
        basis = sympy.groebner(gens, y, x, order="lex", **domain)
        (elim,) = [g for g in basis.exprs if not g.has(y)]
        oracle = _from_sympy(sympy.Poly(elim, x, **domain).monic(), ring)
        assert _product(with_root, ring) == oracle
