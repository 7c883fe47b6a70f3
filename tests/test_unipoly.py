"""Exact univariate polynomial arithmetic: gcd, resultants, factorization
over prime fields, irreducibility certificates, and quotient-ring gcds."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pscert import unipoly
from pscert.errors import DivisionFailure, DomainError, RingMismatch
from pscert.powersum import build_pq
from pscert.unipoly import (GF, QQ, ZZ, ExactPoly, QuotientElem,
                            certify_irreducible, ddf_degrees, factor_mod_p,
                            poly_gcd, quotient_poly_gcd, resultant,
                            resultant_bivariate, squarefree_part)

small_polys = st.lists(st.integers(min_value=-9, max_value=9),
                       min_size=1, max_size=6).map(lambda c: ExactPoly(c, ZZ))


def _nonzero(p: ExactPoly) -> bool:
    return not p.is_zero()


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

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            ExactPoly([1], ZZ) + ExactPoly([Fraction(1)], QQ)

    def test_eval_horner(self):
        f = ExactPoly([1, -2, 1], ZZ)  # (x-1)^2
        assert f(1) == 0 and f(3) == 4

    def test_shift_compose_negate(self):
        f = ExactPoly([0, 1], ZZ)  # x -> -1-x
        assert f.shift_compose_negate() == ExactPoly([-1, -1], ZZ)

    def test_primitive_part(self):
        f = ExactPoly([Fraction(2, 3), Fraction(4, 3)], QQ)
        assert f.primitive_part() == ExactPoly([1, 2], ZZ)

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


class TestFactorModP:
    def test_product_reconstruction(self):
        p = 101
        rng = random.Random(5)
        for _ in range(10):
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(2, 8))]
            coeffs.append(rng.randrange(1, p))
            f = ExactPoly(coeffs, GF(p))
            acc = ExactPoly([f.leading()], GF(p))
            for q, mult in factor_mod_p(f):
                assert q.leading() == 1
                for _ in range(mult):
                    acc = acc * q
            assert acc == f

    def test_factors_irreducible_probe(self):
        p = 13
        # x^2 + 1 splits mod 13 (since 13 = 1 mod 4)
        f = ExactPoly([1, 0, 1], GF(p))
        factors = factor_mod_p(f)
        assert sorted(q.degree for q, _ in factors) == [1, 1]

    def test_deterministic(self):
        p = 2 ** 31 - 1
        f = ExactPoly([5, 0, 3, 1, 1], GF(p))
        assert factor_mod_p(f) == factor_mod_p(f)

    def test_squarefree_part(self):
        lin = ExactPoly([1, 1], ZZ)
        f = lin * lin * lin * ExactPoly([1, 0, 1], ZZ)
        sf = squarefree_part(f)
        assert sf.to_ring(QQ).monic() == \
            (ExactPoly([1, 1], ZZ) * ExactPoly([1, 0, 1], ZZ)).to_ring(QQ).monic()


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
        f = ExactPoly(coeffs + [1], GF(p))
        assume(poly_gcd(f, f.derivative()).degree == 0)
        pattern = ddf_degrees(f)
        assert pattern == tuple(sorted(q.degree for q, _ in factor_mod_p(f)))
        assert sum(pattern) == f.degree

    def test_rejects_repeated_factor(self):
        lin = ExactPoly([1, 1], GF(7))
        with pytest.raises(DomainError):
            ddf_degrees(lin * lin * ExactPoly([1, 0, 1], GF(7)))

    def test_certificate_needs_no_equal_degree_split(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("equal-degree splitting on the certify path")
        monkeypatch.setattr(unipoly, "_equal_degree_split", refuse)
        cert = certify_irreducible(build_pq(42).Q.primitive_part())
        assert cert.verdict == "Irreducible"


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

    def test_patterns_consistent(self):
        f = ExactPoly([2, 0, 0, 0, 0, 0, 1], ZZ)
        cert = certify_irreducible(f)
        for pat in cert.degree_patterns:
            assert sum(pat) == f.degree


class TestQuotientGcd:
    def test_split_on_reducible_modulus(self):
        p = 7
        ring = GF(p)
        modulus = ExactPoly([6, 0, 1], ring)  # x^2 - 1 = (x-1)(x+1)
        elem = QuotientElem(ExactPoly([6, 1], ring), modulus)  # x - 1
        out = elem.inverse_or_split()
        from pscert.unipoly import Split
        assert isinstance(out, Split)
        degs = sorted(f.degree for f in out.factors)
        assert degs == [1, 1]

    def test_invertible_element(self):
        p = 7
        ring = GF(p)
        modulus = ExactPoly([1, 0, 1], ring)  # irreducible mod 7
        elem = QuotientElem(ExactPoly([0, 1], ring), modulus)
        inv = elem.inverse_or_split()
        assert isinstance(inv, QuotientElem)
        prod = elem * inv
        assert prod.representative == ExactPoly.one(ring)

    def test_quotient_poly_gcd_branches(self):
        p = 7
        ring = GF(p)
        # modulus splits; y - x shares a root with y^2 - x^2 on both branches
        modulus = ExactPoly([6, 0, 1], ring)
        f = [QuotientElem(ExactPoly([0, 6], ring), modulus),
             QuotientElem(ExactPoly.one(ring), modulus)]  # y - x
        g = [QuotientElem(ExactPoly([0, 0, 6], ring), modulus),
             QuotientElem(ExactPoly.zero(ring), modulus),
             QuotientElem(ExactPoly.one(ring), modulus)]  # y^2 - x^2
        branches = quotient_poly_gcd([f, g])
        assert all(len(gcd_y) - 1 >= 1 for _, gcd_y in branches)
        total = ExactPoly.one(ring)
        for mod, _ in branches:
            total = total * mod
        assert total.monic() == modulus.monic()

    def test_quotient_poly_gcd_keeps_every_branch(self):
        # modulus (x-1)(x-2) over GF(101); gcd(y - 1, y - x) has degree 1 on
        # the x-1 branch and is constant on the x-2 branch
        ring = GF(101)
        modulus = ExactPoly([2, -3, 1], ring)
        f = [QuotientElem(ExactPoly([-1], ring), modulus),
             QuotientElem(ExactPoly.one(ring), modulus)]  # y - 1
        g = [QuotientElem(ExactPoly([0, -1], ring), modulus),
             QuotientElem(ExactPoly.one(ring), modulus)]  # y - x
        branches = quotient_poly_gcd([f, g])
        total = ExactPoly.one(ring)
        for mod, _ in branches:
            total = total * mod
        assert total.monic() == modulus.monic()
        by_root = {mod.monic(): gcd_y for mod, gcd_y in branches}
        assert len(by_root[ExactPoly([-1, 1], ring)]) == 2
        assert len(by_root[ExactPoly([-2, 1], ring)]) == 1

    def test_zero_divisor_leading_coefficient_splits(self):
        # 5 + (x-1) y modulo (x-1)(x-2) over GF(101): the leading coefficient
        # vanishes on the x-1 branch, where the gcd is the constant 5
        ring = GF(101)
        modulus = ExactPoly([2, -3, 1], ring)
        f = [QuotientElem(ExactPoly([5], ring), modulus),
             QuotientElem(ExactPoly([-1, 1], ring), modulus)]
        branches = quotient_poly_gcd([f])
        total = ExactPoly.one(ring)
        for mod, _ in branches:
            total = total * mod
        assert total.monic() == modulus.monic()
        by_root = {mod.monic(): gcd_y for mod, gcd_y in branches}
        assert by_root[ExactPoly([-1, 1], ring)] == [ExactPoly.one(ring)]
        assert len(by_root[ExactPoly([-2, 1], ring)]) == 2
