"""Power-sum polynomial constructions and regular-sequence decisions."""

import dataclasses
import hashlib
import inspect
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pscert import pipeline, powersum, unipoly
from pscert.errors import BadPrime, VerificationFailed
from pscert.pipeline import SweepSpec, certify_a1, run_sweep
from pscert.powersum import (build_p, build_pq, pair_zset, regseq2,
                             regseq3_mod_p, regseq3_rational, trivial_factor,
                             triple_zset)
from pscert.unipoly import GF, QQ, ZZ, ExactPoly, poly_gcd


class TestBuild:
    def test_small_values(self):
        # P_2 = 2x^2 + 2x + 2
        assert build_p(2) == ExactPoly([2, 2, 2], ZZ)
        # P_3 = -3x^2 - 3x
        assert build_p(3) == ExactPoly([0, -3, -3], ZZ)

    def test_symmetry(self):
        # P_n(z) = P_n(-1-z) for all n
        for n in range(2, 20):
            p = build_p(n)
            assert p.shift_compose_negate() == p

    def test_decomposition_exact(self):
        for n in range(2, 61):
            pq = build_pq(n)
            assert pq.C * pq.Q == pq.P
            assert pq.Q.degree % 6 == 0

    def test_trivial_factor_table(self):
        z = ExactPoly([0, 1], ZZ)
        z1 = ExactPoly([1, 1], ZZ)
        w = ExactPoly([1, 1, 1], ZZ)
        assert trivial_factor(6) == ExactPoly([1], ZZ)
        assert trivial_factor(7) == z * z1 * w * w
        assert trivial_factor(8) == w
        assert trivial_factor(9) == z * z1
        assert trivial_factor(10) == w * w
        assert trivial_factor(11) == z * z1 * w

    def test_trivial_factor_is_the_trivial_part(self):
        # C_n divides P_n and leaves no zero at 0, -1 or omega behind
        w = ExactPoly([1, 1, 1], QQ)
        for n in range(2, 201):
            q = build_p(n).to_ring(QQ).exact_div(trivial_factor(n).to_ring(QQ))
            assert q(0) != 0 and q(-1) != 0, n
            assert not (q % w).is_zero(), n

    @given(st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=3))
    def test_trivial_zeros_match_parity_and_mod3(self, exps):
        # 2 and 3 are prime: a product is odd, or prime to 3, iff every
        # factor is
        prod = math.prod(exps)
        assert powersum._trivial_zeros(*exps) == (prod % 2 != 0,
                                                  prod % 3 != 0)

    def test_vacuous_cofactors(self):
        for n in (2, 3, 4, 5, 7):
            assert build_pq(n).Q.degree == 0


class TestCofactorCache:
    def test_cache_survives_callers(self):
        # every consumer shares the cached polynomials; none may mutate them
        run_sweep(SweepSpec("pair-a1", {"b_max": 60, "c_max": 60}, []))
        certify_a1(8)
        misses = powersum._pq.cache_info().misses
        for n in range(2, 61):
            assert powersum._pq(n) == powersum._pq.__wrapped__(n), n
        assert powersum._pq.cache_info().misses == misses

    def test_one_object_per_n(self):
        assert build_pq(12) is build_pq(12)
        with pytest.raises(dataclasses.FrozenInstanceError):
            build_pq(12).Q = build_pq(18).Q

    def test_invalid_n_still_raises(self):
        for _ in range(2):  # a raise is never cached
            with pytest.raises(ValueError):
                build_pq(1)

    def test_build_pq_stays_a_plain_function(self):
        # span tracing wraps the public plain functions of a module
        assert inspect.isfunction(build_pq)
        assert build_pq.__module__ == "pscert.powersum"


class TestPairZSet:
    def test_known_empty(self):
        z = pair_zset(6, 10)
        assert z.is_empty
        assert not z.zero_minus_one_present
        assert not z.cube_roots_present

    def test_both_odd_flags(self):
        z = pair_zset(5, 7)
        assert z.is_empty
        assert z.zero_minus_one_present  # 2 does not divide bc
        assert z.cube_roots_present      # 3 divides neither

    def test_three_divides_one_exponent(self):
        z = pair_zset(3, 5)
        assert z.zero_minus_one_present
        assert not z.cube_roots_present

    def test_mixed_flags(self):
        z = pair_zset(2, 5)
        assert not z.zero_minus_one_present
        assert z.cube_roots_present

    def test_gcd_with_trivial_q(self):
        # Q_2 is constant: the nontrivial zero set is empty by definition
        z = pair_zset(2, 8)
        assert z.is_empty

    def test_sweep_gcds_run_on_invariant_forms(self, monkeypatch):
        # a pair sweep to 60 decides every pair on R_b, R_c (degree <= 10)
        # and never reaches the z-degree subresultant gcd
        degrees = []

        def recording_gcd(f, g):
            degrees.append((f.degree, g.degree))
            return poly_gcd(f, g)

        def no_subresultant(f, g):
            raise AssertionError("z-degree gcd reached")

        monkeypatch.setattr(powersum, "poly_gcd", recording_gcd)
        monkeypatch.setattr(unipoly, "_subresultant_gcd", no_subresultant)
        out = run_sweep(SweepSpec("pair-a1", {"b_max": 60, "c_max": 60}, []))
        assert out["instances"] == 1711 and out["counts"]["undecided"] == 0
        assert len(degrees) == 1431  # both cofactors nonconstant
        assert max(max(d) for d in degrees) <= 10


def _expand_form(r: ExactPoly) -> ExactPoly:
    """sum_j r_j W^j w^(2(k-j)) in z, with w = z^2 + z, W = (w + 1)^3 and
    k = deg r, by ExactPoly products."""
    w = ExactPoly([0, 1, 1], ZZ)
    cube = ExactPoly([1, 1, 1], ZZ)
    cube = cube * cube * cube
    k = r.degree
    out = ExactPoly.zero(ZZ)
    for j, rj in enumerate(r.coeffs):
        term = ExactPoly([rj], ZZ)
        for _ in range(j):
            term = term * cube
        for _ in range(2 * (k - j)):
            term = term * w
        out = out + term
    return out


def _sympy_monic_gcd(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    z = sympy.Symbol("z")
    pf, pg = (sympy.Poly(list(reversed(h.coeffs)), z, domain="QQ")
              for h in (f, g))
    h = sympy.gcd(pf, pg).monic()
    return ExactPoly([Fraction(int(c.p), int(c.q))
                      for c in reversed(h.all_coeffs())], QQ)


class TestInvariantForm:
    def test_reexpands_to_cofactor(self):
        for n in range(2, 121):
            pq = build_pq(n)
            assert pq.Q_zz.degree % 6 == 0, n
            assert pq.R.degree == pq.Q_zz.degree // 6, n
            assert _expand_form(pq.R) == pq.Q_zz, n

    def test_peel_raises_off_the_form(self):
        z = ExactPoly([0, 1], ZZ)
        w = ExactPoly([0, 1, 1], ZZ)
        for n in (8, 12, 60):
            q = build_pq(n).Q_zz
            for bad in (q + z,  # not a polynomial in w
                        q + w,  # a polynomial in w, but not a form
                        q * w):
                with pytest.raises(VerificationFailed):
                    powersum._invariant_form(bad)
        # r_k = q(0) = 0: the zero polynomial and w^3
        for bad in (ExactPoly.zero(ZZ), w * w * w):
            with pytest.raises(VerificationFailed):
                powersum._invariant_form(bad)

    forms = st.lists(st.integers(min_value=-5, max_value=5), min_size=1,
                     max_size=4).filter(lambda c: c[-1] != 0)

    @given(common=forms, first=forms, second=forms)
    @settings(max_examples=60, deadline=None)
    def test_pair_gcd_matches_sympy(self, common, first, second):
        # plant a common factor F(J) into R1 = F A and R2 = F B; the pair
        # gcd, through the invariant forms and, when their gcd is
        # nonconstant, the z-degree fallback, must be sympy's gcd in z
        f = ExactPoly(common, ZZ)
        r1, r2 = f * ExactPoly(first, ZZ), f * ExactPoly(second, ZZ)
        q1, q2 = _expand_form(r1), _expand_form(r2)
        assert powersum._invariant_form(q1) == r1
        assert powersum._invariant_form(q2) == r2
        got = powersum._pair_gcd(q1, r1, q2, r2)
        want = _sympy_monic_gcd(q1, q2)
        assert got.degree == want.degree and got == want


def _pair_poly(i: int, j: int) -> ExactPoly:
    """(1+x^i)^j - (-1)^{i+j} (1+x^j)^i over ZZ."""
    sign = 1 if (i + j) % 2 == 0 else -1
    return (powersum._one_plus_pow(i, j, ZZ)
            - powersum._one_plus_pow(j, i, ZZ).scale(sign))


def _system_polys(a: int, b: int, c: int) -> list[ExactPoly]:
    """The three x-polynomials every alpha in Z(a,b,c) must satisfy."""
    return [_pair_poly(i, j) for (i, j) in ((a, b), (a, c), (b, c))]


def _strip_trivial(f: ExactPoly) -> ExactPoly:
    """Remove all factors x, x+1, x^2+x+1 from a rational polynomial."""
    for lin in (ExactPoly([0, 1], QQ), ExactPoly([1, 1], QQ),
                ExactPoly([1, 1, 1], QQ)):
        while not f.is_constant():
            q, r = f.divmod(lin)
            if r.is_zero():
                f = q
            else:
                break
    return f


def _x_gcd(a: int, b: int, c: int) -> ExactPoly:
    """The stripped monic gcd of the three pair polynomials at full
    x-degree: the oracle for `powersum._triple_gcd`."""
    polys = _system_polys(a, b, c)
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    return _strip_trivial(g.to_ring(QQ).monic())


def _expand_reciprocal(F: ExactPoly) -> ExactPoly:
    """x^(deg F) F(x + 1/x) = sum_k F_k x^(d-k) (x^2 + 1)^k over ZZ, with
    (x^2 + 1)^k expanded by the binomial theorem (Pascal's rows)."""
    d = F.degree
    out = [0] * (2 * d + 1)
    row = [1]
    for k, fk in enumerate(F.coeffs):
        for t, binom in enumerate(row):
            out[d - k + 2 * t] += fk * binom
        row = [u + v for u, v in zip(row + [0], [0] + row)]
    return ExactPoly(out, ZZ)


class TestReciprocalForm:
    @given(ij=st.tuples(st.integers(1, 40), st.integers(1, 40))
           .filter(lambda t: t[0] < t[1]))
    @settings(max_examples=60, deadline=None)
    def test_reexpands_to_pair_poly(self, ij):
        # f = x^e (1 + x)^r x^(deg F) F(x + 1/x) with r in {0, 1}
        i, j = ij
        f = _pair_poly(i, j)
        F = powersum._reciprocal_form(i, j)
        e = next(k for k, fk in enumerate(f.coeffs) if fk)
        r = f.degree - e - 2 * F.degree
        assert r in (0, 1)
        rebuilt = _expand_reciprocal(F) * ExactPoly.monomial(e, 1, ZZ)
        if r:
            rebuilt = rebuilt * ExactPoly([1, 1], ZZ)
        assert rebuilt == f

    def test_never_vanishes_at_two(self):
        # F(2) = f(1) / 2^r with f(1) = 2^j -+ 2^i != 0: x = 1 is no root
        for j in range(2, 31):
            for i in range(1, j):
                f1 = 2 ** j - (-1) ** (i + j) * 2 ** i
                assert powersum._reciprocal_form(i, j)(2) in (f1, f1 // 2)

    def test_peel_raises_off_the_form(self):
        for i, j in ((2, 3), (3, 5), (4, 7), (6, 11)):
            f = list(_pair_poly(i, j).coeffs)
            e = next(k for k, fk in enumerate(f) if fk)
            for k in (e, e + 1, e + 2):  # break the palindrome
                bad = list(f)
                bad[k] += 1
                with pytest.raises(VerificationFailed):
                    powersum._palindromic_form(bad)
        # anti-palindromes x - 1 and x^3 - x, and the zero polynomial
        for bad in ([-1, 1], [0, -1, 0, 1], [0, 0, 0]):
            with pytest.raises(VerificationFailed):
                powersum._palindromic_form(bad)

    def test_halved_gcd_matches_x_gcd(self):
        # every a < b < c with a + b + c <= 30, a = 1 and gcd > 1 included
        nonconstant = 0
        for a in range(1, 30):
            for b in range(a + 1, 30):
                for c in range(b + 1, 31 - a - b):
                    got = powersum._triple_gcd(a, b, c)
                    want = _x_gcd(a, b, c)
                    assert repr(got) == repr(want), (a, b, c)
                    nonconstant += not want.is_constant()
        assert nonconstant == 28


class TestTripleZSet:
    def test_known_empty(self):
        assert triple_zset(2, 3, 4).is_empty
        assert triple_zset(2, 3, 5).is_empty

    def test_input_validation(self):
        with pytest.raises(ValueError):
            triple_zset(2, 4, 6)  # gcd 2
        with pytest.raises(ValueError):
            triple_zset(3, 2, 4)

    @pytest.mark.parametrize("planted, survivor", [
        ([1, 1, 1], [1, 1, 1]),  # (omega, omega^2) is a common zero
        ([2, 1], [1]),  # x = -2: the three curves share no y
        ([2, 3, 3, 1], [1, 1, 1]),  # (x + 2)(x^2 + x + 1) splits back
    ])
    def test_y_existence_tail(self, monkeypatch, planted, survivor):
        # for a >= 2 and a + b + c <= 30 every stripped triple gcd is
        # constant, so a nonconstant one is planted to reach the y-check
        monkeypatch.setattr(powersum, "_triple_gcd",
                            lambda a, b, c: ExactPoly(planted, QQ))
        z = triple_zset(2, 4, 5)
        assert z.defining_poly == ExactPoly(survivor, QQ)
        assert z.is_empty == (survivor == [1])


class TestRegSeq2:
    def test_regular(self):
        assert regseq2(1, 2).verdict == "Regular"
        assert regseq2(2, 3).verdict == "Regular"

    def test_both_odd_reduced(self):
        v = regseq2(3, 5)
        assert v.verdict == "NotRegular"

    def test_common_factor_reduction(self):
        # (2, 6) reduces to (1, 3): both odd, not regular
        assert regseq2(2, 6).verdict == "NotRegular"
        # (2, 4) reduces to (1, 2): regular
        assert regseq2(2, 4).verdict == "Regular"

    def test_char_2(self):
        assert regseq2(1, 2, characteristic=2).verdict == "NotRegular"

    def test_characteristic_must_be_zero_or_prime(self):
        assert regseq2(2, 3, 7).field == "GF(7)"
        for char in (4, 25, -7, 1):
            with pytest.raises(BadPrime):
                regseq2(2, 3, char)


class TestRegSeq3Rational:
    def test_all_odd(self):
        v = regseq3_rational(1, 3, 5)
        assert v.verdict == "NotRegular"
        assert "0, -1" in str(v.witness)

    def test_no_multiple_of_three(self):
        v = regseq3_rational(1, 2, 5)
        assert v.verdict == "NotRegular"
        assert "cube" in str(v.witness)

    def test_regular_instances(self):
        assert regseq3_rational(1, 2, 3).verdict == "Regular"
        assert regseq3_rational(1, 6, 100).verdict == "Regular"
        assert regseq3_rational(2, 3, 4).verdict == "Regular"

    def test_gcd_reduction(self):
        # (2, 4, 6) -> (1, 2, 3)
        assert regseq3_rational(2, 4, 6).verdict == "Regular"


class TestOnePlusPow:
    @staticmethod
    def squaring(i, j, ring):
        """(1 + x^i)^j by repeated squaring of dense products."""
        base = ExactPoly([1] + [0] * (i - 1) + [1], ring)
        result = ExactPoly.one(ring)
        while j:
            if j & 1:
                result = result * base
            base = base * base
            j >>= 1
        return result

    def test_matches_repeated_squaring(self):
        for ring in (QQ, GF(101)):
            for i in range(1, 13):
                for j in range(13):
                    assert powersum._one_plus_pow(i, j, ring) == \
                        self.squaring(i, j, ring), (ring, i, j)


class TestRegSeq3ModP:
    def test_large_prime_witness(self):
        v = regseq3_mod_p(1, 6, 100, 4594399)
        assert v.verdict == "NotRegular"
        assert v.witness is not None

    def test_small_regular(self):
        assert regseq3_mod_p(1, 2, 3, 5).verdict == "Regular"

    def test_rational_still_regular(self):
        assert regseq3_rational(1, 6, 100).verdict == "Regular"

    def test_bad_primes(self):
        with pytest.raises(BadPrime):
            regseq3_mod_p(1, 2, 3, 2)
        with pytest.raises(BadPrime):
            regseq3_mod_p(1, 2, 3, 3)

    @pytest.mark.parametrize("p", [25, -7, 1, 0, 91])
    def test_modulus_must_be_prime(self, p):
        # 25 is coprime to 1 * 6 * 10 and 2 * 3 * 4: no other check stops it
        with pytest.raises(BadPrime):
            regseq3_mod_p(1, 6, 10, p)
        with pytest.raises(BadPrime):
            regseq3_mod_p(2, 3, 4, p)

    def test_generic_prime_regular(self):
        assert regseq3_mod_p(1, 6, 100, 101).verdict == "Regular"

    def test_elimination_route(self):
        # first exponent > 1 exercises the resultant path
        assert regseq3_mod_p(2, 3, 4, 101).verdict == "Regular"

    def test_sweep_decides_3_4_7_mod_5(self):
        # the chart z = 1 gcd for (3, 4, 7) mod 5 is a product of two
        # cubics; a sweep records a verdict for it, not "undecided"
        *_, status = pipeline._run_instance(("mod-p", 3, 4, 7, 5))
        assert status != "undecided"

    GRID_PRIMES = (3, 5, 7, 11, 13, 17, 101, 1000003)
    GRID_DIGEST = ("6df8703a30b158d579b4608705deba2e"
                   "35197f436686dd44761e4cb6093570d8")

    def test_grid_verdicts_unchanged(self):
        # (instance, verdict, witness chart) for a = 2..6, a < b < c <= 13
        # and every grid prime not dividing abc; the chart z = 1 witness
        # polynomial is left out, so a change of witness within a chart
        # keeps the digest
        recs = []
        for a in range(2, 7):
            for b in range(a + 1, 14):
                for c in range(b + 1, 14):
                    for p in self.GRID_PRIMES:
                        if a * b * c % p:
                            v = regseq3_mod_p(a, b, c, p)
                            chart = v.witness and v.witness[0]
                            recs.append(((a, b, c, p), v.verdict, chart))
        assert len(recs) == 1136
        digest = hashlib.sha256(repr(recs).encode()).hexdigest()
        assert digest == self.GRID_DIGEST

    @pytest.mark.parametrize("a, b, c, p", [
        (3, 4, 5, 7), (2, 3, 5, 11), (2, 5, 7, 13), (2, 3, 7, 5),
        (2, 4, 8, 3), (2, 4, 10, 3), (2, 3, 13, 5), (2, 4, 5, 7),
        (2, 4, 8, 5)])
    def test_small_field_matches_groebner(self, a, b, c, p):
        # fields smaller than the x-degree of the y-resultants; homogeneous
        # p_a, p_b, p_c in three variables form a regular sequence iff their
        # ideal is zero-dimensional
        x, y, z = sympy.symbols("x y z")
        basis = sympy.groebner([x**e + y**e + z**e for e in (a, b, c)],
                               x, y, z, modulus=p, order="grevlex")
        expected = "Regular" if basis.is_zero_dimensional else "NotRegular"
        v = regseq3_mod_p(a, b, c, p)
        assert v.verdict == expected
        if v.witness and v.witness[0] == "chart z=1":
            # the witness is the radical of the x-elimination polynomial of
            # the chart: the x-only element of a lex basis with y > x
            lex = sympy.groebner([1 + x**e + y**e for e in (a, b, c)],
                                 y, x, modulus=p, order="lex")
            (elim,) = [g for g in lex.exprs if not g.has(y)]
            radical = sympy.Poly(elim, x, modulus=p).sqf_part().monic()
            assert v.witness[1].coeffs == \
                [int(t) % p for t in reversed(radical.all_coeffs())]


class TestCrossChecks:
    def test_pair_gcd_matches_direct_gcd(self):
        # gcd(P_3, P_5) = x(x+1) directly on the full polynomials
        g = poly_gcd(build_p(3).to_ring(QQ), build_p(5).to_ring(QQ)).monic()
        assert g == ExactPoly([0, 1, 1], QQ).monic()

    def test_zset_empty_iff_regular(self):
        for (b, c) in [(2, 3), (3, 4), (6, 10), (4, 9), (2, 9)]:
            z = pair_zset(b, c)
            v = regseq3_rational(1, b, c)
            if v.verdict == "Regular":
                assert z.is_empty and not z.has_trivial_zeros
