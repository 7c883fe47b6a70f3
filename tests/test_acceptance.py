"""Acceptance gate: one test per top-level criterion.

Each test is self-contained and asserts both the mathematical claims and the
stated time budget.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

from pscert.analytic import (bound_14_9, c_small_threshold, close_window,
                             general_bounds, isolate_segment_roots,
                             lmn3_c_max, max_modulus)
from pscert.criteria import (normal4, roots_of_unity_bruteforce,
                             roots_of_unity_case)
from pscert.exactnum import RealInterval, isqrt
from pscert.membership import (graded_membership, power_sum,
                               zerodivisor_identity_check)
from pscert.pipeline import (SweepSpec, certify_a1, replay_certificate,
                             run_sweep)
from pscert.powersum import (build_p, build_pq, pair_zset, regseq3_mod_p,
                             regseq3_rational, trivial_factor)
from pscert.unipoly import QQ, ZZ, ExactPoly, certify_irreducible, poly_gcd


def test_criterion_01_trivial_factor_law():
    start = time.monotonic()
    z = ExactPoly([0, 1], ZZ)
    z1 = ExactPoly([1, 1], ZZ)
    w = ExactPoly([1, 1, 1], ZZ)
    table = {0: ExactPoly([1], ZZ), 1: z * z1 * w * w, 2: w, 3: z * z1,
             4: w * w, 5: z * z1 * w}
    for n in range(2, 201):
        pq = build_pq(n)
        assert pq.C.to_ring(QQ) * pq.Q == pq.P.to_ring(QQ), n
        assert pq.Q.degree % 6 == 0, n
        assert trivial_factor(n) == table[n % 6], n
    assert time.monotonic() - start < 10


def test_criterion_02_pair_sweep_with_numeric_oracle():
    start = time.monotonic()
    Q = {n: build_pq(n).Q for n in range(2, 61)}
    nontrivial = [n for n in range(2, 61) if Q[n].degree > 0]
    for b in range(2, 61):
        for c in range(b + 1, 61):
            zset = pair_zset(b, c)
            assert zset.is_empty, (b, c)
            assert zset.zero_minus_one_present == ((b * c) % 2 != 0)
            assert zset.cube_roots_present == (b % 3 != 0 and c % 3 != 0)
    # independent numeric oracle on 20 random pairs: the root sets of the
    # two cofactors stay far apart, so a constant gcd is expected
    rng = random.Random(7)
    pairs = [(b, c) for b in nontrivial for c in nontrivial if b < c]
    for b, c in rng.sample(pairs, 20):
        rb = np.roots([float(x) for x in reversed(Q[b].coeffs)])
        rc = np.roots([float(x) for x in reversed(Q[c].coeffs)])
        assert min(abs(x - y) for x in rb for y in rc) > 1e-6, (b, c)
    assert time.monotonic() - start < 300


def test_criterion_03_b8_end_to_end_and_window_cases():
    start = time.monotonic()
    (root,) = isolate_segment_roots(8, target_width=Fraction(1, 10 ** 12))
    assert abs(root.t.mid - Fraction(2513228157188, 10 ** 12)) \
        < Fraction(1, 10 ** 9)
    small = c_small_threshold(max_modulus(8), 8)
    assert small.value.lo >= 2500
    big = lmn3_c_max(8)
    assert 45 * 10 ** 5 <= big.details["c_max"] <= 55 * 10 ** 5
    window = close_window(8, root, small.details["c_excluded_up_to"],
                          big.details["c_max"])
    assert window.verdict == "Satisfied"
    assert window.details["m_count"] <= 1000
    ref = Fraction(584032375784959, 10 ** 11)
    tol = Fraction(1, 10 ** 8)
    assert window.value.width < tol
    assert ref - tol < window.value.lo and window.value.hi < ref + tol
    cert = certify_a1(8)
    assert cert.conclusion["status"] == "closed"
    assert time.monotonic() - start < 60
    for b in (10, 11, 13):
        cert = certify_a1(b)
        assert cert.conclusion["status"] == "closed", b
        assert cert.conclusion["mechanism"] == "window-scan", b


def test_criterion_04_group_of_six_constant():
    t = isqrt(RealInterval(Fraction(14, 9) ** 2 - Fraction(1, 4), prec=128))
    rep = bound_14_9(t)
    assert rep.verdict == "Satisfied"
    assert Fraction(4885, 10 ** 4) < rep.value.lo
    assert rep.value.hi < Fraction(4890, 10 ** 4)


def test_criterion_05_irreducibility_certificates():
    start = time.monotonic()
    for b in range(6, 43):
        q = build_pq(b).Q
        if q.degree == 0:
            continue
        cert = certify_irreducible(q.primitive_part())
        assert cert.verdict == "Irreducible", b
    q9 = build_pq(9).Q.primitive_part()
    assert q9.degree == 6 and q9.leading() == 3
    q15 = build_pq(15).Q.primitive_part()
    assert q15.degree == 12 and q15.leading() == 15
    assert time.monotonic() - start < 120


def test_criterion_06_max_modulus_thresholds():
    for b in range(17, 43):
        assert max_modulus(b).lo >= Fraction(272, 100), b
    for b in (12, 14, 16):
        assert max_modulus(b).lo >= Fraction(383, 100), b


def test_criterion_07_finite_field_checks():
    start = time.monotonic()
    assert regseq3_mod_p(1, 6, 100, 4594399).verdict == "NotRegular"
    assert regseq3_rational(1, 6, 100).verdict == "Regular"
    assert regseq3_mod_p(1, 2, 3, 5).verdict == "Regular"
    assert time.monotonic() - start < 120


def test_criterion_08_membership_suite():
    start = time.monotonic()
    assert graded_membership(power_sum(4, 5),
                             [power_sum(4, 1), power_sum(4, 2)]).member
    assert graded_membership(power_sum(4, 5),
                             [power_sum(4, 1), power_sum(4, 3)]).member
    p2 = power_sum(3, 2)
    assert graded_membership(p2 * p2,
                             [power_sum(3, 1), power_sum(3, 4)]).member
    assert zerodivisor_identity_check().member
    assert not graded_membership(power_sum(3, 5),
                                 [power_sum(3, 2), power_sum(3, 3)]).member
    assert time.monotonic() - start < 60


def test_criterion_09_criteria_brute_force_equivalence():
    start = time.monotonic()
    for a in range(1, 13):
        for b in range(a + 1, 13):
            for case in (1, 2, 3):
                res = roots_of_unity_case(case, a, b)
                assert res.holds == roots_of_unity_bruteforce(case, a, b), \
                    (case, a, b)
                # constructive witnesses are verified exactly inside the
                # predicate; holds=True implies a witness was emitted
                assert (res.witness is not None) == res.holds
    for b in range(2, 201):
        assert normal4(1, b).holds == (b % 2 == 0), b
    assert time.monotonic() - start < 60


def test_criterion_10_general_bound_functions():
    rep = general_bounds(2, "other")
    assert rep["b_range"].details["b_strictly_below"] == 9600
    assert rep["r_lower"].details["formula"] == "exp(1/80)"
    one_even = general_bounds(2, "exactly-one-even")
    assert one_even["b_range"].details["b_strictly_below"] == 2400
    assert one_even["r_lower"].details["formula"] == "exp(1/20)"
    r = RealInterval(Fraction(105, 100), Fraction(105, 100), prec=128)
    bracket = general_bounds(2, "other", b=7, r=r)["c_bracket"]
    assert bracket.verdict == "Satisfied"
    assert bracket.details["c_max"] > 0
    doubled = general_bounds(2, "other", b=7,
                             r=r.at_prec(256), prec=256)["c_bracket"]
    assert doubled.details["c_max"] == bracket.details["c_max"]


def test_criterion_11_property_gates(tmp_path):
    # parallel determinism: 1 worker vs 8 workers, byte-identical files
    blobs = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        spec = SweepSpec("pair-a1", {"b_max": 12, "c_max": 16}, [],
                         workers=workers, outdir=str(out))
        run_sweep(spec)
        blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert blobs[0] == blobs[1]

    # verdict stability of analytic reports under precision doubling
    t1 = isqrt(RealInterval(Fraction(14, 9) ** 2 - Fraction(1, 4), prec=128))
    t2 = isqrt(RealInterval(Fraction(14, 9) ** 2 - Fraction(1, 4), prec=256))
    assert bound_14_9(t1).verdict == bound_14_9(t2).verdict
    assert lmn3_c_max(8, prec=128).verdict == lmn3_c_max(8, prec=256).verdict
    r1, r2 = max_modulus(8, prec=128), max_modulus(8, prec=256)
    assert c_small_threshold(r1, 8).verdict == c_small_threshold(r2, 8).verdict
    (root,) = isolate_segment_roots(8)
    w1 = close_window(8, root, 2920, 4947180, prec=256)
    w2 = close_window(8, root, 2920, 4947180, prec=512)
    assert w1.verdict == w2.verdict == "Satisfied"

    # certificate replay
    for b in (7, 8, 9, 10):
        cert = json.loads(certify_a1(b).json_bytes())
        assert replay_certificate(cert)["match"], b
